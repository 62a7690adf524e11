from __future__ import annotations

import gc
import random
from fractions import Fraction
from math import factorial

import pytest

from dslforge import lie
from dslforge.algebra import (
    commutator,
    concat_exp,
    concat_product,
    harmonic_product,
    is_primitive,
    star_word,
)
from dslforge.cache import get_basis
from dslforge.errors import (
    NonzeroConstant,
    NotInImage,
    NotInTM1,
    NotInTm1,
    NotPrimitive,
    PreconditionViolation,
)
from dslforge.lie import (
    FadDecomposition,
    ad_x1,
    ad_x1_inverse,
    bracket1,
    bracket_racinet,
    derive_d,
    exp_ihara1,
    fad_decompose,
    ihara1_product,
    ihara_product,
    kappa_substitute,
    tm1_inverse,
)
from dslforge.linalg import int_matrix, kernel_basis
from dslforge.lyndon import lyndon_primitive_basis
from dslforge.series import XSeries, YSeries, corner_decompose
from dslforge.spaces import ADDMR, DMR, membership_check
from dslforge.verify import random_group_shaped, random_tm1_element, random_unit_series
from dslforge.words import all_xwords, harmonic_words


def _commutator(a: XSeries, b: XSeries) -> XSeries:
    return concat_product(a, b) - concat_product(b, a)


def _random_primitive(rng: random.Random, weight: int, bound: int) -> XSeries:
    out = XSeries.zero(bound)
    for e in lyndon_primitive_basis(weight):
        c = rng.randint(-2, 2)
        if c:
            out = out + e.expansion.with_bound(bound).scale(c)
    return out


def test_derive_d_examples() -> None:
    psi = XSeries([("01", 1)], 4)
    assert derive_d(psi, XSeries.word("11", 1, 4)) == XSeries(
        [("011", 1), ("101", 1)], 4
    )
    assert derive_d(psi, XSeries.word("00", 1, 4)).is_zero()
    assert derive_d(psi, XSeries.word("01", 1, 4)) == XSeries([("001", 1)], 4)


def test_bracket1_examples() -> None:
    a = XSeries([("01", 1)], 3)
    b = XSeries([("11", 1)], 3)
    assert bracket1(a, a).is_zero()
    assert bracket1(a, b) == XSeries([("101", 1)], 3)
    with pytest.raises(NotInTm1):
        bracket1(XSeries.word("1", 1, 2), a.truncate(2))
    with pytest.raises(NotInTm1):
        bracket1(XSeries.word("00", 1, 2), a.truncate(2))


def test_checks_and_tails_read_the_terms_not_every_weight_up_to_the_bound() -> None:
    # at bound 10**6, reading one word per weight up to the bound would take
    # time quadratic in it; the results equal those of a small bound
    big = 10**6
    a = XSeries({"01": 1, "001": 2, "0101": -1}, 8)
    b = XSeries({"011": 3, "0001": 1}, 8)
    assert bracket1(a.with_bound(big), b.with_bound(big)) == bracket1(a, b).with_bound(big)
    assert star_word(a.with_bound(big)) == star_word(a).with_bound(big)
    small, large = (membership_check(DMR, s).to_json_dict() for s in (a, a.with_bound(big)))
    assert small == large
    bad = a + XSeries({"00000": 1, "000": 2}, 8)
    for s in (bad, bad.with_bound(big)):
        with pytest.raises(NotInTm1, match=r"^bracket1: coefficient of x0\^3 must vanish$"):
            bracket1(s, b.with_bound(s.weight_bound))


def test_bracket_racinet_basics() -> None:
    rng = random.Random(31)
    a = _random_primitive(rng, 2, 5)
    assert bracket_racinet(a, a).is_zero()
    assert bracket_racinet(XSeries.zero(5), a).is_zero()
    with pytest.raises(NotPrimitive):
        bracket_racinet(XSeries.word("01", 1, 3), a.truncate(3))
    with pytest.raises(NotPrimitive):
        bracket_racinet(XSeries.word("1", 1, 3), a.truncate(3))


def test_racinet_bracket_intertwined_by_ad_x1() -> None:
    rng = random.Random(37)
    for _ in range(8):
        ka = rng.randint(2, 4)
        kb = rng.randint(2, 4)
        bound = ka + kb + 1
        a = _random_primitive(rng, ka, bound)
        b = _random_primitive(rng, kb, bound)
        lhs = ad_x1(bracket_racinet(a, b))
        rhs = bracket1(ad_x1(a), ad_x1(b))
        assert lhs == rhs


def test_ad_x1_examples() -> None:
    assert ad_x1(XSeries.word("0", 1, 2)) == XSeries([("10", 1), ("01", -1)], 2)
    assert ad_x1(XSeries.word("1", 1, 2)).is_zero()
    comm = XSeries([("01", 1), ("10", -1)], 3)
    assert ad_x1(comm) == XSeries([("101", 2), ("110", -1), ("011", -1)], 3)


def test_ad_x1_image_has_zero_corner00() -> None:
    rng = random.Random(41)
    for k in range(2, 7):
        psi = _random_primitive(rng, k, k + 1)
        if psi.is_zero():
            continue
        image = ad_x1(psi)
        assert corner_decompose(image).c00.is_zero()
        assert is_primitive(image)


def test_ad_x1_inverse_round_trips() -> None:
    comm = XSeries([("01", 1), ("10", -1)], 3)
    v = ad_x1(comm)
    assert ad_x1_inverse(v) == comm.with_bound(2)
    assert ad_x1_inverse(XSeries.zero(4)).is_zero()
    # weight-4 image example
    e = lyndon_primitive_basis(3)[0].expansion.with_bound(4)  # [x0,[x0,x1]]
    assert ad_x1_inverse(ad_x1(e)) == e.with_bound(3)


def test_ad_x1_inverse_exhaustive_on_corner_free_space() -> None:
    # for weights 3..7: every primitive with zero 00-corner has a preimage,
    # computed over the compiled corner-free kernel, and round-trips exactly
    from dslforge.spaces import FAD
    from reference_systems import full_rows_kernel

    for k in range(3, 8):
        basis = full_rows_kernel(FAD, k)
        for v in basis.vectors:
            psi = ad_x1_inverse(v)
            assert ad_x1(psi.with_bound(k)) == v
            # normalization: no pure x1-power component
            assert psi.coeff("1" * (k - 1)) == 0


def test_ad_x1_inverse_rejects_nonimage() -> None:
    # x0 x1 x0 has a 00-corner, cannot be [x1, psi]
    with pytest.raises((NotInImage, NotPrimitive, PreconditionViolation)):
        ad_x1_inverse(XSeries.word("010", 1, 3))


def _lyndon_solve_inverse(v: XSeries) -> XSeries:
    """Reference inverse of bracketing with x1: at each weight n of v, an
    exact linear solve for v over the images [x1, e] of the Lyndon primitive
    basis of weight n - 1 (without x1 itself).  The images are independent,
    so the system images * x = v is read off the canonical kernel of
    [images | -v]: it is consistent exactly when that kernel's last vector
    has a nonzero last coordinate, which is then the common denominator."""
    mw = v.min_weight()
    if mw is not None and mw < 3:
        raise PreconditionViolation("ad_x1_inverse: input has weight < 3 terms")
    if not is_primitive(v):
        raise NotPrimitive("ad_x1_inverse: input is not primitive")
    if mw is not None and not corner_decompose(v).c00.is_zero():
        raise NotInImage("ad_x1_inverse: nonzero 00-corner")
    result = XSeries.zero(max(v.weight_bound - 1, 0))
    for n in sorted({len(w) for w in v.terms}):
        comp = v.component(n)
        basis = [e for e in lyndon_primitive_basis(n - 1) if e.lyndon_word != "1"]
        images = [ad_x1(e.expansion.with_bound(n)) for e in basis]
        words = sorted(all_xwords(n))
        rows = [[img.coeff(w) for img in images] + [-comp.coeff(w)] for w in words]
        kernel = kernel_basis(int_matrix(rows, len(images) + 1), len(images) + 1)
        if not kernel or not kernel[-1][-1]:
            raise NotInImage(f"ad_x1_inverse: no primitive preimage at weight {n}")
        *sol, den = kernel[-1]
        for c, e in zip(sol, basis):
            term = e.expansion.with_bound(result.weight_bound)
            result = result + term.scale(Fraction(c, den))
    return result


def _image(rng: random.Random, weights, bound: int) -> XSeries:
    """[x1, psi] for a seeded primitive psi with parts at the given weights."""
    psi = XSeries.zero(bound)
    for k in weights:
        psi = psi + _random_primitive(rng, k - 1, bound)
    return ad_x1(psi)


def test_ad_x1_inverse_matches_the_lyndon_solve_on_images() -> None:
    rng = random.Random(61)
    weights = [[n] for n in range(3, 12)] + [[3, 5], [4, 6, 7], [3, 8]]
    inputs = [_image(rng, ws, max(ws) + (len(ws) > 1)) for ws in weights]
    assert [sorted({len(w) for w in v.terms}) for v in inputs] == weights
    inputs.append(XSeries.zero(6))
    for v in inputs:
        assert corner_decompose(v).c00.is_zero()
        psi = ad_x1_inverse(v)
        assert psi == _lyndon_solve_inverse(v)
        assert ad_x1(psi.with_bound(v.weight_bound)) == v


@pytest.mark.parametrize(
    "v, error, message",
    [
        # x0x1x0: a 00-corner, and not a Lie polynomial
        (XSeries.word("010", 1, 3), NotPrimitive, "input is not primitive"),
        # [x1, x0x1] holds, but x0x1 is not primitive, and neither is v
        (XSeries([("101", 1), ("011", -1)], 3), NotPrimitive, "input is not primitive"),
        # an image at weight 4 and a lone word at weight 6
        (
            ad_x1(XSeries([("001", 1), ("010", -2), ("100", 1)], 6))
            + XSeries.word("111110", 1, 6),
            NotPrimitive,
            "input is not primitive",
        ),
        # [x0, [x0, x1]] is primitive with a nonzero 00-corner
        (XSeries([("001", 1), ("010", -2), ("100", 1)], 3), NotInImage, "nonzero 00-corner"),
    ],
    ids=["corner-word", "not-primitive", "second-weight", "checked-corner"],
)
def test_ad_x1_inverse_rejects_non_images_like_the_lyndon_solve(v, error, message) -> None:
    with pytest.raises(error) as new:
        ad_x1_inverse(v)
    with pytest.raises(error) as ref:
        _lyndon_solve_inverse(v)
    assert type(new.value) is type(ref.value) is error
    assert str(new.value) == str(ref.value) == f"ad_x1_inverse: {message}"


@pytest.mark.parametrize(
    "extra", [XSeries.word("0110", 1, 4), XSeries.word("1111", 1, 4)],
    ids=["off-by-a-word", "x1-power"],
)
def test_ad_x1_inverse_certifies_each_weight_of_the_preimage(monkeypatch, extra) -> None:
    # a weight-4 word added to the preimage of a valid image at weights 3 and
    # 5: the word off by one brackets to another weight-5 part, and the
    # x1-power brackets to 0 but is not primitive
    v = _image(random.Random(67), [3, 5], 6)
    assert sorted({len(w) for w in v.terms}) == [3, 5]
    assert ad_x1_inverse(v) == _lyndon_solve_inverse(v)
    _patch_preimage(monkeypatch, v.weight_bound, extra)
    with pytest.raises(NotInImage, match="^ad_x1_inverse: no primitive preimage at weight 5$"):
        ad_x1_inverse(v)


def test_no_reference_cycles_left_behind() -> None:
    # a cycle would hold every intermediate series until the next collection
    bound = 7
    x1 = XSeries.word("1", 1, bound)
    psi = _random_primitive(random.Random(71), 2, bound)
    psi = psi + _random_primitive(random.Random(73), 3, bound)
    member = concat_product(concat_product(concat_exp(-psi), x1), concat_exp(psi))
    non_member = x1 + XSeries([("101", 2), ("110", -1), ("011", -1)], bound)
    image = ad_x1(_random_primitive(random.Random(79), 6, bound))
    rng = random.Random(83)
    f, target = random_group_shaped(rng, 6), random_unit_series(rng, 6)
    left = YSeries([((1, 2), 1), ((3,), -2)], 6)
    right = YSeries([((2, 1), 1), ((1, 1, 1), 3)], 6)
    basis = get_basis(ADDMR, 7).vectors
    certified = basis[0] + basis[-1].scale(-2)
    calls = {
        "fad_decompose, member": lambda: fad_decompose(member).is_member,
        "fad_decompose, non-member": lambda: not fad_decompose(non_member).is_member,
        "ad_x1_inverse": lambda: not ad_x1_inverse(image).is_zero(),
        "harmonic_words": lambda: harmonic_words((1, 2, 1), (2, 1, 3)) != {},
        "harmonic_product": lambda: not harmonic_product(left, right).is_zero(),
        "kappa_substitute": lambda: not kappa_substitute(f, target).is_zero(),
        "membership_check": lambda: membership_check(ADDMR, certified).passed,
    }
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            assert call(), name
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_kappa_substitute_examples() -> None:
    f = XSeries([("01", 2)], 4)
    assert kappa_substitute(f, XSeries.word("010", 1, 4)) == XSeries([("0010", 2)], 4)
    x1 = XSeries.word("1", 1, 3)
    s = XSeries([("10", 1), ("0", 2)], 3)
    assert kappa_substitute(x1, s) == s
    f = XSeries([("11", 1)], 3)
    assert kappa_substitute(f, XSeries.word("10", 1, 3)) == XSeries([("110", 1)], 3)
    with pytest.raises(NonzeroConstant):
        kappa_substitute(XSeries.unit(3), s)


def _reference_kappa(f: XSeries, target: XSeries) -> XSeries:
    """kappa_substitute letter by letter: a product by f for each x1, a
    product by x0^run for each run of x0, skipping the words that cannot fit
    under the bound and stopping a word once its product vanishes."""
    if f.coeff("") != 0:
        raise NonzeroConstant("kappa substitution needs <f | 1> = 0")
    bound = min(f.weight_bound, target.weight_bound)
    grow = (f.min_weight() or 1) - 1
    f = f.with_bound(bound)
    out = XSeries.zero(bound)
    for w, c in target.terms.items():
        if len(w) + w.count("1") * grow > bound:
            continue
        piece = XSeries.unit(bound)
        run = 0
        ok = True
        for ch in w:
            if ch == "0":
                run += 1
                continue
            if run:
                piece = concat_product(piece, XSeries.word("0" * run, 1, bound))
                run = 0
            piece = concat_product(piece, f)
            if piece.is_zero():
                ok = False
                break
        if ok and run:
            piece = concat_product(piece, XSeries.word("0" * run, 1, bound))
        if ok and not piece.is_zero():
            out = out + piece.scale(c)
    return out


def test_kappa_substitute_matches_the_letter_by_letter_reference() -> None:
    rng = random.Random(89)
    pairs = []
    for bound in range(0, 7):
        for _ in range(4):
            group = random_group_shaped(rng, max(bound, 1))
            tm1 = random_tm1_element(rng, rng.randint(2, 4), bound + rng.randint(0, 2))
            for f in (group, tm1):
                # targets of bound 0, of the same bound, and longer than f's
                for tb in (0, bound, bound + rng.randint(1, 3)):
                    pairs.append((f, random_unit_series(rng, tb)))
    assert any(t.max_weight() > f.weight_bound for f, t in pairs)
    for f, target in pairs:
        assert kappa_substitute(f, target) == _reference_kappa(f, target)


def test_ihara_product_examples() -> None:
    one = XSeries.unit(4)
    rng = random.Random(43)
    from dslforge.verify import random_unit_series

    b = random_unit_series(rng, 4)
    assert ihara_product(one, b) == b
    assert ihara_product(b, one) == b
    a = XSeries([("", 1), ("1", 1)], 2)
    assert ihara_product(a, a) == XSeries([("", 1), ("1", 2), ("11", 1)], 2)


def test_ihara1_product_examples() -> None:
    x1 = XSeries.word("1", 1, 3)
    a = XSeries([("1", 1), ("01", 1)], 3)
    b = XSeries([("1", 1), ("10", 1)], 3)
    assert ihara1_product(x1, b) == b
    assert ihara1_product(a, x1) == a
    assert ihara1_product(a, b) == XSeries(
        [("1", 1), ("01", 1), ("10", 1), ("010", 1)], 3
    )
    with pytest.raises(NotInTM1):
        ihara1_product(XSeries.word("0", 1, 2), x1.truncate(2))


def test_tm1_inverse() -> None:
    x1 = XSeries.word("1", 1, 5)
    assert tm1_inverse(x1) == x1
    a = XSeries([("1", 1), ("01", 1)], 5)
    inv = tm1_inverse(a)
    assert inv == XSeries(
        [("1", 1), ("01", -1), ("001", 1), ("0001", -1), ("00001", 1)], 5
    )
    assert ihara1_product(a, inv) == x1
    assert ihara1_product(inv, a) == x1
    rng = random.Random(47)
    from dslforge.verify import random_group_shaped

    for _ in range(5):
        a = random_group_shaped(rng, 5)
        inv = tm1_inverse(a)
        assert ihara1_product(a, inv) == x1
        assert ihara1_product(inv, a) == x1


def test_exp_ihara1() -> None:
    assert exp_ihara1(XSeries.zero(4)) == XSeries.word("1", 1, 4)
    psi = XSeries([("01", 1)], 3)
    assert exp_ihara1(psi) == XSeries(
        [("1", 1), ("01", 1), ("001", Fraction(1, 2))], 3
    )
    # homogeneous psi of weight k contributes itself at weight k+1... n=1 term
    rng = random.Random(53)
    psi = random_tm1_element(rng, 3, 7)
    e = exp_ihara1(psi)
    assert e.component(4) == derive_d(psi, XSeries.word("1", 1, 7)).component(4)
    with pytest.raises(NotInTm1):
        exp_ihara1(XSeries.word("1", 1, 3))


def test_exp_ihara1_inverse_relation() -> None:
    rng = random.Random(59)
    x1 = XSeries.word("1", 1, 7)
    for _ in range(4):
        k = rng.randint(2, 4)
        psi = random_tm1_element(rng, k, 7)
        e = exp_ihara1(psi)
        assert e.coeff("1") == 1
        assert all(e.coeff("0" * n) == 0 for n in range(8))
        assert tm1_inverse(e) == exp_ihara1(-psi)
        assert ihara1_product(e, exp_ihara1(-psi)) == x1


def _loop_exp_ihara1(psi: XSeries) -> XSeries:
    """exp_ihara1 as one running sum rebuilt per power, each power scaled by
    1/n from the last: the loop the library used before one constructor."""
    term = acc = XSeries.word("1", 1, psi.weight_bound)
    n = 0
    while not (term := derive_d(psi, term).scale(Fraction(1, n := n + 1))).is_zero():
        acc = acc + term
    return acc


def test_exp_ihara1_matches_the_running_sum() -> None:
    rng = random.Random(67)
    for bound in range(2, 8):
        for _ in range(2):
            psi = XSeries.zero(bound)
            for k in range(2, bound + 1):
                psi = psi + random_tm1_element(rng, k, bound)
            for s in (psi, psi.scale(Fraction(rng.choice((1, 3)), rng.choice((2, 5))))):
                assert exp_ihara1(s) == _loop_exp_ihara1(s)


def test_fad_decompose_conjugation_round_trip() -> None:
    bound = 6
    psi2 = XSeries([("01", 1), ("10", -1)], bound)
    x1 = XSeries.word("1", 1, bound)
    phi = concat_product(concat_product(concat_exp(-psi2), x1), concat_exp(psi2))
    dec = fad_decompose(phi)
    assert dec.is_member
    assert dec.psi_parts == {2: psi2.truncate(2)}


def test_fad_decompose_unit() -> None:
    dec = fad_decompose(XSeries.word("1", 1, 5))
    assert dec.is_member
    assert dec.psi_parts == {}


def test_fad_decompose_rejects_unconjugatable() -> None:
    # x1 + [x1,[x0,x1]] with no higher corrections fails at weight 5
    w3 = XSeries([("101", 2), ("110", -1), ("011", -1)], 5)
    phi = XSeries.word("1", 1, 5) + w3
    dec = fad_decompose(phi)
    assert not dec.is_member
    res5 = dec.residuals[5]
    assert not res5.is_zero()
    # independent evaluation: the weight-5 obstruction is -(1/2) ad(psi2)^2(x1)
    # restricted to its 00-corner words
    psi2 = XSeries([("01", 1), ("10", -1)], 5)
    x1 = XSeries.word("1", 1, 5)
    u5 = _commutator(psi2, _commutator(psi2, x1)).scale(Fraction(1, 2))
    expected = XSeries(
        [(w, -c) for w, c in u5.terms.items() if w[0] == "0" and w[-1] == "0"], 5
    )
    assert res5 == expected
    assert res5.coeff("01110") == -1


def _compositions(total: int):
    """The ordered tuples of integers >= 2 summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(2, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _nested_ad(ms: tuple, parts: dict, memo: dict) -> XSeries:
    """ad(psi_m1) ... ad(psi_mr)(x1), memoized by composition; memo[()] is x1."""
    if ms not in memo:
        inner = _nested_ad(ms[1:], parts, memo)
        memo[ms] = _commutator(parts[ms[0]].with_bound(inner.weight_bound), inner)
    return memo[ms]


def _composition_decompose(phi: XSeries) -> FadDecomposition:
    """fad_decompose by compositions: the weight-n part of phi beyond
    [x1, psi_{n-1}] is the sum over the compositions (m1, ..., mr) of n - 1
    into parts >= 2 with r >= 2 of (-1)^r / r! ad(psi_m1) ... ad(psi_mr)(x1)."""
    bound = phi.weight_bound
    x1 = XSeries.word("1", 1, bound)
    diff = phi - x1
    parts: dict = {}
    residuals: dict = {}
    memo: dict = {(): x1}
    member = True
    for n in range(3, bound + 1):
        u_n = XSeries.zero(bound)
        for ms in _compositions(n - 1):
            if len(ms) > 1:
                sign = Fraction((-1) ** len(ms), factorial(len(ms)))
                u_n = u_n + _nested_ad(ms, parts, memo).scale(sign)
        target = diff.component(n) - u_n
        c00 = corner_decompose(target).c00
        if not c00.is_zero():
            x0 = XSeries.word("0", 1, bound)
            residuals[n] = concat_product(concat_product(x0, c00.with_bound(bound)), x0)
            member = False
            break
        residuals[n] = XSeries.zero(bound)
        parts[n - 1] = ad_x1_inverse(target.truncate(n))
    parts = {m: p for m, p in parts.items() if not p.is_zero()}
    return FadDecomposition(psi_parts=parts, residuals=residuals, is_member=member)


def test_fad_decompose_matches_the_composition_recursion() -> None:
    rng = random.Random(97)
    perturbed = 0
    for bound in range(3, 11):
        x1 = XSeries.word("1", 1, bound)
        psi = XSeries.zero(bound)
        for k in range(2, bound):
            psi = psi + _random_primitive(rng, k, bound)
        phi = concat_product(concat_product(concat_exp(-psi), x1), concat_exp(psi))
        dec = fad_decompose(phi)
        assert dec.is_member
        assert dec == _composition_decompose(phi)
        if bound > 8:
            continue
        # a primitive bump at weight n: rejected there when its 00-corner is not 0
        for n in range(3, bound + 1):
            bumped = phi + _random_primitive(rng, n, bound)
            dec = fad_decompose(bumped)
            assert dec == _composition_decompose(bumped)
            perturbed += not dec.is_member and max(dec.residuals) == n
    assert perturbed >= 15


def test_fad_decompose_precondition() -> None:
    low = "has weight < 3 terms"
    for terms, message in [
        ([("1", 1), ("01", 1)], low),  # weight-2 tail
        ([("1", 2), ("011", 1), ("101", -2), ("110", 1)], low),  # x1-coefficient 2
        ([("", 1), ("1", 1)], low),  # constant term
        ([("1", Fraction(1, 2))], low),
        ([("011", 1)], low),  # no x1
        ([("1", 1), ("011", 1)], "is not primitive"),
        ([("1", 1), ("011", Fraction(1, 3))], "is not primitive"),
    ]:
        with pytest.raises(PreconditionViolation, match=f"^fad_decompose: phi - x1 {message}$"):
            fad_decompose(XSeries(terms, 4))


def test_fad_decompose_random_round_trips() -> None:
    rng = random.Random(61)
    bound = 7
    x1 = XSeries.word("1", 1, bound)
    for _ in range(5):
        psi = XSeries.zero(bound)
        for k in (2, 3):
            psi = psi + _random_primitive(rng, k, bound)
        phi = concat_product(
            concat_product(concat_exp(-psi), x1), concat_exp(psi)
        )
        dec = fad_decompose(phi)
        assert dec.is_member
        assert dec.psi(bound) == psi


def _fraction_layer_decompose(phi: XSeries) -> FadDecomposition:
    """fad_decompose with layers[r, w] the weight-w part of ad(psi)^r(x1)/r!,
    (1/r) sum over m of [psi_m, layers[r-1, w-m]], one Fraction per
    commutator term, certified by exp(-psi) x1 exp(psi) == phi: the form the
    library used before its integer layers and one-exponential certificate."""
    bound = phi.weight_bound
    x1 = XSeries.word("1", 1, bound)
    diff = phi - x1
    psi_parts: dict = {}
    residuals: dict = {}
    member = True
    lifted: dict = {}
    layers: dict = {}
    for n in range(3, bound + 1):
        depths = range(2, (n - 1) // 2 + 1)
        for r in depths:
            layers[r, n] = XSeries(
                ((w, Fraction(c, r)) for m in range(2, n - 2 * r + 2)
                 for w, c in commutator(lifted[m], layers[r - 1, n - m]).terms.items()),
                bound,
            )
        u_n = XSeries(
            ((w, -c if r % 2 else c) for r in depths for w, c in layers[r, n].terms.items()),
            bound,
        )
        target = diff.component(n) - u_n
        c00 = corner_decompose(target).c00
        if not c00.is_zero():
            x0 = XSeries.word("0", 1, bound)
            residuals[n] = concat_product(concat_product(x0, c00.with_bound(bound)), x0)
            member = False
            break
        residuals[n] = XSeries.zero(bound)
        psi_parts[n - 1] = ad_x1_inverse(target.truncate(n))
        lifted[n - 1] = psi_parts[n - 1].with_bound(bound)
        layers[1, n] = commutator(lifted[n - 1], x1)
    psi_parts = {m: p for m, p in psi_parts.items() if not p.is_zero()}
    out = FadDecomposition(psi_parts=psi_parts, residuals=residuals, is_member=member)
    if member:
        psi = out.psi(bound)
        rebuilt = concat_product(concat_product(concat_exp(-psi), x1), concat_exp(psi))
        assert rebuilt == phi
    return out


def test_fad_decompose_matches_the_fraction_layers() -> None:
    rng = random.Random(71)
    rejected = 0
    for bound in range(3, 11):
        x1 = XSeries.word("1", 1, bound)
        for scale in (1, Fraction(rng.choice((1, 2, 3)), rng.choice((2, 3, 5)))):
            psi = XSeries.zero(bound)
            for k in range(2, bound):
                psi = psi + _random_primitive(rng, k, bound).scale(scale)
            phi = concat_product(concat_product(concat_exp(-psi), x1), concat_exp(psi))
            dec = fad_decompose(phi)
            assert dec.is_member and dec.psi(bound) == psi
            assert dec == _fraction_layer_decompose(phi)
            for n in range(3, bound + 1, 2 if bound < 9 else 3):
                bumped = phi + _random_primitive(rng, n, bound)
                dec = fad_decompose(bumped)
                assert dec == _fraction_layer_decompose(bumped)
                rejected += not dec.is_member
    assert rejected >= 15


def _graded_generator(rng: random.Random, bound: int, scales: tuple) -> XSeries:
    """A random generator of weights 2 .. bound - 1, its weight-m part scaled
    by scales[m % len(scales)]."""
    psi = XSeries.zero(bound)
    for k in range(2, bound):
        psi = psi + _random_primitive(rng, k, bound).scale(scales[k % len(scales)])
    return psi


def test_fad_decompose_matches_the_fraction_layers_when_denominators_differ_by_weight() -> None:
    # coprime denominators at different weights: the lcm D of phi - x1 mixes
    # them all, so the denominators of E's layer m are not those of D^m
    rng = random.Random(79)
    scales = (Fraction(1, 7), Fraction(2, 11), Fraction(3, 13))
    rejected = fractional = 0
    for bound in range(3, 10):
        x1 = XSeries.word("1", 1, bound)
        psi = _graded_generator(rng, bound, scales)
        phi = concat_product(concat_product(concat_exp(-psi), x1), concat_exp(psi))
        dec = fad_decompose(phi)
        assert dec.is_member and dec.psi(bound) == psi
        assert dec == _fraction_layer_decompose(phi)
        # bumps with fractional coefficients: the residuals are those Fractions
        for n in range(3, bound + 1):
            for c in (Fraction(1, 2), Fraction(-5, 9)):
                bumped = phi + _random_primitive(rng, n, bound).scale(c)
                dec = fad_decompose(bumped)
                assert dec == _fraction_layer_decompose(bumped)
                rejected += not dec.is_member
                fractional += any(
                    type(v) is Fraction for r in dec.residuals.values() for v in r.terms.values()
                )
    assert rejected >= 15 and fractional >= 15


@pytest.mark.slow
def test_fad_decompose_matches_the_fraction_layers_at_bound_12() -> None:
    bound = 12
    rng = random.Random(83)
    x1 = XSeries.word("1", 1, bound)
    psi = _graded_generator(rng, bound, (Fraction(1, 7),))
    phi = concat_product(concat_product(concat_exp(-psi), x1), concat_exp(psi))
    bumped = phi + lyndon_primitive_basis(bound)[0].expansion  # ad(x0)^11(x1)
    dec = fad_decompose(phi)
    assert dec.is_member and dec.psi(bound) == psi
    assert dec == _fraction_layer_decompose(phi)
    dec = fad_decompose(bumped)
    assert not dec.is_member and max(dec.residuals) == bound
    assert dec == _fraction_layer_decompose(bumped)


def _member_and_non_member(bound: int = 7) -> tuple[XSeries, XSeries]:
    """A conjugate phi of a random generator of weights 2 and 3, and phi plus
    ad(x0)^(bound-1)(x1), whose 00-corner rejects it at the top weight."""
    rng = random.Random(73)
    x1 = XSeries.word("1", 1, bound)
    psi = _random_primitive(rng, 2, bound) + _random_primitive(rng, 3, bound)
    phi = concat_product(concat_product(concat_exp(-psi), x1), concat_exp(psi))
    bumped = phi + lyndon_primitive_basis(bound)[0].expansion  # [x0,[x0,...,[x0,x1]]]
    assert fad_decompose(phi).is_member
    dec = fad_decompose(bumped)
    assert not dec.is_member and max(dec.residuals) == bound
    return phi, bumped


def _patch_preimage(monkeypatch, weight: int, extra: XSeries) -> None:
    """Make lie._x1_preimage add extra to its preimage of a series bounded
    at weight: a layer of fad_decompose, or the input of ad_x1_inverse."""
    right = lie._x1_preimage

    def wrong(v: XSeries) -> XSeries:
        part = right(v)
        return part + extra.with_bound(part.weight_bound) if v.weight_bound == weight else part

    monkeypatch.setattr(lie, "_x1_preimage", wrong)


@pytest.mark.parametrize("member", [True, False])
def test_lie_test_catches_an_x1_power_on_the_top_layer(monkeypatch, member) -> None:
    # the x1-power brackets back to the same right side, so the layer check
    # passes, and exp(log E) = E whatever E is: only the Lie test can tell
    bound = 7
    phi = _member_and_non_member(bound)[0 if member else 1]
    top = bound - 1 if member else bound - 2  # the last layer solved
    _patch_preimage(monkeypatch, top + 1, XSeries.word("1" * top, 1, top))
    with pytest.raises(AssertionError, match="fad_decompose: log E is not primitive"):
        fad_decompose(phi)


@pytest.mark.parametrize("member", [True, False])
def test_layer_check_catches_a_layer_off_by_a_word(monkeypatch, member) -> None:
    phi = _member_and_non_member()[0 if member else 1]
    _patch_preimage(monkeypatch, 5, XSeries.word("0110", 1, 4))
    with pytest.raises(NotInImage, match="fad_decompose: no preimage at weight 5$"):
        fad_decompose(phi)


def test_reconstruction_certificate_catches_a_wrong_generator(monkeypatch) -> None:
    # a wrong but primitive log E passes the Lie test, so only the final
    # certificate N exp(psi) = N E can tell; on a member and a non-member
    phis = _member_and_non_member()
    right = lie._power_series

    def wrong(x, coefficient):
        out = right(x, coefficient)
        k = out.weight_bound
        return out + lyndon_primitive_basis(k)[0].expansion.with_bound(k)

    monkeypatch.setattr(lie, "_power_series", wrong)
    for phi in phis:
        with pytest.raises(AssertionError, match="fad_decompose: reconstruction mismatch"):
            fad_decompose(phi)

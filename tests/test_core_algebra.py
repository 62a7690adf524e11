from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from dslforge.algebra import (
    _scaled_exp,
    _y1_tail,
    antipode,
    concat_exp,
    concat_inverse,
    concat_product,
    group_star,
    harmonic_primitivity_defect,
    harmonic_product,
    is_primitive,
    p_embed,
    q_left,
    q_right,
    q_sharp,
    q_sharp_pairing_tables,
    shuffle_primitivity_defect,
    shuffle_product,
    star_word,
)
from dslforge.errors import NonUnitConstant
from dslforge.series import TYSeries, XSeries, YSeries
from dslforge.words import all_xwords, all_ywords


def _random_xseries(rng: random.Random, bound: int, density: float = 0.3) -> XSeries:
    items = []
    for k in range(0, bound + 1):
        for w in all_xwords(k):
            if rng.random() < density:
                items.append((w, rng.randint(-3, 3)))
    return XSeries(items, bound)


def _random_yseries(rng: random.Random, bound: int, density: float = 0.3) -> YSeries:
    items = []
    for k in range(0, bound + 1):
        for w in all_ywords(k):
            if rng.random() < density:
                items.append((w, rng.randint(-3, 3)))
    return YSeries(items, bound)


def test_shuffle_product_examples() -> None:
    x0 = XSeries.word("0", 1, 2)
    x1 = XSeries.word("1", 1, 2)
    assert shuffle_product(x0, x1) == XSeries([("01", 1), ("10", 1)], 2)
    w = XSeries.word("0110", 1, 4)
    assert shuffle_product(XSeries.unit(4), w) == w
    assert shuffle_product(XSeries.word("01", 1, 3), XSeries.word("1", 1, 3)) == XSeries(
        [("011", 2), ("101", 1)], 3
    )


def test_harmonic_product_examples() -> None:
    y2 = YSeries.word((2,), 1, 5)
    y3 = YSeries.word((3,), 1, 5)
    assert harmonic_product(y2, y3) == YSeries(
        [((2, 3), 1), ((3, 2), 1), ((5,), 1)], 5
    )
    y1 = YSeries.word((1,), 1, 3)
    assert harmonic_product(y1, y1) == YSeries([((1, 1), 2), ((2,), 1)], 3)
    y11 = YSeries.word((1, 1), 1, 3)
    assert harmonic_product(y1, y11) == YSeries(
        [((1, 1, 1), 3), ((2, 1), 1), ((1, 2), 1)], 3
    )


def test_products_commutative_associative_weight8() -> None:
    rng = random.Random(11)
    for _ in range(3):
        a = _random_xseries(rng, 8, 0.12)
        b = _random_xseries(rng, 8, 0.12)
        c = _random_xseries(rng, 8, 0.12)
        assert shuffle_product(a, b) == shuffle_product(b, a)
        assert shuffle_product(shuffle_product(a, b), c) == shuffle_product(
            a, shuffle_product(b, c)
        )
    for _ in range(3):
        a = _random_yseries(rng, 8, 0.2)
        b = _random_yseries(rng, 8, 0.2)
        c = _random_yseries(rng, 8, 0.2)
        assert harmonic_product(a, b) == harmonic_product(b, a)
        assert harmonic_product(harmonic_product(a, b), c) == harmonic_product(
            a, harmonic_product(b, c)
        )


def test_concat_product_examples() -> None:
    assert concat_product(XSeries.word("0", 1, 2), XSeries.word("1", 1, 2)) == XSeries(
        [("01", 1)], 2
    )
    s = XSeries([("10", 3)], 2)
    assert concat_product(XSeries.unit(2), s) == s
    a = XSeries([("0", 1), ("1", -1)], 2)
    b = XSeries([("0", 1), ("1", 1)], 2)
    assert concat_product(a, b) == XSeries(
        [("00", 1), ("01", 1), ("10", -1), ("11", -1)], 2
    )


def test_antipode() -> None:
    assert antipode(XSeries.word("01")) == XSeries([("10", 1)], 2)
    assert antipode(XSeries.word("1")) == XSeries([("1", -1)], 1)
    assert antipode(XSeries.word("011")) == XSeries([("110", -1)], 3)


def test_antipode_involution_and_primitive_negation() -> None:
    rng = random.Random(13)
    s = _random_xseries(rng, 6)
    assert antipode(antipode(s)) == s
    # on a primitive element the antipode is negation
    from dslforge.lyndon import lyndon_primitive_basis

    for k in range(1, 6):
        for e in lyndon_primitive_basis(k):
            assert antipode(e.expansion) == -e.expansion


def test_p_embed_and_q_left() -> None:
    assert p_embed(YSeries.word((2,))) == XSeries([("10", 1)], 2)
    assert p_embed(YSeries.word((1, 1))) == XSeries([("11", 1)], 2)
    assert p_embed(YSeries.word((1, 2))) == XSeries([("110", 1)], 3)
    assert q_left(XSeries.word("10")) == YSeries([((2,), 1)], 2)
    assert q_left(XSeries.word("01")).is_zero()
    y = YSeries.word((3, 1), 1, 4)
    assert q_left(p_embed(y)) == y


def test_q_left_inverse_of_p_embed_all_words() -> None:
    for k in range(0, 7):
        for w in all_ywords(k):
            y = YSeries.word(w, 1, k)
            assert q_left(p_embed(y)) == y


def test_q_right() -> None:
    assert q_right(XSeries.word("01")) == YSeries([((2,), 1)], 2)
    assert q_right(XSeries.word("10")).is_zero()
    assert q_right(XSeries.word("011")) == YSeries([((2, 1), 1)], 3)
    assert q_right(XSeries.unit(3)).is_zero()


def test_q_sharp() -> None:
    assert q_sharp(XSeries.word("101")) == TYSeries([((0, (2,)), 1)], 3)
    assert q_sharp(XSeries.word("0101")) == TYSeries([((1, (2,)), 1)], 4)
    assert q_sharp(XSeries.word("110")).is_zero()
    assert q_sharp(XSeries.unit(3)).is_zero()


def test_q_sharp_t_layer_identity() -> None:
    # coefficient of (l-1, w) in q_sharp equals <q_right(.) | y_l w>
    rng = random.Random(17)
    s = _random_xseries(rng, 7)
    image = q_right(s)
    sharp = q_sharp(s)
    for l in range(1, 7):
        for k in range(0, 7 - l):
            for w in all_ywords(k):
                assert sharp.coeff((l - 1, w)) == image.coeff((l,) + w)


def test_q_sharp_pairing_tables_consistency() -> None:
    rng = random.Random(19)
    s = _random_xseries(rng, 6)
    table = q_sharp_pairing_tables(s)
    sharp = q_sharp(s)
    for w, layers in table.items():
        for t, c in layers.items():
            assert sharp.coeff((t, w)) == c


def test_shuffle_defect_examples() -> None:
    comm = XSeries([("01", 1), ("10", -1)], 2)
    assert shuffle_primitivity_defect(comm, 2) == []
    assert shuffle_primitivity_defect(XSeries.word("01"), 2) == [("0", "1", 1)]
    assert shuffle_primitivity_defect(XSeries.word("11"), 2) == [("1", "1", 2)]
    with pytest.raises(ValueError):
        shuffle_primitivity_defect(comm, 3)


def test_shuffle_defect_duality() -> None:
    # the defect pairing agrees with the coefficient in the word expansion
    rng = random.Random(23)
    s = _random_xseries(rng, 5)
    for k in range(2, 6):
        comp = {w: c for w, c in s.terms.items() if len(w) == k}
        for lu in range(1, k // 2 + 1):
            for u in all_xwords(lu):
                for v in all_xwords(k - lu):
                    if lu == k - lu and v < u:
                        continue
                    delta_u = XSeries.word(u, 1, k)
                    delta_v = XSeries.word(v, 1, k)
                    via_product = sum(
                        (comp.get(w, 0) * c
                         for w, c in shuffle_product(delta_u, delta_v).terms.items()),
                        Fraction(0),
                    )
                    found = [d for d in shuffle_primitivity_defect(s, k)
                             if (d[0], d[1]) == (u, v)]
                    value = found[0][2] if found else 0
                    assert value == via_product


def test_harmonic_defect_examples() -> None:
    a = YSeries([((2,), -1), ((1, 1), Fraction(1, 2))], 2)
    assert harmonic_primitivity_defect(a, 2) == []
    assert harmonic_primitivity_defect(YSeries.word((2,)), 2) == [((1,), (1,), 1)]
    assert harmonic_primitivity_defect(YSeries.word((1, 1)), 2) == [((1,), (1,), 2)]


def test_star_word_examples() -> None:
    psi = XSeries([("01", 1), ("10", -1)], 2)
    assert star_word(psi) == YSeries([((2,), -1), ((1, 1), Fraction(1, 2))], 2)
    assert star_word(XSeries.zero(4)).is_zero()
    # no depth-one tail coefficients: correction vanishes
    psi = XSeries([("11", 2), ("10", 1)], 2)
    assert star_word(psi) == q_left(psi)


def test_star_word_weight3_kernel_is_symmetric_element() -> None:
    # the weight-3 element with primitive corrected image is e1 + e2;
    # this pins the sign of the power-series correction
    e1 = XSeries([("001", 1), ("010", -2), ("100", 1)], 3)
    e2 = XSeries([("011", 1), ("101", -2), ("110", 1)], 3)
    assert harmonic_primitivity_defect(star_word(e1 + e2), 3) == []
    assert harmonic_primitivity_defect(star_word(e1 - e2), 3) != []


def test_group_star_examples() -> None:
    one = XSeries.unit(2)
    assert group_star(one) == YSeries.unit(2)
    phi = XSeries([("", 1), ("01", 3)], 2)
    assert group_star(phi) == YSeries(
        [((), 1), ((2,), 3), ((1, 1), Fraction(3, 2))], 2
    )
    phi = XSeries([("", 1), ("1", 1)], 2)
    assert group_star(phi) == YSeries([((), 1), ((1,), 1)], 2)
    with pytest.raises(NonUnitConstant):
        group_star(XSeries.word("1", 1, 2))


def test_is_primitive() -> None:
    comm = XSeries([("01", 1), ("10", -1)], 2)
    assert is_primitive(comm)
    assert not is_primitive(XSeries.word("01"))
    assert not is_primitive(XSeries.unit(2))


def test_concat_inverse_and_exp() -> None:
    rng = random.Random(29)
    items = [("", 1)] + [
        (w, rng.randint(-2, 2)) for k in range(1, 5) for w in all_xwords(k)
    ]
    a = XSeries(items, 4)
    assert concat_product(a, concat_inverse(a)) == XSeries.unit(4)
    assert concat_product(concat_inverse(a), a) == XSeries.unit(4)
    s = XSeries([("01", 1), ("10", -1)], 6)
    e = concat_exp(s)
    assert e.coeff("") == 1
    assert concat_product(concat_exp(-s), e) == XSeries.unit(6)


def _loop_power_series(x, exponential: bool):
    """The incremental power series loop the library used before it summed
    all powers in one constructor: 1 + sum over n >= 1 of x^n (over n! when
    exponential), one running sum rebuilt per power."""
    result = power = type(x).unit(x.weight_bound)
    n = 0
    while not (power := concat_product(power, x)).is_zero():
        n += 1
        result = result + (power.scale(Fraction(1, factorial(n))) if exponential else power)
    return result


def _no_constant(s):
    return type(s)(((w, c) for w, c in s.terms.items() if w), s.weight_bound)


def test_power_series_match_the_incremental_loop() -> None:
    rng = random.Random(101)
    for bound in range(0, 8):
        for density in (0.2, 0.6):
            x = _no_constant(_random_xseries(rng, bound, density))
            rational = x.scale(Fraction(rng.choice((1, 2, 5)), rng.choice((1, 3, 4))))
            y = _no_constant(_random_yseries(rng, bound, density))
            for s in (x, rational, y, -x, XSeries.zero(bound)):
                e = concat_exp(s)
                assert e == _loop_power_series(s, exponential=True)
                big, scaled = _scaled_exp(s)
                assert scaled == e.scale(big)
                assert all(type(c) is int for c in scaled.terms.values()) or s is rational
            a = XSeries.unit(bound) - x
            assert concat_inverse(a) == _loop_power_series(x, exponential=False)
            phi = XSeries.unit(bound) + rational
            gamma = _loop_power_series(_y1_tail(phi), exponential=True)
            assert group_star(phi) == concat_product(gamma, q_right(phi) + YSeries.unit(bound))

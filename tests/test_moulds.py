from __future__ import annotations

import random
from fractions import Fraction

import pytest
from reference_systems import random_series

from dslforge.errors import NonzeroLowWeight
from dslforge.moulds import (
    MultiPoly,
    check_corner_identity,
    check_deriv_explicit,
    check_parity_identity,
    ma_mi_extract,
    vimo_extract,
)
from dslforge.series import XSeries, corner_decompose
from dslforge.words import xdepth


def test_multipoly_arithmetic() -> None:
    p = MultiPoly(2, [((1, 0), 1), ((0, 1), 2)])
    q = MultiPoly(2, [((1, 0), -1)])
    assert (p + q) == MultiPoly(2, [((0, 1), 2)])
    assert (p - p).is_zero()
    prod = p * p
    assert prod.terms[(2, 0)] == 1
    assert prod.terms[(1, 1)] == 4
    assert prod.terms[(0, 2)] == 4
    assert p.scale(Fraction(1, 2)).terms[(0, 1)] == 1


def test_multipoly_eval_and_subst() -> None:
    p = MultiPoly(2, [((1, 1), 1)])
    # u0 -> x0, u1 -> x0: exponents add
    assert p.eval_at([0, 0], 1) == MultiPoly(1, [((2,), 1)])
    # u0 -> 0 kills terms with positive exponent
    assert p.eval_at([None, 0], 1).is_zero()
    # substitution by a sum of variables
    q = MultiPoly(1, [((2,), 1)]).eval_at([(0, 1)], 2)
    assert q == MultiPoly(2, [((2, 0), 1), ((1, 1), 2), ((0, 2), 1)])


def test_multipoly_json_round_trip() -> None:
    p = MultiPoly(3, [((0, 1, 2), Fraction(-1, 3))])
    data = p.to_json_dict()
    assert data["vars"] == 3
    assert MultiPoly.from_json_dict(data) == p


def test_multipoly_json_rejects_inexact_or_missing_coefficients() -> None:
    exact = {"vars": 1, "terms": [{"exp": [1], "coeff": "1/10"}, {"exp": [2], "coeff": 3}]}
    assert MultiPoly.from_json_dict(exact) == MultiPoly(
        1, [((1,), Fraction(1, 10)), ((2,), 3)]
    )
    for term in ({"exp": [1], "coeff": 0.1}, {"exp": [1], "coeff": 2.0}, {"exp": [1]},
                 {"exp": [1], "coeff": None}, {"exp": [1], "coeff": "1/0"}):
        with pytest.raises(ValueError):
            MultiPoly.from_json_dict({"vars": 1, "terms": [term]})


@pytest.mark.parametrize(
    "data",
    [
        # repeated exponents would sum to the zero polynomial
        {"vars": 1, "terms": [{"exp": [1], "coeff": "1"}, {"exp": [1], "coeff": "-1"}]},
        {"vars": 2.9, "terms": [{"exp": [1, 0], "coeff": 1}]},
        {"vars": "2", "terms": [{"exp": [1, 0], "coeff": 1}]},
        {"vars": 1, "terms": [{"exp": [-1], "coeff": 1}]},
        {"vars": 1, "terms": [{"exp": [True], "coeff": 1}]},
        {"vars": 1, "terms": [{"exp": ["5"], "coeff": 1}]},
        [{"exp": [1], "coeff": 1}],
        {"vars": 1, "terms": 5},
    ],
    ids=["repeated-exp", "vars-float", "vars-str", "exp-negative", "exp-bool",
         "exp-str", "list-not-object", "terms-int"],
)
def test_multipoly_json_rejects_malformed_files(data) -> None:
    with pytest.raises(ValueError):
        MultiPoly.from_json_dict(data)


def test_multipoly_rejects_inexact_coefficients() -> None:
    with pytest.raises(TypeError):
        MultiPoly(1, [((1,), 0.1)])
    with pytest.raises(TypeError):
        MultiPoly(1, [((1,), 1)]).scale(0.5)
    assert MultiPoly(1, [((1,), "1/10")]).scale(Fraction(1, 2)) == MultiPoly(
        1, [((1,), Fraction(1, 20))]
    )


def test_vimo_examples() -> None:
    assert vimo_extract(XSeries.word("01"), 1) == MultiPoly(2, [((0, 1), 1)])
    assert vimo_extract(XSeries.word("10"), 1) == MultiPoly(2, [((1, 0), 1)])
    comm = XSeries([("01", 1), ("10", -1)], 2)
    assert vimo_extract(comm, 1) == MultiPoly(2, [((0, 1), 1), ((1, 0), -1)])
    # depth-2 reading of x1x0x1: middle run maps to the middle variable
    assert vimo_extract(XSeries.word("101"), 2) == MultiPoly(3, [((0, 1, 0), 1)])


def test_vimo_injective_per_weight_and_depth() -> None:
    rng = random.Random(73)
    s = random_series(rng, 6)
    for depth in range(0, 7):
        poly = vimo_extract(s, depth)
        # reconstruct the depth component from the polynomial
        rebuilt = {}
        for exp, c in poly.terms.items():
            runs = list(reversed(exp))
            word = "0" * runs[0]
            for r in runs[1:]:
                word += "1" + "0" * r
            rebuilt[word] = c
        component = {w: c for w, c in s.terms.items() if xdepth(w) == depth}
        assert rebuilt == component


def test_ma_mi_examples() -> None:
    ma, mi = ma_mi_extract(XSeries.word("01"), 1)
    assert ma == MultiPoly(1, [((1,), 1)])
    assert mi == MultiPoly(1, [((1,), 1)])
    ma, mi = ma_mi_extract(XSeries.word("10"), 1)
    assert ma.is_zero() and mi.is_zero()
    # depth-2 reading of x1x0x1 under both substitutions
    ma, mi = ma_mi_extract(XSeries.word("101"), 2)
    assert mi == MultiPoly(2, [((1, 0), 1)])
    assert ma == MultiPoly(2, [((1, 0), 1)])


def _subst(p: MultiPoly, assignments: list, nvars_out: int) -> MultiPoly:
    """General substitution by polynomial multiplication: variable i is
    replaced by assignments[i]."""
    total = MultiPoly.zero(nvars_out)
    for exp, c in p.terms.items():
        term = MultiPoly(nvars_out, [((0,) * nvars_out, c)])
        for i, e in enumerate(exp):
            for _ in range(e):
                term = term * assignments[i]
        total = total + term
    return total


@pytest.mark.parametrize("depth", range(1, 6))
def test_ma_is_the_substitution_by_prefix_sums(depth) -> None:
    rng = random.Random(depth)
    prefix_sums, acc = [], MultiPoly.zero(depth)
    for i in range(depth):
        acc = acc + MultiPoly.variable(depth, i)
        prefix_sums.append(acc)
    for _ in range(4):
        s = random_series(rng, depth + 4, min_weight=depth).scale(Fraction(-5, 3))
        v = vimo_extract(s, depth)
        assert not v.is_zero()
        ma, mi = ma_mi_extract(s, depth)
        assert ma == _subst(v, [MultiPoly.zero(depth)] + prefix_sums, depth)
        assert mi == _subst(v, [MultiPoly.zero(depth)] + [
            MultiPoly.variable(depth, i) for i in range(depth)], depth)


def test_deriv_explicit_examples() -> None:
    x1 = XSeries.word("1", 1, 4)
    assert check_deriv_explicit(x1, x1, 1).passed
    assert check_deriv_explicit(XSeries.word("01", 1, 4), x1, 1).passed
    assert check_deriv_explicit(XSeries.zero(4), x1, 1).passed


def _drop_depth_zero(s: XSeries) -> XSeries:
    return XSeries(
        ((w, c) for w, c in s.terms.items() if "1" in w), s.weight_bound
    )


def test_deriv_explicit_random() -> None:
    rng = random.Random(79)
    for _ in range(10):
        a = _drop_depth_zero(random_series(rng, 4, min_weight=1))
        b = random_series(rng, 4, min_weight=1)
        total = 8
        for depth in range(0, total + 1):
            rep = check_deriv_explicit(a.with_bound(total), b.with_bound(total), depth)
            assert rep.passed, (depth, rep.witnesses)


def test_corner_identity_examples() -> None:
    comm3 = XSeries([("101", 2), ("110", -1), ("011", -1)], 3)
    rep = check_corner_identity(comm3, 2)
    assert rep.passed and rep.parameters["corner00_zero"]
    rep = check_corner_identity(XSeries.word("010"), 1)
    assert rep.passed and not rep.parameters["corner00_zero"]
    rep = check_corner_identity(XSeries.zero(3), 1)
    assert rep.passed
    with pytest.raises(NonzeroLowWeight):
        check_corner_identity(XSeries.word("1", 1, 2), 1)


def test_corner_identity_both_directions_random() -> None:
    rng = random.Random(83)
    for trial in range(40):
        s = random_series(rng, 6)
        if trial % 2 == 0:
            # remove the 00-corner to exercise the holds-direction
            dec = corner_decompose(s)
            parts = [(("0" + w + "0"), -c) for w, c in dec.c00.terms.items()]
            s = s + XSeries(parts, s.weight_bound)
        for depth in range(1, 6):
            assert check_corner_identity(s, depth).passed


def test_parity_identity_examples() -> None:
    from dslforge.spaces import ADDMR_FAD_PARITY
    from reference_systems import full_rows_kernel

    gen4 = full_rows_kernel(ADDMR_FAD_PARITY, 4).vectors[0]
    for depth in (1, 2, 3):
        rep = check_parity_identity(gen4, depth)
        assert rep.passed, rep.witnesses
    rep = check_parity_identity(XSeries.word("111"), 2)
    assert not rep.passed
    assert check_parity_identity(XSeries.zero(4), 2).passed


def test_parity_identity_matches_corner_condition() -> None:
    # base identity at depth r holds exactly when the strong-parity rows
    # vanish on middle words of depth r-1
    rng = random.Random(89)
    for _ in range(10):
        s = random_series(rng, 5)
        dec = corner_decompose(s)
        parity = dec.c11 + dec.c10 + dec.c01
        for depth in range(1, 5):
            rep = check_parity_identity(s, depth)
            expected = all(xdepth(w) != depth - 1 for w in parity.terms)
            assert rep.passed == expected

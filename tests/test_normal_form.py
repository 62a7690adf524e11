"""The coefficient normal form of the series and polynomial classes: an int
when the value is integral, a Fraction only when its denominator is above 1,
never zero.  coeff() reads a Fraction in every case."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslforge.algebra import concat_product, harmonic_product, shuffle_product
from dslforge.moulds import MultiPoly
from dslforge.series import TYSeries, XSeries, YSeries

# integers, bools, proper fractions, integral Fractions and "p/q" strings
coeffs = st.one_of(
    st.integers(-4, 4),
    st.booleans(),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(str),
)
bounds = st.integers(0, 6)
xwords = st.text("01", max_size=5)
ywords = st.lists(st.integers(1, 3), max_size=3).map(tuple)
tkeys = st.tuples(st.integers(0, 2), ywords)


def _series(cls, keys):
    return st.builds(cls, st.lists(st.tuples(keys, coeffs), max_size=8), bounds)


def _is_normal(c) -> bool:
    if type(c) is int:
        return c != 0
    return type(c) is Fraction and c.denominator > 1


def _check(s) -> None:
    assert all(_is_normal(c) for c in s.terms.values()), s.terms
    for key in s.terms:
        assert type(s.coeff(key)) is Fraction
        assert s.coeff(key) == s.terms[key]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just(XSeries), _series(XSeries, xwords), _series(XSeries, xwords)),
        st.tuples(st.just(YSeries), _series(YSeries, ywords), _series(YSeries, ywords)),
        st.tuples(st.just(TYSeries), _series(TYSeries, tkeys), _series(TYSeries, tkeys)),
    ),
    coeffs,
)
def test_every_operation_keeps_the_normal_form(operands, c) -> None:
    cls, a, b = operands
    results = [a, b, a + b, a - b, -a, a.scale(c), c * b, a.component(2), a.truncate(3),
               cls.from_json_dict(a.to_json_dict())]
    if cls is not TYSeries:
        results.append(concat_product(a, b))
    if cls is XSeries:
        results.append(shuffle_product(a, b))
    if cls is YSeries:
        results.append(harmonic_product(a, b))
    for s in results:
        _check(s)
    assert cls.from_json_dict(a.to_json_dict()) == a


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs), max_size=6),
    st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs), max_size=6),
    coeffs,
)
def test_multipoly_keeps_the_normal_form(p_items, q_items, c) -> None:
    p, q = MultiPoly(2, p_items), MultiPoly(2, q_items)
    for r in (p, q, p + q, p - q, p * q, p.scale(c), MultiPoly.from_json_dict(p.to_json_dict())):
        assert all(_is_normal(v) for v in r.terms.values()), r.terms
    assert MultiPoly.from_json_dict(p.to_json_dict()) == p


def test_integral_values_are_stored_as_ints() -> None:
    s = XSeries([("0", Fraction(4, 2)), ("1", Fraction(1, 2)), ("1", Fraction(1, 2)),
                 ("01", "6/3"), ("10", Fraction(1, 3))], 2)
    assert s.terms == {"0": 2, "1": 1, "01": 2, "10": Fraction(1, 3)}
    assert [type(c) for c in s.terms.values()] == [int, int, int, Fraction]
    assert s.scale(3).terms["10"] == 1 and type(s.scale(3).terms["10"]) is int
    assert repr(s) == repr(XSeries({w: Fraction(c) for w, c in s.terms.items()}, 2))
    data = s.to_json_dict()
    assert {"word": "01", "coeff": "2"} in data["terms"]
    assert {"word": "10", "coeff": "1/3"} in data["terms"]


def test_coeff_returns_a_fraction_also_for_a_missing_word() -> None:
    s = XSeries([("01", 3)], 2)
    for series, key in ((s, "01"), (s, "10"), (YSeries.zero(2), (1,)),
                        (TYSeries.zero(2), (0, ()))):
        assert type(series.coeff(key)) is Fraction
    assert s.coeff("01") / s.coeff("01") == 1  # exact division, not a float


def test_bool_coefficients_read_as_0_and_1() -> None:
    s = XSeries([("01", True), ("10", False)], 2)
    assert s.terms == {"01": 1} and type(s.terms["01"]) is int
    assert s.scale(True) == s
    assert s.scale(False).is_zero()


@pytest.mark.parametrize("bad", [0.5, 1.0, Decimal("1"), 1 + 0j])
@pytest.mark.parametrize("cls,key", [(XSeries, "01"), (YSeries, (2, 1)), (TYSeries, (0, (2,)))])
def test_inexact_coefficients_are_rejected(cls, key, bad) -> None:
    with pytest.raises(TypeError):
        cls([(key, bad)], 4)
    with pytest.raises(TypeError):
        cls([(key, 1)], 4).scale(bad)
    data = cls([(key, 1)], 4).to_json_dict()
    data["terms"][0]["coeff"] = bad
    with pytest.raises(ValueError):
        cls.from_json_dict(data)


@pytest.mark.parametrize("bad", [0.5, Decimal("1"), 1 + 0j])
def test_multipoly_rejects_inexact_coefficients(bad) -> None:
    with pytest.raises(TypeError):
        MultiPoly(1, [((1,), bad)])
    with pytest.raises(TypeError):
        MultiPoly.variable(1, 0).scale(bad)
    with pytest.raises(ValueError):
        MultiPoly.from_json_dict({"vars": 1, "terms": [{"exp": [1], "coeff": bad}]})

"""The shared mechanisms against independent references: the pair
enumeration against the triple loop it replaced, the products and sums that
accumulate in the constructors against naive dict sums, and the capped
star-harmonic scan of membership_check."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dslforge import algebra
from dslforge.algebra import (
    concat_product,
    harmonic_primitivity_defect,
    harmonic_product,
    shuffle_product,
    star_word,
)
from dslforge.lie import derive_d
from dslforge.lyndon import lyndon_primitive_basis
from dslforge.moulds import MultiPoly
from dslforge.series import XSeries, YSeries
from dslforge.spaces import DMR, membership_check
from dslforge.words import all_xwords, all_ywords, word_pairs


def _triple_loop(k: int, words) -> list:
    """The pair enumeration as it was written at each call site."""
    out = []
    for wu in range(1, k // 2 + 1):
        for u in words(wu):
            for v in words(k - wu):
                if wu == k - wu and v < u:
                    continue
                out.append((u, v))
    return out


def test_word_pairs_matches_the_triple_loop() -> None:
    for words in (all_xwords, all_ywords):
        for k in range(0, 10):
            assert list(word_pairs(k, words)) == _triple_loop(k, words)


# ---- naive references ------------------------------------------------------


def _naive_sum(pairs) -> dict:
    out: dict = {}
    for w, c in pairs:
        out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c != 0}


def _naive_shuffle(u, v) -> list:
    if not u or not v:
        return [u + v]
    return [u[:1] + w for w in _naive_shuffle(u[1:], v)] + [
        v[:1] + w for w in _naive_shuffle(u, v[1:])
    ]


def _naive_harmonic(u, v) -> list:
    if not u or not v:
        return [u + v]
    return (
        [u[:1] + w for w in _naive_harmonic(u[1:], v)]
        + [v[:1] + w for w in _naive_harmonic(u, v[1:])]
        + [(u[0] + v[0],) + w for w in _naive_harmonic(u[1:], v[1:])]
    )


def _naive_product(a, b, weight, expand) -> dict:
    bound = min(a.weight_bound, b.weight_bound)
    return _naive_sum(
        (w, cu * cv)
        for u, cu in a.terms.items()
        for v, cv in b.terms.items()
        for w in expand(u, v)
        if weight(w) <= bound
    )


def _naive_derive(psi: XSeries, target: XSeries) -> dict:
    bound = min(psi.weight_bound, target.weight_bound)
    return _naive_sum(
        (w[:i] + p + w[i + 1 :], cw * cp)
        for w, cw in target.terms.items()
        for i in range(len(w))
        if w[i] == "1"
        for p, cp in psi.terms.items()
        if len(w) - 1 + len(p) <= bound
    )


# ---- strategies --------------------------------------------------------------

_coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _xwords(bound: int):
    return st.integers(0, bound).flatmap(
        lambda n: st.text("01", min_size=n, max_size=n)
    )


def _ywords(bound: int):
    return st.lists(st.integers(1, 3), max_size=bound).filter(
        lambda w: sum(w) <= bound
    ).map(tuple)


@st.composite
def _pairs(draw, cls, words):
    """Two series; half the time the second also holds the first's words
    negated, so sums and products cancel."""
    a_bound, b_bound = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a = cls(draw(st.lists(st.tuples(words(a_bound), _coeffs), max_size=6)), a_bound)
    items = draw(st.lists(st.tuples(words(b_bound), _coeffs), max_size=6))
    if draw(st.booleans()):
        items += [(w, -c) for w, c in a.terms.items()]
    return a, cls(items, b_bound)


def _check(result, ref: dict, bound: int) -> None:
    assert result.terms == ref
    assert all(c != 0 for c in result.terms.values())
    assert result.weight_bound == bound


# the empty word and a word of length equal to the bound; "" "01" cancels
# "0" "1" in the concatenation, and so does x1 -> "" in "1" with x1 -> "0" in "01"
_EDGE = (XSeries([("", 1), ("0", 1)], 2), XSeries([("1", 1), ("01", -1)], 2))


@settings(max_examples=150, deadline=None)
@given(_pairs(XSeries, _xwords))
@example(_EDGE)
def test_x_products_derive_and_sum_match_naive_references(pair) -> None:
    a, b = pair
    bound = min(a.weight_bound, b.weight_bound)
    _check(shuffle_product(a, b), _naive_product(a, b, len, _naive_shuffle), bound)
    _check(concat_product(a, b), _naive_product(a, b, len, lambda u, v: [u + v]), bound)
    _check(derive_d(a, b), _naive_derive(a, b), bound)
    _check(
        a + b,
        _naive_sum((w, c) for s in (a, b) for w, c in s.terms.items() if len(w) <= bound),
        bound,
    )


@settings(max_examples=150, deadline=None)
@given(_pairs(YSeries, _ywords))
@example((YSeries([((), 1), ((1, 1), 1)], 2), YSeries([((), -1), ((2,), 1)], 2)))
def test_y_products_and_sum_match_naive_references(pair) -> None:
    a, b = pair
    bound = min(a.weight_bound, b.weight_bound)
    _check(harmonic_product(a, b), _naive_product(a, b, sum, _naive_harmonic), bound)
    _check(concat_product(a, b), _naive_product(a, b, sum, lambda u, v: [u + v]), bound)
    _check(
        a + b,
        _naive_sum((w, c) for s in (a, b) for w, c in s.terms.items() if sum(w) <= bound),
        bound,
    )


_exps = st.tuples(st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_exps, _coeffs), max_size=5),
    st.lists(st.tuples(_exps, _coeffs), max_size=5),
)
@example([((0, 0), 1), ((1, 0), 1)], [((1, 0), 1), ((0, 0), -1)])
def test_multipoly_product_matches_naive_reference(p_items, q_items) -> None:
    p, q = MultiPoly(2, p_items), MultiPoly(2, q_items)
    ref = _naive_sum(
        ((e1[0] + e2[0], e1[1] + e2[1]), c1 * c2)
        for e1, c1 in p.terms.items()
        for e2, c2 in q.terms.items()
    )
    product = p * q
    assert product.terms == ref
    assert all(c != 0 for c in product.terms.values())


# ---- the capped star-harmonic scan ---------------------------------------------


def test_star_harmonic_violations_are_the_scan_prefix_and_stop_early(monkeypatch) -> None:
    rng = random.Random(5)
    s = XSeries.zero(8)
    for e in lyndon_primitive_basis(8):
        s = s + e.expansion.scale(rng.randint(-2, 2))
    star = star_word(s)
    codes = {algebra._ycode(w): c for w, c in star.component(8).terms.items()}
    calls = []
    real = algebra.harmonic_words
    monkeypatch.setattr(
        algebra, "harmonic_words", lambda *a: calls.append(1) or real(*a)
    )
    full = harmonic_primitivity_defect(star, 8)
    full_calls = len(calls)
    assert len(full) > 10
    for limit in (0, 1, 10):
        calls.clear()
        assert list(islice(algebra._code_defects(codes, 8), limit)) == full[:limit]
        assert len(calls) < full_calls
    calls.clear()
    rep = membership_check(DMR, s)
    assert rep.violations == [
        {"weight": 8, "condition": "star-harmonic",
         "detail": {"u": list(u), "v": list(v), "value": str(val)}}
        for u, v, val in full[:10]
    ]
    assert len(calls) < full_calls

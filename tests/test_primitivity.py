"""The Lie test by triangular reduction, checked against the pairing scan."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from dslforge import algebra
from dslforge.algebra import is_primitive, shuffle_primitivity_defect
from dslforge.lyndon import _expand, lyndon_words
from dslforge.series import XSeries
from dslforge.spaces import ADDMR, DMR, FAD, membership_check
from dslforge.words import all_xwords


def test_lyndon_bracketing_is_unitriangular() -> None:
    for k in range(1, 13):
        for w in lyndon_words(k):
            terms = _expand(w).terms
            assert min(terms) == w
            assert terms[w] == 1


_fractions = st.builds(
    Fraction,
    st.integers(-5, 5).filter(bool),
    st.integers(1, 4),
)


@st.composite
def _components(draw):
    """A weight-k component: a Fraction combination of Lyndon bracketings,
    with or without one random word added."""
    k = draw(st.integers(2, 8))
    terms: dict = {}
    for w in lyndon_words(k):
        c = draw(st.one_of(st.just(Fraction(0)), _fractions))
        for u, cu in _expand(w).terms.items():
            terms[u] = terms.get(u, 0) + c * cu
    if draw(st.booleans()):
        word = "".join(draw(st.lists(st.sampled_from("01"), min_size=k, max_size=k)))
        terms[word] = terms.get(word, 0) + draw(_fractions)
    return k, {w: c for w, c in terms.items() if c}


@settings(max_examples=60, deadline=None)
@given(_components())
def test_lie_test_agrees_with_pairing_scan(case) -> None:
    k, comp = case
    scan = list(algebra._pairing_scan(comp, k))
    assert algebra._is_lie_component(comp) == (scan == [])
    s = XSeries(comp, k)
    assert shuffle_primitivity_defect(s, k) == scan
    assert is_primitive(s) == (scan == [])


def test_membership_primitive_violations_are_the_scan_prefix() -> None:
    rng = random.Random(7)
    cases = [XSeries.word("01", 1, 2), XSeries([("0101", 1), ("0011", -2)], 4)]
    for k in (5, 7):
        words = list(all_xwords(k))
        cases.append(XSeries([(rng.choice(words), rng.randint(1, 3)) for _ in range(6)], k))
    for s in cases:
        scan = [
            {"weight": k, "condition": "primitive",
             "detail": {"u": u, "v": v, "value": str(val)}}
            for k in sorted({len(w) for w in s.terms})
            for u, v, val in algebra._pairing_scan(
                {w: c for w, c in s.terms.items() if len(w) == k}, k
            )
        ]
        assert scan
        for space in (DMR, ADDMR, FAD):
            rep = membership_check(space, s)
            got = [v for v in rep.violations if v["condition"] == "primitive"]
            assert got == scan[:10]


def test_weights_zero_and_one_unchanged() -> None:
    low = XSeries([("", 3), ("0", 2), ("1", Fraction(-1, 2))], 3)
    assert shuffle_primitivity_defect(low, 0) == []
    assert shuffle_primitivity_defect(low, 1) == []
    assert not is_primitive(low)
    assert is_primitive(XSeries([("0", 2), ("1", Fraction(-1, 2))], 3))
    assert is_primitive(XSeries.word("1", 1, 1))
    assert not is_primitive(XSeries.unit(1))
    assert is_primitive(XSeries((), 0))


def test_limited_defect_list_is_the_scan_prefix_and_stops_early(monkeypatch) -> None:
    rng = random.Random(3)
    words = list(all_xwords(8))
    s = XSeries([(rng.choice(words), rng.randint(1, 3)) for _ in range(5)], 8)
    calls = []
    real = algebra.shuffle_pairing
    monkeypatch.setattr(
        algebra, "shuffle_pairing", lambda *a: calls.append(1) or real(*a)
    )
    full = shuffle_primitivity_defect(s, 8)
    full_calls = len(calls)
    assert len(full) > 10
    for limit in (0, 1, 10):
        calls.clear()
        assert list(islice(algebra._shuffle_defects(s, 8), limit)) == full[:limit]
        assert len(calls) < full_calls

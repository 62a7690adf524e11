"""The Lie test by triangular reduction, checked against the pairing scan."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslforge import algebra
from dslforge.algebra import is_primitive, shuffle_primitivity_defect
from dslforge.lyndon import _expand, bracketing, lyndon_words
from dslforge.series import XSeries
from dslforge.spaces import ADDMR, DMR, FAD, membership_check
from dslforge.words import all_xwords, all_ywords, harmonic_words, shuffle_words, word_pairs


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
    scan = list(algebra._pair_scan(comp, k, all_xwords, shuffle_words))
    assert algebra._is_lie_component(comp, k) == (scan == [])
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
            for u, v, val in algebra._pair_scan(
                {w: c for w, c in s.terms.items() if len(w) == k}, k, all_xwords, shuffle_words
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
    real = algebra.shuffle_words
    monkeypatch.setattr(
        algebra, "shuffle_words", lambda *a: calls.append(1) or real(*a)
    )
    full = shuffle_primitivity_defect(s, 8)
    full_calls = len(calls)
    assert len(full) > 10
    for limit in (0, 1, 10):
        calls.clear()
        comp = s.component(8).terms
        assert list(islice(algebra._shuffle_defects(comp, 8), limit)) == full[:limit]
        assert len(calls) < full_calls


def _fraction_lie_reference(comp: dict) -> bool:
    """Triangular reduction against the bracketings in Fraction arithmetic,
    on the component as given."""
    rest = {w: Fraction(c) for w, c in comp.items()}
    while rest:
        w = min(rest)
        if any(w >= w[i:] for i in range(1, len(w))):
            return False
        c = rest[w]
        for u, cu in bracketing(w).items():
            acc = rest.get(u, Fraction(0)) - c * cu
            if acc:
                rest[u] = acc
            else:
                rest.pop(u, None)
    return True


@pytest.mark.parametrize("k", range(2, 13))
def test_integer_lie_test_agrees_with_the_fraction_reduction(k) -> None:
    rng = random.Random(k)
    coeffs = [Fraction(n, d) for n, d in ((1, 2), (-2, 3), (3, 7), (5, 42), (-7, 6))]
    words = list(all_xwords(k))
    lyndon = lyndon_words(k)
    assert algebra._is_lie_component({}, k) and _fraction_lie_reference({})
    # a non-Lie component whose smallest word is not Lyndon
    cases = [{"0" * (k - 2) + "10": rng.choice(coeffs), "1" * k: rng.choice(coeffs)}]
    for _ in range(4):
        comp: dict = {}
        for w in rng.sample(lyndon, min(len(lyndon), 40)):
            c = rng.choice(coeffs)
            for u, cu in bracketing(w).items():
                comp[u] = comp.get(u, 0) + c * cu
        comp = {w: c for w, c in comp.items() if c}
        assert {c.denominator for c in comp.values()} - {1}
        cases.append(comp)
        # perturbed at a random word, at the smallest and at the largest word
        for word in (rng.choice(words), words[0], words[-1]):
            perturbed = dict(comp)
            perturbed[word] = perturbed.get(word, 0) + rng.choice(coeffs)
            cases.append({w: c for w, c in perturbed.items() if c})
    verdicts = []
    for case in cases:
        verdict = algebra._is_lie_component(case, k)
        assert verdict == _fraction_lie_reference(case)
        verdicts.append(verdict)
    assert verdicts == [False] + [True, False, False, False] * 4


def test_is_primitive_generates_lyndon_words_only_for_nonempty_weights(monkeypatch) -> None:
    seen = []
    real = algebra.lyndon_words
    monkeypatch.setattr(algebra, "lyndon_words", lambda k: seen.append(k) or real(k))
    lie = XSeries(bracketing("0011"), 9) + XSeries(bracketing("00101"), 9)
    assert is_primitive(lie)
    assert seen == [4, 5]
    seen.clear()
    assert not is_primitive(lie + XSeries.word("0110", 1, 9))
    assert seen == [4]


def test_is_primitive_reads_only_the_weights_of_its_terms(monkeypatch) -> None:
    """A 6-term weight-3 Lie element at bound 4 * 10**5: the Lie test runs on
    weight 3 alone, not once for every weight up to the bound."""
    seen = []
    real = algebra._is_lie_component
    monkeypatch.setattr(algebra, "_is_lie_component", lambda c, k: seen.append(k) or real(c, k))
    lie = XSeries(bracketing("001"), 400_000) + XSeries(bracketing("011"), 400_000)
    assert len(lie.terms) == 6
    assert is_primitive(lie)
    assert not is_primitive(lie + XSeries.word("0110", 1, 400_000))
    assert seen == [3, 3, 4]


def _is_primitive_per_weight(a: XSeries) -> bool:
    """The definition: constant term 0 and a Lie component at every weight
    from 2 up to the bound."""
    return a.coeff("") == 0 and all(
        algebra._is_lie_component(a.component(k).terms, k)
        for k in range(2, a.weight_bound + 1)
    )


def test_is_primitive_agrees_with_the_per_weight_definition() -> None:
    rng = random.Random(29)
    for _ in range(60):
        bound = rng.randint(1, 8)
        terms: dict = {}
        for k in rng.sample(range(1, bound + 1), rng.randint(0, bound)):
            for w in rng.sample(lyndon_words(k), min(2, len(lyndon_words(k)))):
                c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                for u, cu in bracketing(w).items():
                    terms[u] = terms.get(u, 0) + c * cu
        if rng.random() < 0.5:  # a word that is not Lie, or a constant term
            k = rng.randint(0, bound)
            w = "".join(rng.choice("01") for _ in range(k))
            terms[w] = terms.get(w, 0) + rng.choice((-1, 1))
        a = XSeries(list(terms.items()), bound)
        assert is_primitive(a) == _is_primitive_per_weight(a), a


def _interleaving_pairing_scan(comp: dict, k: int):
    """The shuffle pair scan that pairs comp with each interleaving in turn,
    without expanding the product."""
    for u, v in word_pairs(k, all_xwords):
        val = 0
        for positions in combinations(range(k), len(u)):
            chars, it = list(v), iter(u)
            for i in positions:
                chars.insert(i, next(it))
            c = comp.get("".join(chars))
            if c is not None:
                val = val + c
        if val:
            yield u, v, val


def _harmonic_pairing_scan(comp: dict, k: int):
    """The harmonic pair scan, pairing comp with each expansion u * v."""
    for u, v in word_pairs(k, all_ywords):
        val = sum(m * comp.get(w, 0) for w, m in harmonic_words(u, v).items())
        if val:
            yield u, v, val


def test_pair_scan_matches_the_scan_of_each_alphabet() -> None:
    rng = random.Random(13)
    for k in range(2, 9):
        for words, product, reference in (
            (all_xwords, shuffle_words, _interleaving_pairing_scan),
            (all_ywords, harmonic_words, _harmonic_pairing_scan),
        ):
            pool = list(words(k))
            for size in (1, 3, 8):
                comp = {rng.choice(pool): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(size)}
                comp = {w: c for w, c in comp.items() if c}
                got = list(algebra._pair_scan(comp, k, words, product))
                assert got == list(reference(comp, k))
                assert all(type(val) is Fraction for _, _, val in got)

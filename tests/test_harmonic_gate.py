"""Harmonic conditions are decided by the spanning products in integers and
listed by the pair scan: the decision agrees with the pair scan, and a member
never reaches it."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dslforge import algebra, spaces
from dslforge.algebra import q_sharp, star_word
from dslforge.cache import get_basis
from dslforge.lyndon import bracketing, lyndon_words
from dslforge.series import XSeries
from dslforge.spaces import ADDMR, ADDMR_FAD_PARITY, DMR, membership_check
from dslforge.words import all_xwords, all_ywords, harmonic_words, shuffle_words

_COEFFS = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 7), -1, 2)


def _combination(rng, vectors, k) -> XSeries:
    out = XSeries.zero(k)
    for v in vectors:
        out = out + v.scale(rng.choice(_COEFFS))
    return out


def _lyndon_perturbation(rng, k) -> XSeries:
    return XSeries(bracketing(rng.choice(lyndon_words(k))), k).scale(rng.choice(_COEFFS))


def _harmonic_images(s: XSeries, k: int):
    """(image, weight) of the star component and of every sharp T-layer."""
    yield star_word(s), k
    sharp = q_sharp(s)
    for t in range(k - 3, -1, -1):
        yield sharp.t_layer(t), k - t - 1


@pytest.mark.parametrize("k", range(3, 11))
def test_products_vanish_exactly_when_the_pair_scan_is_empty(k) -> None:
    rng = random.Random(k)
    decided = set()
    for space in (DMR, ADDMR):
        vectors = get_basis(space, k).vectors
        if not vectors:
            continue
        member = _combination(rng, vectors, k)
        for s in (member, member + _lyndon_perturbation(rng, k)):
            for image, m in _harmonic_images(s, k):
                vanish = algebra._products_vanish(algebra._weight_component(image, m), m)
                comp = algebra._weight_component(image, m)
                scan = algebra._pair_scan(comp, m, all_ywords, harmonic_words)
                scan_empty = next(scan, None) is None
                assert vanish == scan_empty, (space.key, k, m)
                decided.add(vanish)
    if k >= 4:
        assert decided == {True, False}


def _pair_scan_only(monkeypatch, space, s):
    """The report of a membership check whose every weight is decided by the
    pair scans alone."""
    with monkeypatch.context() as m:
        m.setattr(spaces, "_harmonic_defects", lambda a, k: algebra._pair_scan(
            algebra._weight_component(a, k), k, all_ywords, harmonic_words))
        m.setattr(spaces, "_shuffle_defects", lambda a, k: algebra._pair_scan(
            algebra._weight_component(a, k), k, all_xwords, shuffle_words))
        return membership_check(space, s)


@pytest.mark.parametrize("space", [DMR, ADDMR, ADDMR_FAD_PARITY], ids=str)
def test_membership_equals_the_pair_scan_reference(space, monkeypatch) -> None:
    rng = random.Random(5)
    seen = set()
    mixed = XSeries.zero(8)
    for k in range(4, 9):
        vectors = get_basis(space, k).vectors
        member = _combination(rng, vectors, k)
        corner = XSeries(bracketing("0" * (k - 1) + "1"), k).scale(rng.choice(_COEFFS))
        words = rng.sample(range(2**k), 4)
        cases = [
            member,
            member + corner,
            member + _lyndon_perturbation(rng, k),
            XSeries([(format(n, f"0{k}b"), rng.choice(_COEFFS)) for n in words], k),
        ]
        mixed = mixed + member.with_bound(8)
        if k == 8:
            cases += [mixed, mixed + (member + corner).with_bound(8)]
        for s in cases:
            rep = membership_check(space, s)
            assert rep == _pair_scan_only(monkeypatch, space, s), (k, s)
            seen.add(rep.passed)
    assert seen == {True, False}


@pytest.mark.parametrize("space", [DMR, ADDMR, ADDMR_FAD_PARITY], ids=str)
def test_a_member_makes_no_pair_scan(space, monkeypatch) -> None:
    rng = random.Random(9)
    member = _combination(rng, get_basis(space, 9).vectors, 9)
    calls = []
    real = algebra.word_pairs
    monkeypatch.setattr(algebra, "word_pairs", lambda *a: calls.append(a) or real(*a))
    assert membership_check(space, member).passed
    assert calls == []
    assert not membership_check(space, member + _lyndon_perturbation(rng, 9)).passed
    assert calls

"""Harmonic conditions are decided by the spanning products in integers and
listed by the pair scan: the decision agrees with the pair scan, a member
never reaches it, and the listing off the codes equals the one off the
star_word and q_sharp images, which certificates never build."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import islice

import pytest

from dslforge import algebra, spaces
from dslforge.algebra import q_sharp, star_word
from dslforge.cache import get_basis
from dslforge.lyndon import bracketing, lyndon_words
from dslforge.series import XSeries, YSeries, corner_decompose
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


def _decisions(s: XSeries, k: int):
    """(code decision, image, weight) for the star component of weight k and
    for every sharp T^t layer of the weight-k component of s."""
    comp = s.component(k).terms
    yield algebra._codes_vanish(algebra._star_codes(comp, k), k), star_word(s), k
    layers = algebra._sharp_codes(comp)
    sharp = q_sharp(s).terms
    for t in range(k - 3, -1, -1):
        m = k - t - 1
        layer = YSeries(((w, c) for (e, w), c in sharp.items() if e == t), m)
        yield algebra._codes_vanish(layers.get(m, {}), m), layer, m


def _cases(rng, k):
    """(series, its weights to decide): members of `dmr` and `addmr` with
    Fraction coefficients, their Lyndon perturbations, both again with a
    coefficient above 2^63, and a series of weights k - 1 and k."""
    for space in (DMR, ADDMR):
        vectors = get_basis(space, k).vectors
        if not vectors:
            continue
        member = _combination(rng, vectors, k)
        perturbed = member + _lyndon_perturbation(rng, k)
        big = member + XSeries.word(rng.choice(list(member.terms)), 2**64 + 3, k)
        for s in (member, perturbed, member.scale(2**64 + 1), big):
            yield s, (k,)
        below = get_basis(space, k - 1).vectors
        if below:
            lower = _combination(rng, below, k - 1) + _lyndon_perturbation(rng, k - 1)
            yield member + lower.with_bound(k), (k - 1, k)


@pytest.mark.parametrize("k", range(3, 11))
def test_products_vanish_exactly_when_the_pair_scan_is_empty(k) -> None:
    rng = random.Random(k)
    decided = set()
    for s, weights in _cases(rng, k):
        for wt in weights:
            for vanish, image, m in _decisions(s, wt):
                comp = image.component(m).terms
                scan = algebra._pair_scan(comp, m, all_ywords, harmonic_words)
                assert vanish == (next(scan, None) is None), (k, wt, m)
                ycodes = {algebra._ycode(w): c for w, c in comp.items()}
                assert algebra._codes_vanish(ycodes, m) == vanish, (k, wt, m)
                decided.add(vanish)
    if k >= 4:
        assert decided == {True, False}


def _pair_scan_only(monkeypatch, space, s):
    """The report of a membership check whose every weight is decided by the
    pair scans alone: the harmonic code decision always falls through to
    them."""
    with monkeypatch.context() as m:
        m.setattr(algebra, "_codes_vanish", lambda comp, k: False)
        m.setattr(spaces, "_shuffle_defects", lambda comp, k: algebra._pair_scan(
            comp, k, all_xwords, shuffle_words))
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


# ---- the listing against the star_word and q_sharp images ------------------


def _reference_violations(space, s: XSeries):
    """The defining conditions of the space violated by s, in report order,
    with the harmonic ones listed off the star_word and q_sharp images: each
    weight-k component of star_word(s), and each T^t layer of q_sharp(s) at
    Y-weight k - t - 1, scanned over every pair (u, v)."""
    weights = sorted({len(w) for w in s.terms})
    tags = space.condition_tags()
    for k in weights:
        if k < space.min_weight:
            yield k, "min-weight", f"nonzero component below weight {space.min_weight}"
    for k in weights:
        if k >= 2:
            comp = s.component(k).terms
            for u, v, val in algebra._pair_scan(comp, k, all_xwords, shuffle_words):
                yield k, "primitive", {"u": u, "v": v, "value": str(val)}
    if "star-harmonic" in tags:
        star = star_word(s)
        for k in weights:
            comp = star.component(k).terms
            for u, v, val in algebra._pair_scan(comp, k, all_ywords, harmonic_words):
                yield k, "star-harmonic", {"u": list(u), "v": list(v), "value": str(val)}
    if "sharp-harmonic" in tags:
        sharp = q_sharp(s).terms
        for k in weights:
            for t in range(k - 3, -1, -1):
                m = k - t - 1
                layer = {w: c for (e, w), c in sharp.items() if e == t and sum(w) == m}
                for u, v, val in algebra._pair_scan(layer, m, all_ywords, harmonic_words):
                    yield k, "sharp-harmonic", {
                        "t_exp": t, "u": list(u), "v": list(v), "value": str(val)}
    if "sharp-depth-one" in tags:
        for k in weights:
            if val := s.coeff("1" + "0" * (k - 2) + "1"):
                yield k, "sharp-depth-one", {"value": str(val)}
    if "corner00" in tags:
        corners = corner_decompose(s)
        for w, c in sorted(corners.c00.terms.items()):
            yield len(w) + 2, "corner00", {"word": "0" + w + "0", "value": str(c)}
        if "parity" in tags:
            parity = corners.c11 + corners.c10 + corners.c01
            for w, c in sorted(parity.terms.items()):
                yield len(w) + 2, "parity", {"middle": w, "value": str(c)}


def _reference_cases(rng, space, k):
    """Members with Fraction coefficients, their Lyndon perturbations and
    00-corner bumps, random words, coefficients above 2^64, and a series of
    weights k - 1 and k."""
    member = _combination(rng, get_basis(space, k).vectors, k)
    corner = XSeries(bracketing("0" * (k - 1) + "1"), k).scale(rng.choice(_COEFFS))
    words = rng.sample(range(2**k), 5)
    yield member
    yield member + _lyndon_perturbation(rng, k)
    yield member + corner
    yield XSeries([(format(n, f"0{k}b"), rng.choice(_COEFFS)) for n in words], k)
    yield (member + corner).scale(2**64 + 1)
    yield member + XSeries.word(format(words[0], f"0{k}b"), 2**64 + 3, k)
    lower = _combination(rng, get_basis(space, k - 1).vectors, k - 1)
    yield member + (lower + _lyndon_perturbation(rng, k - 1)).with_bound(k)


@pytest.mark.parametrize("space", [DMR, ADDMR, ADDMR_FAD_PARITY], ids=str)
def test_reports_match_the_listing_off_the_images(space) -> None:
    rng = random.Random(23)
    verdicts, capped = set(), 0
    for k in range(4, 10):
        for s in _reference_cases(rng, space, k):
            ref = list(islice(_reference_violations(space, s), 11))
            want = {
                "space": space.key,
                "pass": not ref,
                "violations": [{"weight": k, "condition": condition, "detail": detail}
                               for k, condition, detail in ref[:10]],
                "weights_checked": sorted({len(w) for w in s.terms}),
            }
            got = membership_check(space, s).to_json_dict()
            assert json.dumps(got) == json.dumps(want), (k, s)
            verdicts.add(got["pass"])
            capped += len(ref) > 10
    assert verdicts == {True, False}
    assert capped


@pytest.mark.parametrize("space", [DMR, ADDMR], ids=str)
def test_certificates_build_no_star_or_sharp_image(space, monkeypatch) -> None:
    rng = random.Random(13)
    member = _combination(rng, get_basis(space, 8).vectors, 8)
    cases = [member + _lyndon_perturbation(rng, 8) for _ in range(3)]
    expected = [membership_check(space, s).to_json_dict() for s in cases]

    def refuse(a):
        raise AssertionError("a harmonic image was built")

    monkeypatch.setattr(algebra, "q_left", refuse)
    monkeypatch.setattr(algebra, "q_right", refuse)
    for s, want in zip(cases, expected):
        rep = membership_check(space, s)
        assert rep.to_json_dict() == want
        assert not rep.passed
        assert {v["condition"] for v in rep.violations} & {"star-harmonic", "sharp-harmonic"}

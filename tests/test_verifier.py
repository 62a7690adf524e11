from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from dslforge import verify
from dslforge.cache import get_basis
from dslforge.cli import main
from dslforge.lie import ad_x1
from dslforge.linalg import int_matrix, kernel_basis
from dslforge.lyndon import bracketing, lyndon_words
from dslforge.series import XSeries
from dslforge.spaces import ADDMR_FAD_PARITY, DMR, SubspaceBasis, rational_kernel, root_basis
from dslforge.verify import (
    verify_ad_embedding,
    verify_bracket_closure,
    verify_group_laws,
    verify_lemma_essential,
    verify_lemma_essential_all,
    verify_lie_axioms,
    verify_racinet_homomorphism,
)


def test_bracket_closure_small() -> None:
    rep = verify_bracket_closure(4, 4)
    assert rep.passed
    assert rep.parameters["target_weight"] == 7
    assert rep.parameters["dims"] == [1, 1, 0]
    rep = verify_bracket_closure(4, 6)
    assert rep.passed
    assert rep.parameters["dims"] == [1, 1, 1]


def test_bracket_4_6_is_the_weight9_generator() -> None:
    # the closure check at (4, 6) is substantive: the bracket is nonzero and
    # spans the one-dimensional weight-9 piece
    from dslforge.lie import bracket1

    g4 = get_basis(ADDMR_FAD_PARITY, 4).vectors[0]
    g6 = get_basis(ADDMR_FAD_PARITY, 6).vectors[0]
    g9 = get_basis(ADDMR_FAD_PARITY, 9).vectors[0]
    br = bracket1(g4.with_bound(9), g6.with_bound(9))
    assert not br.is_zero()
    w = next(iter(g9.terms))
    ratio = br.coeff(w) / g9.coeff(w)
    assert ratio != 0
    assert br == g9.with_bound(9).scale(ratio)


def test_lemma_essential_single_pair() -> None:
    gen4 = get_basis(ADDMR_FAD_PARITY, 4).vectors[0]
    rep = verify_lemma_essential(gen4.with_bound(7), gen4.with_bound(7))
    assert rep.passed
    from dslforge.series import XSeries

    rep = verify_lemma_essential(XSeries.zero(6), gen4.with_bound(6))
    assert rep.passed


def test_lemma_essential_all_weight10() -> None:
    rep = verify_lemma_essential_all(10)
    assert rep.passed
    assert rep.parameters["pairs"] == 3  # (4,4), (4,6), (6,4)


def test_ad_embedding_small() -> None:
    for k, dims_equal in ((3, True), (4, True), (5, True)):
        rep = verify_ad_embedding(k)
        assert rep.passed
        assert rep.parameters["dims_equal"] is dims_equal
    rep = verify_ad_embedding(3)
    assert rep.parameters["dim_source"] == 1
    assert rep.parameters["dim_target"] == 1


def test_ad_embedding_reports_dependent_images(monkeypatch, capsys) -> None:
    """With the one vector of dmr_5 listed twice, its two images are
    dependent: the report fails with the rank they span, and so does the
    CLI check."""
    right = verify.get_basis

    def doubled(space, k, use_cache=True):
        basis = right(space, k, use_cache=use_cache)
        if (space, k) == (DMR, 5):
            (vector,) = basis.vectors
            basis = SubspaceBasis(DMR, 5, [vector, vector])
        return basis

    monkeypatch.setattr(verify, "get_basis", doubled)
    rep = verify_ad_embedding(5)
    assert not rep.passed
    assert rep.witnesses == [{"reason": "images linearly dependent", "rank": 1}]
    assert main(["verify", "--check", "ad-embedding", "--k", "5"]) == 1
    assert "FAIL" in capsys.readouterr().out


def _lyndon_coordinates(v: XSeries, k: int) -> list:
    """The coordinates of a weight-k Lie polynomial over the bracketings of
    the Lyndon words of weight k, in increasing order: walk the words and
    subtract c * P_w at each, which leaves nothing."""
    rest = dict(v.terms)
    coords = []
    for w in lyndon_words(k):
        c = rest.get(w, 0)
        coords.append(c)
        if c:
            for u, cu in bracketing(w).items():
                rest[u] = rest.get(u, 0) - c * cu
    assert not any(rest.values())
    return coords


@pytest.mark.parametrize(
    "k", [*range(3, 11), *(pytest.param(k, marks=pytest.mark.slow) for k in (11, 12))]
)
def test_ad_x1_images_of_dmr_span_addmr_fad_parity_one_weight_up(k) -> None:
    # any spanning set of a space, canonicalised on its root's basis, gives
    # the cached bytes: the ad(x1) images of dmr_k, repeated, in random
    # integer combinations and scaled by fractions, give addmr-fad-parity_{k+1}
    rng = random.Random(k)
    images = [ad_x1(psi.with_bound(k + 1)) for psi in get_basis(DMR, k).vectors]
    spanning = images * 2
    for _ in images:
        spanning.append(XSeries.zero(k + 1))
        for image in images:
            spanning[-1] += image.scale(rng.randint(-3, 3))
        spanning.append(rng.choice(images).scale(Fraction(rng.randint(-9, 9), rng.randint(2, 9))))
    rng.shuffle(spanning)
    root = root_basis(ADDMR_FAD_PARITY.root, k + 1)
    coordinates = int_matrix([_lyndon_coordinates(s, k + 1) for s in spanning], root.dimension)
    annihilator = kernel_basis(coordinates, root.dimension)
    basis = rational_kernel(ADDMR_FAD_PARITY, root, int_matrix(annihilator, root.dimension))
    expected = get_basis(ADDMR_FAD_PARITY, k + 1)
    assert json.dumps(basis.to_json_dict()) == json.dumps(expected.to_json_dict())


def test_lie_axioms() -> None:
    rep = verify_lie_axioms(sample_count=20, k_max=5, seed=7)
    assert rep.passed
    assert rep.parameters["seed"] == 7


def test_racinet_homomorphism() -> None:
    rep = verify_racinet_homomorphism(pair_count=8, k_max=6, seed=7)
    assert rep.passed
    # total weight up to 9
    rep = verify_racinet_homomorphism(pair_count=6, k_max=9, seed=13)
    assert rep.passed


def test_lie_axioms_need_two_weights() -> None:
    # sample weights are drawn from 2..k_max
    with pytest.raises(ValueError, match=r"^lie-axioms needs k_max >= 2, got 1$"):
        verify_lie_axioms(sample_count=5, k_max=1)
    assert verify_lie_axioms(sample_count=5, k_max=2).parameters["k_max"] == 2


def test_racinet_homomorphism_needs_a_pair_of_weight_four() -> None:
    # a pair of primitive series of weight >= 2 each weighs at least 4
    for k_max in (1, 3):
        message = f"^racinet-homomorphism needs k_max >= 4, got {k_max}$"
        with pytest.raises(ValueError, match=message):
            verify_racinet_homomorphism(pair_count=5, k_max=k_max)
    assert verify_racinet_homomorphism(pair_count=5, k_max=4).passed


def test_group_laws() -> None:
    rep = verify_group_laws(5, seed=11)
    assert rep.passed
    assert rep.parameters == {"truncation": 5, "seed": 11}


def test_reports_reproducible_and_serializable() -> None:
    a = verify_lie_axioms(sample_count=10, k_max=4, seed=3)
    b = verify_lie_axioms(sample_count=10, k_max=4, seed=3)
    assert a.passed == b.passed
    assert a.parameters == b.parameters
    assert a.witnesses == b.witnesses
    data = a.to_json_dict()
    parsed = json.loads(json.dumps(data))
    assert parsed["check"] == "lie-axioms"
    assert parsed["pass"] is True
    assert "runtime_ms" in parsed

from __future__ import annotations

from functools import lru_cache

from dslforge.algebra import commutator, shuffle_primitivity_defect
from dslforge.linalg import int_matrix, kernel_basis
from dslforge.lyndon import (
    bracketing,
    lyndon_primitive_basis,
    lyndon_words,
    standard_factorization,
    witt_number,
)
from dslforge.series import XSeries
from dslforge.words import all_xwords


def test_lyndon_words_small() -> None:
    assert lyndon_words(1) == ["0", "1"]
    assert lyndon_words(2) == ["01"]
    assert lyndon_words(3) == ["001", "011"]
    assert lyndon_words(4) == ["0001", "0011", "0111"]


def test_lyndon_words_are_lyndon() -> None:
    for k in range(1, 9):
        for w in lyndon_words(k):
            assert all(w < w[i:] + w[:i] for i in range(1, k))


def test_lyndon_words_are_generated_in_increasing_order() -> None:
    # _is_lie_component's triangular reduction reads them in this order
    for k in range(1, 17):
        words = lyndon_words(k)
        assert all(u < v for u, v in zip(words, words[1:])), k


def test_witt_numbers() -> None:
    assert [witt_number(k) for k in range(1, 10)] == [2, 1, 2, 3, 6, 9, 18, 30, 56]


def test_counts_match_witt() -> None:
    for k in range(-2, 15):  # no Lyndon word, and a Witt number of 0, below 1
        assert len(lyndon_words(k)) == witt_number(k)


def test_standard_factorization() -> None:
    assert standard_factorization("01") == ("0", "1")
    assert standard_factorization("0011") == ("0", "011")
    assert standard_factorization("0111") == ("011", "1")
    # both factors are Lyndon
    for k in range(2, 8):
        for w in lyndon_words(k):
            u, v = standard_factorization(w)
            assert u in lyndon_words(len(u))
            assert v in lyndon_words(len(v))


def test_basis_small_expansions() -> None:
    k1 = lyndon_primitive_basis(1)
    assert [e.lyndon_word for e in k1] == ["0", "1"]
    (k2,) = lyndon_primitive_basis(2)
    assert k2.expansion.terms == {"01": 1, "10": -1}
    k3 = lyndon_primitive_basis(3)
    assert len(k3) == 2


def test_expansions_primitive_and_independent() -> None:
    for k in range(1, 8):
        basis = lyndon_primitive_basis(k)
        assert len(basis) == witt_number(k)
        words = sorted(all_xwords(k))
        rows = [[e.expansion.coeff(w) for e in basis] for w in words]
        # full column rank: empty kernel
        assert kernel_basis(int_matrix(rows, len(basis)), len(basis)) == []
        for e in basis:
            for m in range(2, k + 1):
                assert shuffle_primitivity_defect(e.expansion, m) == []


@lru_cache(maxsize=None)
def _series_bracketing(w: str) -> XSeries:
    """The standard bracketing by the rational series commutator, the oracle
    for the integer table."""
    if len(w) == 1:
        return XSeries.word(w)
    u, v = standard_factorization(w)
    n = len(w)
    return commutator(
        _series_bracketing(u).with_bound(n), _series_bracketing(v).with_bound(n)
    )


def test_integer_bracketing_matches_the_series_commutator() -> None:
    for k in range(1, 13):
        for e in lyndon_primitive_basis(k):
            oracle = _series_bracketing(e.lyndon_word)
            table = bracketing(e.lyndon_word)
            assert all(type(c) is int and c for c in table.values())
            assert table == oracle.terms
            assert e.expansion == oracle


def test_bracketing_is_the_terms_of_the_basis_expansion() -> None:
    # one memo: the integer table is the series the basis hands out
    for k in range(1, 9):
        for e in lyndon_primitive_basis(k):
            assert bracketing(e.lyndon_word) is e.expansion.terms

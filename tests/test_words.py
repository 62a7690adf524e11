from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

from hypothesis import example, given
from hypothesis import strategies as st

from dslforge.words import (
    all_xwords,
    all_ywords,
    from_leading_blocks,
    harmonic_words,
    is_xword,
    leading_blocks,
    lyndon_factors,
    shuffle_words,
    trailing_blocks,
    x_run_lengths,
    xdepth,
)


def test_weights_and_depths() -> None:
    assert xdepth("") == 0
    assert xdepth("0110") == 2


def test_all_words_counts() -> None:
    assert list(all_xwords(0)) == [""]
    assert len(list(all_xwords(5))) == 32
    assert list(all_ywords(0)) == [()]
    # compositions of k
    for k in range(1, 8):
        assert len(list(all_ywords(k))) == 2 ** (k - 1)


def test_run_lengths_and_blocks() -> None:
    assert x_run_lengths("00101") == [2, 1, 0]
    assert leading_blocks("10010") == (3, 2)
    assert leading_blocks("010") is None
    assert leading_blocks("") == ()
    assert trailing_blocks("00101") == (3, 2)
    assert trailing_blocks("10") is None
    assert trailing_blocks("") is None
    assert from_leading_blocks((3, 2)) == "10010"
    assert _from_trailing_blocks((3, 2)) == "00101"


def _from_trailing_blocks(w: tuple) -> str:
    """Inverse of trailing_blocks: (k1, ..., kr) -> 0^{k1-1} 1 ... 0^{kr-1} 1."""
    return "".join("0" * (k - 1) + "1" for k in w)


def test_block_round_trips() -> None:
    for k in range(0, 7):
        for y in all_ywords(k):
            assert leading_blocks(from_leading_blocks(y)) == y
            if y:  # the empty word has no trailing '1' to read
                assert trailing_blocks(_from_trailing_blocks(y)) == y


def test_shuffle_words_simple() -> None:
    assert shuffle_words("0", "1") == {"01": 1, "10": 1}
    assert shuffle_words("", "10") == {"10": 1}
    # hand-unrolled recursion
    assert shuffle_words("01", "1") == {"011": 2, "101": 1}


def test_shuffle_words_recursion_oracle() -> None:
    # the recursive definition l1w1 sh l2w2 = l1(w1 sh l2w2) + l2(l1w1 sh w2)
    def rec(u: str, v: str) -> dict[str, int]:
        if not u:
            return {v: 1}
        if not v:
            return {u: 1}
        out: dict[str, int] = {}
        for head, tail in ((u[0], rec(u[1:], v)), (v[0], rec(u, v[1:]))):
            for w, m in tail.items():
                out[head + w] = out.get(head + w, 0) + m
        return out

    rng = random.Random(1)
    for _ in range(40):
        u = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        v = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        assert shuffle_words(u, v) == rec(u, v)


def test_shuffle_counts() -> None:
    from math import comb

    total = sum(shuffle_words("00101", "110").values())
    assert total == comb(8, 3)


def _interleavings(u: str, v: str):
    """Each interleaving of u and v, once per choice of positions for u."""
    n = len(u) + len(v)
    for positions in combinations(range(n), len(u)):
        chars = [""] * n
        for c, i in zip(u, positions):
            chars[i] = c
        it = iter(v)
        for i in range(n):
            if not chars[i]:
                chars[i] = next(it)
        yield "".join(chars)


def test_shuffle_words_matches_the_interleaving_enumeration() -> None:
    for n in range(10):
        for a in range(n + 1):
            for u in all_xwords(a):
                for v in all_xwords(n - a):
                    assert shuffle_words(u, v) == dict(Counter(_interleavings(u, v)))


def _overlapping_shuffle_oracle(u: tuple, v: tuple) -> dict[tuple, int]:
    """Surjection-style oracle: choose positions for u and v among n slots,
    jointly covering all slots; coinciding slots merge by addition."""
    out: dict[tuple, int] = {}
    r, s = len(u), len(v)
    for n in range(max(r, s), r + s + 1):
        for iu in combinations(range(n), r):
            for iv in combinations(range(n), s):
                if set(iu) | set(iv) != set(range(n)):
                    continue
                w = [0] * n
                for val, pos in zip(u, iu):
                    w[pos] += val
                for val, pos in zip(v, iv):
                    w[pos] += val
                key = tuple(w)
                out[key] = out.get(key, 0) + 1
    return out


def test_harmonic_words_against_surjection_oracle() -> None:
    assert harmonic_words((2,), (3,)) == {(2, 3): 1, (3, 2): 1, (5,): 1}
    assert harmonic_words((1,), (1,)) == {(1, 1): 2, (2,): 1}
    assert harmonic_words((1,), (1, 1)) == {(1, 1, 1): 3, (2, 1): 1, (1, 2): 1}
    rng = random.Random(3)
    for _ in range(25):
        u = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        v = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        assert harmonic_words(u, v) == _overlapping_shuffle_oracle(u, v)


def _is_xword_by_letters(w: object) -> bool:
    """The letter-by-letter X-word predicate, kept as the oracle."""
    return isinstance(w, str) and all(c in "01" for c in w)


class _Str(str):
    pass


@given(
    st.one_of(
        st.text("01"),
        st.text("01 2\n\t\x00x"),
        st.text(),
        st.text("01").map(_Str),
        st.integers(),
        st.none(),
        st.lists(st.sampled_from("01")),
        st.binary(),
    )
)
@example(" 01")
@example("01 ")
@example("0\n1")
@example("")
@example("\uff10\uff11")  # fullwidth digits
@example("0\u0301")  # a combining accent
@example("\ud800")  # a lone surrogate
@example("0 1")
def test_is_xword_matches_the_letter_predicate(w) -> None:
    assert is_xword(w) == _is_xword_by_letters(w)


def _is_lyndon(w: tuple) -> bool:
    """Brute force: nonempty and strictly less than each proper suffix."""
    return bool(w) and all(w < w[i:] for i in range(1, len(w)))


@given(st.lists(st.integers(1, 4), max_size=12).map(tuple))
@example(())
@example((1, 2, 1, 1, 3, 2, 2))
@example((2, 1, 2, 1, 2))
def test_lyndon_factors_are_a_nonincreasing_lyndon_factorization(w) -> None:
    factors = lyndon_factors(w)
    assert sum(factors, ()) == w
    assert all(_is_lyndon(f) for f in factors)
    assert all(a >= b for a, b in zip(factors, factors[1:]))

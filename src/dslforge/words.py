"""Words over the two-letter alphabet and over the graded alphabet y1, y2, ...

X-words are strings of '0' and '1' ('0' is the first letter of the alphabet,
'1' the second); the leftmost character is the leftmost letter.  Y-words are
tuples of positive integers.  Both encodings are canonical and hashable, so
they serve directly as dictionary keys in sparse series.

The interleaving (shuffle) product of X-words and the overlapping shuffle
(harmonic product) of Y-words are expanded by one table over suffix pairs:
the harmonic product is the shuffle plus one merge term (Hoffman, J.
Algebraic Combin. 11, 2000).
"""

from __future__ import annotations

from typing import Iterator

XWord = str
YWord = tuple  # tuple[int, ...]

X0 = "0"
X1 = "1"


def xdepth(w: XWord) -> int:
    """Number of occurrences of the second letter."""
    return w.count(X1)


_LETTERS = str.maketrans("", "", "01")


def only_01(text: str) -> bool:
    """True when text holds no character but '0' and '1', the empty text
    included: the letter test of every X-word check, one C pass that deletes
    the two letters."""
    return not text.translate(_LETTERS)


def is_xword(w: object) -> bool:
    return isinstance(w, str) and only_01(w)


def is_yword(w: object) -> bool:
    return isinstance(w, tuple) and all(isinstance(k, int) and k >= 1 for k in w)


def all_xwords(k: int) -> Iterator[XWord]:
    """All X-words of weight k, in lexicographic order ('0' < '1')."""
    if k == 0:
        yield ""
        return
    for n in range(2**k):
        yield format(n, "0{}b".format(k))


def all_ywords(k: int) -> Iterator[YWord]:
    """All Y-words of weight k (compositions of k), lexicographic order."""
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in all_ywords(k - first):
            yield (first,) + rest


def word_pairs(k: int, words) -> Iterator[tuple]:
    """The nonempty pairs (u, v), wt u <= wt v, total weight k, in scan order;
    at equal weight only v >= u.  words is all_xwords or all_ywords."""
    for wu in range(1, k // 2 + 1):
        vs = list(words(k - wu))
        for u in words(wu):
            for v in vs:
                if wu == k - wu and v < u:
                    continue
                yield u, v


def _suffix_products(u, v, merge: bool) -> dict:
    """The expansion of u sh v, or of u * v when merge, as {word: multiplicity}.

    The expansions of the suffix pairs u[i:] . v[j:] are filled from the ends
    of the words, one row of i at a time: each starts with u[i], with v[j],
    or (merge only) with the letter u[i] + v[j], followed by an expansion
    already in the table.  The words beginning with u[i] are all distinct,
    so they start the expansion as one dict.
    """
    below = [{v[j:]: 1} for j in range(len(v) + 1)]  # the row of i = len(u)
    for i in range(len(u) - 1, -1, -1):
        head = u[i : i + 1]
        row = [None] * len(v) + [{u[i:]: 1}]
        for j in range(len(v) - 1, -1, -1):
            out = {head + w: m for w, m in below[j].items()}
            pairs = ((v[j : j + 1], row[j + 1]),)
            if merge:
                pairs += (((u[i] + v[j],), below[j + 1]),)
            for h, tail in pairs:
                for w, m in tail.items():
                    w = h + w
                    out[w] = out.get(w, 0) + m
            row[j] = out
        below = row
    return below[0]


def shuffle_words(u: XWord, v: XWord) -> dict[XWord, int]:
    """Expand the interleaving product of two X-words into a word -> multiplicity map."""
    return _suffix_products(u, v, merge=False)


def harmonic_words(u: YWord, v: YWord) -> dict[YWord, int]:
    """Expand the overlapping shuffle of two Y-words: interleavings plus the
    merge term that adds the two leading parts."""
    return _suffix_products(u, v, merge=True)


def lyndon_factors(w: YWord) -> list[YWord]:
    """Chen-Fox-Lyndon factorization of a Y-word by Duval's algorithm, with
    y1 < y2 < ... (plain tuple order): the nonincreasing Lyndon words whose
    concatenation is w."""
    factors = []
    i, n = 0, len(w)
    while i < n:
        j, k = i + 1, i
        while j < n and w[k] <= w[j]:
            k = i if w[k] < w[j] else k + 1
            j += 1
        while i <= k:
            factors.append(w[i : i + j - k])
            i += j - k
    return factors


def x_run_lengths(w: XWord) -> list[int]:
    """Lengths of the maximal '0'-runs around the '1' letters, left to right.

    A word with d occurrences of '1' yields d+1 run lengths (outer runs may
    be zero): w = 0^a1 1 0^a2 1 ... 1 0^a_{d+1}.
    """
    runs = w.split(X1)
    return [len(r) for r in runs]


def leading_blocks(w: XWord) -> YWord | None:
    """Read a word starting with '1' as blocks 1 0^{k-1} -> k, left to right.

    Returns None when the word has a leading '0'.  The empty word reads as ().
    """
    if not w:
        return ()
    if w[0] != X1:
        return None
    runs = x_run_lengths(w)
    # runs[0] == 0 here; block i is '1' followed by runs[i+1] zeros
    return tuple(r + 1 for r in runs[1:])


def trailing_blocks(w: XWord) -> YWord | None:
    """Read a word ending with '1' as blocks 0^{k-1} 1 -> k, left to right.

    Returns None when the word has a trailing '0' or is empty.
    """
    if not w or w[-1] != X1:
        return None
    runs = x_run_lengths(w)
    # runs[-1] == 0 here; block i is runs[i] zeros followed by '1'
    return tuple(r + 1 for r in runs[:-1])


def from_leading_blocks(w: YWord) -> XWord:
    """Inverse of leading_blocks: (k1, ..., kr) -> 1 0^{k1-1} ... 1 0^{kr-1}."""
    return "".join(X1 + X0 * (k - 1) for k in w)


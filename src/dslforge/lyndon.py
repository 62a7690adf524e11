"""Lyndon words over '0' < '1', standard bracketings, and the graded basis
of the primitive subspace they span.

The bracketings have integer coefficients (Reutenauer, Free Lie Algebras,
ch. 5).  Each is expanded once, into the XSeries the basis hands out, and
its terms {word: int} are the integer table that bracketing reads."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .series import XSeries
from .words import XWord


def lyndon_words(k: int) -> list[XWord]:
    """Lyndon words of length k over '0' < '1', increasing, as Duval's algorithm
    makes them: _is_lie_component and lyndon_primitive_basis rely on the order.
    Generated once per length and process; each call gets its own list."""
    return list(_duval(k))


@lru_cache(maxsize=None)
def _duval(k: int) -> tuple[XWord, ...]:
    if k <= 0:
        return ()
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == k:
            out.append("".join("01"[i] for i in w))
        while len(w) < k:
            w.append(w[-m])
        while w and w[-1] == 1:
            w.pop()
    return tuple(out)


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    m, count = n, 0
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
        else:
            p += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


def witt_number(k: int) -> int:
    """Dimension of the degree-k part of the free Lie algebra on two letters:
    (1/k) * sum over d | k of mu(d) * 2^(k/d); 0 for k < 1, as lyndon_words."""
    if k < 1:
        return 0
    total = 0
    for d in range(1, k + 1):
        if k % d == 0:
            total += _mobius(d) * 2 ** (k // d)
    return total // k


def standard_factorization(w: XWord) -> tuple[XWord, XWord]:
    """Split a Lyndon word of length >= 2 as u*v with v the longest proper
    Lyndon suffix; both factors are Lyndon."""
    if len(w) < 2:
        raise ValueError("standard factorization needs length >= 2")
    # the longest proper suffix that is Lyndon is the smallest proper suffix
    # in lexicographic order
    best = min(range(1, len(w)), key=lambda i: w[i:])
    return w[:best], w[best:]


@lru_cache(maxsize=None)
def _expand(w: XWord) -> XSeries:
    """The standard bracketing of a Lyndon word expanded into words, as a
    series of weight bound len(w): [P_u, P_v] = P_u P_v - P_v P_u over the
    standard factorization w = uv."""
    if len(w) == 1:
        return XSeries({w: 1}, 1)
    u, v = standard_factorization(w)
    out: dict[XWord, int] = {}
    for a, ca in bracketing(u).items():
        for b, cb in bracketing(v).items():
            c = ca * cb
            out[a + b] = out.get(a + b, 0) + c
            out[b + a] = out.get(b + a, 0) - c
    return XSeries({u: c for u, c in out.items() if c}, len(w))


def bracketing(w: XWord) -> dict[XWord, int]:
    """The terms {word: int} of the memoized expansion of w.  Shared with
    lyndon_primitive_basis, so never mutate the result."""
    return _expand(w).terms


@dataclass(frozen=True)
class LyndonBasisElement:
    """A Lyndon word together with its standard bracketing expanded into words.

    The expansions at a fixed weight are linearly independent and span the
    weight-graded piece of the primitive subspace; their count is the Witt
    number.
    """

    lyndon_word: XWord
    expansion: XSeries


def lyndon_primitive_basis(k: int) -> list[LyndonBasisElement]:
    """One element per Lyndon word of length k, sorted lexicographically."""
    if k < 1:
        raise ValueError("weight must be >= 1")
    return [LyndonBasisElement(w, _expand(w)) for w in lyndon_words(k)]

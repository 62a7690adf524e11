"""Exact integer nullspace and rational solve routines, on one modular engine.

Rows arrive as integer (or rational) vectors and are scaled to primitive
integer form.  A vectorized Gauss-Jordan elimination modulo a prime p selects
a maximal independent row subset and leaves its reduced row echelon form
(RREF), from which the canonical kernel mod p is read directly: for each free
column fc, x[fc] = 1 and x[pivot_col(i)] = -R[i][fc].  The same reduction runs
on the selected rows modulo further primes; the residues are combined by the
Chinese remainder theorem and each entry is recovered as a rational by
rational reconstruction (Wang, Guy & Davenport, SIGSAM Bull. 1982).  Each
vector is then scaled to a primitive integer vector, and a basis is returned
only once it annihilates every original row in exact integer arithmetic.
There is no fraction-free elimination, and the output is deterministic for a
fixed input.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from math import gcd, isqrt, lcm

import numpy as np


def _primes_below(n: int):
    """The odd primes below the odd number n, largest first."""
    while n > 3:
        n -= 2
        if all(n % q for q in range(3, isqrt(n) + 1, 2)):
            yield n


# Primes just under 2**25.  The mod-p reduction cleans a row with one int64
# product that sums up to rank terms below p**2, so it is exact while
# rank * (p - 1)**2 < 2**63: ranks up to 8192 for these primes.  The first
# few are found once; a kernel whose entries need more draws them on demand.
_PRIMES = tuple(islice(_primes_below(2**25 + 1), 8))


def _primitive(ints: list[int]) -> list[int]:
    """Divide by the gcd and make the first nonzero entry positive."""
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    if next((v for v in ints if v), 0) < 0:
        ints = [-v for v in ints]
    return ints


def _row_to_int(row) -> list[int]:
    """Scale an integer or rational row to a primitive integer vector (gcd 1,
    first nonzero entry positive)."""
    if set(map(type, row)) - {int}:
        den = lcm(*(c.denominator for c in row))
        row = [c.numerator * (den // c.denominator) for c in row]
    return _primitive(row)


def _dedupe(rows: list[list[int]]) -> list[list[int]]:
    """The distinct nonzero rows in order.  Rows are bucketed by hash and
    compared as lists, so no tuple copy of a row is kept."""
    buckets: dict[int, list] = {}
    out = []
    for r in rows:
        if not any(r):
            continue
        bucket = buckets.setdefault(hash(tuple(r)), [])
        if r not in bucket:
            bucket.append(r)
            out.append(r)
    return out


def _rref_mod_p(rows: list[list[int]], ncols: int, p: int):
    """Gauss-Jordan elimination modulo p, scanning the rows in order.

    Returns (selected, pivot_cols, kernel): the indices of a maximal
    independent subset, the sorted pivot columns, and the canonical kernel of
    their span mod p as a dict {(free column fc, pivot column): -R[i][fc] mod
    p} of its nonzero entries.  R is the reduced row echelon form (RREF);
    since its pivot columns hold the identity, only its free columns are
    kept, packed to the front of the buffer F.  Each incoming row is cleaned
    with one matrix product, which sums one term below p**2 per pivot, so a
    pivot that would take rank * (p - 1)**2 to 2**63 raises ArithmeticError
    instead of letting int64 wrap.
    """
    F = np.zeros((min(len(rows), ncols), ncols), dtype=np.int64)
    perm = np.arange(ncols)  # free columns, then pivot columns newest first
    nfree = ncols
    selected: list[int] = []
    for idx, row in enumerate(rows):
        rank = ncols - nfree
        try:
            v = np.array(row, dtype=np.int64)[perm] % p
        except OverflowError:  # an entry beyond int64
            v = np.array([row[c] % p for c in perm], dtype=np.int64)
        w = v[:nfree]
        factors = v[nfree:][::-1]
        if factors.any():
            w = (w - factors @ F[:rank, :nfree]) % p
        nz = np.flatnonzero(w)
        if nz.size == 0:
            continue
        j = int(nz[perm[nz].argmin()])  # the leading column
        if (rank + 1) * (p - 1) ** 2 >= 2**63:
            raise ArithmeticError(
                f"mod-{p} row selection would overflow int64 at rank {rank + 1}: "
                "rank * (p - 1)**2 must stay below 2**63"
            )
        w = (w * pow(int(w[j]), p - 2, p)) % p
        above = np.flatnonzero(F[:rank, j])
        if above.size:
            F[above, :nfree] = (F[above, :nfree] - np.outer(F[above, j], w)) % p
        F[rank, :nfree] = w
        nfree -= 1  # column j turns pivot: swap it to the end of the free ones
        F[: rank + 1, j] = F[: rank + 1, nfree]
        perm[j], perm[nfree] = perm[nfree], perm[j]
        selected.append(idx)
        if nfree == 0:
            break
    pivot_cols = perm[nfree:][::-1].tolist()
    free = perm[:nfree].tolist()
    i, j = np.nonzero(F[: len(selected), :nfree])
    kernel = {
        (free[b], pivot_cols[a]): p - r
        for a, b, r in zip(i.tolist(), j.tolist(), F[i, j].tolist())
    }
    return selected, sorted(pivot_cols), kernel


def _rational(a: int, m: int) -> tuple[int, int] | None:
    """The n/d with n = a*d mod m, |n| and 0 < d at most sqrt(m/2), if any."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift(residues: dict, modulus: int, free_cols: list[int], ncols: int):
    """Primitive integer vectors from the combined residues, one per free
    column, or None when some entry has no rational reconstruction yet."""
    entries: dict[int, list] = {fc: [] for fc in free_cols}
    for (fc, col), a in residues.items():
        nd = _rational(a, modulus)
        if nd is None:
            return None
        entries[fc].append((col, *nd))
    basis = []
    for fc in free_cols:
        den = lcm(*(d for _, _, d in entries[fc]))
        vec = [0] * ncols
        vec[fc] = den
        for col, n, d in entries[fc]:
            vec[col] = n * (den // d)
        basis.append(_primitive(vec))
    return basis


def kernel_basis(rows: list[list], ncols: int) -> list[list[int]]:
    """Exact kernel basis of the linear system rows * x = 0.

    Accepts rows of ints or Fractions; returns primitive integer vectors as
    lists of int (gcd 1, first nonzero entry positive), one per free column
    in increasing order: the vector with that coordinate 1 and every other
    free coordinate 0, scaled.  The base prime's RREF selects the rows and
    fixes the pivot columns; later primes, run on the selected rows only, add
    residues until the reconstructed basis annihilates every row.  A prime
    that shows other pivot columns is skipped, unless they prove the base
    prime unlucky (lexicographically earlier), or the lifted kernel of the
    selected rows misses some other row: then the next prime becomes the base.
    """
    int_rows = _dedupe([_row_to_int(r) for r in rows])
    if not int_rows:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    primes = chain(_PRIMES, _primes_below(_PRIMES[-1]))
    while True:
        p = next(primes)
        selected, pivot_cols, residues = _rref_mod_p(int_rows, ncols, p)
        subset = [int_rows[j] for j in selected]
        free_cols = sorted(set(range(ncols)).difference(pivot_cols))
        modulus = p
        while True:
            basis = _lift(residues, modulus, free_cols, ncols)
            if basis is not None:
                if _verify_kernel(int_rows, basis):
                    return basis
                if _verify_kernel(subset, basis):
                    break  # the selected rows miss part of the row space
            q = next(primes)
            _, cols, new = _rref_mod_p(subset, ncols, q)
            if cols != pivot_cols:
                if len(cols) == len(pivot_cols) and cols < pivot_cols:
                    break  # q finds an earlier pivot that the base prime lost
                continue  # q is unlucky for the selected rows
            step = pow(modulus, -1, q)
            for key in residues.keys() | new.keys():
                a = residues.get(key, 0)
                residues[key] = a + modulus * ((new.get(key, 0) - a) * step % q)
            modulus *= q


def _verify_kernel(rows: list[list[int]], basis: list[list[int]]) -> bool:
    """True when every basis vector annihilates every row, exactly."""
    if not basis:
        return True
    for row in rows:
        support = [(i, r) for i, r in enumerate(row) if r]
        for vec in basis:
            total = 0
            for i, r in support:
                v = vec[i]
                if v:
                    total += r * v
            if total:
                return False
    return True


def solve_exact(rows: list[list], rhs: list) -> list[Fraction] | None:
    """Exact solve of rows * x = rhs, or None when it is inconsistent.

    Intended for systems with full column rank.  The solution is read off the
    canonical kernel of [rows | -rhs]: its last vector has a nonzero last
    coordinate exactly when the system is consistent, and then gives the
    solution with every free coordinate set to 0.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [list(row) + [-b] for row, b in zip(rows, rhs)]
    basis = kernel_basis(aug, ncols + 1)
    if not basis or not basis[-1][ncols]:
        return None
    *x, den = basis[-1]
    return [Fraction(c, den) for c in x]

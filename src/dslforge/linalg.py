"""Exact integer nullspace and rational solve routines.

The kernel path works in integers end to end: rows arrive as integer (or
rational) vectors and are scaled to primitive integer form, a vectorized
elimination modulo a fixed prime preselects an independent row subset
(independence mod p implies exact independence), fraction-free integer
elimination with magnitude pivoting runs on that small subset, and every
resulting kernel vector is then verified against all original rows with exact
integer arithmetic.  If verification fails the prime was unlucky and the next
one in a fixed list is used, so the output is deterministic for a fixed input.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

def _primes_below(limit: int, count: int) -> tuple[int, ...]:
    out = []
    n = limit - 1
    while len(out) < count and n > 2:
        if all(n % q for q in range(2, int(n**0.5) + 1)):
            out.append(n)
        n -= 1
    return tuple(out)


# Primes just under 2**25.  The mod-p selection cleans a row with one int64
# product that sums up to rank terms below p**2, so it is exact while
# rank * (p - 1)**2 < 2**63: ranks up to 8192 for these primes.
_PRIMES = _primes_below(2**25, 6)


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
    if not all(type(c) is int for c in row):
        den = lcm(*(c.denominator for c in row))
        row = [c.numerator * (den // c.denominator) for c in row]
    return _primitive(row)


def _dedupe(rows: list[list[int]]) -> list[list[int]]:
    seen = set()
    out = []
    for r in rows:
        key = tuple(r)
        if key in seen or not any(r):
            continue
        seen.add(key)
        out.append(r)
    return out


def _independent_rows_mod_p(rows: list[list[int]], ncols: int, p: int) -> list[int]:
    """Indices of a maximal independent subset modulo p, scanning in order.

    Pivot rows are maintained in reduced form so each incoming row is cleaned
    with one matrix product.  That product sums one term below p**2 per pivot,
    so a pivot that would take rank * (p - 1)**2 to 2**63 raises
    ArithmeticError instead of letting int64 wrap.
    """
    pivots = np.zeros((0, ncols), dtype=np.int64)
    pivot_cols: list[int] = []
    selected: list[int] = []
    for idx, row in enumerate(rows):
        v = np.fromiter((c % p for c in row), dtype=np.int64, count=ncols)
        if pivot_cols:
            factors = v[pivot_cols]
            if factors.any():
                v = (v - factors @ pivots) % p
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            continue
        col = int(nz[0])
        rank = len(pivot_cols) + 1
        if rank * (p - 1) ** 2 >= 2**63:
            raise ArithmeticError(
                f"mod-{p} row selection would overflow int64 at rank {rank}: "
                "rank * (p - 1)**2 must stay below 2**63"
            )
        v = (v * pow(int(v[col]), p - 2, p)) % p
        if pivot_cols:
            above = pivots[:, col].copy()
            mask = above != 0
            if mask.any():
                pivots[mask] = (pivots[mask] - np.outer(above[mask], v)) % p
        pivots = np.vstack([pivots, v])
        pivot_cols.append(col)
        selected.append(idx)
        if len(selected) == ncols:
            break
    return selected


def _echelon_int(matrix: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form over the integers.

    Pivot rule: within the working column, the not-yet-used row whose entry
    has the largest absolute value (lowest index on ties).  Rows are kept
    primitive by gcd reduction after each cross-multiplication step.
    """
    rows = [list(r) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    pivot_cols: list[int] = []
    top = 0
    for col in range(ncols):
        best = -1
        best_val = 0
        for i in range(top, len(rows)):
            v = abs(rows[i][col])
            if v > best_val:
                best, best_val = i, v
        if best < 0:
            continue
        rows[top], rows[best] = rows[best], rows[top]
        piv = rows[top][col]
        for i in range(top + 1, len(rows)):
            v = rows[i][col]
            if not v:
                continue
            new = [piv * a - v * b for a, b in zip(rows[i], rows[top])]
            g = 0
            for u in new:
                g = gcd(g, u)
            if g > 1:
                new = [u // g for u in new]
            rows[i] = new
        pivot_cols.append(col)
        top += 1
        if top == len(rows):
            break
    return rows[: len(pivot_cols)], pivot_cols


def _kernel_from_echelon(
    rows: list[list[int]], pivot_cols: list[int], ncols: int
) -> list[list[int]]:
    """Kernel basis from an echelon form: one vector per free column, with the
    free coordinate set to 1, then scaled to a primitive integer vector.

    Back-substitution keeps the vector as integers up to one common nonzero
    factor, rescaling them when a pivot does not divide its entry, to avoid
    rational arithmetic in the inner loop.
    """
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    supports = [
        [(c, v) for c, v in enumerate(row) if v and c > pc]
        for row, pc in zip(rows, pivot_cols)
    ]
    basis = []
    for fc in free_cols:
        num = [0] * ncols  # the vector times a common nonzero integer
        num[fc] = 1
        for i in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[i]
            s = 0
            for c, v in supports[i]:
                if num[c]:
                    s += v * num[c]
            if s == 0:
                continue
            piv = rows[i][pc]
            # entry pc is -s / piv: rescale the whole vector by piv / gcd(s, piv)
            g = gcd(s, piv)
            s_red, piv_red = s // g, piv // g
            if piv_red == 1 or piv_red == -1:
                num[pc] = -s_red * piv_red
            else:
                num = [x * piv_red for x in num]
                num[pc] = -s_red
        basis.append(_primitive(num))
    return basis


def kernel_basis(rows: list[list], ncols: int) -> list[list[int]]:
    """Exact kernel basis of the linear system rows * x = 0.

    Accepts rows of ints or Fractions; returns primitive integer vectors as
    lists of int (gcd 1, first nonzero entry positive), one per free column
    of the reduced system, in a deterministic order.
    """
    int_rows = _dedupe([_row_to_int(r) for r in rows])
    if not int_rows:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    for p in _PRIMES:
        selected = _independent_rows_mod_p(int_rows, ncols, p)
        subset = [int_rows[i] for i in selected]
        echelon, pivot_cols = _echelon_int(subset)
        if len(pivot_cols) != len(subset):
            # cannot happen: mod-p independent rows are exactly independent
            continue
        basis = _kernel_from_echelon(echelon, pivot_cols, ncols)
        if _verify_kernel(int_rows, basis):
            return basis
    raise ArithmeticError("kernel verification failed for all fallback primes")


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
    """Unique-solution exact solve of rows * x = rhs.

    Returns None when the system is inconsistent.  Intended for systems with
    full column rank; if the kernel is nontrivial the returned solution is the
    one with free coordinates set to 0.
    """
    ncols = len(rows[0]) if rows else 0
    aug = []
    for row, b in zip(rows, rhs):
        aug.append([Fraction(c) for c in row] + [Fraction(b)])
    pivot_cols: list[int] = []
    top = 0
    for col in range(ncols):
        best = -1
        best_val = Fraction(0)
        for i in range(top, len(aug)):
            v = abs(aug[i][col])
            if v > best_val:
                best, best_val = i, v
        if best < 0:
            continue
        aug[top], aug[best] = aug[best], aug[top]
        piv = aug[top][col]
        for i in range(len(aug)):
            if i == top:
                continue
            v = aug[i][col]
            if v:
                factor = v / piv
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[top])]
        pivot_cols.append(col)
        top += 1
        if top == len(aug):
            break
    for i in range(top, len(aug)):
        if aug[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, col in enumerate(pivot_cols):
        sol[col] = aug[i][ncols] / aug[i][col]
    return sol

"""Reference systems that the library itself never solves: every condition
of a space over its root's closed-form basis, and primitivity over raw word
coordinates, whose rows are paired with a basis of unit words.  Also the
references that the library's row matrix, chunked scan and kernel
certificate must reproduce: rows compiled into Python lists, the row-by-row
mod-p scan, and the exact row-by-row kernel check."""

from __future__ import annotations

import numpy as np

from dslforge.series import XSeries
from dslforge.spaces import (
    _ROW_BUILDERS,
    SpaceId,
    SubspaceBasis,
    _word_index,
    compile_constraints,
    rational_kernel,
    root_basis,
)
from dslforge.words import all_xwords, shuffle_words, word_pairs


def full_rows_kernel(space: SpaceId, k: int) -> SubspaceBasis:
    """The space's basis at weight k from the rows of all its conditions
    over its root's closed-form basis, bypassing its parent."""
    return rational_kernel(space, root_basis(space.root, k), compile_constraints(space, k))


def harmonic_row(table: dict, n: int, terms) -> list:
    """The row psi -> sum of mult * <image of psi | key> over the terms
    (key, mult) as a Python list, where table maps keys to [(column, coeff)]
    of the images: the list builder that the compiled matrix replaces."""
    row = [0] * n
    for key, mult in terms:
        for j, c in table.get(key, ()):
            row[j] += mult * c
    return row


def list_rows(rows, n: int) -> list:
    """The rows (table, terms) of a row builder as Python lists of n ints."""
    return [harmonic_row(table, n, terms) for table, terms in rows]


def compile_lists(tags: tuple, basis: SubspaceBasis) -> list:
    """The rows of the conditions over the basis vectors as columns, as
    Python lists: the reference for spaces._compile's matrix."""
    index = _word_index([v.terms for v in basis.vectors])
    return [row for tag in tags
            for row in list_rows(_ROW_BUILDERS[tag](index, basis.weight), basis.dimension)]


def verify_kernel_by_rows(rows, basis: list[list[int]]) -> bool:
    """The exact row loop that linalg._certify replaces, kept as its
    reference: True when every basis vector annihilates every row, given
    as a list of Python ints (a matrix's .tolist())."""
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


def compile_primitivity_raw(k: int) -> list:
    """Primitivity over raw word coordinates: one row per nonempty pair
    (u, v), |u| <= |v|, |u|+|v| = k, with entries the interleaving
    multiplicities, over the words of weight k in sorted order.  Oracle for
    the Lyndon parametrization."""
    pos = {w: i for i, w in enumerate(sorted(all_xwords(k)))}
    rows = []
    for u, v in word_pairs(k, all_xwords):
        row = [0] * len(pos)
        for w, m in shuffle_words(u, v).items():
            row[pos[w]] += m
        rows.append(row)
    return rows


def raw_kernel(space: SpaceId, k: int, rows: list) -> SubspaceBasis:
    """The space's basis at weight k from rows over raw word coordinates: the
    columns are the unit vectors at the words of weight k, in sorted order."""
    units = SubspaceBasis(space, k, [XSeries({w: 1}, k) for w in sorted(all_xwords(k))])
    return rational_kernel(space, units, rows)


def rref_mod_p_by_rows(rows: list[list[int]], ncols: int, p: int):
    """The row-by-row scan that linalg._rref_mod_p replaces, kept as its
    reference: Gauss-Jordan elimination modulo p, scanning the rows in order.

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

"""Reference systems that the library itself never solves: every condition
of a space over its root's closed-form basis, and primitivity over raw word
coordinates, whose rows are paired with a basis of unit words."""

from __future__ import annotations

from dslforge.series import XSeries
from dslforge.spaces import (
    SpaceId,
    SubspaceBasis,
    compile_constraints,
    rational_kernel,
    root_basis,
)
from dslforge.words import all_xwords, shuffle_words, word_pairs


def full_rows_kernel(space: SpaceId, k: int) -> SubspaceBasis:
    """The space's basis at weight k from the rows of all its conditions
    over its root's closed-form basis, bypassing its parent."""
    return rational_kernel(space, root_basis(space.root, k), compile_constraints(space, k))


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

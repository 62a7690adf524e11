"""Reference systems that the library itself never solves: every condition
of a space over its root's closed-form basis, and primitivity over raw word
coordinates, whose rows are paired with a basis of unit words.  Also the
references that the library's row matrix, chunked scan and kernel
certificate must reproduce: rows compiled into Python lists from a word
index, the row-by-row mod-p scan, and the exact row-by-row kernel check.
The cache entry by its definition: its checksum as the CRC-32 of
json.dumps(..., sort_keys=True), and its text as one json.dumps of the
basis's JSON object, whose coefficients are written by the coefficient
rule that str must match.  And two helpers that several test modules
share: the Moebius function of the Witt-formula oracles and a seeded random
series."""

from __future__ import annotations

import json
import random
import zlib
from itertools import pairwise

import numpy as np

from dslforge.algebra import _harmonic_products, _sharp_terms, _star_terms
from dslforge.linalg import int_matrix
from dslforge.series import XSeries
from dslforge.spaces import (
    SpaceId,
    SubspaceBasis,
    compile_constraints,
    rational_kernel,
    root_basis,
)
from dslforge.words import all_xwords, shuffle_words, word_pairs


def coeff_str(c) -> str:
    """A stored coefficient (an int, or a Fraction whose denominator is above
    1) as a file holds it: "p" or "p/q"."""
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def basis_json_dict(basis: SubspaceBasis) -> dict:
    """The basis's JSON object: its header, then each vector as an
    ncseries-v1 object, its terms in written order."""
    return {
        **basis._header(),
        "vectors": [
            {"format": "ncseries-v1", "alphabet": "x01", "weight_bound": v.weight_bound,
             "terms": [{"word": w, "coeff": coeff_str(v.terms[w])}
                       for w in sorted(v.terms, key=lambda w: (len(w), w))]}
            for v in basis.vectors
        ],
    }


def reference_checksum(doc: dict) -> int:
    """The CRC-32 of a cache entry's canonical JSON, as it is defined."""
    return zlib.crc32(json.dumps(doc, sort_keys=True).encode())


def reference_entry(basis: SubspaceBasis) -> str:
    """The text of the basis's cache entry, written as a whole: its JSON
    object with the checksum of that object under "crc32", dumped once."""
    payload = basis_json_dict(basis)
    payload["crc32"] = reference_checksum(payload)
    return json.dumps(payload)


def full_rows_kernel(space: SpaceId, k: int) -> SubspaceBasis:
    """The space's basis at weight k from the rows of all its conditions
    over its root's closed-form basis, bypassing its parent."""
    return rational_kernel(space, root_basis(space.root, k), compile_constraints(space, k))


def word_index(columns: list[dict]) -> dict:
    """word -> [(column, coeff)] over the integer columns {word: int}."""
    index: dict = {}
    for j, terms in enumerate(columns):
        for w, c in terms.items():
            index.setdefault(w, []).append((j, c))
    return index


def harmonic_row(table: dict, n: int, terms) -> list:
    """The row psi -> sum of mult * <image of psi | key> over the terms
    (key, mult) as a Python list, where table maps keys (X-words, or the
    codes of Y-words) to [(column, coeff)] of the images, summed exactly in
    Python ints: the list builder that the compiled matrix replaces."""
    row = [0] * n
    for key, mult in terms:
        for j, c in table.get(key, ()):
            row[j] += mult * c
    return row


def product_rows(table: dict, m: int) -> list:
    """One row per spanning product of weight m (_harmonic_products), over a
    table keyed by the codes of Y-words."""
    starts, codes, mults = _harmonic_products(m)
    return [(table, zip(codes[a:b], mults[a:b])) for a, b in pairwise(starts)]


def star_harmonic_rows(index: dict, k: int) -> list:
    """One row per non-Lyndon Y-word of weight k, for its product u * v: the
    functional psi -> <k * star_word(psi) | u * v>, with the image read off
    the column words by _star_terms; the factor k makes it integral."""
    star: dict = {}
    for w, code, factor in _star_terms(index, k):
        star.setdefault(code, []).extend((j, factor * c) for j, c in index[w])
    return product_rows(star, k)


def sharp_harmonic_rows(index: dict, k: int) -> list:
    """One row per non-Lyndon Y-word of weight m, 2 <= m < k, for its product
    u * v: the functional psi -> <q_right(psi) | y_{k-m} (u * v)>, read off
    the layer m of the codes that _sharp_terms reads off the column words."""
    layers: dict = {}
    for w, m, code in _sharp_terms(index):
        layers.setdefault(m, {})[code] = index[w]
    return [row for m in range(2, k) for row in product_rows(layers.get(m, {}), m)]


def sharp_depth_one_rows(index: dict, k: int) -> list:
    """The explicit depth-one tail row: <psi | x1 x0^{k-2} x1> = 0."""
    return [(index, (("1" + "0" * (k - 2) + "1", 1),))]


def corner00_rows(index: dict, k: int) -> list:
    """One row per word x0*w*x0 appearing in some column."""
    corners = sorted(w for w in index if len(w) >= 2 and w[0] == "0" and w[-1] == "0")
    return [(index, ((w, 1),)) for w in corners]


def parity_rows(index: dict, k: int) -> list:
    """One row per middle w of a column word not of the form x0 w x0 (over raw
    word columns, every w of weight k-2): <.|x1 w x1> + <.|x1 w x0> + <.|x0 w x1>."""
    middles = sorted(
        {w[1:-1] for w in index if len(w) >= 2 and (w[0], w[-1]) != ("0", "0")}
    )
    return [(index, (("1" + w + "1", 1), ("1" + w + "0", 1), ("0" + w + "1", 1)))
            for w in middles]


# Each builder reads the word -> [(column, coeff)] index of the columns and
# the weight, and returns its rows as (table, terms), in row order: the row
# harmonic_row(table, n, terms).
ROW_BUILDERS = {
    "star-harmonic": star_harmonic_rows,
    "sharp-harmonic": sharp_harmonic_rows,
    "sharp-depth-one": sharp_depth_one_rows,
    "corner00": corner00_rows,
    "parity": parity_rows,
}


def list_rows(rows, n: int) -> list:
    """The rows (table, terms) of a row builder as Python lists of n ints."""
    return [harmonic_row(table, n, terms) for table, terms in rows]


def compile_lists(tags: tuple, basis: SubspaceBasis) -> list:
    """The rows of the conditions over the basis vectors as columns, as
    Python lists: the reference for spaces._compile's matrix."""
    index = word_index([v.terms for v in basis.vectors])
    return [row for tag in tags
            for row in list_rows(ROW_BUILDERS[tag](index, basis.weight), basis.dimension)]


def unit_basis(space: SpaceId, k: int) -> SubspaceBasis:
    """The unit vectors at the words of weight k, in sorted order, as a basis
    of the space: raw word coordinates."""
    return SubspaceBasis(space, k, [XSeries({w: 1}, k) for w in sorted(all_xwords(k))])


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
    units = unit_basis(space, k)
    return rational_kernel(space, units, int_matrix(rows, units.dimension))


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


def mobius(n: int) -> int:
    """The Moebius function of n >= 1, by trial division."""
    out, q = 1, 2
    while n > 1:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            out = -out
        q += 1
    return out


def random_series(rng: random.Random, bound: int, min_weight: int = 2) -> XSeries:
    """Each word of weight min_weight..bound, in all_xwords order, with
    probability 0.3 and a coefficient drawn from -3..3."""
    items = []
    for k in range(min_weight, bound + 1):
        for w in all_xwords(k):
            if rng.random() < 0.3:
                items.append((w, rng.randint(-3, 3)))
    return XSeries(items, bound)

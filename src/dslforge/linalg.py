"""Exact integer nullspace and rational solve routines, on one modular engine.

The rows of a system are held as one integer matrix, rows by columns: a
numpy int64 array, or an object array of Python ints when some entry lies
beyond int64.  A matrix is used as given: every pass reads slices of it and
nothing copies, scales or casts the whole.  int_matrix is the one way a
list of rows becomes that matrix: a row of ints and Fractions is multiplied
by the lcm of its denominators, and any other entry is refused.  A
vectorized Gauss-Jordan elimination modulo a prime p selects a maximal
independent row subset and leaves its reduced row echelon form (RREF).  It
reads the matrix in chunks, each reduced mod p and cleaned against the RREF
with one int64 product, so the rows that add no pivot, most of them in a
narrow system, cost no Python per row; the survivors become pivots in row
order, as a row-by-row scan takes them.  The canonical kernel mod p is read
directly off the RREF: for each free column fc, x[fc] = 1 and
x[pivot_col(i)] = -R[i][fc].  Each RREF row keeps its leading entry at its
own pivot, so the pivot columns are the leading columns of the row space:
row order, scaling, repeats and zero rows change neither them nor the
canonical kernel.  The same reduction runs on the selected rows modulo
further primes; the residues are combined by the Chinese remainder theorem
and each entry is recovered as a rational by rational reconstruction (Wang,
Guy & Davenport, SIGSAM Bull. 1982).  Each vector is then scaled to a
primitive integer vector.

A basis is returned only once a multi-modular certificate shows that it
annihilates every row exactly.  With B = ncols * max|a_ij| * max|v_j|,
|a . v| <= B for every row a and basis vector v.  The products of the
matrix with the basis are taken modulo primes q, in int64 chunks, until the
product of the q exceeds B; each a . v is then a multiple of a number
larger than |a . v|, so it is 0.  There is no fraction-free elimination and
no probabilistic step, and the output is deterministic for a fixed input.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from math import gcd, isqrt, lcm


def _primes_below(n: int):
    """The odd primes below the odd number n, largest first."""
    while n > 3:
        n -= 2
        if all(n % q for q in range(3, isqrt(n) + 1, 2)):
            yield n


# Primes just under 2**25.  The mod-p reduction cleans a row with one int64
# product that sums up to rank terms below p**2, so it is exact while
# rank * (p - 1)**2 < 2**63: ranks up to 8192 for these primes.  The
# certificate's products sum ncols such terms: up to 8192 columns.  The first
# few are found once; a kernel whose entries need more draws them on demand.
_PRIMES = tuple(islice(_primes_below(2**25 + 1), 8))

# The most primes one kernel_basis call draws, so that a wrong mod-p engine
# fails instead of looping.  Every kernel of every space up to weight 13 takes
# at most 3; 64 reconstruct entries of about 790 bits over 790 bits.
_MAX_PRIMES = 64

# The most rows _rref_mod_p reduces and cleans at once.  64 rows of 186
# columns (weight 11) are 95 KB of int64, so a chunk and its few temporaries
# leave the peak memory of a weight-11 table as it was (256 rows added 1 MB),
# and narrow systems scan as fast as with larger chunks.
_CHUNK_ROWS = 64

# The entries of one chunk of the certificate (_certify): 64 K entries are
# 512 KB of int64, about 350 rows at weight 11.
_CHECK_ENTRIES = 1 << 16


def int_matrix(rows, ncols: int):
    """The len(rows) x ncols integer matrix of a list of rows of ints and
    Fractions, filled row by row into one preallocated array: numpy int64,
    or, from the first row with an entry beyond int64 on (where the int64
    fill raises OverflowError instead of wrapping), an object array of
    Python ints.  A row holding a Fraction is multiplied by the lcm of its
    denominators, which keeps its kernel.  Any other entry raises TypeError,
    where numpy would truncate a float or parse a string; a row of another
    length raises ValueError, where numpy would broadcast a one-entry row."""
    import numpy as np  # imported on first use, so `import dslforge` does not load it

    A = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError(f"row {i} has {len(row)} entries, not {ncols}")
        if set(map(type, row)) - {int}:
            if bad := [type(c).__name__ for c in row if type(c) not in (int, Fraction)]:
                raise TypeError(f"row {i} holds a {bad[0]}, not an int or a Fraction")
            den = lcm(*(c.denominator for c in row))
            row = [c.numerator * (den // c.denominator) for c in row]
        try:
            A[i] = row
        except OverflowError:  # an entry beyond int64
            A = A.astype(object)
            A[i] = row
    return A


def _rref_mod_p(rows, ncols: int, p: int):
    """Gauss-Jordan elimination modulo p, scanning the rows of the matrix
    rows (int_matrix) in order.

    Returns (selected, pivot_cols, kernel): the indices of a maximal
    independent subset, the sorted pivot columns, and the canonical kernel of
    their span mod p as a dict {(free column fc, pivot column): -R[i][fc] mod
    p} of its nonzero entries.  R is the reduced row echelon form (RREF);
    since its pivot columns hold the identity, only its free columns are
    kept, packed to the front of the buffer F.

    The rows are read in chunks, slices of the matrix.  Each chunk is
    reduced mod p into int64 once and cleaned against R with one matrix
    product, which sums one term below p**2 per pivot, so a pivot that
    would take rank * (p - 1)**2 to 2**63 raises ArithmeticError instead of
    letting int64 wrap.  Rows that vanish are dropped together; the first
    survivor is the next pivot and the rest are cleaned of it, in row
    order, so the selection, the pivots and R are those of a row-by-row
    scan.  A chunk without a pivot doubles the next chunk, up to
    _CHUNK_ROWS rows, and a chunk with pivots halves it.
    """
    import numpy as np  # imported on first use, so `import dslforge` does not load it

    F = np.zeros((min(len(rows), ncols), ncols), dtype=np.int64)
    perm = np.arange(ncols)  # free columns, then pivot columns newest first
    nfree = ncols
    selected: list[int] = []
    start, size = 0, 1
    while start < len(rows) and nfree:
        V = (rows[start : start + size, perm] % p).astype(np.int64, copy=False)
        W = V[:, :nfree]
        if nfree < ncols:
            W = (W - V[:, nfree:][:, ::-1] @ F[: ncols - nfree, :nfree]) % p
        found = len(selected)
        while nfree and len(W) and (live := np.flatnonzero(W.any(axis=1))).size:
            i = int(live[0])
            w = W[i]
            nz = np.flatnonzero(w)
            j = int(nz[perm[nz].argmin()])  # the leading column
            rank = ncols - nfree
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
            selected.append(start + i)
            start, W = start + i + 1, W[i + 1 :]
            nfree -= 1  # column j turns pivot: swap it to the end of the free ones
            F[: rank + 1, j] = F[: rank + 1, nfree]
            perm[j], perm[nfree] = perm[nfree], perm[j]
            if len(W):  # clean the rows below of the new pivot
                W = (W - np.outer(W[:, j], w)) % p
                W[:, j] = W[:, nfree]
                W = W[:, :nfree]
        start += len(W)
        size = max(size // 2, 1) if len(selected) > found else min(2 * size, _CHUNK_ROWS)
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
    column, or None when some entry has no rational reconstruction yet.  The
    lcm of denominators in lowest terms leaves a gcd of 1, so only the sign
    is set: each prime of the lcm misses the entry whose denominator it
    divides to the full power."""
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
        if next(v for v in vec if v) < 0:
            vec = [-v for v in vec]
        basis.append(vec)
    return basis


def _prime_budget():
    """The primes of one kernel_basis call, then ArithmeticError."""
    yield from islice(chain(_PRIMES, _primes_below(_PRIMES[-1])), _MAX_PRIMES)
    raise ArithmeticError(f"kernel_basis: {_MAX_PRIMES} primes gave no verified basis")


def kernel_basis(rows, ncols: int) -> list[list[int]]:
    """Exact kernel basis of the linear system rows * x = 0, for a matrix
    rows with ncols columns (int_matrix: int64, or object for entries
    beyond int64).

    The matrix is used as given: every pass and the certificate read slices
    of it, the reruns read its selected rows, and the caller's array is
    never copied whole, scaled or cast.  Rows may come in any order, scaled
    or repeated, zero rows included.  Returns primitive integer
    vectors as lists of int (gcd 1, first nonzero entry positive), one per
    free column in increasing order: the vector with that coordinate 1 and
    every other free coordinate 0, scaled.  The base prime's RREF selects
    the rows and fixes the pivot columns; later primes, run on the selected
    rows only, add residues until the reconstructed basis annihilates every
    row, as _certify shows exactly.  A prime that shows other pivot columns
    is skipped, unless they prove the base prime unlucky (lexicographically
    earlier), or the lifted kernel of the selected rows misses some other
    row: then the next prime becomes the base.  ArithmeticError is raised
    when _MAX_PRIMES primes give no certified basis.
    """
    primes = _prime_budget()
    while True:
        p = next(primes)
        selected, pivot_cols, residues = _rref_mod_p(rows, ncols, p)
        subset = rows[selected]
        free_cols = sorted(set(range(ncols)).difference(pivot_cols))
        modulus = p
        while True:
            basis = _lift(residues, modulus, free_cols, ncols)
            if basis is not None:
                if _certify(rows, basis):
                    return basis
                if _certify(subset, basis):
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


def _certify(rows, basis: list[list[int]]) -> bool:
    """True when every basis vector annihilates every row of the matrix
    rows, exactly.

    With B = ncols * max|a_ij| * max|v_j| >= |a . v|, the products of the
    rows with the basis are taken modulo the primes _PRIMES, then further
    primes, until their product exceeds B: a . v is then a multiple of a
    number above |a . v|, so 0 when every residue is.  Each product is
    taken in int64 over a chunk of rows (_CHECK_ENTRIES entries), reduced
    mod q only when some entry reaches q, and sums ncols terms below q**2;
    a prime with ncols * (q - 1)**2 >= 2**63 raises ArithmeticError instead
    of letting int64 wrap.  The first nonzero residue stops the check.
    """
    import numpy as np

    if not basis or not rows.size:
        return True
    nrows, ncols = rows.shape
    V = int_matrix(basis, ncols).T
    amax = max(int(rows.max()), -int(rows.min()))
    bound = ncols * amax * max(int(V.max()), -int(V.min()))
    step = max(_CHECK_ENTRIES // ncols, 1)
    modulus = 1
    for q in chain(_PRIMES, _primes_below(_PRIMES[-1])):
        if modulus > bound:
            return True
        if ncols * (q - 1) ** 2 >= 2**63:
            raise ArithmeticError(
                f"mod-{q} kernel certificate would overflow int64 at {ncols} columns: "
                "ncols * (q - 1)**2 must stay below 2**63"
            )
        Vq = (V % q).astype(np.int64, copy=False)
        reduce = amax >= q or rows.dtype == object
        for start in range(0, nrows, step):
            chunk = rows[start : start + step]
            if reduce:
                chunk = (chunk % q).astype(np.int64, copy=False)
            if ((chunk @ Vq) % q).any():
                return False
        modulus *= q


def solve_exact(rows: list[list], rhs: list) -> list[Fraction] | None:
    """Exact solve of rows * x = rhs, or None when it is inconsistent.

    The rows and rhs hold ints and Fractions.  Intended for systems with
    full column rank.  The solution is read off the canonical kernel of
    [rows | -rhs] (int_matrix): its last vector has a nonzero last
    coordinate exactly when the system is consistent, and then gives the
    solution with every free coordinate set to 0.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [list(row) + [-b] for row, b in zip(rows, rhs)]
    basis = kernel_basis(int_matrix(aug, ncols + 1), ncols + 1)
    if not basis or not basis[-1][ncols]:
        return None
    *x, den = basis[-1]
    return [Fraction(c, den) for c in x]

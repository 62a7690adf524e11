from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from dslforge import linalg
from dslforge.cache import _resolve_basis, get_basis
from dslforge.linalg import int_matrix, kernel_basis, solve_exact
from dslforge.spaces import (
    ADDMR,
    ADDMR_FAD,
    ADDMR_FAD_PARITY,
    DMR,
    FAD_PARITY,
    SpaceId,
    compile_constraints,
    compile_on_parent,
    root_basis,
)
from conftest import record_acceptance
from reference_systems import rref_mod_p_by_rows, verify_kernel_by_rows


def _naive_kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Plain rational Gauss-Jordan kernel, used as an independent oracle."""
    mat = [[Fraction(c) for c in r] for r in rows]
    pivots: list[int] = []
    top = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(top, len(mat)):
            if mat[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[top], mat[pivot_row] = mat[pivot_row], mat[top]
        piv = mat[top][col]
        mat[top] = [c / piv for c in mat[top]]
        for i in range(len(mat)):
            if i != top and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[top])]
        pivots.append(col)
        top += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis


def test_kernel_examples() -> None:
    # zero matrix: the whole space
    assert len(kernel_basis(int_matrix([[0, 0, 0]], 3), 3)) == 3
    assert len(kernel_basis(int_matrix([], 3), 3)) == 3
    # identity: trivial kernel
    assert kernel_basis(int_matrix([[1, 0], [0, 1]], 2), 2) == []
    # single row [1, -2] -> kernel spanned by (2, 1)
    assert kernel_basis(int_matrix([[1, -2]], 2), 2) == [[Fraction(2), Fraction(1)]]


def test_kernel_accepts_fractions_and_repeated_rows() -> None:
    rows = [
        [Fraction(1, 2), Fraction(-1)],
        [Fraction(1), Fraction(-2)],  # same row up to scaling
        [Fraction(2), Fraction(-4)],
    ]
    basis = kernel_basis(int_matrix(rows, 2), 2)
    assert basis == [[Fraction(2), Fraction(1)]]


def test_kernel_against_naive_oracle() -> None:
    rng = random.Random(67)
    for trial in range(30):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 7)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        got = kernel_basis(int_matrix(rows, ncols), ncols)
        expected = _naive_kernel(rows, ncols)
        assert len(got) == len(expected)
        # every returned vector annihilates every row
        for vec in got:
            for row in rows:
                assert sum(c * v for c, v in zip(row, vec)) == 0
        # and is in the span of the oracle kernel: rank of the union stays put
        union = [[Fraction(c) for c in v] for v in expected + got]
        assert len(_naive_kernel(union, ncols)) == ncols - len(expected)


def test_kernel_vectors_are_primitive_integer() -> None:
    from math import gcd

    basis = kernel_basis(int_matrix([[1, -2, 0], [0, 0, 0]], 3), 3)
    for vec in basis:
        ints = [int(c) for c in vec]
        assert all(Fraction(i) == c for i, c in zip(ints, vec))
        g = 0
        for v in ints:
            g = gcd(g, v)
        assert g == 1
        first = next(v for v in ints if v)
        assert first > 0


def test_kernel_deterministic() -> None:
    rng = random.Random(71)
    rows = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(9)]
    a = kernel_basis(int_matrix(rows, 6), 6)
    b = kernel_basis(int_matrix([list(r) for r in rows], 6), 6)
    assert a == b


def test_solve_exact() -> None:
    sol = solve_exact([[2, 0], [0, 4]], [6, 2])
    assert sol == [Fraction(3), Fraction(1, 2)]
    # inconsistent
    assert solve_exact([[1, 1], [1, 1]], [0, 1]) is None
    # overdetermined consistent
    sol = solve_exact([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
    assert sol == [Fraction(2), Fraction(3)]


def test_kernel_vectors_are_plain_ints() -> None:
    rows = [[Fraction(1, 2), Fraction(-1), 0], [0, 3, -6]]
    for basis in (kernel_basis(int_matrix(rows, 3), 3), kernel_basis(int_matrix([], 2), 2)):
        assert basis
        assert all(type(c) is int for vec in basis for c in vec)
    assert kernel_basis(int_matrix(rows, 3), 3) == [[4, 2, 1]]


@pytest.mark.parametrize("name", ["dmr", "addmr", "fad-parity"])
def test_kernel_ignores_row_order_scaling_repeats_and_zero_rows(name) -> None:
    """The pivot columns are the leading columns of the row space, so the
    canonical kernel of the compiled rows survives any change that keeps
    that space."""
    space = SpaceId.parse(name)
    rng = random.Random(83)
    for k in range(space.min_weight, 10):
        compiled = compile_constraints(space, k)
        ncols, n = root_basis(space.root, k).dimension, len(compiled)
        picks = [compiled[rng.sample(range(n), m)] for m in (n // 4, n // 3, n // 4)]
        rows = np.concatenate([
            compiled, picks[0], np.zeros((3, ncols), dtype=np.int64), -picks[1], 7 * picks[2],
        ])
        rows = rows[rng.sample(range(len(rows)), len(rows))]
        assert rows.dtype == np.int64
        want = kernel_basis(compiled, ncols)
        assert kernel_basis(rows, ncols) == want, k
        assert kernel_basis(int_matrix(rows.tolist(), ncols), ncols) == want, k


def test_kernel_reduces_the_callers_own_integer_rows(monkeypatch) -> None:
    """The compiled int64 matrix reaches the first pass itself, not a copy;
    the reruns get its selected rows, exactly."""
    from dslforge import linalg

    seen = []

    def spy(rows, ncols, p):
        seen.append(rows)
        return rref(rows, ncols, p)

    rref = linalg._rref_mod_p
    monkeypatch.setattr(linalg, "_rref_mod_p", spy)
    rows = compile_constraints(DMR, 9)  # certified on the second prime
    want = rows.tolist()
    kernel_basis(rows, rows.shape[1])
    assert seen[0] is rows and rows.dtype == np.int64
    assert rows.tolist() == want
    selected = rref(rows, rows.shape[1], linalg._PRIMES[0])[0]
    assert len(seen) > 1
    assert all(again.tolist() == [want[i] for i in selected] for again in seen[1:])


def test_a_list_of_rows_becomes_one_matrix_once(monkeypatch) -> None:
    """int_matrix clears a row holding a Fraction once, by the lcm of its
    denominators, and the first pass of kernel_basis reads the very array
    that int_matrix returned."""
    seen = []

    def spy(rows, ncols, p):
        seen.append(rows)
        return rref(rows, ncols, p)

    rref = linalg._rref_mod_p
    monkeypatch.setattr(linalg, "_rref_mod_p", spy)
    rows = int_matrix([[Fraction(1, 2), Fraction(-1), 0], [0, 3, -6], [1, -2, 0]], 3)
    assert rows.dtype == np.int64 and rows.tolist() == [[1, -2, 0], [0, 3, -6], [1, -2, 0]]
    assert kernel_basis(rows, 3) == [[4, 2, 1]]
    assert seen[0] is rows


def test_int_matrix_takes_only_ints_and_fractions() -> None:
    """A Fraction row is cleared, not truncated; a float or a string is
    refused, where numpy would truncate or parse it."""
    assert int_matrix([[Fraction(3, 2), 1]], 2).tolist() == [[3, 2]]
    for entry in (2.5, "7"):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            int_matrix([[entry, 1]], 2)


def test_int_matrix_holds_entries_beyond_int64_as_python_ints() -> None:
    rows = [[1, -2, 3], [2**63, 0, -(2**70)], [4, 5, 6]]
    A = int_matrix(rows, 3)
    assert A.dtype == object and A.tolist() == rows
    assert all(type(c) is int for row in A.tolist() for c in row)
    B = int_matrix(rows[:1] + rows[2:], 3)
    assert B.dtype == np.int64 and B.tolist() == rows[:1] + rows[2:]
    for short_or_long in ([1], [1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError):
            int_matrix([[1, 2, 3], short_or_long], 3)


def test_mod_p_selection_refuses_int64_overflow() -> None:
    from dslforge.linalg import _rref_mod_p

    # rank * (p - 1)**2 < 2**63 holds for two pivots and fails for the third
    p = 2**31 - 1
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 0], [0, 0, 1, 1]]
    assert _rref_mod_p(int_matrix(rows[:2], 4), 4, p)[0] == [0, 1]
    with pytest.raises(ArithmeticError, match="int64"):
        _rref_mod_p(int_matrix(rows, 4), 4, p)


def _corrupt_residues(monkeypatch) -> list:
    """Make linalg._rref_mod_p return each kernel residue plus 1: every
    lift is consistent but wrong, so no basis ever verifies.  Returns the
    list of primes the engine is run on."""
    right, primes = linalg._rref_mod_p, []

    def corrupt(rows, ncols, p):
        primes.append(p)
        selected, pivot_cols, kernel = right(rows, ncols, p)
        return selected, pivot_cols, {key: (r + 1) % p for key, r in kernel.items()}

    monkeypatch.setattr(linalg, "_rref_mod_p", corrupt)
    return primes


def test_a_wrong_mod_p_engine_runs_out_of_primes(monkeypatch) -> None:
    rows = compile_constraints(DMR, 7)  # a one-dimensional kernel
    primes = _corrupt_residues(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match=f"kernel_basis: {linalg._MAX_PRIMES} primes"):
        kernel_basis(rows, len(rows[0]))
    assert time.perf_counter() - start < 5.0
    assert len(primes) == linalg._MAX_PRIMES == len(set(primes))


def _compiled_systems():
    """(space, k, matrix, ncols) for every system the library compiles for
    these spaces up to weight 10."""
    spaces = (DMR, ADDMR, ADDMR_FAD, ADDMR_FAD_PARITY, FAD_PARITY)
    for k in range(1, 11):
        resolved: dict = {}
        for space in spaces:
            _resolve_basis(space, k, False, resolved)
            parent = resolved[space.parent]
            yield space, k, compile_on_parent(space, parent), parent.dimension


def test_chunked_scan_matches_the_row_scan_on_compiled_systems() -> None:
    """Same (selected, pivot_cols, kernel) as the row-by-row reference on
    every compiled system up to weight 10."""
    for space, k, rows, ncols in _compiled_systems():
        for p in linalg._PRIMES[:2]:
            want = rref_mod_p_by_rows(rows, ncols, p)
            assert linalg._rref_mod_p(rows, ncols, p) == want, (space, k, p)


def test_certificate_agrees_with_the_row_loop_on_compiled_systems() -> None:
    """On every compiled system up to weight 10, the certificate accepts the
    true basis, and gives the exact row loop's verdict on copies with one
    entry moved by +-1 or by +-_PRIMES[0]."""
    rng = random.Random(26)
    p0 = linalg._PRIMES[0]
    rejected = 0
    for space, k, rows, ncols in _compiled_systems():
        lists = rows.tolist()
        basis = kernel_basis(rows, ncols)
        assert linalg._certify(rows, basis) and verify_kernel_by_rows(lists, basis)
        for delta in (1, -1, p0, -p0):
            for _ in range(3 if basis else 0):
                i, j = rng.randrange(len(basis)), rng.randrange(ncols)
                wrong = [list(v) for v in basis]
                wrong[i][j] += delta
                want = verify_kernel_by_rows(lists, wrong)
                assert linalg._certify(rows, wrong) == want, (space, k, delta, i, j)
                rejected += not want
    assert rejected > 100, rejected


@pytest.mark.slow
@pytest.mark.parametrize("name", ["fad", "dmr"])
def test_certificate_against_the_row_loop_at_weight_13(name) -> None:
    """Same verdicts as the exact row loop on a weight-13 kernel and on a
    copy with one entry moved by _PRIMES[0]; both times are recorded."""
    space = SpaceId.parse(name)
    parent = get_basis(space.parent, 13)
    rows = compile_on_parent(space, parent)
    basis = kernel_basis(rows, parent.dimension)
    wrong = [list(v) for v in basis]
    wrong[-1][0] += linalg._PRIMES[0]
    lists = rows.tolist()
    times = []
    for check, matrix in ((linalg._certify, rows), (verify_kernel_by_rows, lists)):
        start = time.perf_counter()
        assert check(matrix, basis) and not check(matrix, wrong)
        times.append(time.perf_counter() - start)
    record_acceptance(
        f"kernel check at {name} 13 ({rows.shape[0]} x {rows.shape[1]}, {len(basis)} "
        f"vectors, true and wrong basis): certificate {times[0]:.2f} s, "
        f"row loop {times[1]:.2f} s"
    )


def test_certificate_rejects_products_that_vanish_mod_its_first_primes() -> None:
    """A product that is a nonzero multiple of the first primes is caught by
    the next one, which the bound B = ncols * max|a| * max|v| calls for."""
    p = linalg._PRIMES
    for row, vec in (
        ([p[0], 0], [1, 1]),  # a . v = p0
        ([1, 0], [p[0], 1]),
        ([p[0] * p[1], 0], [1, 1]),  # a . v = p0 p1
        ([3, 1], [p[0] * p[1], -2 * p[0] * p[1]]),
        ([p[0] * p[1] * p[2] * p[3], 0], [1, 1]),  # an entry beyond int64
        ([1, 1], [2**70, p[0] * p[1] - 2**70]),
    ):
        rows = int_matrix([[0, 0], row], 2)
        product = sum(a * v for a, v in zip(row, vec))
        assert product and product % p[0] == 0
        assert not linalg._certify(rows, [vec]), (row, vec)
    assert int_matrix([[p[0] * p[1] * p[2] * p[3], 0]], 2).dtype == object


def test_certificate_accepts_correct_bases_beyond_int64() -> None:
    for row, vec in (
        ([3**80, 5**70], [5**70, -(3**80)]),  # object rows, object basis
        ([1, 1], [2**70, -(2**70)]),  # int64 rows, object basis
        ([2**62, -(2**62)], [1, 1]),  # the largest entries int64 holds
    ):
        rows = int_matrix([row, [0, 0], [-c for c in row]], 2)
        assert linalg._certify(rows, [vec]), (row, vec)
    assert kernel_basis(int_matrix([[3**80, 5**70]] * 3, 2), 2) == [[5**70, -(3**80)]]


def test_certificate_refuses_int64_overflow() -> None:
    # ncols * (q - 1)**2 < 2**63 fails for the primes near 2**25 at 8200 columns
    ncols = 8200
    rows = np.zeros((2, ncols), dtype=np.int64)
    rows[0, 0] = 1
    vec = [0] * ncols
    vec[1] = 1
    with pytest.raises(ArithmeticError, match="int64"):
        linalg._certify(rows, [vec])
    assert linalg._certify(rows[:, :2], [vec[:2]])


def _random_systems():
    """Seeded systems in the shapes the chunked scan treats differently:
    narrow with hundreds of rows, zero rows and repeats, rank-deficient,
    and a pivot that only arrives after hundreds of dependent rows."""
    rng = random.Random(22)
    for _ in range(12):
        ncols = rng.randint(1, 8)
        rank = rng.randint(0, ncols)
        base = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(rank)]
        rows = []
        for _ in range(rng.randint(100, 600)):
            roll = rng.random()
            if roll < 0.2 or not base:
                rows.append([0] * ncols)
            elif roll < 0.4 and rows:
                rows.append(list(rng.choice(rows)))
            else:
                coeffs = [rng.randint(-3, 3) for _ in base]
                rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(ncols)])
        if rng.random() < 0.5:  # one more independent row, late
            extra = [rng.randint(-9, 9) for _ in range(ncols)]
            rows.insert(rng.randint(len(rows) // 2, len(rows)), extra)
        yield rows, ncols
    for _ in range(6):  # wide and nearly square, zero rows included
        ncols = rng.randint(10, 40)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(ncols)]
                for _ in range(rng.randint(5, 60))]
        yield rows, ncols


@pytest.mark.parametrize("case", range(18))
def test_chunked_scan_matches_the_row_scan_on_random_systems(case) -> None:
    rows, ncols = list(_random_systems())[case]
    for p in linalg._PRIMES[:2]:
        got = linalg._rref_mod_p(int_matrix(rows, ncols), ncols, p)
        assert got == rref_mod_p_by_rows(rows, ncols, p)


def test_chunked_scan_reduces_entries_beyond_int64() -> None:
    """Chunks holding entries >= 2**63 are reduced mod p entry by entry.  The
    rows span ncols - 1 dimensions, so every row is scanned and the kernel
    reads the residues of the large entries."""
    rng = random.Random(63)
    p = linalg._PRIMES[0]
    for ncols in (2, 4, 7):
        base = [[rng.choice((-3, -1, 1, 2, 5)) for _ in range(ncols)] for _ in range(ncols - 1)]
        base[0][rng.randrange(ncols)] = rng.choice((1, -1)) * (2**63 + rng.randint(0, 2**70))
        rows = list(base)
        for _ in range(40):
            coeffs = [rng.randint(-2, 2) for _ in base]
            rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(ncols)])
        rows += [[0] * ncols] * 300 + [[(2**64 * p + 1) * c for c in base[-1]]]
        want = rref_mod_p_by_rows(rows, ncols, p)
        assert want[2]
        A = int_matrix(rows, ncols)
        assert A.dtype == object
        assert linalg._rref_mod_p(A, ncols, p) == want


def _naive_solve(rows: list[list], rhs: list) -> list[Fraction] | None:
    """Dense Fraction Gauss-Jordan solve, used as an independent oracle: None
    when inconsistent, else the solution with free coordinates set to 0."""
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


def test_kernel_recovers_from_an_unlucky_base_prime() -> None:
    from dslforge.linalg import _PRIMES

    p0 = _PRIMES[0]
    # mod p0 the second row repeats the first, so the base prime sees rank 1
    assert kernel_basis(int_matrix([[1, 1, 0], [1, 1 + p0, 0]], 3), 3) == [[0, 0, 1]]
    # mod p0 the first column vanishes, so the base prime pivots on column 1
    assert kernel_basis(int_matrix([[p0, 1]], 2), 2) == [[1, -p0]]
    assert solve_exact([[1, 1], [1, 1 + p0]], [2, 2 + p0]) == [1, 1]


def test_kernel_entries_wider_than_three_primes() -> None:
    from math import gcd

    rows = [[3**30, 5**25]]
    got = kernel_basis(int_matrix(rows, 2), 2)
    assert got == [[5**25, -(3**30)]]
    (oracle,) = _naive_kernel(rows, 2)
    den = oracle[0].denominator * oracle[1].denominator
    ints = [int(c * den) for c in oracle]
    g = gcd(*ints) * (1 if ints[0] > 0 else -1)
    assert [c // g for c in ints] == got[0]
    assert solve_exact([[3**30, 5**25], [0, 1]], [1, 7**20]) == _naive_solve(
        [[3**30, 5**25], [0, 1]], [1, 7**20]
    )
    # entries beyond int64, whose quotient needs more primes than the eight
    # that are found in advance
    assert kernel_basis(int_matrix([[3**80, 5**70]], 2), 2) == [[5**70, -(3**80)]]
    assert solve_exact([[3**80]], [5**70]) == [Fraction(5**70, 3**80)]


def _random_system(rng: random.Random, kind: str):
    nrows = rng.randint(1, 7)
    ncols = rng.randint(1, 6)
    rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "full":
        # square or tall and consistent; random entries give full column
        # rank in most draws
        ncols = min(ncols, nrows)
        rows = [r[:ncols] for r in rows]
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ncols)]
        rhs = [sum(c * v for c, v in zip(r, x)) for r in rows]
    elif kind == "deficient":
        # a repeated combination of two columns keeps the kernel nontrivial
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows = [r + [a * r[0] + b * r[-1]] for r in rows]
        x = [rng.randint(-4, 4) for _ in range(ncols + 1)]
        rhs = [sum(c * v for c, v in zip(r, x)) for r in rows]
    elif kind == "inconsistent":
        rows = rows + [[2 * c for c in rows[0]]]
        rhs = [rng.randint(-5, 5) for _ in rows[:-1]]
        rhs.append(2 * rhs[0] + rng.choice([-1, 1]))
    else:
        rows = [[Fraction(c, rng.randint(1, 3)) for c in r] for r in rows]
        rhs = [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in rows]
    return rows, rhs


def test_solve_exact_against_naive_solve() -> None:
    rng = random.Random(73)
    outcomes = {"none": 0, "solved": 0}
    for trial in range(240):
        kind = ("full", "deficient", "inconsistent", "fractions")[trial % 4]
        rows, rhs = _random_system(rng, kind)
        got = solve_exact(rows, rhs)
        expected = _naive_solve(rows, rhs)
        assert got == expected, (kind, rows, rhs)
        if got is None:
            assert kind != "full" and kind != "deficient"
            outcomes["none"] += 1
        else:
            assert all(type(c) is Fraction for c in got)
            outcomes["solved"] += 1
    assert outcomes["none"] >= 60 and outcomes["solved"] >= 120


def _loads_numpy(script: str) -> bool:
    """Whether numpy is loaded after a fresh interpreter runs the script
    with this checkout's package on its path."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dslforge

    src = Path(dslforge.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", script + "\nimport sys; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout.strip() == "True"


def test_importing_the_package_does_not_load_numpy() -> None:
    assert not _loads_numpy("import dslforge")


def test_decompose_and_brackets_do_not_load_numpy() -> None:
    """numpy loads with the first kernel or membership check, never for a
    decomposition, an ad(x1) inverse or a bracket."""
    assert not _loads_numpy(
        "from dslforge.algebra import concat_exp, concat_product\n"
        "from dslforge.lie import ad_x1, ad_x1_inverse, bracket1, fad_decompose\n"
        "from dslforge.series import XSeries\n"
        "psi = XSeries([('01', 1), ('10', -1)], 6)\n"
        "x1 = XSeries.word('1', 1, 6)\n"
        "assert fad_decompose(concat_product(concat_product(concat_exp(-psi), x1),"
        " concat_exp(psi))).is_member\n"
        "assert ad_x1_inverse(ad_x1(psi.with_bound(3))) == psi.with_bound(2)\n"
        "assert bracket1(XSeries([('01', 1)], 3), XSeries([('11', 1)], 3))"
        " == XSeries([('101', 1)], 3)"
    )
    assert _loads_numpy(
        "from dslforge.series import XSeries\n"
        "from dslforge.spaces import DMR, membership_check\n"
        "assert not membership_check(DMR, XSeries([('01', 1), ('10', -1)], 2)).passed"
    )

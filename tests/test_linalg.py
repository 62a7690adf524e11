from __future__ import annotations

import random
from fractions import Fraction

from dslforge.linalg import kernel_basis, solve_exact


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
    assert len(kernel_basis([[0, 0, 0]], 3)) == 3
    assert len(kernel_basis([], 3)) == 3
    # identity: trivial kernel
    assert kernel_basis([[1, 0], [0, 1]], 2) == []
    # single row [1, -2] -> kernel spanned by (2, 1)
    assert kernel_basis([[1, -2]], 2) == [[Fraction(2), Fraction(1)]]


def test_kernel_accepts_fractions_and_dedupes() -> None:
    rows = [
        [Fraction(1, 2), Fraction(-1)],
        [Fraction(1), Fraction(-2)],  # same row up to scaling
        [Fraction(2), Fraction(-4)],
    ]
    basis = kernel_basis(rows, 2)
    assert basis == [[Fraction(2), Fraction(1)]]


def test_dedupe_keeps_distinct_rows_with_equal_hashes() -> None:
    # hash(-1) == hash(-2) in CPython, so these distinct rows share a hash.
    assert hash((1, -1)) == hash((1, -2))
    assert kernel_basis([[1, -1], [1, -2]], 2) == []


def test_kernel_against_naive_oracle() -> None:
    rng = random.Random(67)
    for trial in range(30):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 7)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        got = kernel_basis(rows, ncols)
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

    basis = kernel_basis([[1, -2, 0], [0, 0, 0]], 3)
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
    a = kernel_basis(rows, 6)
    b = kernel_basis([list(r) for r in rows], 6)
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
    for basis in (kernel_basis(rows, 3), kernel_basis([], 2)):
        assert basis
        assert all(type(c) is int for vec in basis for c in vec)
    assert kernel_basis(rows, 3) == [[4, 2, 1]]


def test_mod_p_selection_refuses_int64_overflow() -> None:
    import pytest

    from dslforge.linalg import _rref_mod_p

    # rank * (p - 1)**2 < 2**63 holds for two pivots and fails for the third
    p = 2**31 - 1
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 0], [0, 0, 1, 1]]
    assert _rref_mod_p(rows[:2], 4, p)[0] == [0, 1]
    with pytest.raises(ArithmeticError, match="int64"):
        _rref_mod_p(rows, 4, p)


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
    assert kernel_basis([[1, 1, 0], [1, 1 + p0, 0]], 3) == [[0, 0, 1]]
    # mod p0 the first column vanishes, so the base prime pivots on column 1
    assert kernel_basis([[p0, 1]], 2) == [[1, -p0]]
    assert solve_exact([[1, 1], [1, 1 + p0]], [2, 2 + p0]) == [1, 1]


def test_kernel_entries_wider_than_three_primes() -> None:
    from math import gcd

    rows = [[3**30, 5**25]]
    got = kernel_basis(rows, 2)
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
    assert kernel_basis([[3**80, 5**70]], 2) == [[5**70, -(3**80)]]
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

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

    from dslforge.linalg import _independent_rows_mod_p

    # rank * (p - 1)**2 < 2**63 holds for two pivots and fails for the third
    p = 2**31 - 1
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 0], [0, 0, 1, 1]]
    assert _independent_rows_mod_p(rows[:2], 4, p) == [0, 1]
    with pytest.raises(ArithmeticError, match="int64"):
        _independent_rows_mod_p(rows, 4, p)

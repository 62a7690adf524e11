"""Expected answers computed without the library's own solvers.

Every function here works on plain dicts of word -> Fraction and Python
integers, so a fault in dslforge's compilation, elimination or series code
cannot make its own output look right.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# Paper tables for k = 1..11, written by hand (the same rows as the
# acceptance suite).
ADDMR = [0, 0, 0, 2, 2, 3, 3, 4, 5, 6, 7]
ADDMR_FAD = [0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1]


def _mobius(n: int) -> int:
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def free_lie_dims(generator_weights: list[int], kmax: int) -> list[int]:
    """Graded dimensions 1..kmax of the free Lie algebra on generators of the
    given weights (generalized Witt formula).

    With g(t) the generating series of the generators,
    log 1/(1 - g) = sum_n c_n t^n / n and n L_n = sum_{d | n} mu(n/d) c_d.
    """
    g = [0] * (kmax + 1)
    for w in generator_weights:
        if w <= kmax:
            g[w] += 1
    c = [Fraction(0)] * (kmax + 1)
    power = [1] + [0] * kmax  # g^m, starting at m = 0
    for m in range(1, kmax + 1):
        nxt = [0] * (kmax + 1)
        for i, a in enumerate(power):
            if a:
                for j in range(1, kmax + 1 - i):
                    nxt[i + j] += a * g[j]
        power = nxt
        for n in range(1, kmax + 1):
            if power[n]:
                c[n] += Fraction(n, m) * power[n]
    dims = []
    for n in range(1, kmax + 1):
        total = sum(_mobius(n // d) * c[d] for d in range(1, n + 1) if n % d == 0)
        if total % n:
            raise ArithmeticError("generalized Witt formula gave a non-integer")
        dims.append(int(total / n))
    return dims


def dmr_dims(kmax: int) -> list[int]:
    """Free Lie algebra on sigma_3, sigma_5, sigma_7, ...: 0,0,1,0,1,0,1,1,1,1,2."""
    return free_lie_dims(list(range(3, kmax + 1, 2)), kmax)


def expected_rows(kmax: int) -> dict[str, list[int]]:
    """The dimension rows the benchmark checks, k = 1..kmax (kmax <= 11)."""
    dmr = dmr_dims(kmax)
    return {
        "dmr": dmr,
        "addmr": ADDMR[:kmax],
        "addmr-fad": ADDMR_FAD[:kmax],
        # bracketing with x1 maps dmr_k onto the refinement at k + 1
        "addmr-fad-parity": [0] + dmr[: kmax - 1],
        # each parity row touches three columns no other row touches, so the
        # rank is 2^(k-2) and the kernel has 4 * 2^(k-2) - 2^(k-2) vectors
        "vstrprty": [0] + [3 * 2 ** (k - 2) for k in range(2, kmax + 1)],
    }


def ad_x0_power_x1(n: int, scale: int = 1) -> dict[str, Fraction]:
    """ad(x0)^n (x1) = sum_i (-1)^i C(n, i) x0^(n-i) x1 x0^i, times scale."""
    return {
        "0" * (n - i) + "1" + "0" * i: Fraction(scale * (-1) ** i * comb(n, i))
        for i in range(n + 1)
    }


def corner00(terms: dict) -> dict:
    """The terms on words that begin and end with x0 (length >= 2)."""
    return {w: c for w, c in terms.items() if len(w) >= 2 and w[0] == w[-1] == "0"}


def ad_x1(terms: dict) -> dict:
    """x1 * a - a * x1 on a homogeneous dict of words."""
    out: dict = {}
    for w, c in terms.items():
        for nw, s in (("1" + w, c), (w + "1", -c)):
            acc = out.get(nw, 0) + s
            if acc:
                out[nw] = acc
            else:
                out.pop(nw, None)
    return out


def rank(vectors: list[dict]) -> int:
    """Exact rank over Q of sparse vectors (dicts), by Gaussian elimination."""
    pivots: dict = {}  # pivot key -> reduced row with a 1 at the key
    for vec in vectors:
        row = {k: Fraction(v) for k, v in vec.items() if v}
        for key, prow in pivots.items():
            f = row.get(key)
            if f:
                for k, v in prow.items():
                    acc = row.get(k, 0) - f * v
                    if acc:
                        row[k] = acc
                    else:
                        row.pop(k, None)
        if row:
            key = min(row)
            inv = 1 / row[key]
            row = {k: v * inv for k, v in row.items()}
            for other in pivots.values():
                f = other.get(key)
                if f:
                    for k, v in row.items():
                        acc = other.get(k, 0) - f * v
                        if acc:
                            other[k] = acc
                        else:
                            other.pop(k, None)
            pivots[key] = row
    return len(pivots)

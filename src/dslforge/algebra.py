"""Products, projections, and primitivity tests on the sparse series.

The two commutative products are the interleaving (shuffle) product on
X-series and the overlapping-shuffle (harmonic) product on Y-series.  The
projections between alphabets read maximal letter blocks: q_left reads
blocks 1 0^{k-1} from the left and kills words with a leading 0, q_right
reads blocks 0^{k-1} 1 and kills words with a trailing 0, and q_sharp turns
the leading block of a q_right-readable word into a T-exponent.

Primitivity for the coproduct dual to the interleaving product is decided
per weight component by triangular reduction.  In characteristic 0 the
primitive elements are exactly the Lie polynomials (Friedrichs), and the
standard bracketing P_w of a Lyndon word w expands to w plus lexicographically
larger words of the same length (Reutenauer, Free Lie Algebras, ch. 5).  So
subtracting coeff * P_w for the smallest word w left in the support empties
a component exactly when it is Lie, and stops at a non-Lyndon smallest word
otherwise.  The cost follows the number of Lyndon words, not the number of
interleavings; the pairing scan over all (u, v) runs only to list the
defects of a component that fails.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import islice
from math import factorial

from .errors import NonUnitConstant
from .lyndon import bracketing
from .series import TYSeries, XSeries, YSeries
from .words import (
    XWord,
    YWord,
    all_xwords,
    all_ywords,
    from_leading_blocks,
    harmonic_words,
    leading_blocks,
    shuffle_pairing,
    shuffle_words,
    trailing_blocks,
    word_pairs,
)


def _term_pairs(a, b, weight):
    """(u, v, <a|u> <b|v>) for the term pairs within the lower bound, in a's
    order; b's terms are sorted by weight, so the pairs over the bound are
    never visited."""
    bound = min(a.weight_bound, b.weight_bound)
    right = sorted(b.terms.items(), key=lambda t: weight(t[0]))
    weights = [weight(v) for v, _ in right]
    for u, cu in a.terms.items():
        for v, cv in islice(right, bisect_right(weights, bound - weight(u))):
            yield u, v, cu * cv


def shuffle_product(a: XSeries, b: XSeries) -> XSeries:
    """Bilinear extension of word interleaving; truncates to the lower bound."""
    return XSeries(
        ((w, c * m) for u, v, c in _term_pairs(a, b, len)
         for w, m in shuffle_words(u, v).items()),
        min(a.weight_bound, b.weight_bound),
    )


def harmonic_product(a: YSeries, b: YSeries) -> YSeries:
    """Bilinear extension of the overlapping shuffle; truncates to the lower bound."""
    return YSeries(
        ((w, c * m) for u, v, c in _term_pairs(a, b, sum)
         for w, m in harmonic_words(u, v).items()),
        min(a.weight_bound, b.weight_bound),
    )


def concat_product(a: XSeries, b: XSeries) -> XSeries:
    """Distributive word concatenation, truncated to the lower bound."""
    return XSeries(
        ((u + v, c) for u, v, c in _term_pairs(a, b, len)),
        min(a.weight_bound, b.weight_bound),
    )


def y_concat_product(a: YSeries, b: YSeries) -> YSeries:
    """Distributive Y-word concatenation, truncated to the lower bound."""
    return YSeries(
        ((u + v, c) for u, v, c in _term_pairs(a, b, sum)),
        min(a.weight_bound, b.weight_bound),
    )


def commutator(a: XSeries, b: XSeries) -> XSeries:
    """ab - ba under concatenation, truncated to the lower bound."""
    return XSeries(
        (t for u, v, c in _term_pairs(a, b, len) for t in ((u + v, c), (v + u, -c))),
        min(a.weight_bound, b.weight_bound),
    )


def antipode(a: XSeries) -> XSeries:
    """Reverse every word and multiply its coefficient by (-1)^weight."""
    return XSeries(
        ((w[::-1], -c if len(w) % 2 else c) for w, c in a.terms.items()),
        a.weight_bound,
    )


def p_embed(a: YSeries) -> XSeries:
    """Linear embedding sending y_{k1}...y_{kr} to 1 0^{k1-1} ... 1 0^{kr-1}."""
    return XSeries(
        ((from_leading_blocks(w), c) for w, c in a.terms.items()), a.weight_bound
    )


def q_left(a: XSeries) -> YSeries:
    """Left inverse of p_embed: read blocks 1 0^{k-1}; leading-0 words map to 0."""
    return YSeries(
        ((y, c) for w, c in a.terms.items() if (y := leading_blocks(w)) is not None),
        a.weight_bound,
    )


def q_right(a: XSeries) -> YSeries:
    """Read blocks 0^{k-1} 1 left to right; words ending in 0 (and the empty
    word) map to 0."""
    return YSeries(
        ((y, c) for w, c in a.terms.items() if (y := trailing_blocks(w)) is not None),
        a.weight_bound,
    )


def q_sharp(a: XSeries) -> TYSeries:
    """Like q_right, but the leading block 0^{k-1} 1 becomes the T-exponent k-1
    and the remaining blocks become the Y-word."""
    return TYSeries(
        (((y[0] - 1, y[1:]), c) for y, c in q_right(a).terms.items()), a.weight_bound
    )


def q_sharp_pairing_tables(s: XSeries) -> dict:
    """Pairing table of the T-graded image: Y-word w -> {t_exp: coefficient}.

    Entry (w, t) is the coefficient of T^t * w in q_sharp(s); organizing by
    Y-word makes polynomial-in-T comparisons direct.
    """
    out: dict = {}
    for (t, tail), c in q_sharp(s).terms.items():
        out.setdefault(tail, {})[t] = c
    return out


def _y1_tail(psi: XSeries) -> YSeries:
    """The y1-power series sum over n >= 2 of (1/n) <psi | 0^{n-1} 1> y1^n."""
    return YSeries(
        (((1,) * n, Fraction(psi.coeff("0" * (n - 1) + "1"), n))
         for n in range(2, psi.weight_bound + 1)),
        psi.weight_bound,
    )


def star_word(psi: XSeries) -> YSeries:
    """q_left(psi) plus the power-series correction on the depth-one tail.

    The correction adds (1/n) * <psi | 0^{n-1} 1> * y1^n for every n >= 2 up
    to the bound.  With the left-block reading used here this coefficient
    makes the harmonic-primitivity condition match the graded dimension data;
    see the test suite for the weight-3 pin.
    """
    return q_left(psi) + _y1_tail(psi)


def _power_series(x, product, exponential: bool):
    """1 + sum over n >= 1 of x^n (divided by n! when exponential) under the
    product; x has zero constant term, so its powers vanish past the bound."""
    result = power = type(x).unit(x.weight_bound)
    n = 0
    while not (power := product(power, x)).is_zero():
        n += 1
        result = result + (power.scale(Fraction(1, factorial(n))) if exponential else power)
    return result


def group_star(phi: XSeries) -> YSeries:
    """Corrected harmonic image of a group-shaped series.

    Returns Gamma(phi) * q_right(phi) under Y-concatenation, where Gamma is
    the Y-concatenation exponential of the y1-power tail of phi, plus the
    explicit unit term (q_right kills the empty word, so the unit is restored
    here).
    """
    if phi.coeff("") != 1:
        raise NonUnitConstant("group_star needs constant term 1")
    gamma = _power_series(_y1_tail(phi), y_concat_product, exponential=True)
    base = q_right(phi) + YSeries.unit(phi.weight_bound)
    return y_concat_product(gamma, base)


def _is_lie_component(comp: dict[XWord, Fraction]) -> bool:
    """True when a homogeneous component of weight >= 1 is a Lie polynomial,
    by triangular reduction against the Lyndon bracketings."""
    rest = dict(comp)
    while rest:
        w = min(rest)
        if any(w >= w[i:] for i in range(1, len(w))):
            return False  # the smallest word of a Lie element is Lyndon
        c = rest[w]
        for u, cu in bracketing(w).items():
            acc = rest.get(u, 0) - c * cu
            if acc:
                rest[u] = acc
            else:
                rest.pop(u, None)
    return True


def _pairing_scan(comp: dict[XWord, Fraction], k: int):
    """Yield, in scan order, each nonempty pair (u, v) with <comp | u sh v> != 0."""
    for u, v in word_pairs(k, all_xwords):
        val = shuffle_pairing(comp, u, v)
        if val:
            yield u, v, val


def _weight_component(a: XSeries, k: int) -> dict[XWord, Fraction]:
    if k > a.weight_bound:
        raise ValueError(f"weight {k} exceeds bound {a.weight_bound}")
    return {w: c for w, c in a.terms.items() if len(w) == k}


def _shuffle_defects(a: XSeries, k: int):
    """Yield, in scan order, the pairs shuffle_primitivity_defect lists; a
    component that passes the Lie test yields none without enumerating any."""
    comp = _weight_component(a, k)
    if k >= 2 and not _is_lie_component(comp):
        yield from _pairing_scan(comp, k)


def shuffle_primitivity_defect(a: XSeries, k: int) -> list[tuple[XWord, XWord, Fraction]]:
    """All nonempty pairs (u, v), |u| <= |v|, |u|+|v| = k, with <a | u sh v> != 0.

    An empty list at every weight means the series is primitive for the
    coproduct dual to the interleaving product.
    """
    return list(_shuffle_defects(a, k))


def _harmonic_scan(a: YSeries, k: int):
    """Yield, in scan order, each nonempty pair (u, v) with <a | u * v> != 0
    and total weight k."""
    if k > a.weight_bound:
        raise ValueError(f"weight {k} exceeds bound {a.weight_bound}")
    comp = {w: c for w, c in a.terms.items() if sum(w) == k}
    for u, v in word_pairs(k, all_ywords):
        val = Fraction(0)
        for w, m in harmonic_words(u, v).items():
            c = comp.get(w)
            if c is not None:
                val += m * c
        if val:
            yield u, v, val


def harmonic_primitivity_defect(a: YSeries, k: int) -> list[tuple[YWord, YWord, Fraction]]:
    """All nonempty Y-word pairs (u, v), wt u <= wt v, total weight k, with
    <a | u * v> != 0."""
    return list(_harmonic_scan(a, k))


def is_primitive(a: XSeries, up_to: int | None = None) -> bool:
    """True when the constant term is 0 and every weight component from 2 up to
    the bound is a Lie polynomial, so has empty shuffle defect."""
    top = a.weight_bound if up_to is None else min(up_to, a.weight_bound)
    if a.coeff("") != 0:
        return False
    for k in range(2, top + 1):
        if not _is_lie_component(_weight_component(a, k)):
            return False
    return True


def concat_inverse(a: XSeries) -> XSeries:
    """Concatenation inverse of a series with constant term 1, as the
    geometric series in (1 - a) truncated at the bound."""
    if a.coeff("") != 1:
        raise NonUnitConstant("concatenation inverse needs constant term 1")
    return _power_series(XSeries.unit(a.weight_bound) - a, concat_product, exponential=False)


def concat_exp(s: XSeries) -> XSeries:
    """Concatenation exponential of a series with zero constant term."""
    if s.coeff("") != 0:
        raise ValueError("concat_exp needs zero constant term")
    return _power_series(s, concat_product, exponential=True)

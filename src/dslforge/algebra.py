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

from fractions import Fraction
from itertools import islice
from math import factorial

from .errors import NotGrouplikeUnit
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
)


def shuffle_product(a: XSeries, b: XSeries) -> XSeries:
    """Bilinear extension of word interleaving; truncates to the lower bound."""
    bound = min(a.weight_bound, b.weight_bound)
    out: dict[XWord, Fraction] = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            if len(u) + len(v) > bound:
                continue
            c = cu * cv
            for w, m in shuffle_words(u, v).items():
                acc = out.get(w)
                acc = c * m if acc is None else acc + c * m
                if acc == 0:
                    out.pop(w, None)
                else:
                    out[w] = acc
    return XSeries(out, bound)


def harmonic_product(a: YSeries, b: YSeries) -> YSeries:
    """Bilinear extension of the overlapping shuffle; truncates to the lower bound."""
    bound = min(a.weight_bound, b.weight_bound)
    out: dict[YWord, Fraction] = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            if sum(u) + sum(v) > bound:
                continue
            c = cu * cv
            for w, m in harmonic_words(u, v).items():
                acc = out.get(w)
                acc = c * m if acc is None else acc + c * m
                if acc == 0:
                    out.pop(w, None)
                else:
                    out[w] = acc
    return YSeries(out, bound)


def concat_product(a: XSeries, b: XSeries) -> XSeries:
    """Distributive word concatenation, truncated to the lower bound."""
    bound = min(a.weight_bound, b.weight_bound)
    out: dict[XWord, Fraction] = {}
    for u, cu in a.terms.items():
        if len(u) > bound:
            continue
        for v, cv in b.terms.items():
            if len(u) + len(v) > bound:
                continue
            w = u + v
            c = cu * cv
            acc = out.get(w)
            acc = c if acc is None else acc + c
            if acc == 0:
                out.pop(w, None)
            else:
                out[w] = acc
    return XSeries(out, bound)


def y_concat_product(a: YSeries, b: YSeries) -> YSeries:
    """Distributive Y-word concatenation, truncated to the lower bound."""
    bound = min(a.weight_bound, b.weight_bound)
    out: dict[YWord, Fraction] = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            if sum(u) + sum(v) > bound:
                continue
            w = u + v
            c = cu * cv
            acc = out.get(w)
            acc = c if acc is None else acc + c
            if acc == 0:
                out.pop(w, None)
            else:
                out[w] = acc
    return YSeries(out, bound)


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
    items = []
    for w, c in a.terms.items():
        y = leading_blocks(w)
        if y is not None:
            items.append((y, c))
    return YSeries(items, a.weight_bound)


def q_right(a: XSeries) -> YSeries:
    """Read blocks 0^{k-1} 1 left to right; words ending in 0 (and the empty
    word) map to 0."""
    items = []
    for w, c in a.terms.items():
        y = trailing_blocks(w)
        if y is not None:
            items.append((y, c))
    return YSeries(items, a.weight_bound)


def q_sharp(a: XSeries) -> TYSeries:
    """Like q_right, but the leading block 0^{k-1} 1 becomes the T-exponent k-1
    and the remaining blocks become the Y-word."""
    items = []
    for w, c in a.terms.items():
        y = trailing_blocks(w)
        if y is not None:
            items.append(((y[0] - 1, y[1:]), c))
    return TYSeries(items, a.weight_bound)


def q_sharp_pairing_tables(s: XSeries) -> dict:
    """Pairing table of the T-graded image: Y-word w -> {t_exp: coefficient}.

    Entry (w, t) is the coefficient of T^t * w in q_sharp(s); organizing by
    Y-word makes polynomial-in-T comparisons direct.
    """
    out: dict = {}
    for w, c in s.terms.items():
        y = trailing_blocks(w)
        if y is None:
            continue
        t = y[0] - 1
        tail = y[1:]
        layer = out.setdefault(tail, {})
        acc = layer.get(t, 0) + c
        if acc:
            layer[t] = acc
        else:
            layer.pop(t, None)
    return out


def star_word(psi: XSeries) -> YSeries:
    """q_left(psi) plus the power-series correction on the depth-one tail.

    The correction adds (1/n) * <psi | 0^{n-1} 1> * y1^n for every n >= 2 up
    to the bound.  With the left-block reading used here this coefficient
    makes the harmonic-primitivity condition match the graded dimension data;
    see the test suite for the weight-3 pin.
    """
    out = q_left(psi)
    items = []
    for n in range(2, psi.weight_bound + 1):
        c = psi.coeff("0" * (n - 1) + "1")
        if c != 0:
            items.append(((1,) * n, Fraction(1, n) * c))
    if items:
        out = out + YSeries(items, psi.weight_bound)
    return out


def _gamma_correction(phi: XSeries) -> YSeries:
    """exp of the y1-power series with coefficients (1/n) <phi | 0^{n-1} 1>."""
    bound = phi.weight_bound
    items = []
    for n in range(2, bound + 1):
        c = phi.coeff("0" * (n - 1) + "1")
        if c != 0:
            items.append(((1,) * n, Fraction(1, n) * c))
    arg = YSeries(items, bound)
    # exp under Y-concatenation; the argument has lowest weight >= 2.
    result = YSeries.unit(bound)
    power = YSeries.unit(bound)
    n = 0
    while True:
        n += 1
        power = y_concat_product(power, arg)
        if power.is_zero():
            break
        result = result + power.scale(Fraction(1, factorial(n)))
    return result


def group_star(phi: XSeries) -> YSeries:
    """Corrected harmonic image of a group-shaped series.

    Returns Gamma(phi) * q_right(phi) under Y-concatenation, where Gamma is
    the exponential correction of _gamma_correction, plus the explicit unit
    term (q_right kills the empty word, so the unit is restored here).
    """
    if phi.coeff("") != 1:
        raise NotGrouplikeUnit("group_star needs constant term 1")
    base = q_right(phi) + YSeries.unit(phi.weight_bound)
    return y_concat_product(_gamma_correction(phi), base)


def _is_lie_component(comp: dict[XWord, Fraction]) -> bool:
    """True when a homogeneous component of weight >= 1 is a Lie polynomial,
    by triangular reduction against the Lyndon bracketings."""
    from .lyndon import _expand  # lyndon imports this module

    rest = dict(comp)
    while rest:
        w = min(rest)
        if any(w >= w[i:] for i in range(1, len(w))):
            return False  # the smallest word of a Lie element is Lyndon
        c = rest[w]
        for u, cu in _expand(w).terms.items():
            acc = rest.get(u, 0) - c * cu
            if acc:
                rest[u] = acc
            else:
                rest.pop(u, None)
    return True


def _pairing_scan(comp: dict[XWord, Fraction], k: int):
    """Yield, in scan order, each nonempty pair (u, v) with <comp | u sh v> != 0."""
    for lu in range(1, k // 2 + 1):
        for u in all_xwords(lu):
            for v in all_xwords(k - lu):
                if lu == k - lu and v < u:
                    continue
                val = shuffle_pairing(comp, u, v)
                if val:
                    yield u, v, val


def _weight_component(a: XSeries, k: int) -> dict[XWord, Fraction]:
    if k > a.weight_bound:
        raise ValueError(f"weight {k} exceeds bound {a.weight_bound}")
    return {w: c for w, c in a.terms.items() if len(w) == k}


def shuffle_primitivity_defect(
    a: XSeries, k: int, limit: int | None = None
) -> list[tuple[XWord, XWord, Fraction]]:
    """All nonempty pairs (u, v), |u| <= |v|, |u|+|v| = k, with <a | u sh v> != 0,
    or only the first `limit` of them in scan order.

    An empty list at every weight means the series is primitive for the
    coproduct dual to the interleaving product.  A component that passes the
    Lie test returns [] without enumerating any pair, and the scan stops once
    it has found `limit` pairs.
    """
    comp = _weight_component(a, k)
    if k < 2 or _is_lie_component(comp):
        return []
    return list(islice(_pairing_scan(comp, k), limit))


def harmonic_primitivity_defect(
    a: YSeries, k: int
) -> list[tuple[YWord, YWord, Fraction]]:
    """All nonempty Y-word pairs (u, v), wt u <= wt v, total weight k, with
    <a | u * v> != 0."""
    if k > a.weight_bound:
        raise ValueError(f"weight {k} exceeds bound {a.weight_bound}")
    comp = {w: c for w, c in a.terms.items() if sum(w) == k}
    out = []
    for wu in range(1, k // 2 + 1):
        for u in all_ywords(wu):
            for v in all_ywords(k - wu):
                if wu == k - wu and v < u:
                    continue
                val = Fraction(0)
                for w, m in harmonic_words(u, v).items():
                    c = comp.get(w)
                    if c is not None:
                        val += m * c
                if val:
                    out.append((u, v, val))
    return out


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
        raise NotGrouplikeUnit("concatenation inverse needs constant term 1")
    bound = a.weight_bound
    x = XSeries.unit(bound) - a  # lowest weight >= 1
    result = XSeries.unit(bound)
    power = XSeries.unit(bound)
    while True:
        power = concat_product(power, x)
        if power.is_zero():
            break
        result = result + power
    return result


def concat_exp(s: XSeries) -> XSeries:
    """Concatenation exponential of a series with zero constant term."""
    if s.coeff("") != 0:
        raise ValueError("concat_exp needs zero constant term")
    bound = s.weight_bound
    result = XSeries.unit(bound)
    power = XSeries.unit(bound)
    n = 0
    while True:
        n += 1
        power = concat_product(power, s)
        if power.is_zero():
            break
        result = result + power.scale(Fraction(1, factorial(n)))
    return result

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
walking the Lyndon words in increasing order and subtracting coeff * P_w at
each one reads every coefficient after the last subtraction that can touch
it, and the component is Lie exactly when nothing is left.  The reduction
runs on the component cleared of denominators: the bracketings have integer
coefficients, so it stays in integers.  The cost follows the number of
Lyndon words, not the number of interleavings.

Harmonic primitivity is decided the same way.  The quasi-shuffle algebra
over Q is the polynomial algebra on the Lyndon Y-words (Hoffman, J.
Algebraic Combin. 11, 2000), so the products l1 * (l2 ... ln), one per
non-Lyndon Y-word l1 l2 ... ln, span every product u * v.  They are
expanded once per weight and process into one table of flat integer arrays
(product starts, word codes, multiplicities), shared with the constraint
compiler.  The code of a Y-word is its X-word 1 0^{k1-1} 1 0^{k2-1} ... read
in binary, so the star_word and q_sharp images are read as codes straight
off the X-words of a series.  A component cleared of denominators is paired
with every product in integers by one running sum over the table.

On both alphabets one pair scan over all (u, v) lists the defects, and it
runs only on a component that the decision above rejects.  On Y-words it
runs on the codes the component was decided on, each decoded once.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from math import factorial, lcm
from operator import mul

from .errors import NonUnitConstant
from .lyndon import bracketing, lyndon_words
from .series import TYSeries, XSeries, YSeries
from .words import (
    XWord,
    YWord,
    all_xwords,
    all_ywords,
    from_leading_blocks,
    harmonic_words,
    leading_blocks,
    lyndon_factors,
    shuffle_words,
    trailing_blocks,
    word_pairs,
)


def _term_pairs(a, b):
    """(u, v, <a|u> <b|v>) for the term pairs within the lower bound, in a's
    order; b's terms are read sorted by weight, so the pairs over the bound
    are never visited.  a and b are series over the same alphabet."""
    return _pairs_by_weight(a, *b._by_weight(), min(a.weight_bound, b.weight_bound))


def _pairs_by_weight(a, right: list, weights: list, bound: int):
    """_term_pairs with the right factor given as its _by_weight() pairs and
    weights, so that a factor used many times is sorted once."""
    weight = a._weight
    for u, cu in a.terms.items():
        for v, cv in islice(right, bisect_right(weights, bound - weight(u))):
            yield u, v, cu * cv


def shuffle_product(a: XSeries, b: XSeries) -> XSeries:
    """Bilinear extension of word interleaving; truncates to the lower bound."""
    return XSeries(
        ((w, c * m) for u, v, c in _term_pairs(a, b)
         for w, m in shuffle_words(u, v).items()),
        min(a.weight_bound, b.weight_bound),
    )


def harmonic_product(a: YSeries, b: YSeries) -> YSeries:
    """Bilinear extension of the overlapping shuffle; truncates to the lower bound."""
    return YSeries(
        ((w, c * m) for u, v, c in _term_pairs(a, b)
         for w, m in harmonic_words(u, v).items()),
        min(a.weight_bound, b.weight_bound),
    )


def concat_product(a, b):
    """Distributive word concatenation of two X- or two Y-series, truncated
    to the lower bound."""
    return type(a)(
        ((u + v, c) for u, v, c in _term_pairs(a, b)),
        min(a.weight_bound, b.weight_bound),
    )


def commutator(a: XSeries, b: XSeries) -> XSeries:
    """ab - ba under concatenation, truncated to the lower bound."""

    def terms():
        for u, v, c in _term_pairs(a, b):
            yield u + v, c
            yield v + u, -c

    return XSeries(terms(), min(a.weight_bound, b.weight_bound))


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
    """The y1-power series sum over n >= 2 of (1/n) <psi | 0^{n-1} 1> y1^n,
    read off the terms of psi."""
    return YSeries(
        (((1,) * len(w), Fraction(c, len(w))) for w, c in psi.terms.items()
         if len(w) >= 2 and w == "0" * (len(w) - 1) + "1"),
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


def _iterated_sum(first, step, coefficient):
    """The sum over n >= 0 of coefficient(n) step^n(first), at first's bound,
    built in one constructor that keeps only the current term alive; step
    raises the weight, so the terms vanish past the bound."""

    def terms():
        term, n = first, 0
        while not term.is_zero():
            c = coefficient(n)
            yield from ((w, c * v) for w, v in term.terms.items())
            n += 1
            term = step(term)

    return type(first)(terms(), first.weight_bound)


def _power_series(x, coefficient):
    """The sum over n >= 0 of coefficient(n) x^n under concatenation."""
    return _iterated_sum(type(x).unit(x.weight_bound), lambda p: concat_product(p, x), coefficient)


def _scaled_exp(x) -> tuple:
    """N and N exp(x) under concatenation, with N = n_max! for the highest
    power n_max of x that survives the bound.  Every coefficient N/n! is an
    integer, so the result is integral when x is."""
    mw = x.min_weight()
    big = factorial(x.weight_bound // mw if mw else 0)
    return big, _power_series(x, lambda n: big // factorial(n))


def group_star(phi: XSeries) -> YSeries:
    """Corrected harmonic image of a group-shaped series.

    Returns Gamma(phi) * q_right(phi) under Y-concatenation, where Gamma is
    the Y-concatenation exponential of the y1-power tail of phi, plus the
    explicit unit term (q_right kills the empty word, so the unit is restored
    here).
    """
    if phi.coeff("") != 1:
        raise NonUnitConstant("group_star needs constant term 1")
    gamma = concat_exp(_y1_tail(phi))
    base = q_right(phi) + YSeries.unit(phi.weight_bound)
    return concat_product(gamma, base)


def _integral(comp: dict) -> dict:
    """The component as {word: int}: unchanged when no coefficient has a
    denominator above 1, otherwise times the lcm of the denominators, a
    positive multiple, so it meets the same linear conditions."""
    # a set, not a generator: lcm(*generator) builds its argument tuple by
    # resizing, and the resized small tuples pile up on CPython's tuple free
    # lists until a full collection, which an all-int run seldom triggers
    scale = lcm(*{c.denominator for c in comp.values()})
    if scale == 1:
        return comp
    return {w: c.numerator * (scale // c.denominator) for w, c in comp.items()}


def _is_lie_component(comp: dict[XWord, int | Fraction], k: int) -> bool:
    """True when a homogeneous component of weight k >= 1 is a Lie polynomial,
    by triangular reduction against the Lyndon bracketings in increasing
    order, in integers: each bracketing has integer coefficients, its Lyndon
    word at coefficient 1 and otherwise only larger words, so the coefficient
    read at each Lyndon word is final."""
    if not comp:
        return True  # a defect scan may pass an empty weight: generate no words
    rest = dict(_integral(comp))
    for w in lyndon_words(k):
        c = rest.get(w)
        if c:
            for u, cu in bracketing(w).items():
                acc = rest.get(u, 0) - c * cu
                if acc:
                    rest[u] = acc
                else:
                    del rest[u]
    return not rest


def _pairing(comp: dict, expansion: dict):
    """<comp | the expansion {word: multiplicity}>."""
    total = 0
    for w, m in expansion.items():
        c = comp.get(w)
        if c is not None:
            total += m * c
    return total


def _pair_scan(comp: dict, k: int, words, product):
    """Yield, in word_pairs order, each nonempty pair (u, v) of total weight k
    with <comp | product(u, v)> != 0; words is all_xwords or all_ywords and
    product the matching shuffle_words or harmonic_words."""
    for u, v in word_pairs(k, words):
        val = _pairing(comp, product(u, v))
        if val:
            yield u, v, val


def _components(a) -> dict[int, dict]:
    """The terms of an X-series sorted into {weight: {word: coefficient}} in
    one pass; a weight with no terms has no entry."""
    comps: dict[int, dict] = {}
    for w, c in a.terms.items():
        comps.setdefault(len(w), {})[w] = c
    return comps


def _shuffle_defects(comp: dict[XWord, int | Fraction], k: int):
    """Yield, in scan order, the pairs shuffle_primitivity_defect lists for
    the weight-k component comp; a component that passes the Lie test yields
    none without enumerating any."""
    if k >= 2 and not _is_lie_component(comp, k):
        yield from _pair_scan(comp, k, all_xwords, shuffle_words)


def shuffle_primitivity_defect(
    a: XSeries, k: int
) -> list[tuple[XWord, XWord, int | Fraction]]:
    """All nonempty pairs (u, v), |u| <= |v|, |u|+|v| = k, with <a | u sh v> != 0.

    An empty list at every weight means the series is primitive for the
    coproduct dual to the interleaving product.
    """
    if k > a.weight_bound:
        raise ValueError(f"weight {k} exceeds bound {a.weight_bound}")
    return list(_shuffle_defects(a.component(k).terms, k))


@lru_cache(maxsize=None)
def _harmonic_products(m: int) -> tuple[array, array, array]:
    """The spanning products of weight m >= 1 as flat 4-byte arrays (starts,
    codes, mults): product i has the terms codes[j], in increasing order,
    with multiplicity mults[j] for starts[i] <= j < starts[i + 1].  Product
    i expands l1 * (l2 ... ln) for the i-th Y-word w = l1 l2 ... ln of
    weight m, in all_ywords order, with n >= 2 nonincreasing Lyndon
    factors.  The quasi-shuffle algebra over Q is the polynomial algebra on
    the Lyndon words (Hoffman, J. Algebraic Combin. 11, 2000; for the
    shuffle algebra, Radford, J. Algebra 58, 1979), so these products, one
    per non-Lyndon word, span every product u * v of nonempty Y-words of
    weight m.

    A term of u * v is a lattice path from the cell (0, 0) to (|u|, |v|)
    whose steps (1, 0), (0, 1) and (1, 1) write the letters u_i, v_j and
    u_i + v_j, and its multiplicity is its number of paths.  The letter
    written on leaving the cell (i, j) starts a block of weight
    wt u[i:] + wt v[j:], so the term's code (_ycode) is the sum of
    2^(wt u[i:] + wt v[j:] - 1) over the cells the path leaves.  One
    recurrence over the cells sums these for every path of every product of
    one shape (|l1|, |l2 ... ln|) at once, one sort of the shape's (product,
    code) keys counts the paths, and the terms are written in place into the
    table.  Each weight is built once per process; cache_clear empties the
    table."""
    import numpy as np  # imported on first use, so `import dslforge` does not load it

    shapes: dict = {}  # (|l1|, |l2 ... ln|) -> [(product index, w)]
    n = 0
    for w in all_ywords(m):
        head = len(lyndon_factors(w)[0])
        if head < len(w):
            shapes.setdefault((head, len(w) - head), []).append((n, w))
            n += 1
    half = np.array([0] + [1 << e for e in range(m)])  # 2^(e - 1), and 0 at e = 0
    found = []  # per shape: (products, the first term of each, codes, mults)
    sizes = np.zeros(n, np.int64)  # the number of terms of each product
    for (a, b), items in shapes.items():
        index, words = (np.array(x) for x in zip(*items))
        suffix = np.zeros((len(index), a + b + 1), np.int64)  # wt w[i:]
        suffix[:, :-1] = np.cumsum(words[:, ::-1], axis=1)[:, ::-1]
        # 2^(wt u[i:] + wt v[j:] - 1) at the cell (i, j), and 0 at (a, b)
        bits = half[suffix[:, : a + 1, None] - suffix[:, a, None, None] + suffix[:, None, a:]]
        above: list = []  # the codes of the paths to each cell of the row i - 1
        for i in range(a + 1):
            row: list = []
            for j in range(b + 1):
                steps = []
                if i:
                    steps.append(above[j] + bits[:, i - 1, j, None])
                if j:
                    steps.append(row[j - 1] + bits[:, i, j - 1, None])
                if i and j:
                    steps.append(above[j - 1] + bits[:, i - 1, j - 1, None])
                row.append(np.concatenate(steps, axis=1) if steps
                           else np.zeros((len(index), 1), np.int64))
            above = row
        key = np.sort((index[:, None] * (1 << m) + above[b]).ravel(), kind="stable")
        runs = np.flatnonzero(np.diff(key, prepend=-1))  # the first path of each term
        first = np.searchsorted(key[runs], index * (1 << m))
        sizes[index] = np.diff(first, append=len(runs))
        found.append((index, first, key[runs] % (1 << m), np.diff(runs, append=len(key))))
    starts = np.concatenate(([0], np.cumsum(sizes)))
    codes, mults = array("i", [0]) * int(starts[-1]), array("i", [0]) * int(starts[-1])
    for index, first, code, mult in found:  # each product's terms in place
        at = np.repeat(starts[index] - first, sizes[index]) + np.arange(len(code))
        np.frombuffer(codes, np.intc)[at] = code
        np.frombuffer(mults, np.intc)[at] = mult
    return array("i", starts.astype(np.intc).tobytes()), codes, mults


def _ycode(w: YWord) -> int:
    """The code of a Y-word: its p_embed X-word 1 0^{k1-1} 1 0^{k2-1} ...
    read in binary, so a weight-m word has m bits and a leading 1."""
    return int(from_leading_blocks(w), 2)


def _codes_vanish(comp: dict[int, int | Fraction], m: int) -> bool:
    """True when the weight-m component {code: coefficient} pairs to 0 with
    every spanning product (_harmonic_products), so with every u * v;
    decided in integers.  One running sum runs over the whole table: it is 0
    at the end of every product exactly when every product pairs to 0."""
    if not comp:
        return True
    vec = [0] * (1 << m)
    for code, c in _integral(comp).items():
        vec[code] = c
    starts, codes, mults = _harmonic_products(m)
    sums = list(accumulate(map(mul, mults, map(vec.__getitem__, codes)), initial=0))
    return not any(map(sums.__getitem__, starts))


def _star_terms(words, k: int):
    """(w, code, factor) for each weight-k word w that enters k *
    star_word(psi), for k >= 2, as factor * psi(w) at the code of a Y-word:
    q_left keeps the bits of a word that starts with 1, at factor k, and the
    tail word 0^{k-1} 1 gives psi(w) y1^k / k, so factor 1 at 2^k - 1, the
    code of y1^k.  The factor k clears that 1/k, the only denominator."""
    tail = "0" * (k - 1) + "1"
    for w in words:
        if w.startswith("1"):
            yield w, int(w, 2), k
        elif w == tail:
            yield w, (1 << k) - 1, 1


def _sharp_terms(words):
    """(w, m, code) for each word w = 0^t 1 v ending in 1, which q_sharp
    makes the term T^t y: y = trailing_blocks(v) has weight m = len(v) and
    code int("1" + v[:-1], 2), since its p_embed word moves each block's 1
    to the front of the block."""
    for w in words:
        if w.endswith("1"):
            t = w.index("1")
            yield w, len(w) - t - 1, int("1" + w[t + 1 : -1], 2)


def _star_codes(comp: dict[XWord, int | Fraction], k: int) -> dict:
    """k * star_word(psi) at weight k as {code: coefficient}, read off the
    weight-k component of psi (_star_terms)."""
    out: dict = {}
    for w, code, factor in _star_terms(comp, k):
        out[code] = out.get(code, 0) + factor * comp[w]
    return out


def _sharp_codes(comp: dict[XWord, int | Fraction]) -> dict:
    """The T^t layers of q_sharp(psi) read off a component of psi
    (_sharp_terms), as {m: {code: coefficient}} keyed by the weight m of the
    Y-words; distinct words give distinct (m, code), so nothing is summed."""
    out: dict = {}
    for w, m, code in _sharp_terms(comp):
        out.setdefault(m, {})[code] = comp[w]
    return out


def _code_defects(codes: dict[int, int | Fraction], m: int):
    """Yield, in scan order, each pair (u, v) of total weight m with
    <comp | u * v> != 0, where comp is the weight-m Y-component given as
    {code: coefficient}; a component on which every spanning product
    vanishes yields none without decoding a code or pairing any (u, v)."""
    if m >= 2 and not _codes_vanish(codes, m):
        comp = {leading_blocks(format(code, "b")): c for code, c in codes.items()}
        yield from _pair_scan(comp, m, all_ywords, harmonic_words)


def harmonic_primitivity_defect(
    a: YSeries, k: int
) -> list[tuple[YWord, YWord, int | Fraction]]:
    """All nonempty Y-word pairs (u, v), wt u <= wt v, total weight k, with
    <a | u * v> != 0."""
    if k > a.weight_bound:
        raise ValueError(f"weight {k} exceeds bound {a.weight_bound}")
    return list(_code_defects({_ycode(w): c for w, c in a.component(k).terms.items()}, k))


def is_primitive(a: XSeries) -> bool:
    """True when the constant term is 0 and every weight component from 2 up to
    the bound is a Lie polynomial, so has empty shuffle defect.  A weight with
    no terms has the zero component, so only the weights that occur are
    tested, each on its component sorted out in one pass over the terms."""
    if a.coeff("") != 0:
        return False
    comps = _components(a)
    return all(_is_lie_component(comps[k], k) for k in sorted(comps) if k >= 2)


def concat_inverse(a: XSeries) -> XSeries:
    """Concatenation inverse of a series with constant term 1, as the
    geometric series in (1 - a) truncated at the bound."""
    if a.coeff("") != 1:
        raise NonUnitConstant("concatenation inverse needs constant term 1")
    return _power_series(XSeries.unit(a.weight_bound) - a, lambda n: 1)


def concat_exp(s):
    """Concatenation exponential of an X- or Y-series with zero constant term:
    the scaled exponential divided by its scale once."""
    if s.min_weight() == 0:
        raise ValueError("concat_exp needs zero constant term")
    big, scaled = _scaled_exp(s)
    return scaled.scale(Fraction(1, big))

"""Derivations, brackets, twisted products, and the conjugation decomposition.

The common setting: series whose x1-coefficient and x0-power coefficients
(including the empty word) vanish form a Lie algebra under the derivation
bracket; series with x1-coefficient 1 and vanishing x0-powers form a group
under substitution.  The bracketing-with-x1 map links the two pictures; its
kernel on words is spanned by the x1-powers, so its inverse is read off the
words of the input by one word rule and certified exactly.  The same rule
solves the conjugator E = exp(psi) of phi layer by layer from E phi = x1 E.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm

from .algebra import (
    _components,
    _iterated_sum,
    _pairs_by_weight,
    _power_series,
    commutator,
    concat_inverse,
    concat_product,
    is_primitive,
)
from .errors import (
    NonUnitConstant,
    NonzeroConstant,
    NotInImage,
    NotInTm1,
    NotInTM1,
    NotPrimitive,
    PreconditionViolation,
)
from .series import XSeries


def derive_d(psi: XSeries, target: XSeries) -> XSeries:
    """The derivation sending x0 to 0 and x1 to psi, applied to target.

    On a word, sums over the positions of '1' the word with that letter
    replaced by psi; extended bilinearly and truncated to the lower bound.
    """
    bound = min(psi.weight_bound, target.weight_bound)

    def terms():
        for w, cw in target.terms.items():
            room = bound - (len(w) - 1)
            for i, ch in enumerate(w):
                if ch == "1":
                    for p, cp in psi.terms.items():
                        if len(p) <= room:
                            yield w[:i] + p + w[i + 1 :], cw * cp

    return XSeries(terms(), bound)


def _check_tm1(a: XSeries, where: str, x1: int = 0, error=NotInTm1) -> None:
    """Raise error unless <a | x1> is x1 and every x0-power coefficient,
    the empty word's included, vanishes; the error names the smallest x0-power
    among the terms."""
    if a.coeff("1") != x1:
        raise error(f"{where}: coefficient of x1 must {'be 1' if x1 else 'vanish'}")
    n = min((len(w) for w in a.terms if "1" not in w), default=None)
    if n is not None:
        raise error(f"{where}: coefficient of x0^{n} must vanish")


def bracket1(a: XSeries, b: XSeries) -> XSeries:
    """Derivation bracket d_a(b) - d_b(a) on tm1-shaped series."""
    _check_tm1(a, "bracket1")
    _check_tm1(b, "bracket1")
    return derive_d(a, b) - derive_d(b, a)


def bracket_racinet(a: XSeries, b: XSeries) -> XSeries:
    """Bracket d_[x1,a](b) - d_[x1,b](a) + [a,b] on primitive series of
    weight >= 2; bracketing with x1 turns it into bracket1."""
    for s, name in ((a, "a"), (b, "b")):
        mw = s.min_weight()
        if mw is not None and mw < 2:
            raise NotPrimitive(f"bracket_racinet: {name} has weight < 2 terms")
        if not is_primitive(s):
            raise NotPrimitive(f"bracket_racinet: {name} is not primitive")
    return derive_d(ad_x1(a), b) - derive_d(ad_x1(b), a) + commutator(a, b)


def ad_x1(a: XSeries) -> XSeries:
    """x1*a - a*x1, truncated at a's bound."""
    return commutator(XSeries.word("1", 1, a.weight_bound), a)


def _x1_preimage(v: XSeries) -> XSeries:
    """The x1-power-free psi with [x1, psi] = v when there is one, unchecked:
    psi(u) = v(1u) when u ends in 0, and psi(a1) = v(1a1) + psi(1a)."""
    psi: dict[str, int | Fraction] = {}
    # c*1u adds c at u and at each rotation that moves a leading 1 to the end
    for w, c in v.terms.items():
        if w[:1] != "1" or "0" not in w:
            continue
        u = w[1:]
        psi[u] = psi.get(u, 0) + c
        while u[0] == "1":
            u = u[1:] + "1"
            psi[u] = psi.get(u, 0) + c
    return XSeries(psi, max(v.weight_bound - 1, 0))


def ad_x1_inverse(v: XSeries) -> XSeries:
    """The primitive psi with no pure-x1-power component and [x1, psi] = v.

    The kernel of bracketing with x1 on words is spanned by the x1-powers, so
    psi reads off the words of v (_x1_preimage).  Each weight is certified
    exactly: [x1, psi] = v and psi is primitive, or NotInImage is raised.
    The image is the primitive series with vanishing 00-corner.
    """
    mw = v.min_weight()
    if mw is not None and mw < 3:
        raise PreconditionViolation("ad_x1_inverse: input has weight < 3 terms")
    if not is_primitive(v):
        raise NotPrimitive("ad_x1_inverse: input is not primitive")
    if any(w[0] == w[-1] == "0" for w in v.terms):
        raise NotInImage("ad_x1_inverse: nonzero 00-corner")
    result = _x1_preimage(v)
    parts = _components(result)
    for n, comp in sorted(_components(v).items()):
        part = XSeries(parts.get(n - 1, {}), n)
        if ad_x1(part) != XSeries(comp, n) or not is_primitive(part):
            raise NotInImage(f"ad_x1_inverse: no primitive preimage at weight {n}")
    return result


def kappa_substitute(f: XSeries, target: XSeries) -> XSeries:
    """Algebra endomorphism fixing x0 and sending x1 to f, applied wordwise:
    the word x0^a0 x1 x0^a1 ... x1 x0^ad goes to x0^a0 f x0^a1 ... f x0^ad."""
    if f.coeff("") != 0:
        raise NonzeroConstant("kappa substitution needs <f | 1> = 0")
    bound = min(f.weight_bound, target.weight_bound)
    # f x0^a for each length a < bound of an x0-run after an x1, sorted by
    # weight once for all the products it ends
    tails = [
        concat_product(f, XSeries.word("0" * a, 1, bound))._by_weight()
        for a in range(bound)
    ]

    def substituted(w: str) -> XSeries:
        first, *rest = w.split("1")  # the x0-runs around the x1 letters
        out = XSeries.word(first, 1, bound)
        for run in rest:
            out = XSeries(
                ((u + v, c) for u, v, c in _pairs_by_weight(out, *tails[len(run)], bound)),
                bound,
            )
        return out

    # f has no constant term, so no word gets shorter under the substitution
    return XSeries(
        ((u, c * cu) for w, c in target.terms.items() if len(w) <= bound
         for u, cu in substituted(w).terms.items()),
        bound,
    )


def conjugate_x1(a: XSeries) -> XSeries:
    """a^{-1} x1 a under concatenation, at a's bound."""
    x1 = XSeries.word("1", 1, a.weight_bound)
    return concat_product(concat_product(concat_inverse(a), x1), a)


def ihara_product(a: XSeries, b: XSeries) -> XSeries:
    """Twisted product a * kappa_{a^{-1} x1 a}(b) on unit-constant series."""
    for s, name in ((a, "left"), (b, "right")):
        if s.coeff("") != 1:
            raise NonUnitConstant(f"ihara_product: {name} factor needs constant term 1")
    bound = min(a.weight_bound, b.weight_bound)
    a = a.truncate(bound)
    return concat_product(a, kappa_substitute(conjugate_x1(a), b.truncate(bound)))


def ihara1_product(a: XSeries, b: XSeries) -> XSeries:
    """Substitution product kappa_a(b) on group-shaped series (x1-coefficient
    1, all x0-powers zero)."""
    _check_tm1(a, "ihara1_product", 1, NotInTM1)
    _check_tm1(b, "ihara1_product", 1, NotInTM1)
    return kappa_substitute(a, b)


def tm1_inverse(a: XSeries) -> XSeries:
    """Two-sided inverse for the substitution product, built by zeroing the
    defect weight by weight."""
    _check_tm1(a, "tm1_inverse", 1, NotInTM1)
    bound = a.weight_bound
    x1 = XSeries.word("1", 1, bound)
    inv = x1
    for k in range(2, bound + 1):
        err = (kappa_substitute(a, inv) - x1).component(k)
        if not err.is_zero():
            inv = inv - err
    return inv


def exp_ihara1(psi: XSeries) -> XSeries:
    """Sum over n of d_psi^n(x1) / n!; terminates at the bound since each
    application raises weight."""
    mw = psi.min_weight()
    if mw is not None and mw < 2:
        raise NotInTm1("exp_ihara1: lowest weight must be >= 2")
    _check_tm1(psi, "exp_ihara1")
    x1 = XSeries.word("1", 1, psi.weight_bound)
    return _iterated_sum(x1, lambda term: derive_d(psi, term), lambda n: Fraction(1, factorial(n)))


@dataclass(frozen=True)
class FadDecomposition:
    """Outcome of the weightwise conjugation recovery.

    psi_parts maps weight m >= 2 to the recovered homogeneous generator;
    residuals maps weight n >= 3 to the 00-corner obstruction at that weight,
    as a series at phi's bound.  Membership holds exactly when every
    recorded residual vanishes up to the bound.
    """

    psi_parts: dict[int, XSeries]
    residuals: dict[int, XSeries]
    is_member: bool

    def psi(self, bound: int) -> XSeries:
        return XSeries(
            (t for part in self.psi_parts.values() for t in part.terms.items()), bound
        )


def fad_decompose(phi: XSeries) -> FadDecomposition:
    """Decide whether phi is a conjugate x1 series, recovering the conjugator.

    phi = E^{-1} x1 E with E = exp(psi) exactly when E phi = x1 E, which at
    weight n reads [x1, E_{n-1}] = sum over j >= 3 of E_{n-j} phi_j, with
    phi_j the weight-j part of phi - x1 and E_0 = 1.  A group-like E with no
    x1 term has no x1-power words, which span the kernel of bracketing with
    x1, so each layer is the x1-power-free preimage of a right side built
    from the layers below, certified by bracketing it back.  A bracket with
    x1 has no word that begins and ends with x0: those words of the right
    side are the residual at weight n, and the first nonzero one ends the
    solve.

    Everything between reading phi and returning psi runs in integers.  With
    D the lcm of the denominators of phi - x1, layer m is kept as D^m E_m and
    phi_j as D^(j-1) phi_j, so the right side at weight n is D^(n-1) times
    the true one and its preimage is the next scaled layer; only a residual
    is divided back, by D^(n-1).  psi = log E on the layers found (up to
    weight bound - 1, or n - 2 on a failure at n) is taken as K log E in
    integers and divided by K at the end.  It is certified for members and
    non-members alike: it is primitive, and N exp(psi) = N E, with N the
    factorial of the highest power nmax of psi that survives the bound, is
    checked as sum over n of (N/n!) K^(nmax-n) (K log E)^n = N K^nmax E,
    both sides times D^m at weight m.
    """
    bound = phi.weight_bound
    diff = XSeries({w: c for w, c in phi.terms.items() if w != "1"}, bound)
    mw = diff.min_weight()
    if (bound and phi.terms.get("1") != 1) or (mw is not None and mw < 3):
        raise PreconditionViolation("fad_decompose: phi - x1 has weight < 3 terms")
    if not is_primitive(diff):
        raise PreconditionViolation("fad_decompose: phi - x1 is not primitive")

    den = lcm(*{c.denominator for c in diff.terms.values()})  # D; a set, as in _integral
    powers = [den**m for m in range(bound + 2)]  # D^m, up to the top layer
    parts = {  # {j: D^(j-1) phi_j}, every j >= 3
        j: {w: c.numerator * (powers[j - 1] // c.denominator) for w, c in part.items()}
        for j, part in _components(diff).items()
    }
    layers: list[dict] = [{"": 1}, {}]  # the terms of D^m E_m
    residuals: dict[int, XSeries] = {}
    for n in range(3, bound + 1):
        right = XSeries(
            ((u + v, cu * cv) for j, part in parts.items() if j <= n
             for u, cu in layers[n - j].items() for v, cv in part.items()),
            n,
        )
        corner = (
            (w, Fraction(c, powers[n - 1])) for w, c in right.terms.items() if w[0] == w[-1] == "0"
        )
        residuals[n] = XSeries(corner, bound)
        if residuals[n]:
            break
        layer = _x1_preimage(right)
        if ad_x1(layer.with_bound(n)) != right:
            raise NotInImage(f"fad_decompose: no preimage at weight {n}")
        layers.append(layer.terms)

    top = len(layers) - 1
    # d clears E's denominators: lcm over m of D^m / gcd(D^m, content of layer m),
    # over a list as in _integral
    d = lcm(*[powers[m] // gcd(powers[m], *layer.values()) for m, layer in enumerate(layers)])
    # K log E = sum over r of (-1)^(r+1) K/(r d^r) (d(E - 1))^r in integers,
    # with K = k; (E - 1)^r vanishes for 2r > top
    k = d ** (top // 2) * lcm(*range(1, top // 2 + 1))
    y = XSeries(
        ((w, d * c // powers[len(w)]) for layer in layers[1:] for w, c in layer.items()), top
    )
    log = _power_series(y, lambda r: r and (-1) ** (r + 1) * k // (r * d**r))
    if not is_primitive(log):
        raise AssertionError("fad_decompose: log E is not primitive")
    # N exp(psi) = N E with psi = log / k, times k^nmax and D^m at weight m
    low = log.min_weight()
    nmax = top // low if low else 0
    big = factorial(nmax)
    scaled = _power_series(log, lambda n: big // factorial(n) * k ** (nmax - n))
    expected = big * k**nmax
    if {w: c * powers[len(w)] for w, c in scaled.terms.items()} != {
        w: c * expected for layer in layers for w, c in layer.items()
    }:
        raise AssertionError("fad_decompose: reconstruction mismatch")
    return FadDecomposition(
        psi_parts={
            m: XSeries(((w, Fraction(c, k)) for w, c in part.items()), m)
            for m, part in sorted(_components(log).items())
        },
        residuals=residuals,
        is_member=not any(residuals.values()),
    )

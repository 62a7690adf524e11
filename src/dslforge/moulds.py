"""Commutative generating polynomials of fixed-depth series components, and
the polynomial identities that characterize the corner and parity conditions.

A depth-r component of an X-series becomes a polynomial in r+1 variables
u_0..u_r: the word 0^{a_1} 1 0^{a_2} 1 ... 1 0^{a_{r+1}} (runs read left to
right) contributes its coefficient times u_r^{a_1} u_{r-1}^{a_2} ... u_0^{a_{r+1}},
so the rightmost zero-run maps to u_0.  All identities are verified in
denominator-cleared polynomial form with exact coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from time import perf_counter
from typing import Mapping, Sequence

from .algebra import is_primitive
from .lie import derive_d
from .series import XSeries, _accumulate, _coeff, _json_terms, _shown, corner_decompose
from .verify import VerificationReport, _report
from .words import x_run_lengths, xdepth


def _exponent(exp, nvars: int) -> tuple:
    """The exponent vector as a tuple, checked for its length."""
    exp = tuple(exp)
    if len(exp) != nvars:
        raise ValueError(f"exponent vector {exp} has wrong length")
    return exp


@dataclass(frozen=True)
class MultiPoly:
    """Multivariate polynomial with rational coefficients, exponent-vector keys."""

    nvars: int
    terms: dict

    def __init__(self, nvars: int, items=()):
        if isinstance(items, Mapping):
            items = items.items()
        terms = _accumulate((_exponent(exp, nvars), c) for exp, c in items)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, [(tuple(exp), 1)])

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            type(other) is MultiPoly
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        return MultiPoly(self.nvars, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, ((e, -c) for e, c in self.terms.items()))

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        return MultiPoly(
            self.nvars,
            (
                (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                for e1, c1 in self.terms.items()
                for e2, c2 in other.terms.items()
            ),
        )

    def scale(self, c) -> "MultiPoly":
        c = _coeff(c)
        return MultiPoly(self.nvars, ((e, c * v) for e, v in self.terms.items()))

    def eval_at(
        self, args: Sequence[int | tuple[int, ...] | None], nvars_out: int
    ) -> "MultiPoly":
        """Substitute each variable by 0, by a target variable, or by a sum of
        target variables.

        args[i] is None for 0, the target index for variable i, or a tuple
        of target indices for their sum.  Distinct variables may map to the
        same targets.
        """
        if len(args) != self.nvars:
            raise ValueError("wrong number of arguments")
        killed = {i for i, target in enumerate(args) if target is None}

        def terms():
            for exp, c in self.terms.items():
                if any(exp[i] for i in killed):
                    continue
                new = [0] * nvars_out
                for e, target in zip(exp, args):
                    if e and type(target) is int:
                        new[target] += e
                partial = {tuple(new): c}
                for e, target in zip(exp, args):
                    if e and type(target) is tuple:
                        for _ in range(e):
                            partial = _accumulate(
                                (m[:j] + (m[j] + 1,) + m[j + 1 :], cm)
                                for m, cm in partial.items() for j in target
                            )
                yield from partial.items()

        return MultiPoly(nvars_out, terms())

    def to_json_dict(self) -> dict:
        return {
            "vars": self.nvars,
            "terms": [
                {"exp": list(e), "coeff": str(c)}
                for e, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MultiPoly":
        """Read {"vars": n, "terms": [{"exp": [...], "coeff": ...}]} with the
        series term-list reader: nothing is coerced or summed, vars is a
        nonnegative integer, each exponent vector a list of n nonnegative
        integers and listed once, and each coefficient exact, an integer or a
        "p"/"p/q" string.  Anything else raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"polynomial JSON must be an object, got {_shown(data)}")
        nvars, terms = data.get("vars"), data.get("terms")
        if type(nvars) is not int or nvars < 0:
            raise ValueError(f"vars must be a nonnegative integer, got {_shown(nvars)}")
        if not isinstance(terms, list):
            raise ValueError("polynomial JSON needs a list of terms")

        def exponent(t: dict) -> tuple:
            exp = t["exp"]
            if not isinstance(exp, list) or len(exp) != nvars or any(
                type(e) is not int or e < 0 for e in exp
            ):
                raise ValueError(f"malformed exponent vector: {_shown(t)}")
            return tuple(exp)

        return cls(nvars, _json_terms(terms, 0, exponent, lambda exp: 0))

    def __repr__(self):
        if not self.terms:
            return f"MultiPoly(0; vars={self.nvars})"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"u{i}^{p}" for i, p in enumerate(e) if p) or "1"
            parts.append(f"{c}*{mono}")
        return f"MultiPoly({' + '.join(parts)}; vars={self.nvars})"


def vimo_extract(s: XSeries, depth: int) -> MultiPoly:
    """The generating polynomial of the depth-r component of s in r+1 variables."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return MultiPoly(
        depth + 1,
        # left to right runs; the rightmost run goes to u_0
        (
            (reversed(x_run_lengths(w)), c)
            for w, c in s.terms.items()
            if xdepth(w) == depth
        ),
    )


def ma_mi_extract(s: XSeries, depth: int) -> tuple[MultiPoly, MultiPoly]:
    """The two standard substitutions of the generating polynomial.

    With v the (r+1)-variable polynomial of the depth-r component, returns
    (ma, mi) in r variables u_1..u_r (index i-1 internally):
    ma = v(0, u_1, u_1+u_2, ..., u_1+...+u_r) and mi = v(0, u_1, ..., u_r).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    v = vimo_extract(s, depth)
    ma = v.eval_at([None] + [tuple(range(i + 1)) for i in range(depth)], depth)
    mi = v.eval_at([None] + list(range(depth)), depth)
    return ma, mi


def check_deriv_explicit(a: XSeries, b: XSeries, depth: int) -> VerificationReport:
    """Check that the generating polynomial of d_a(b) at the given depth equals
    the double sum of spliced products of the generating polynomials of a and b.

    The inner factor at positions (alpha, beta) uses variables
    x_alpha..x_beta; the outer factor uses x_0..x_alpha, x_beta..x_r.  The
    spliced sum never reads a depth-0 component of a, so the identity is
    meaningful for a without pure x0-power terms (the shape the derivation
    bracket lives on); such terms make the check report a failure honestly.
    """
    t0 = perf_counter()
    r = depth
    nv = r + 1
    lhs = vimo_extract(derive_d(a, b), r)
    rhs = MultiPoly.zero(nv)
    for alpha in range(r + 1):
        for beta in range(alpha + 1, r + 1):
            inner = vimo_extract(a, beta - alpha).eval_at(
                list(range(alpha, beta + 1)), nv
            )
            if inner.is_zero():
                continue
            outer_args = list(range(alpha + 1)) + list(range(beta, r + 1))
            outer = vimo_extract(b, r - (beta - alpha) + 1).eval_at(outer_args, nv)
            if outer.is_zero():
                continue
            rhs = rhs + inner * outer
    witnesses = []
    diff = lhs - rhs
    if not diff.is_zero():
        witnesses.append({"difference": diff.to_json_dict()})
    return _report("deriv-explicit", {"depth": r}, witnesses, t0)


def check_corner_identity(s: XSeries, depth: int) -> VerificationReport:
    """Check both directions of: the 00-corner of the depth-r component
    vanishes exactly when v(x_0..x_r) = v(x_0..x_{r-1}, 0) + v(0, x_1..x_r)
    - v(0, x_1..x_{r-1}, 0)."""
    t0 = perf_counter()
    r = depth
    if r < 1:
        raise ValueError("depth must be >= 1")
    c00 = corner_decompose(s).c00  # NonzeroLowWeight unless weight <= 1 vanishes
    corner_zero = all(xdepth(w) != r for w in c00.terms)
    nv = r + 1
    v = vimo_extract(s, r)
    full = v.eval_at(list(range(nv)), nv)
    last0 = v.eval_at(list(range(r)) + [None], nv)
    first0 = v.eval_at([None] + list(range(1, nv)), nv)
    both0 = v.eval_at([None] + list(range(1, r)) + [None], nv)
    identity_holds = (full - last0 - first0 + both0).is_zero()

    witnesses = []
    if identity_holds != corner_zero:
        witnesses.append(
            {"identity_holds": identity_holds, "corner00_zero_at_depth": corner_zero}
        )
    return _report(
        "corner-identity",
        {"depth": r, "corner00_zero": corner_zero},
        witnesses,
        t0,
    )


def check_parity_identity(s: XSeries, depth: int) -> VerificationReport:
    """Check the strong-parity generating identity in denominator-cleared form.

    Shifted form, middle variables x_1..x_r and y, denominators cleared:
      (x_1-y)(x_r-y)*v(y,x_1..x_r,y) + (x_1-y)*[v(0,x_1..x_r) - v(0,x_1..x_{r-1},y)]
                                     + (x_r-y)*[v(x_1..x_r,0) - v(y,x_2..x_r,0)] = 0.
    Its value at y = 0, the base form, is checked on any series, the shifted
    form on primitive inputs only (decided here by is_primitive).  The base
    identity at depth r is equivalent to the strong-parity rows on middle
    words of depth r-1.
    """
    t0 = perf_counter()
    r = depth
    if r < 1:
        raise ValueError("depth must be >= 1")
    # variables: x_1..x_r at indices 0..r-1, y at index r; None is 0
    nv, y, xs = r + 1, r, list(range(r))
    v_mid = vimo_extract(s, r + 1)  # r+2 args
    v_r = vimo_extract(s, r)  # r+1 args
    x1y = MultiPoly.variable(nv, 0) - MultiPoly.variable(nv, y)
    xry = MultiPoly.variable(nv, r - 1) - MultiPoly.variable(nv, y)
    shifted = (
        x1y * xry * v_mid.eval_at([y, *xs, y], nv)
        + x1y * (v_r.eval_at([None, *xs], nv) - v_r.eval_at([None, *xs[:-1], y], nv))
        + xry * (v_r.eval_at([*xs, None], nv) - v_r.eval_at([y, *xs[1:], None], nv))
    )
    base = shifted.eval_at([*xs, None], nv)  # y = 0 gives the base form term for term
    witnesses = []
    if not base.is_zero():
        witnesses.append({"variant": "base", "difference_terms": len(base.terms)})
    primitive = is_primitive(s)
    if primitive and not shifted.is_zero():
        witnesses.append({"variant": "shifted", "difference_terms": len(shifted.terms)})
    return _report(
        "parity-identity",
        {"depth": r, "primitive": primitive},
        witnesses,
        t0,
    )

"""Compile graded subspace definitions into exact linear systems.

Every space descends from a root whose basis is written in closed form.  The
primitive roots F2GEQ(m) take the Lyndon-bracketing basis of the free Lie
algebra at each weight k >= m (186 vectors at weight 11 instead of 2048 raw
words) and nothing below m, so a minimum weight is stated once, on the root.
The strong parity space `vstrprty` is not primitive; it is a root too.

Every other space is solved on its parent's basis: one integer row per
condition the space adds, a positive multiple of the condition's rational
row, over the parent's integer vectors as columns.  The rows are written,
as each is built, into one preallocated numpy int64 matrix (an object
matrix when an entry lies beyond int64), which the kernel reads as given:
it is the only copy of the rows.  A harmonic condition
gets one row per non-Lyndon Y-word, whose products span every product
u * v (Hoffman 2000; Radford 1979), and a sharp row pairs a product of
weight m only with y_{k-m}.  The products come from the table that
membership certificates also decide on, keyed by the binary codes of the
Y-words, which the harmonic rows read off the column words.  Kernels are
computed exactly as integer vectors and re-expanded into series through the
columns, so `addmr-fad` solves 7 columns at weight 11.

Membership certificates never read the compiled rows, and they read the
series once, into its weight components: each star weight and each sharp
T^t layer is decided on the codes read off a component, and only a failing
one decodes the same codes and scans its pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, pairwise
from math import gcd

from .algebra import _code_defects, _components, _harmonic_products, _sharp_codes
from .algebra import _sharp_terms, _shuffle_defects, _star_codes, _star_terms
from .linalg import int_matrix, kernel_basis
from .lyndon import lyndon_primitive_basis
from .series import XSeries, corner_decompose
from .words import all_xwords

# Bumped when the emitted rows or the pivot rule change; part of cache keys.
SCHEMA_VERSION = "s1p1"

@dataclass(frozen=True)
class SpaceId:
    """Identifier of a defined subspace: its key (the cache and JSON name),
    the space whose basis it is solved on (None for a root, whose basis is
    written in closed form), the conditions it adds to the parent's, and,
    on a root only, its minimum weight, which every descendant inherits."""

    key: str
    parent: "SpaceId | None"
    own_tags: tuple[str, ...]
    root_weight: int | None = None

    @staticmethod
    def parse(text: str) -> "SpaceId":
        text = text.strip().lower()
        if text in _BY_KEY:
            return _BY_KEY[text]
        if text.startswith("f2geq"):
            arg = text[len("f2geq") :].lstrip(":-")
            if arg.isdigit() and int(arg) >= 1:
                return F2GEQ(int(arg))
        raise ValueError(f"unknown space id: {text!r}")

    @property
    def root(self) -> "SpaceId":
        return self.parent.root if self.parent else self

    @property
    def min_weight(self) -> int:
        return self.root.root_weight

    def condition_tags(self) -> tuple[str, ...]:
        return (self.parent.condition_tags() if self.parent else ()) + self.own_tags

    def __str__(self) -> str:
        return self.key


def F2GEQ(m: int) -> SpaceId:
    """Primitive series with no component below weight m; F2GEQ(1) is `f2`."""
    return SpaceId("f2" if m == 1 else f"f2geq{m}", None, (), m)


VSTRPRTY = SpaceId("vstrprty", None, ("parity",), 2)
DMR = SpaceId("dmr", F2GEQ(3), ("star-harmonic",))
ADDMR = SpaceId("addmr", F2GEQ(4), ("sharp-harmonic", "sharp-depth-one"))
FAD = SpaceId("fad", F2GEQ(3), ("corner00",))
ADDMR_FAD = SpaceId("addmr-fad", ADDMR, ("corner00",))
ADDMR_FAD_PARITY = SpaceId("addmr-fad-parity", ADDMR_FAD, ("parity",))
# On the free Lie basis, not on `fad`: `fad` is wide (56 vectors at weight
# 10, of which 13 are kept).
FAD_PARITY = SpaceId("fad-parity", F2GEQ(3), ("corner00", "parity"))

_BY_KEY = {
    s.key: s
    for s in (DMR, ADDMR, FAD, VSTRPRTY, ADDMR_FAD, ADDMR_FAD_PARITY, FAD_PARITY, F2GEQ(1))
}


@dataclass(frozen=True)
class SubspaceBasis:
    space: SpaceId
    weight: int
    vectors: list

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def to_json_dict(self) -> dict:
        return {
            "format": "basis-v1",
            "schema": SCHEMA_VERSION,
            "space": self.space.key,
            "weight": self.weight,
            "dimension": self.dimension,
            "vectors": [v.to_json_dict() for v in self.vectors],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SubspaceBasis":
        return cls(
            space=SpaceId.parse(data["space"]),
            weight=int(data["weight"]),
            vectors=[XSeries.from_json_dict(v) for v in data["vectors"]],
        )


def _word_index(columns: list[dict]) -> dict:
    """word -> [(column, coeff)] over the integer columns {word: int}."""
    index: dict = {}
    for j, terms in enumerate(columns):
        for w, c in terms.items():
            index.setdefault(w, []).append((j, c))
    return index


def _harmonic_row(table: dict, n: int, terms) -> list:
    """The row psi -> sum of mult * <image of psi | key> over the terms
    (key, mult), where table maps keys (X-words, or the codes of Y-words) to
    [(column, coeff)] of the images, summed exactly in Python ints."""
    row = [0] * n
    for key, mult in terms:
        for j, c in table.get(key, ()):
            row[j] += mult * c
    return row


def _product_rows(table: dict, m: int) -> list:
    """One row per spanning product of weight m (_harmonic_products), over a
    table keyed by the codes of Y-words."""
    starts, codes, mults = _harmonic_products(m)
    return [(table, zip(codes[a:b], mults[a:b])) for a, b in pairwise(starts)]


def _star_harmonic_rows(index: dict, k: int) -> list:
    """One row per non-Lyndon Y-word of weight k, for its product u * v: the
    functional psi -> <k * star_word(psi) | u * v>, with the image read off
    the column words by _star_terms; the factor k makes it integral."""
    star: dict = {}
    for w, code, factor in _star_terms(index, k):
        star.setdefault(code, []).extend((j, factor * c) for j, c in index[w])
    return _product_rows(star, k)


def _sharp_harmonic_rows(index: dict, k: int) -> list:
    """One row per non-Lyndon Y-word of weight m, 2 <= m < k, for its product
    u * v: the functional psi -> <q_right(psi) | y_{k-m} (u * v)>.  A
    weight-k word meets y_l (u * v) only at l = k - m, as the term T^{k-m-1} y
    of q_sharp with y of weight m, so the rows of weight m read the layer m
    of the codes that _sharp_terms reads off the column words."""
    layers: dict = {}
    for w, m, code in _sharp_terms(index):
        layers.setdefault(m, {})[code] = index[w]
    return [row for m in range(2, k) for row in _product_rows(layers.get(m, {}), m)]


def _sharp_depth_one_rows(index: dict, k: int) -> list:
    """The explicit depth-one tail row: <psi | x1 x0^{k-2} x1> = 0."""
    return [(index, (("1" + "0" * (k - 2) + "1", 1),))]


def _corner00_rows(index: dict, k: int) -> list:
    """One row per word x0*w*x0 appearing in some column."""
    corners = sorted(w for w in index if len(w) >= 2 and w[0] == "0" and w[-1] == "0")
    return [(index, ((w, 1),)) for w in corners]


def _parity_rows(index: dict, k: int) -> list:
    """One row per middle w of a column word not of the form x0 w x0 (over raw
    word columns, every w of weight k-2): <.|x1 w x1> + <.|x1 w x0> + <.|x0 w x1>."""
    middles = sorted(
        {w[1:-1] for w in index if len(w) >= 2 and (w[0], w[-1]) != ("0", "0")}
    )
    return [(index, (("1" + w + "1", 1), ("1" + w + "0", 1), ("0" + w + "1", 1)))
            for w in middles]


# Each builder reads the word -> [(column, coeff)] index of the columns and
# the weight, and returns its rows as (table, terms), in row order: the row
# _harmonic_row(table, n, terms).
_ROW_BUILDERS = {
    "star-harmonic": _star_harmonic_rows,
    "sharp-harmonic": _sharp_harmonic_rows,
    "sharp-depth-one": _sharp_depth_one_rows,
    "corner00": _corner00_rows,
    "parity": _parity_rows,
}


def _compile(tags: tuple, basis: SubspaceBasis):
    """The integer matrix of the conditions over the basis vectors as
    columns (linalg.int_matrix): int64, or object when an entry lies beyond
    int64.  Each row is summed in Python ints and written into the
    preallocated matrix as it is built, so the matrix is the only copy of
    the rows.  Integral coefficients are stored as ints, so each vector's
    terms already are {word: int}."""
    index = _word_index([v.terms for v in basis.vectors])
    n = basis.dimension
    rows = [row for tag in tags for row in _ROW_BUILDERS[tag](index, basis.weight)]
    return int_matrix((_harmonic_row(table, n, terms) for table, terms in rows), len(rows), n)


def compile_on_parent(space: SpaceId, parent: SubspaceBasis):
    """The library's compiler: the integer matrix (rows by the parent's
    dimension) of the conditions the space adds, over its parent's canonical
    basis vectors as columns; rational_kernel reads it as given.  The
    parent's rows hold on every combination, and rational_kernel turns the
    kernel into the canonical basis (see there).  Below the root's minimum
    weight the parent has no vectors, so the matrix has no columns and its
    kernel is empty."""
    return _compile(space.own_tags, parent)


def compile_constraints(space: SpaceId, k: int):
    """The full-rows reference for compile_on_parent: the matrix of every
    condition of the space, over its root's closed-form basis at weight k.
    The strong parity space is a root that is not primitive, so it has
    nothing to compile."""
    if space.root == VSTRPRTY:
        raise ValueError("vstrprty is not primitive: its basis is root_basis(VSTRPRTY, k)")
    return _compile(space.condition_tags(), root_basis(space.root, k))


def rational_kernel(space: SpaceId, parent: SubspaceBasis, rows) -> SubspaceBasis:
    """The space's basis: the exact nullspace of the rows (a matrix, or a
    list of rows; see linalg.kernel_basis) over the parent's vectors as
    columns, re-expanded into series in integer arithmetic, each vector
    divided by the gcd of its word coefficients and signed so that its
    smallest word has a positive coefficient.

    Over a parent's canonical basis this gives the child's canonical basis,
    for every space.  On a free Lie root the columns are the Lyndon
    bracketings, and each has its Lyndon word as smallest word, with
    coefficient 1 (Reutenauer, Free Lie Algebras, ch. 5), so the gcd and the
    first coordinate's sign read the same off the words as off the
    coordinates.  Further down, each parent vector's last nonzero Lyndon
    coordinate is its own free column, so the kernel's free columns are the
    child's Lyndon free columns.  Over a basis of unit words the columns
    are the words themselves, and nothing changes.
    """
    vectors = []
    for coords in kernel_basis(rows, parent.dimension):
        terms: dict = {}
        for c, col in zip(coords, parent.vectors):
            if not c:
                continue
            for w, cw in col.terms.items():
                terms[w] = terms.get(w, 0) + c * cw
        terms = {w: c for w, c in terms.items() if c}
        g = gcd(*terms.values())
        if terms[min(terms)] < 0:
            g = -g
        vectors.append(XSeries({w: c // g for w, c in terms.items()}, parent.weight))
    return SubspaceBasis(space=space, weight=parent.weight, vectors=vectors)


def root_basis(space: SpaceId, k: int) -> SubspaceBasis:
    """The canonical basis of a root in closed form; empty below its minimum
    weight.

    F2GEQ(m) is spanned by the standard bracketings of the Lyndon words of
    length k, in increasing order: each is its own canonical vector (see
    rational_kernel).  The strong parity space has one row per middle w,
    <x1 w x1> + <x1 w x0> + <x0 w x1> = 0, which touches a triple of words
    that no other row touches, with x0 w x1 as pivot, and every x0 w x0 is
    free.  So, in sorted order of the free words, its basis is the unit
    vector at each x0 w x0 and x0 w x1 - x1 w a at each x1 w a: 3 * 2^(k-2)
    vectors.
    """
    if k < 1:
        raise ValueError("weight must be >= 1")
    if k < space.min_weight:
        vectors = []
    elif space != VSTRPRTY:
        vectors = [e.expansion for e in lyndon_primitive_basis(k)]
    else:
        vectors = [
            XSeries({"0" + w[1:-1] + "1": 1, w: -1} if w[0] == "1" else {w: 1}, k)
            for w in sorted(all_xwords(k)) if w[0] == "1" or w[-1] == "0"
        ]
    return SubspaceBasis(space=space, weight=k, vectors=vectors)


@dataclass(frozen=True)
class MembershipReport:
    """Independent re-verification of the defining conditions on a series.

    Built from direct defect recomputation, never from the compiled matrix.
    Each weight component is decided first: primitivity by the Lie test,
    the harmonic conditions by pairing the codes of the star_word and
    q_sharp images, read off the component's words, in integers with the
    spanning products, one per non-Lyndon Y-word.  Only a failing weight is
    scanned over every pair (u, v), on those same codes, and violations list
    at most the first 10 offending conditions in scan order.
    """

    space: SpaceId
    passed: bool
    violations: list
    weights_checked: list

    def to_json_dict(self) -> dict:
        return {
            "space": self.space.key,
            "pass": self.passed,
            "violations": self.violations,
            "weights_checked": self.weights_checked,
        }


_MAX_VIOLATIONS = 10


def _violations(space: SpaceId, s: XSeries, comps: dict):
    """Yield (weight, condition, detail) for each violated defining condition
    of the space, in report order, reading the series' weight components
    comps (_components); each scan runs only as far as it is read."""
    weights = sorted(comps)
    min_wt = space.min_weight
    for k in weights:
        if k < min_wt:
            yield k, "min-weight", f"nonzero component below weight {min_wt}"

    tags = space.condition_tags()
    if space != VSTRPRTY:
        for k in weights:
            for u, v, val in _shuffle_defects(comps[k], k):
                yield k, "primitive", {"u": u, "v": v, "value": str(val)}

    if "star-harmonic" in tags:
        for k in weights:
            # the codes carry k * star_word(s), so each pairing is k times its value
            for u, v, val in _code_defects(_star_codes(comps[k], k), k):
                yield k, "star-harmonic", {
                    "u": list(u), "v": list(v), "value": str(Fraction(val, k))}

    if "sharp-harmonic" in tags:
        for k in weights:
            layers = _sharp_codes(comps[k])
            # the T^t layer pairs y_{t+1} (u * v) with wt u + wt v = k - t - 1
            for t in range(k - 3, -1, -1):
                for u, v, val in _code_defects(layers.get(k - t - 1, {}), k - t - 1):
                    yield k, "sharp-harmonic", {
                        "t_exp": t, "u": list(u), "v": list(v), "value": str(val)}

    if "sharp-depth-one" in tags:
        for k in weights:
            if k >= 2 and (val := s.coeff("1" + "0" * (k - 2) + "1")):
                yield k, "sharp-depth-one", {"value": str(val)}

    if "corner00" in tags or "parity" in tags:
        if any(s.coeff(w) for w in ("", "0", "1")):
            yield min(weights, default=0), "corner", "nonzero weight <= 1 terms"
            return
        corners = corner_decompose(s)
        if "corner00" in tags:
            for w, c in sorted(corners.c00.terms.items()):
                yield len(w) + 2, "corner00", {"word": "0" + w + "0", "value": str(c)}
        if "parity" in tags:
            parity = corners.c11 + corners.c10 + corners.c01
            for w, c in sorted(parity.terms.items()):
                yield len(w) + 2, "parity", {"middle": w, "value": str(c)}


def membership_check(space: SpaceId, s: XSeries) -> MembershipReport:
    """Check every defining condition of the space on each weight component."""
    comps = _components(s)
    violations = [
        {"weight": k, "condition": condition, "detail": detail}
        for k, condition, detail in islice(_violations(space, s, comps), _MAX_VIOLATIONS)
    ]
    return MembershipReport(
        space=space,
        passed=not violations,
        violations=violations,
        weights_checked=sorted(comps),
    )


def dimension_table(
    spaces: list[SpaceId], k_max: int, use_cache: bool = True
) -> dict:
    """Kernel dimension for each space and 1 <= k <= k_max; a basis this call
    already resolved at weight k, such as a parent shared by two
    intersections, is not resolved again."""
    from .cache import _resolve_basis

    out: dict = {}
    for k in range(1, k_max + 1):
        resolved: dict = {}
        for space in spaces:
            basis = _resolve_basis(space, k, use_cache, resolved)
            out.setdefault(space.key, [0] * k_max)[k - 1] = basis.dimension
    return out

"""Compile graded subspace definitions into exact linear systems.

Stage 1 picks the coordinates: spaces that include primitivity are
parametrized by the Lyndon-bracketing basis of the primitive subspace (186
coordinates at weight 11 instead of 2048 raw word coordinates), read from the
integer bracketing table.  Stage 2 emits one integer row per residual linear
condition, a positive multiple of the condition's rational row; a harmonic
condition gets one row per non-Lyndon Y-word, whose products span every
product u * v (Hoffman 2000; Radford 1979), and a sharp row pairs a product
of weight m only with y_{k-m}.  The products come from the table that
membership certificates also decide on, keyed by the binary codes of the
Y-words, which the harmonic rows read off the column words.  Kernels are
computed exactly as integer vectors and re-expanded into series through the
chosen coordinates.

Membership certificates never read the compiled rows: each star weight and
each sharp T^t layer is decided on the codes read off the series, and only a
failing one builds the star_word or q_sharp image and scans its pairs.

An intersection can also be solved on its parent's basis: only the conditions
it adds become rows, over the parent's vectors as columns, so `addmr-fad`
solves 7 columns at weight 11 instead of 186.  The strong parity space is not
primitive; its basis is written in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, pairwise
from math import gcd

from .algebra import _codes_vanish, _harmonic_products, _harmonic_scan, _sharp_codes
from .algebra import _sharp_terms, _shuffle_defects, _star_codes, _star_terms
from .algebra import _weight_component
from .algebra import q_sharp, star_word
from .linalg import kernel_basis
from .lyndon import bracketing, lyndon_words
from .series import XSeries, corner_decompose
from .words import all_xwords, shuffle_words, word_pairs

# Bumped when the emitted rows or the pivot rule change; part of cache keys.
SCHEMA_VERSION = "s1p1"

@dataclass(frozen=True)
class SpaceId:
    """Identifier of a defined subspace: its key (the cache and JSON name),
    its minimum weight, the space whose basis an intersection is solved on
    (None without one), and the conditions it adds to the parent's (all of
    them without a parent).  An intersection keeps its parent's minimum
    weight."""

    key: str
    min_weight: int
    parent: "SpaceId | None"
    own_tags: tuple[str, ...]

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

    def condition_tags(self) -> tuple[str, ...]:
        return (self.parent.condition_tags() if self.parent else ()) + self.own_tags

    def __str__(self) -> str:
        return self.key


DMR = SpaceId("dmr", 3, None, ("star-harmonic",))
ADDMR = SpaceId("addmr", 4, None, ("sharp-harmonic", "sharp-depth-one"))
FAD = SpaceId("fad", 3, None, ("corner00",))
VSTRPRTY = SpaceId("vstrprty", 2, None, ("parity",))
ADDMR_FAD = SpaceId("addmr-fad", 4, ADDMR, ("corner00",))
ADDMR_FAD_PARITY = SpaceId("addmr-fad-parity", 4, ADDMR_FAD, ("parity",))
# No parent: `fad` is wide (56 vectors at weight 10, of which 13 are kept).
FAD_PARITY = SpaceId("fad-parity", 3, None, ("corner00", "parity"))


def F2GEQ(m: int) -> SpaceId:
    """Primitive series with no component below weight m; F2GEQ(1) is `f2`."""
    return SpaceId("f2" if m == 1 else f"f2geq{m}", m, None, ())


_BY_KEY = {
    s.key: s
    for s in (DMR, ADDMR, FAD, VSTRPRTY, ADDMR_FAD, ADDMR_FAD_PARITY, FAD_PARITY, F2GEQ(1))
}


@dataclass(frozen=True)
class ConstraintMatrix:
    """Exact system whose kernel is the weight-k piece of the space.

    column_series holds each column's expansion into words as {word: int};
    column_labels names the columns: Lyndon words, raw words, or the indices
    of a parent's basis vectors.
    """

    rows: list
    column_labels: list
    column_series: list
    space: SpaceId
    weight: int


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
    [(column, coeff)] of the images.  Every builder's rows come from here."""
    row = [0] * n
    for key, mult in terms:
        for j, c in table.get(key, ()):
            row[j] += mult * c
    return row


def _product_rows(table: dict, n: int, m: int) -> list:
    """One row per spanning product of weight m (_harmonic_products), over a
    table keyed by the codes of Y-words."""
    starts, codes, mults = _harmonic_products(m)
    return [_harmonic_row(table, n, zip(codes[a:b], mults[a:b]))
            for a, b in pairwise(starts)]


def _star_harmonic_rows(index: dict, n: int, k: int) -> list:
    """One row per non-Lyndon Y-word of weight k, for its product u * v: the
    functional psi -> <k * star_word(psi) | u * v>, with the image read off
    the column words by _star_terms; the factor k makes it integral."""
    star: dict = {}
    for w, code, factor in _star_terms(index, k):
        star.setdefault(code, []).extend((j, factor * c) for j, c in index[w])
    return _product_rows(star, n, k)


def _sharp_harmonic_rows(index: dict, n: int, k: int) -> list:
    """One row per non-Lyndon Y-word of weight m, 2 <= m < k, for its product
    u * v: the functional psi -> <q_right(psi) | y_{k-m} (u * v)>.  A
    weight-k word meets y_l (u * v) only at l = k - m, as the term T^{k-m-1} y
    of q_sharp with y of weight m, so the rows of weight m read the layer m
    of the codes that _sharp_terms reads off the column words."""
    layers: dict = {}
    for w, m, code in _sharp_terms(index):
        layers.setdefault(m, {})[code] = index[w]
    return [row for m in range(2, k) for row in _product_rows(layers.get(m, {}), n, m)]


def _sharp_depth_one_rows(index: dict, n: int, k: int) -> list:
    """The explicit depth-one tail row: <psi | x1 x0^{k-2} x1> = 0."""
    if k < 2:
        return []
    return [_harmonic_row(index, n, (("1" + "0" * (k - 2) + "1", 1),))]


def _corner00_rows(index: dict, n: int, k: int) -> list:
    """One row per word x0*w*x0 appearing in some column."""
    corners = sorted(w for w in index if len(w) >= 2 and w[0] == "0" and w[-1] == "0")
    return [_harmonic_row(index, n, ((w, 1),)) for w in corners]


def _parity_rows(index: dict, n: int, k: int) -> list:
    """One row per middle w of a column word not of the form x0 w x0 (over raw
    word columns, every w of weight k-2): <.|x1 w x1> + <.|x1 w x0> + <.|x0 w x1>."""
    middles = sorted(
        {w[1:-1] for w in index if len(w) >= 2 and (w[0], w[-1]) != ("0", "0")}
    )
    return [
        _harmonic_row(index, n, (("1" + w + "1", 1), ("1" + w + "0", 1), ("0" + w + "1", 1)))
        for w in middles
    ]


_ROW_BUILDERS = {
    "star-harmonic": _star_harmonic_rows,
    "sharp-harmonic": _sharp_harmonic_rows,
    "sharp-depth-one": _sharp_depth_one_rows,
    "corner00": _corner00_rows,
    "parity": _parity_rows,
}


def _condition_rows(tags: tuple, columns: list[dict], k: int) -> list:
    """The rows of the conditions over the integer columns {word: int}; every
    builder reads one word -> [(column, coeff)] index over them."""
    index = _word_index(columns)
    return [row for tag in tags for row in _ROW_BUILDERS[tag](index, len(columns), k)]


def compile_constraints(space: SpaceId, k: int) -> ConstraintMatrix:
    """Two-stage compilation of the weight-k piece of a primitive space over
    the integer bracketings of the Lyndon words of length k, with every row
    of every condition.  Below the space's weight threshold the result has
    full-rank rows and an empty kernel.
    """
    if k < 1:
        raise ValueError("weight must be >= 1")
    if space == VSTRPRTY:
        raise ValueError("vstrprty is not primitive: its basis is vstrprty_basis(k)")
    labels = lyndon_words(k)
    columns = [bracketing(w) for w in labels]
    n = len(columns)
    if k < space.min_weight:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        rows = _condition_rows(space.condition_tags(), columns, k)
    return ConstraintMatrix(
        rows=rows,
        column_labels=labels,
        column_series=columns,
        space=space,
        weight=k,
    )


def compile_on_parent(space: SpaceId, parent: SubspaceBasis) -> ConstraintMatrix:
    """An intersection inside its parent's basis: the rows of the conditions
    the space adds, over the parent's primitive integer vectors as columns.
    The parent's rows hold on every combination, and rational_kernel turns
    the kernel into the canonical basis (see there).  Integral coefficients
    are stored as ints, so each vector's terms already are {word: int}."""
    columns = [v.terms for v in parent.vectors]
    return ConstraintMatrix(
        rows=_condition_rows(space.own_tags, columns, parent.weight),
        column_labels=list(range(len(columns))),
        column_series=columns,
        space=space,
        weight=parent.weight,
    )


def compile_primitivity_raw(k: int) -> ConstraintMatrix:
    """Primitivity over raw word coordinates: one row per nonempty pair
    (u, v), |u| <= |v|, |u|+|v| = k, with entries the interleaving
    multiplicities.  Oracle for the Lyndon parametrization."""
    labels = sorted(all_xwords(k))
    pos = {w: i for i, w in enumerate(labels)}
    rows = []
    for u, v in word_pairs(k, all_xwords):
        row = [0] * len(labels)
        for w, m in shuffle_words(u, v).items():
            row[pos[w]] += m
        rows.append(row)
    return ConstraintMatrix(
        rows=rows,
        column_labels=labels,
        column_series=[{w: 1} for w in labels],
        space=F2GEQ(1),
        weight=k,
    )


def rational_kernel(matrix: ConstraintMatrix) -> SubspaceBasis:
    """Exact nullspace of the compiled system, re-expanded into series in
    integer arithmetic through the integer columns, each vector divided by
    the gcd of its word coefficients and signed so that its smallest word
    has a positive coefficient.

    This changes no canonical basis over raw words or Lyndon bracketings:
    each bracketing has its Lyndon word as smallest word, with coefficient 1
    (Reutenauer, Free Lie Algebras, ch. 5), so the gcd and the first
    coordinate's sign read the same off the words.  Over a parent's
    canonical basis it gives the canonical basis of the intersection: each
    parent vector's last nonzero Lyndon coordinate is its own free column, so
    the kernel's free columns are the intersection's Lyndon free columns.
    """
    vectors = []
    for coords in kernel_basis(matrix.rows, len(matrix.column_labels)):
        terms: dict = {}
        for c, col in zip(coords, matrix.column_series):
            if not c:
                continue
            for w, cw in col.items():
                terms[w] = terms.get(w, 0) + c * cw
        g = gcd(*terms.values())
        if terms[min(w for w, c in terms.items() if c)] < 0:
            g = -g
        vectors.append(XSeries({w: c // g for w, c in terms.items()}, matrix.weight))
    return SubspaceBasis(space=matrix.space, weight=matrix.weight, vectors=vectors)


def vstrprty_basis(k: int) -> SubspaceBasis:
    """The canonical basis of the strong parity space in closed form.

    Its row for each middle w, <x1 w x1> + <x1 w x0> + <x0 w x1> = 0, touches
    a triple of words that no other row touches, with x0 w x1 as pivot, and
    every x0 w x0 is free.  So, in sorted order of the free words, the basis
    is the unit vector at each x0 w x0 and x0 w x1 - x1 w a at each x1 w a:
    3 * 2^(k-2) vectors, none below weight 2.
    """
    if k < 1:
        raise ValueError("weight must be >= 1")
    words = sorted(all_xwords(k)) if k >= VSTRPRTY.min_weight else []
    vectors = []
    for w in words:
        if w[0] == "1":
            vectors.append(XSeries({"0" + w[1:-1] + "1": 1, w: -1}, k))
        elif w[-1] == "0":
            vectors.append(XSeries({w: 1}, k))
    return SubspaceBasis(space=VSTRPRTY, weight=k, vectors=vectors)


@dataclass(frozen=True)
class MembershipReport:
    """Independent re-verification of the defining conditions on a series.

    Built from direct defect recomputation, never from the compiled matrix.
    Each weight is decided first: primitivity by the Lie test, the harmonic
    conditions by pairing the codes of the star_word and q_sharp images,
    read off the series' words, in integers with the spanning products, one
    per non-Lyndon Y-word.  Only a failing weight
    is scanned over every pair (u, v), and violations list at most the first
    10 offending conditions in scan order.
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


def _violations(space: SpaceId, s: XSeries, weights: list):
    """Yield (weight, condition, detail) for each violated defining condition
    of the space, in report order; each scan runs only as far as it is read."""
    min_wt = space.min_weight
    for k in weights:
        if k < min_wt:
            yield k, "min-weight", f"nonzero component below weight {min_wt}"

    tags = space.condition_tags()
    if space != VSTRPRTY:
        for k in weights:
            for u, v, val in _shuffle_defects(s, k):
                yield k, "primitive", {"u": u, "v": v, "value": str(val)}

    if "star-harmonic" in tags:
        star = None
        for k in weights:
            if _codes_vanish(_star_codes(_weight_component(s, k), k), k):
                continue
            star = star_word(s) if star is None else star
            for u, v, val in _harmonic_scan(star, k):
                yield k, "star-harmonic", {"u": list(u), "v": list(v), "value": str(val)}

    if "sharp-harmonic" in tags:
        sharp = None
        for k in weights:
            layers = _sharp_codes(_weight_component(s, k))
            # the T^t layer pairs y_{t+1} (u * v) with wt u + wt v = k - t - 1
            for t in range(k - 3, -1, -1):
                if _codes_vanish(layers.get(k - t - 1, {}), k - t - 1):
                    continue
                sharp = q_sharp(s) if sharp is None else sharp
                for u, v, val in _harmonic_scan(sharp.t_layer(t), k - t - 1):
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
    weights = sorted({len(w) for w in s.terms})
    violations = [
        {"weight": k, "condition": condition, "detail": detail}
        for k, condition, detail in islice(_violations(space, s, weights), _MAX_VIOLATIONS)
    ]
    return MembershipReport(
        space=space,
        passed=not violations,
        violations=violations,
        weights_checked=weights,
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

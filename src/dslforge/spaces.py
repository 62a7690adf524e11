"""Compile graded subspace definitions into exact linear systems.

Stage 1 picks the coordinates: spaces that include primitivity are
parametrized by the Lyndon-bracketing basis of the primitive subspace (186
coordinates at weight 11 instead of 2048 raw word coordinates), read from the
integer bracketing table; the strong parity space alone is compiled over raw
word coordinates.  Stage 2 emits one integer row per residual linear
condition, a positive multiple of the condition's rational row.  Kernels are
computed exactly as integer vectors and re-expanded into series through the
chosen coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .algebra import _harmonic_scan, _shuffle_defects, q_right, star_word
from .linalg import kernel_basis
from .lyndon import bracketing, lyndon_words
from .series import XSeries, corner_decompose
from .words import all_xwords, all_ywords, harmonic_words, leading_blocks
from .words import shuffle_words, trailing_blocks, word_pairs

# Bumped when the emitted rows or the pivot rule change; part of cache keys.
SCHEMA_VERSION = "s1p1"

_KNOWN = {
    "dmr": (3, ("star-harmonic",)),
    "addmr": (4, ("sharp-harmonic", "sharp-depth-one")),
    "fad": (3, ("corner00",)),
    "vstrprty": (2, ("parity",)),
    "addmr-fad": (4, ("sharp-harmonic", "sharp-depth-one", "corner00")),
    "addmr-fad-parity": (
        4,
        ("sharp-harmonic", "sharp-depth-one", "corner00", "parity"),
    ),
    "fad-parity": (3, ("corner00", "parity")),
}


@dataclass(frozen=True)
class SpaceId:
    """Identifier of a defined subspace; intersections carry the union of
    their factors' condition sets."""

    name: str
    min_weight_arg: int | None = None

    @classmethod
    def parse(cls, text: str) -> "SpaceId":
        text = text.strip().lower()
        if text in _KNOWN:
            return cls(text)
        if text == "f2":
            return cls("f2geq", 1)
        if text.startswith("f2geq"):
            arg = text[len("f2geq") :].lstrip(":-")
            if arg.isdigit() and int(arg) >= 1:
                return cls("f2geq", int(arg))
        raise ValueError(f"unknown space id: {text!r}")

    @property
    def key(self) -> str:
        if self.name == "f2geq":
            return "f2" if self.min_weight_arg == 1 else f"f2geq{self.min_weight_arg}"
        return self.name

    def min_weight(self) -> int:
        if self.name == "f2geq":
            return self.min_weight_arg or 1
        return _KNOWN[self.name][0]

    def condition_tags(self) -> tuple[str, ...]:
        if self.name == "f2geq":
            return ()
        return _KNOWN[self.name][1]

    def uses_lyndon(self) -> bool:
        return self.name != "vstrprty"

    def __str__(self) -> str:
        return self.key


DMR = SpaceId("dmr")
ADDMR = SpaceId("addmr")
FAD = SpaceId("fad")
VSTRPRTY = SpaceId("vstrprty")
ADDMR_FAD = SpaceId("addmr-fad")
ADDMR_FAD_PARITY = SpaceId("addmr-fad-parity")
FAD_PARITY = SpaceId("fad-parity")


def F2GEQ(m: int) -> SpaceId:
    return SpaceId("f2geq", m)


@dataclass(frozen=True)
class ConstraintMatrix:
    """Exact system whose kernel is the weight-k piece of the space.

    column_kind is 'lyndon' (columns are Lyndon-bracketing coordinates of the
    primitive subspace) or 'word' (raw word coordinates); column_series holds
    each column's expansion into words as {word: int}.
    """

    rows: list
    column_kind: str
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


def _harmonic_row(table: dict, n: int, head: tuple, expansion: dict):
    """The row psi -> sum of mult * <image of psi | head + w> over the
    expansion, where table maps Y-words to [(column, coeff)] of the images,
    and whether any column met it."""
    row = [0] * n
    touched = False
    for w, mult in expansion.items():
        for j, c in table.get(head + w, ()):
            row[j] += mult * c
            touched = True
    return row, touched


def _star_harmonic_rows(index: dict, n: int, k: int) -> list:
    """One row per nonempty Y-word pair (u, v), wt u <= wt v, total weight k:
    the functional psi -> <k * star_word(psi) | u * v>.  At weight k the
    image is k * q_left(psi) plus <psi | 0^{k-1} 1> y1^k, so the factor k
    clears the 1/k of the depth-one tail term, the only non-integral one."""
    star = {y: [(j, k * c) for j, c in cols]
            for w, cols in index.items() if (y := leading_blocks(w)) is not None}
    star[(1,) * k] = star.get((1,) * k, []) + index.get("0" * (k - 1) + "1", [])
    return [_harmonic_row(star, n, (), harmonic_words(u, v))[0]
            for u, v in word_pairs(k, all_ywords)]


def _sharp_scan(k: int):
    """Each (l, u, v, u * v) with l >= 1 and (u, v) a nonempty pair of total
    weight k - l, in scan order: the condition <q_right(.) | y_l (u * v)>."""
    for m in range(2, k):
        for u, v in word_pairs(m, all_ywords):
            expansion = harmonic_words(u, v)
            for l in range(1, k - m + 1):
                yield l, u, v, expansion


def _sharp_harmonic_rows(index: dict, n: int, k: int) -> list:
    """One row per l >= 1 and nonempty pair (u, v) with l + wt u + wt v = k
    that meets some column: the functional psi -> <q_right(psi) | y_l (u * v)>."""
    sharp = {y: cols for w, cols in index.items()
             if (y := trailing_blocks(w)) is not None}
    rows = []
    for l, u, v, expansion in _sharp_scan(k):
        row, touched = _harmonic_row(sharp, n, (l,), expansion)
        if touched:
            rows.append(row)
    return rows


def _sharp_depth_one_rows(index: dict, n: int, k: int) -> list:
    """The explicit depth-one tail row: <psi | x1 x0^{k-2} x1> = 0."""
    if k < 2:
        return []
    row = [0] * n
    for j, c in index.get("1" + "0" * (k - 2) + "1", ()):
        row[j] = c
    return [row]


def _corner00_rows(index: dict, n: int, k: int) -> list:
    """One row per word x0*w*x0 appearing in some column."""
    rows = []
    for w in sorted(w for w in index if len(w) >= 2 and w[0] == "0" and w[-1] == "0"):
        row = [0] * n
        for j, c in index[w]:
            row[j] = c
        rows.append(row)
    return rows


def _parity_rows(index: dict, n: int, k: int) -> list:
    """One row per middle w of a column word not of the form x0 w x0 (over raw
    word columns, every w of weight k-2): <.|x1 w x1> + <.|x1 w x0> + <.|x0 w x1>."""
    if k < 2:
        return []
    middles = sorted(
        {w[1:-1] for w in index if len(w) >= 2 and (w[0], w[-1]) != ("0", "0")}
    )
    rows = []
    for w in middles:
        row = [0] * n
        for corner in ("1" + w + "1", "1" + w + "0", "0" + w + "1"):
            for j, c in index.get(corner, ()):
                row[j] += c
        rows.append(row)
    return rows


_ROW_BUILDERS = {
    "star-harmonic": _star_harmonic_rows,
    "sharp-harmonic": _sharp_harmonic_rows,
    "sharp-depth-one": _sharp_depth_one_rows,
    "corner00": _corner00_rows,
    "parity": _parity_rows,
}


def compile_constraints(space: SpaceId, k: int) -> ConstraintMatrix:
    """Two-stage compilation of the weight-k piece of a space.

    The columns are the integer bracketings of the Lyndon words of length k,
    or single raw words; every builder reads one word -> [(column, coeff)]
    index over them.  Below the space's weight threshold the result has
    full-rank rows and an empty kernel.
    """
    if k < 1:
        raise ValueError("weight must be >= 1")
    if space.uses_lyndon():
        labels = lyndon_words(k)
        columns = [bracketing(w) for w in labels]
        kind = "lyndon"
    else:
        labels = sorted(all_xwords(k))
        columns = [{w: 1} for w in labels]
        kind = "word"
    n = len(columns)
    if k < space.min_weight():
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        index = _word_index(columns)
        rows = [row for tag in space.condition_tags()
                for row in _ROW_BUILDERS[tag](index, n, k)]
    return ConstraintMatrix(
        rows=rows,
        column_kind=kind,
        column_labels=labels,
        column_series=columns,
        space=space,
        weight=k,
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
        column_kind="word",
        column_labels=labels,
        column_series=[{w: 1} for w in labels],
        space=F2GEQ(1),
        weight=k,
    )


def rational_kernel(matrix: ConstraintMatrix) -> SubspaceBasis:
    """Exact nullspace of the compiled system, re-expanded into series in
    integer arithmetic through the integer columns."""
    vectors = []
    for coords in kernel_basis(matrix.rows, len(matrix.column_labels)):
        terms: dict = {}
        for c, col in zip(coords, matrix.column_series):
            if not c:
                continue
            for w, cw in col.items():
                terms[w] = terms.get(w, 0) + c * cw
        vectors.append(XSeries(terms, matrix.weight))
    return SubspaceBasis(space=matrix.space, weight=matrix.weight, vectors=vectors)


@dataclass(frozen=True)
class MembershipReport:
    """Independent re-verification of the defining conditions on a series.

    Built from direct defect recomputation, never from the compiled matrix;
    violations list at most the first 10 offending conditions.
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


def _sharp_harmonic_defects(image: dict, k: int):
    """Yield, in scan order, each nonzero <q_right(s) | y_l (u * v)> at
    weight k, given the terms of q_right(s)."""
    for l, u, v, expansion in _sharp_scan(k):
        val = 0
        for w, mult in expansion.items():
            c = image.get((l,) + w)
            if c is not None:
                val += mult * c
        if val:
            yield {"t_exp": l - 1, "u": list(u), "v": list(v), "value": str(val)}


def _violations(space: SpaceId, s: XSeries, weights: list):
    """Yield (weight, condition, detail) for each violated defining condition
    of the space, in report order; each scan runs only as far as it is read."""
    min_wt = space.min_weight()
    for k in weights:
        if k < min_wt:
            yield k, "min-weight", f"nonzero component below weight {min_wt}"

    tags = space.condition_tags()
    if space.uses_lyndon():
        for k in weights:
            for u, v, val in _shuffle_defects(s, k):
                yield k, "primitive", {"u": u, "v": v, "value": str(val)}

    if "star-harmonic" in tags:
        star = star_word(s)
        for k in weights:
            for u, v, val in _harmonic_scan(star, k):
                yield k, "star-harmonic", {"u": list(u), "v": list(v), "value": str(val)}

    if "sharp-harmonic" in tags:
        image = q_right(s).terms
        for k in weights:
            for detail in _sharp_harmonic_defects(image, k):
                yield k, "sharp-harmonic", detail

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
    """Kernel dimension for each space and 1 <= k <= k_max."""
    from .cache import get_basis

    out: dict = {}
    for space in spaces:
        out[space.key] = [
            get_basis(space, k, use_cache=use_cache).dimension
            for k in range(1, k_max + 1)
        ]
    return out

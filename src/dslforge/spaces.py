"""Compile graded subspace definitions into exact linear systems.

Every space descends from a root whose basis is written in closed form.  The
primitive roots F2GEQ(m) take the Lyndon-bracketing basis of the free Lie
algebra at each weight k >= m (186 vectors at weight 11 instead of 2048 raw
words) and nothing below m, so a minimum weight is stated once, on the root.
The strong parity space `vstrprty` is not primitive; it is a root too.

Every other space is solved on its parent's basis: one integer row per
condition the space adds, a positive multiple of the condition's rational
row, over the parent's integer vectors as columns.  The parent's terms are
read once into arrays of (X-word code, column, coefficient).  Each
condition maps the word codes to keys, and lists its rows as arrays of
(key, multiplicity) terms; the rows are scatter-added from the terms
ordered by key into one preallocated numpy int64 matrix (an object matrix
when an entry could reach 2^63), which the kernel reads as given: it is
the only copy of the rows.  A harmonic condition gets one row per
non-Lyndon Y-word, whose products span every product u * v (Hoffman 2000;
Radford 1979), and a sharp row pairs a product of weight m only with
y_{k-m}.  The products come from the table that membership certificates
also decide on, keyed by the binary codes of the Y-words, and the star and
sharp key maps are read off the words by the same _star_terms and
_sharp_terms as membership's codes.  Kernels are computed exactly as
integer vectors and re-expanded into series through the columns, so
`addmr-fad` solves 7 columns at weight 11.

Membership certificates never read the compiled rows, and they read the
series once, into its weight components: each star weight and each sharp
T^t layer is decided on the codes read off a component, and only a failing
one decodes the same codes and scans its pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, pairwise, repeat
from math import gcd

from .algebra import _code_defects, _components, _harmonic_products, _sharp_codes
from .algebra import _sharp_terms, _shuffle_defects, _star_codes, _star_terms
from .linalg import kernel_basis
from .lyndon import lyndon_primitive_basis
from .series import XSeries, _shown, corner_decompose
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
            if arg.isascii() and arg.isdigit() and int(arg) >= 1:
                return F2GEQ(int(arg))
        raise ValueError(f"unknown space id: {_shown(text)}")

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

    def _header(self) -> dict:
        """The basis-v1 header: everything a stored basis holds but its vectors."""
        return {
            "format": "basis-v1",
            "schema": SCHEMA_VERSION,
            "space": self.space.key,
            "weight": self.weight,
            "dimension": self.dimension,
        }

    def to_json_dict(self) -> dict:
        return {**self._header(), "vectors": [v.to_json_dict() for v in self.vectors]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SubspaceBasis":
        """A basis as stored: ValueError unless data is an object with a str
        space and a list of vectors, the header, serialised as JSON, is the
        header of the basis read, so that 5, 5.0, "5" and true differ, and
        every word of every vector has length weight, an int."""
        if not (isinstance(data, dict) and isinstance(data.get("space"), str)
                and isinstance(data.get("vectors"), list)):
            raise ValueError(f"{cls.__name__} JSON needs a string space and a list of vectors")
        weight, vectors = data.get("weight"), [XSeries.from_json_dict(v) for v in data["vectors"]]
        basis = cls(SpaceId.parse(data["space"]), weight, vectors)
        header = basis._header()
        if json.dumps([data.get(f) for f in header]) != json.dumps(list(header.values())):
            raise ValueError(f"basis header is not as {cls.__name__} writes it")
        if type(weight) is not int or any(set(map(len, v.terms)) - {weight} for v in vectors):
            raise ValueError(f"basis vectors must be homogeneous of weight {_shown(weight)}")
        return basis


def _basis_arrays(basis: SubspaceBasis) -> tuple:
    """The terms of the basis vectors as arrays (word codes, columns,
    coefficients), in vector order, each word read in binary as its code:
    int64 codes, int32 columns, and int64 coefficients, or an object array
    of Python ints when one lies beyond int64.  Integral coefficients are
    stored as ints, so each vector's terms already are {word: int}."""
    import numpy as np  # imported on first use, so `import dslforge` does not load it

    vectors, k = basis.vectors, basis.weight
    text = "".join(chain.from_iterable(v.terms for v in vectors)).encode("ascii")
    digits = np.frombuffer(text, np.uint8).reshape(-1, k)
    words = np.zeros(len(digits), np.int64)
    for i in range(k):
        words *= 2
        words += digits[:, i]
    words -= ord("0") * ((1 << k) - 1)  # each digit read as its ASCII byte
    columns = np.repeat(np.arange(len(vectors), dtype=np.int32), [len(v.terms) for v in vectors])
    try:
        coefs = np.fromiter(chain.from_iterable(v.terms.values() for v in vectors),
                            np.int64, len(words))
    except OverflowError:  # a coefficient beyond int64
        coefs = np.array([c for v in vectors for c in v.terms.values()], dtype=object)
    return words, columns, coefs


def _key_map(k: int, terms) -> tuple:
    """The 2^k-entry lookup arrays (key, factor) over the codes of the
    weight-k X-words, from the (word, key, factor) of each word that enters
    an image; every other word has key -1."""
    import numpy as np

    key = np.full(1 << k, -1, np.int64)
    factor = np.zeros(1 << k, np.int64)
    words, keys, factors = zip(*terms)
    codes = np.fromiter(map(int, words, repeat(2)), np.int64, len(words))
    key[codes], factor[codes] = keys, factors
    return key, factor


def _own_codes(k: int) -> tuple:
    """The key map of the conditions read off the words themselves: each
    word of weight k keys its own code, at factor 1."""
    import numpy as np

    return np.arange(1 << k), np.ones(1 << k, np.int64)


def _unit_rows(keys, width: int) -> list:
    """One group of rows (starts, keys, mults) of width consecutive keys
    each, every multiplicity 1."""
    import numpy as np

    return [(np.arange(0, len(keys) + 1, width), keys, np.ones(len(keys), np.int64))]


def _products(weights) -> list:
    """One group of rows (starts, keys, mults) per weight m in turn, one row
    per spanning product of weight m, keyed by the codes of the Y-words:
    the table _harmonic_products(m) itself."""
    import numpy as np

    return [tuple(np.frombuffer(a, np.intc) for a in _harmonic_products(m)) for m in weights]


def _star_harmonic_rows(words, k: int) -> tuple:
    """One row per non-Lyndon Y-word of weight k, for its product u * v: the
    functional psi -> <k * star_word(psi) | u * v>.  The key map is the one
    _star_terms reads off the words: a word with a leading 1 keys its own
    code at factor k, and 0^{k-1} 1 keys 2^k - 1, the code of y1^k, at
    factor 1; the factor k makes the rows integral."""
    return _key_map(k, _star_terms(all_xwords(k), k)), _products([k])


def _sharp_harmonic_rows(words, k: int) -> tuple:
    """One row per non-Lyndon Y-word of weight m, 2 <= m < k, for its product
    u * v: the functional psi -> <q_right(psi) | y_{k-m} (u * v)>.  A
    weight-k word meets y_l (u * v) only at l = k - m, as the term
    T^{k-m-1} y of q_sharp with y of weight m, so the rows of weight m read
    the layer m of the codes that _sharp_terms reads off the words: the word
    of odd code c keys c >> 1, the code of y, whose m bits name its layer."""
    layers = ((w, code, 1) for w, _, code in _sharp_terms(all_xwords(k)))
    return _key_map(k, layers), _products(range(2, k))


def _sharp_depth_one_rows(words, k: int) -> tuple:
    """The explicit depth-one tail row: <psi | x1 x0^{k-2} x1> = 0, a row
    with no term below weight 2."""
    import numpy as np

    tail = np.array([1 << (k - 1) | 1] if k >= 2 else [], np.int64)
    return _own_codes(k), [(np.array([0, len(tail)]), tail, np.ones(len(tail), np.int64))]


def _word_ends(words, k: int):
    """How often each word a w b of weight k occurs among the codes, as an
    array indexed [a, w, b]; no word has weight-two ends below weight 2."""
    import numpy as np

    if k < 2:
        return np.zeros((2, 0, 2), np.int64)
    return np.bincount(words, minlength=1 << k).reshape(2, -1, 2)


def _corner00_rows(words, k: int) -> tuple:
    """One row per word x0 w x0 of some column, in increasing order."""
    import numpy as np

    return _own_codes(k), _unit_rows(2 * np.flatnonzero(_word_ends(words, k)[0, :, 0]), 1)


def _parity_rows(words, k: int) -> tuple:
    """One row per middle w of a column word not of the form x0 w x0, in
    increasing order (over raw word columns, every w of weight k-2):
    <.|x1 w x1> + <.|x1 w x0> + <.|x0 w x1>."""
    import numpy as np

    ends = _word_ends(words, k)
    twice = 2 * np.flatnonzero(ends[1, :, 1] + ends[1, :, 0] + ends[0, :, 1])
    high = 1 << (k - 1)
    keys = np.stack([high + twice + 1, high + twice, twice + 1], axis=1)
    return _own_codes(k), _unit_rows(keys.ravel(), 3)


# Each builder reads the word codes of the basis terms (_basis_arrays) and
# the weight, and returns a key map (key, factor) over the word codes
# (_key_map) and its rows, in row order, as groups (starts, keys, mults):
# row r of a group is psi -> sum of mult * factor * <psi | word> over its
# terms (key, mult) and the words that the map sends to key.
_ROW_BUILDERS = {
    "star-harmonic": _star_harmonic_rows,
    "sharp-harmonic": _sharp_harmonic_rows,
    "sharp-depth-one": _sharp_depth_one_rows,
    "corner00": _corner00_rows,
    "parity": _parity_rows,
}

# The (row, column) pairs that one scatter-add of _compile fills, or one
# term's when they are more: each index and value array of a chunk is 32 KB.
_FILL_PAIRS = 1 << 12


def _compile(tags: tuple, basis: SubspaceBasis):
    """The integer matrix of the conditions over the basis vectors as
    columns, rows by basis.dimension: int64, or an object array of Python
    ints when an entry could reach 2^63.

    The basis terms are read once (_basis_arrays).  For each builder they
    are ordered by the key that its map gives their words, so each term
    (key, mult) of a row reads the (column, factor * coefficient) of its
    key off one slice, and the (row, column) pairs are scatter-added into
    the matrix in chunks of about _FILL_PAIRS.  Every mult is positive, so
    no partial sum of an entry exceeds the sum over its row of mult times
    the factors of the words of the key, times the largest |coefficient|;
    the matrix is int64 only when that bound stays below 2^63, and the same
    fill otherwise runs on Python ints."""
    import numpy as np

    k, n = basis.weight, basis.dimension
    words, columns, coefs = _basis_arrays(basis)
    blocks = [_ROW_BUILDERS[tag](words, k) for tag in tags]
    bound = 0
    for (key, factor), groups in blocks:
        weight = np.zeros((1 << k) + 1, np.int64)  # at key + 1: the factors of its words
        np.add.at(weight, key + 1, factor)
        for starts, keys, mults in groups:
            sums = np.concatenate(([0], np.cumsum(mults * weight[keys + 1])))
            bound = max(bound, int(np.diff(sums[starts]).max(initial=0)))
    big = bound * max(int(coefs.max(initial=0)), -int(coefs.min(initial=0))) >= 2**63
    if big:
        coefs = coefs.astype(object)
    nrows = sum(len(starts) - 1 for _, groups in blocks for starts, _, _ in groups)
    matrix = np.zeros((nrows, n), object if big else np.int64)
    flat = matrix.reshape(-1)
    row = 0
    for (key, factor), groups in blocks:
        ranked = key[words] + 1  # 0 for a word that no row reads
        order = np.argsort(ranked, kind="stable")
        # the terms of the words of key c are order[first[c]:first[c + 1]]
        first = np.cumsum(np.bincount(ranked, minlength=(1 << k) + 1))
        del ranked
        for starts, keys, mults in groups:
            end = np.cumsum(first[keys + 1] - first[keys])  # the pairs up to each term
            cuts = np.searchsorted(end, np.arange(_FILL_PAIRS, end[-1] if len(end) else 0,
                                                  _FILL_PAIRS))
            for a, b in pairwise([0, *(cuts + 1), len(keys)]):
                lo = first[keys[a:b]]
                count = first[keys[a:b] + 1] - lo
                if not count.any():
                    continue
                term = np.repeat(np.arange(a, b), count)
                at = order[np.repeat(lo - end[a:b] + count, count)
                           + np.arange(end[a] - count[0], end[b - 1])]
                rows = np.searchsorted(starts, term, "right") + (row - 1)
                np.add.at(flat, rows * n + columns[at],
                          mults[term] * factor[words[at]] * coefs[at])
            row += len(starts) - 1
    return matrix


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
    """The space's basis: the exact nullspace of the matrix rows (see
    linalg.kernel_basis) over the parent's vectors as columns, re-expanded
    into series in integer arithmetic, each vector divided by the gcd of its
    word coefficients and signed so that its smallest word has a positive
    coefficient.

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
    if type(k) is not int or k < 1:
        raise ValueError(f"weight must be >= 1 and an int, got {k!r}")
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

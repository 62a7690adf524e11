"""Every JSON reader fails on a malformed document with ValueError, and a cache
entry that its reader rejects is a miss.

Series files, series text and cache entries are parsed by one function
(`series._json_object`), and every `from_json_dict` decides for itself what
a malformed document raises, so `load_basis` catches only OSError and
ValueError: any other exception is a bug, never a miss.
"""

from __future__ import annotations

import copy
import json
import zlib
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dslforge import cache
from dslforge.cache import get_basis, load_basis
from dslforge.moulds import MultiPoly
from dslforge.series import TYSeries, XSeries, YSeries, load_series
from dslforge.spaces import ADDMR, DMR, SpaceId, SubspaceBasis

from reference_systems import basis_json_dict, reference_checksum

_READERS = [
    XSeries.from_json_dict,
    YSeries.from_json_dict,
    TYSeries.from_json_dict,
    SubspaceBasis.from_json_dict,
    MultiPoly.from_json_dict,
]


def _read(reader, value):
    """What reader returns for value, or None when it raises ValueError; any
    other exception escapes and fails the test."""
    try:
        return reader(value)
    except ValueError:
        return None


# JSON values nested up to two deep, and valid documents of every format
# with one field or list item replaced by such a value or deleted, so that
# the readers' later checks run too.
_SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3) | (
    st.sampled_from(["ncseries-v1", "x01", "y", "ty", "basis-v1", "s1p1", "addmr", "1/2"])
)
_KEY = st.sampled_from(["format", "terms", "word", "coeff"]) | st.text(max_size=2)
_FLAT = _SCALAR | st.lists(_SCALAR, max_size=3) | st.dictionaries(_KEY, _SCALAR, max_size=3)
_JSON = _SCALAR | st.lists(_FLAT, max_size=3) | st.dictionaries(_KEY, _FLAT, max_size=3)
_VALID = [
    XSeries({"011": 2, "1": -1}, 3).to_json_dict(),  # read in one batch
    XSeries({"011": Fraction(-3, 2), "01": 1}, 3).to_json_dict(),  # read term by term
    YSeries({(2, 1): 1, (1,): 2}, 3).to_json_dict(),
    TYSeries({(0, (1,)): 1, (1, (1,)): Fraction(1, 2)}, 3).to_json_dict(),
    basis_json_dict(get_basis(ADDMR, 5, use_cache=False)),
    MultiPoly(2, [((1, 0), 1), ((0, 2), Fraction(1, 2))]).to_json_dict(),
]


def _paths(value, path=()):
    """The path of every field and list item below value."""
    for key, item in value.items() if isinstance(value, dict) else enumerate(value):
        yield path + (key,)
        if isinstance(item, (dict, list)):
            yield from _paths(item, path + (key,))


_PATHS = [list(_paths(doc)) for doc in _VALID]
_DELETE = object()


def _edited(i: int, n: int, new) -> dict:
    """The i-th valid document with its n-th path (modulo their number) set
    to new, or deleted."""
    doc = copy.deepcopy(_VALID[i])
    *head, last = _PATHS[i][n % len(_PATHS[i])]
    parent = doc
    for key in head:
        parent = parent[key]
    if new is _DELETE:
        del parent[last]
    else:
        parent[last] = new
    return doc


_DOCS = _JSON | st.builds(
    _edited, st.sampled_from(range(len(_VALID))), st.integers(0, 999), _JSON | st.just(_DELETE)
)


@settings(max_examples=2000, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_DOCS)
def test_every_reader_returns_or_raises_value_error(private_cache, doc) -> None:
    private_cache.mkdir(exist_ok=True)  # one directory for every example
    for reader in _READERS:
        _read(reader, doc)
    _read(XSeries.from_json, json.dumps(doc))
    # as an addmr-5 entry signed over its dump: a hit only on a basis the
    # reader reads as addmr at weight 5 and whose canonical JSON is that dump
    if isinstance(doc, dict):
        doc = {f: v for f, v in doc.items() if f != "crc32"}
        basis = _read(SubspaceBasis.from_json_dict, doc)
        canonical = basis is not None and json.dumps(doc, sort_keys=True) == json.dumps(
            basis_json_dict(basis), sort_keys=True)
        doc["crc32"] = reference_checksum(doc)
    else:
        basis = None
    cache._entry_path(ADDMR, 5).write_text(json.dumps(doc))
    hit = basis is not None and (basis.space, basis.weight) == (ADDMR, 5) and canonical
    assert load_basis(ADDMR, 5) == (basis if hit else None)


@pytest.mark.parametrize("text", ["[1]", "5", '"ncseries-v1"', "null"])
def test_a_document_that_is_not_an_object_is_a_value_error(text) -> None:
    with pytest.raises(ValueError, match="holds one JSON object"):
        XSeries.from_json(text)
    for reader in _READERS:
        with pytest.raises(ValueError):
            reader(json.loads(text))


def _nested(kind: str, depth: int) -> str:
    """A JSON value nested depth deep, as json.dumps writes it."""
    if kind == "list":
        return "[" * depth + "]" * depth
    if kind == "object":
        return '{"a": ' * depth + "1" + "}" * depth
    half = depth // 2  # mixed: a list of objects, depth - 1 or depth deep
    return "[" * (depth % 2) + '[{"a": ' * half + "1" + "}]" * half + "]" * (depth % 2)


def _series_doc(value: str, field: str) -> str:
    doc = {"format": "ncseries-v1", "alphabet": "x01", "weight_bound": 1, "terms": []}
    doc[field] = "<value>"
    return json.dumps(doc).replace('"<value>"', value)


def _signed_entry(value: str, field: str) -> str:
    """A dmr-5 entry with value in field, and the CRC-32 of its canonical JSON,
    written without json.dumps, which a deep value would overflow."""
    doc = {"format": "basis-v1", "schema": "s1p1", "space": "dmr", "weight": 5,
           "dimension": 0, "vectors": []}
    doc[field] = "<value>"
    text = json.dumps(doc, sort_keys=True).replace('"<value>"', value)
    return text[:-1] + f', "crc32": {zlib.crc32(text.encode())}}}'


def test_deep_nesting_is_a_value_error_or_a_miss_at_every_depth(private_cache) -> None:
    """No reader lets RecursionError out at any depth: not the parse, the
    checksum, the header comparison or the repr in an error message.  A
    series file is read from the entry's path, as any path."""
    private_cache.mkdir()
    entry = cache._entry_path(DMR, 5)
    for depth in range(1, 1301):
        for kind in ("list", "object", "mixed"):
            value = _nested(kind, depth)
            for text, series, basis in [(value, True, True),
                                        (_series_doc(value, "format"), True, False),
                                        (_signed_entry(value, "dimension"), False, True)]:
                entry.write_text(text)
                if series:
                    with pytest.raises(ValueError):
                        XSeries.from_json(text)
                    with pytest.raises(ValueError):
                        load_series(entry)
                if basis:
                    assert load_basis(DMR, 5) is None, (kind, depth)


_LONG = "9" * 100_000 + "x"  # a rejected value of 100,001 characters
_X = {"format": "ncseries-v1", "alphabet": "x01", "weight_bound": 1}
_BASIS = {"format": "basis-v1", "schema": "s1p1", "space": "dmr", "weight": 5,
          "dimension": 0, "vectors": []}


@pytest.mark.parametrize("read", [
    lambda: XSeries.from_json_dict({**_X, "alphabet": _LONG, "terms": []}),
    lambda: XSeries.from_json_dict({**_X, "weight_bound": _LONG, "terms": []}),
    lambda: XSeries.from_json_dict({**_X, "terms": [_LONG]}),
    lambda: XSeries.from_json_dict({**_X, "terms": [{"word": _LONG, "coeff": "1"}]}),
    lambda: XSeries.from_json_dict({**_X, "terms": [{"word": "0" * 10**5, "coeff": "1"}]}),
    lambda: XSeries.from_json_dict({**_X, "terms": [{"word": "0", "coeff": _LONG}]}),
    lambda: XSeries.from_json_dict({**_X, "terms": [{"word": "0", "coeff": "1" * 10**5 + "/0"}]}),
    lambda: XSeries.from_json_dict({**_X, "terms": 2 * [{"word": "0", "coeff": "1", "": _LONG}]}),
    lambda: XSeries({_LONG: 1}, len(_LONG)),
    lambda: YSeries.from_json_dict(
        {**_X, "alphabet": "y", "terms": [{"yword": [_LONG], "coeff": "1"}]}),
    lambda: TYSeries.from_json_dict(
        {**_X, "alphabet": "ty", "terms": [{"t": _LONG, "yword": [1], "coeff": "1"}]}),
    lambda: SpaceId.parse(_LONG),
    lambda: MultiPoly.from_json_dict([_LONG]),
    lambda: MultiPoly.from_json_dict({"vars": _LONG, "terms": []}),
    lambda: MultiPoly.from_json_dict({"vars": 1, "terms": [{"exp": [_LONG], "coeff": "1"}]}),
], ids=["alphabet", "weight-bound", "term", "word", "above-bound", "coeff",
        "zero-denominator", "repeated", "key", "yword", "t", "space-id", "polynomial",
        "vars", "exponent"])
def test_a_long_rejected_value_gives_a_short_message(read) -> None:
    with pytest.raises(ValueError) as error:
        read()
    assert len(str(error.value)) < 200


def test_a_long_value_in_a_series_file_gives_a_short_message(tmp_path) -> None:
    path = tmp_path / "series.json"
    path.write_text(json.dumps({**_X, "alphabet": _LONG, "terms": []}))
    with pytest.raises(ValueError, match="unknown alphabet") as error:
        load_series(path)
    assert len(str(error.value)) < 200


def test_a_50_million_character_format_gives_a_short_message() -> None:
    text = json.dumps({**_X, "format": "x" * 50_000_000, "terms": []})
    with pytest.raises(ValueError, match="unknown series format") as error:
        XSeries.from_json(text)
    assert len(str(error.value)) < 200


def test_a_900_deep_weight_gives_a_short_message() -> None:
    weight = 5
    for _ in range(900):
        weight = [weight]
    with pytest.raises(ValueError, match="homogeneous of weight") as error:
        SubspaceBasis.from_json_dict({**_BASIS, "weight": weight})
    assert len(str(error.value)) < 200

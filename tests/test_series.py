from __future__ import annotations

import json
from fractions import Fraction

import pytest

from dslforge.errors import NonzeroLowWeight
from dslforge.series import (
    CornerDecomposition,
    TYSeries,
    XSeries,
    YSeries,
    corner_decompose,
    load_series,
)


def test_construction_normalizes() -> None:
    s = XSeries([("01", 1), ("01", -1), ("10", Fraction(1, 2)), ("0110", 5)], 3)
    assert "01" not in s.terms  # cancelled
    assert "0110" not in s.terms  # beyond bound
    assert s.coeff("10") == Fraction(1, 2)
    assert s.coeff("11") == 0


def test_rejects_bad_words() -> None:
    with pytest.raises(ValueError):
        XSeries([("02", 1)], 3)
    with pytest.raises(ValueError):
        YSeries([((0,), 1)], 3)
    with pytest.raises(ValueError):
        TYSeries([((-1, (1,)), 1)], 3)
    # look-alike and hidden letters, through the constructor's key test and
    # the batch JSON reader; the empty word is a word
    good = {"word": "01", "coeff": "1"}
    for w in ("\uff10\uff11", "0\u0301", "\ud800", "0 1"):
        with pytest.raises(ValueError, match="not an X-word"):
            XSeries([("01", 1), (w, 1)], 3)
        data = XSeries.zero(3).to_json_dict()
        with pytest.raises(ValueError, match="not an X-word"):
            XSeries.from_json_dict(dict(data, terms=[good, {"word": w, "coeff": "1"}]))
    assert XSeries([("01", 1), ("", 1)], 3).terms == {"01": 1, "": 1}
    data = XSeries.zero(3).to_json_dict()
    read = XSeries.from_json_dict(dict(data, terms=[good, {"word": "", "coeff": "1"}]))
    assert read.terms == {"01": 1, "": 1}


def test_rejects_negative_bounds() -> None:
    with pytest.raises(ValueError, match="weight_bound"):
        XSeries({"01": 1}, -2)
    with pytest.raises(ValueError, match="weight_bound"):
        YSeries.zero(-1)
    with pytest.raises(ValueError, match="weight_bound"):
        TYSeries([((0, (1,)), 1)], -1)
    phi = XSeries([("1", 1), ("101", 2), ("110", -1), ("011", -1)], 5)
    with pytest.raises(ValueError, match="weight_bound"):
        phi.with_bound(-3)
    assert XSeries({"01": 1}, 0).is_zero()


def test_arithmetic_and_bounds() -> None:
    a = XSeries([("0", 1)], 4)
    b = XSeries([("1", 2)], 3)
    c = a + b
    assert c.weight_bound == 3  # binary ops take the minimum bound
    assert (a - a).is_zero()
    assert (-a).coeff("0") == -1
    assert (a * Fraction(1, 3)).coeff("0") == Fraction(1, 3)
    assert (2 * a).coeff("0") == 2


def test_component_and_weights() -> None:
    s = XSeries([("0", 1), ("01", 2), ("111", 3)], 3)
    assert s.component(2) == XSeries([("01", 2)], 3)
    assert s.min_weight() == 1
    assert s.max_weight() == 3
    assert XSeries.zero(3).min_weight() is None


def test_truncate_and_with_bound() -> None:
    s = XSeries([("01", 1), ("011", 1)], 3)
    assert s.truncate(2).terms == {"01": Fraction(1)}
    lifted = s.with_bound(5)
    assert lifted.weight_bound == 5
    assert lifted.terms == s.terms


def test_tyseries_weight_and_layers() -> None:
    s = TYSeries([((1, (2,)), 1), ((0, ()), 3)], 4)
    # graded weight of (t, w) is t + 1 + wt(w)
    assert s.coeff((1, (2,))) == 1
    dropped = TYSeries([((3, (2,)), 1)], 4)  # weight 6 > bound
    assert dropped.is_zero()


def test_json_round_trips(tmp_path) -> None:
    x = XSeries([("011", Fraction(-3, 2)), ("", 1)], 4)
    y = YSeries([((2, 1, 3), Fraction(5))], 6)
    t = TYSeries([((2, (1,)), Fraction(1, 7))], 5)
    assert XSeries.from_json_dict(x.to_json_dict()) == x
    assert YSeries.from_json_dict(y.to_json_dict()) == y
    assert TYSeries.from_json_dict(t.to_json_dict()) == t
    d = x.to_json_dict()
    assert d["format"] == "ncseries-v1"
    assert d["alphabet"] == "x01"
    assert {"word": "011", "coeff": "-3/2"} in d["terms"]
    path = tmp_path / "series.json"
    path.write_text(x.to_json())
    assert load_series(path) == x


@pytest.mark.parametrize(
    "series",
    [
        XSeries({"": 2, "0": Fraction(-1, 3), "011": 5, "10": Fraction(7, 2), "1101": -(2**70)}, 6),
        XSeries({}, 0),
        XSeries({}, 4),
    ],
    ids=["mixed-weights", "empty", "empty-bound-4"],
)
def test_to_json_is_one_dump_of_to_json_dict(series) -> None:
    assert series.to_json() == json.dumps(series.to_json_dict())
    assert XSeries.from_json(series.to_json()) == series


def test_load_series_picks_the_class_by_its_alphabet(tmp_path) -> None:
    path = tmp_path / "series.json"
    for s in (XSeries([("011", 2)], 4), YSeries([((2, 1), 5)], 6),
              TYSeries([((2, (1,)), Fraction(1, 7))], 5)):
        path.write_text(json.dumps(s.to_json_dict()))
        assert load_series(path) == s
    for alphabet in ("x", ["x01"], {"y": 1}, None):
        path.write_text(json.dumps(dict(XSeries.zero(2).to_json_dict(), alphabet=alphabet)))
        with pytest.raises(ValueError, match="unknown alphabet"):
            load_series(path)


def test_corner_decompose_examples() -> None:
    # single words sort by first and last letter
    dec = corner_decompose(XSeries.word("011"))
    assert dec.c01 == XSeries([("1", 1)], 1)
    assert dec.c00.is_zero() and dec.c10.is_zero() and dec.c11.is_zero()

    dec = corner_decompose(XSeries.word("100", 2))
    assert dec.c10 == XSeries([("0", 2)], 1)

    dec = corner_decompose(XSeries([("01", 1), ("10", 1)], 2))
    assert dec.c01 == XSeries([("", 1)], 0)
    assert dec.c10 == XSeries([("", 1)], 0)


def test_corner_decompose_precondition() -> None:
    with pytest.raises(NonzeroLowWeight):
        corner_decompose(XSeries([("1", 1)], 2))
    with pytest.raises(NonzeroLowWeight):
        corner_decompose(XSeries([("", 1)], 2))


def test_corner_reassembly_round_trip() -> None:
    import random

    rng = random.Random(7)
    items = []
    for k in range(2, 6):
        from dslforge.words import all_xwords

        for w in all_xwords(k):
            c = rng.randint(-2, 2)
            if c:
                items.append((w, c))
    s = XSeries(items, 5)
    dec = corner_decompose(s)
    assert isinstance(dec, CornerDecomposition)
    assert dec.reassemble() == s


def _bad_json_cases():
    x = XSeries([("011", Fraction(-3, 2))], 4).to_json_dict()
    y = YSeries([((2, 1), 5)], 6).to_json_dict()
    t = TYSeries([((2, (1,)), Fraction(1, 7))], 5).to_json_dict()
    for cls, good, word_keys in ((XSeries, x, ("word",)), (YSeries, y, ("yword",)),
                                  (TYSeries, t, ("t", "yword"))):
        float_coeff = dict(good, terms=[dict(good["terms"][0], coeff=0.1)])
        yield cls, float_coeff
        for key in word_keys + ("coeff",):
            term = dict(good["terms"][0])
            del term[key]
            yield cls, dict(good, terms=[term])
        yield cls, dict(good, weight_bound=-1)


@pytest.mark.parametrize("cls,data", list(_bad_json_cases()))
def test_json_rejects_inexact_and_malformed(cls, data) -> None:
    with pytest.raises(ValueError):
        cls.from_json_dict(data)


@pytest.mark.parametrize(
    "series",
    [XSeries([("011", Fraction(-3, 2)), ("0", 1)], 4),
     YSeries([((2, 1), 5)], 6),
     TYSeries([((2, (1,)), Fraction(1, 7))], 5)],
    ids=lambda s: type(s).__name__,
)
def test_json_rejects_terms_above_the_bound_and_repeated_terms(series) -> None:
    """A file's terms are neither truncated nor summed, so none is lost."""
    good = series.to_json_dict()
    term = good["terms"][-1]
    opposite = dict(term, coeff=str(-Fraction(term["coeff"])))
    for data in (dict(good, weight_bound=series.max_weight() - 1),
                 dict(good, terms=good["terms"] + [term]),
                 dict(good, terms=good["terms"] + [opposite])):
        with pytest.raises(ValueError, match="above weight_bound|repeated term"):
            type(series).from_json_dict(data)


def test_json_accepts_integer_and_string_coefficients() -> None:
    data = XSeries.word("01", 3, 2).to_json_dict()
    data["terms"][0]["coeff"] = 3
    assert XSeries.from_json_dict(data) == XSeries.word("01", 3, 2)
    data["terms"][0]["coeff"] = "1/0"
    with pytest.raises(ValueError):
        XSeries.from_json_dict(data)


def test_hexadecimal_string_coefficient_is_rejected() -> None:
    from dslforge.series import _coeff

    with pytest.raises(ValueError):
        _coeff("0x1")


def _read_term_by_term(data: dict):
    """The per-term reference: the header checked, every term read and
    checked in turn, then summed by the constructor from its (word,
    coefficient) pairs."""
    from dslforge.series import _json_header, _json_terms

    bound, terms = _json_header(data, "x01")
    return XSeries(list(_json_terms(terms, bound, XSeries._read_key, len).items()), bound)


def _outcome(read, data):
    try:
        s = read(data)
    except ValueError as exc:
        return "ValueError", str(exc)
    return s.terms, {w: type(c) for w, c in s.terms.items()}, s.weight_bound


_GOOD = XSeries({"011": 2, "01": -1, "1": 3}, 4).to_json_dict()


def _with_term(**fields):
    return dict(_GOOD, terms=[dict(_GOOD["terms"][0], **fields)] + _GOOD["terms"][1:])


READER_CASES = {
    "valid": _GOOD,
    "int-coeff": _with_term(coeff=7),
    "true-coeff": _with_term(coeff=True),
    "float-coeff": _with_term(coeff=1.0),
    "null-coeff": _with_term(coeff=None),
    "plus-coeff": _with_term(coeff="+5"),
    "space-coeff": _with_term(coeff=" 5"),
    "fraction-coeff": _with_term(coeff="1/2"),
    "zero-denominator": _with_term(coeff="1/0"),
    "zero-coeff": _with_term(coeff="0"),
    "word-coeff": _with_term(coeff="five"),
    "exponent-coeff": _with_term(coeff="1e3"),
    "decimal-coeff": _with_term(coeff="0.5"),
    "underscore-coeff": _with_term(coeff="1_0"),
    "comma-coeff": _with_term(coeff="1,2"),
    "comma-coeffs": dict(_GOOD, terms=[dict(t, coeff="1,2") for t in _GOOD["terms"][:2]]),
    "repeated-word": dict(_GOOD, terms=_GOOD["terms"] + [_GOOD["terms"][0]]),
    "above-bound": _with_term(word="01101"),
    "letter-2": _with_term(word="2"),
    "int-word": _with_term(word=11),
    "list-term": dict(_GOOD, terms=_GOOD["terms"] + [["011", "1"]]),
    "missing-coeff": dict(_GOOD, terms=_GOOD["terms"] + [{"word": "00"}]),
    "empty": dict(_GOOD, terms=[]),
}


@pytest.mark.parametrize("data", READER_CASES.values(), ids=READER_CASES.keys())
def test_reader_gives_the_per_term_result_or_error(data) -> None:
    assert _outcome(XSeries.from_json_dict, data) == _outcome(_read_term_by_term, data)


def test_constructor_normalises_mappings_as_it_sums_pairs() -> None:
    cases = [
        {"01": True, "1": 2},
        {"01": Fraction(2, 1)},
        {"01": 0, "1": 1},
        {"011": 1, "1": 1},
        {"01": Fraction(1, 2), "10": -1},
        {"01": 3, "10": -4},
    ]
    for mapping in cases:
        s = XSeries(mapping, 2)
        assert s == XSeries(list(mapping.items()), 2)
        assert all(type(c) is int or c.denominator > 1 for c in s.terms.values())
    source = {"01": 3, "10": -4}
    s = XSeries(source, 2)
    source["01"] = 5
    assert s.terms == {"01": 3, "10": -4}
    with pytest.raises(ValueError, match="not an X-word: '2'"):
        XSeries({"01": 1, "2": 1}, 2)

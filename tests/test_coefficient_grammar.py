"""A coefficient in a series, polynomial or cache file is a JSON integer or a
string "p" or "p/q" in ASCII digits, as str writes it; any other string
is rejected at once, never converted.  A string handed to a constructor or
to scale in process is read by the same grammar."""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from dslforge import cache
from dslforge.cache import get_basis, load_basis
from dslforge.cli import main
from dslforge.moulds import MultiPoly
from dslforge.series import XSeries
from dslforge.spaces import ADDMR

from reference_systems import reference_checksum

REJECTED = [
    "1e30000000", "0.5", "3.0", "1_0", " 7", "7 ", "+7", "٣", "0x1", "", "-",
    "1/0", "1/-2", "-1/-2", "1/ 2", "1/2/3", "1,2", "--1", "1e2/3",
]

ACCEPTED = [
    ("7", 7), ("-7", -7), ("007", 7), ("4/2", 2), ("-3/2", Fraction(-3, 2)), ("0/5", 0),
    ("-0", 0), ("00012", 12),
]


# The in-process readers of a coefficient: the series and polynomial
# constructors and both scale methods, each giving the stored value (0 when
# nothing is stored).
IN_PROCESS = [
    lambda c: XSeries([("01", c)], 2).terms.get("01", 0),
    lambda c: XSeries({"01": c}, 2).terms.get("01", 0),
    lambda c: XSeries.word("01", 1, 2).scale(c).terms.get("01", 0),
    lambda c: MultiPoly(1, [((1,), c)]).terms.get((1,), 0),
    lambda c: MultiPoly.variable(1, 0).scale(c).terms.get((1,), 0),
]


def _series(coeff) -> dict:
    return {"format": "ncseries-v1", "alphabet": "x01", "weight_bound": 3,
            "terms": [{"word": "011", "coeff": "1"}, {"word": "101", "coeff": coeff}]}


@pytest.mark.parametrize("coeff", REJECTED)
def test_series_and_polynomial_readers_reject(coeff) -> None:
    with pytest.raises(ValueError):
        XSeries.from_json_dict(_series(coeff))
    poly = {"vars": 1, "terms": [{"exp": [1], "coeff": coeff}]}
    with pytest.raises(ValueError):
        MultiPoly.from_json_dict(poly)


@pytest.mark.parametrize("coeff,value", ACCEPTED)
def test_series_and_polynomial_readers_accept(coeff, value) -> None:
    assert XSeries.from_json_dict(_series(coeff)) == XSeries({"011": 1, "101": value}, 3)
    poly = MultiPoly.from_json_dict({"vars": 1, "terms": [{"exp": [1], "coeff": coeff}]})
    assert poly.terms == ({(1,): value} if value else {})


@pytest.mark.parametrize("coeff", REJECTED)
def test_in_process_constructors_and_scale_reject(coeff) -> None:
    start = time.perf_counter()
    for read in IN_PROCESS:
        with pytest.raises(ValueError):
            read(coeff)
    assert time.perf_counter() - start < 1.0


def test_a_rejected_value_is_shown_bounded() -> None:
    with pytest.raises(TypeError) as info:
        XSeries([("0", [0] * 10**6)], 2)
    assert len(str(info.value)) < 100


@pytest.mark.parametrize("coeff,value", ACCEPTED)
def test_in_process_constructors_and_scale_accept(coeff, value) -> None:
    stored = [read(coeff) for read in IN_PROCESS]
    assert [(c, type(c)) for c in stored] == [(value, type(value))] * len(IN_PROCESS)
    assert XSeries({"011": "1", "101": coeff}, 3) == XSeries.from_json_dict(_series(coeff))


@pytest.mark.parametrize("coeff", REJECTED)
def test_cache_entry_with_a_rejected_coefficient_is_a_miss(tmp_path, monkeypatch, coeff) -> None:
    monkeypatch.setenv("DSLFORGE_CACHE_DIR", str(tmp_path / "cache"))
    basis = get_basis(ADDMR, 5)
    entry = cache._entry_path(ADDMR, 5)
    data = json.loads(entry.read_text())
    data.pop("crc32")
    data["vectors"][0]["terms"][0]["coeff"] = coeff
    data["crc32"] = reference_checksum(data)  # a valid checksum: the reader must decide
    entry.write_text(json.dumps(data))
    assert load_basis(ADDMR, 5) is None
    assert get_basis(ADDMR, 5) == basis


@pytest.mark.parametrize("coeff", REJECTED)
def test_member_exits_2_at_once(tmp_path, monkeypatch, capsys, coeff) -> None:
    monkeypatch.setenv("DSLFORGE_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_series(coeff)))
    start = time.perf_counter()
    assert main(["member", "--space", "dmr", "--in", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err

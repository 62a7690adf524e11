"""Cache entries that disagree with their key are misses; writes are private."""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

import pytest

from dslforge import cache
from dslforge.cache import get_basis, list_entries, load_basis, store_basis
from dslforge.cli import main
from dslforge.series import XSeries
from dslforge.spaces import (
    ADDMR,
    ADDMR_FAD,
    ADDMR_FAD_PARITY,
    DMR,
    F2GEQ,
    FAD,
    FAD_PARITY,
    VSTRPRTY,
    SubspaceBasis,
    dimension_table,
)

from reference_systems import reference_checksum, reference_entry


def _dims_row(capsys) -> list[int]:
    row = capsys.readouterr().out.strip().splitlines()[-1]
    return [int(x) for x in row.split("|")[1].split()]


def test_emptied_entry_is_recomputed(private_cache, capsys) -> None:
    assert main(["dims", "--space", "addmr", "--kmax", "6"]) == 0
    assert _dims_row(capsys)[-1] == 3
    entry = private_cache / "addmr-6-s1p1.json"
    data = json.loads(entry.read_text())
    data["vectors"] = []
    entry.write_text(json.dumps(data))
    assert main(["dims", "--space", "addmr", "--kmax", "6"]) == 0
    assert _dims_row(capsys)[-1] == 3
    assert len(json.loads(entry.read_text())["vectors"]) == 3


def test_deeply_nested_entry_is_recomputed(private_cache, capsys) -> None:
    private_cache.mkdir()
    entry = private_cache / "dmr-5-s1p1.json"
    entry.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["dims", "--space", "dmr", "--kmax", "5"]) == 0
    assert _dims_row(capsys) == [0, 0, 1, 0, 1]
    assert json.loads(entry.read_text())["dimension"] == 1


def _tamper(space, k, edit) -> None:
    entry = cache._entry_path(space, k)
    data = json.loads(entry.read_text())
    edit(data)
    entry.write_text(json.dumps(data))


def _signed(edit):
    """The edit followed by a valid checksum, so that load_basis reaches the
    checks after the checksum."""

    def edit_and_sign(data):
        data.pop("crc32")
        edit(data)
        data["crc32"] = reference_checksum(data)

    return edit_and_sign


@pytest.mark.parametrize(
    "edit",
    [
        _signed(lambda d: d.update(dimension=d["dimension"] + 1)),
        _signed(lambda d: d.update(space="dmr")),
        _signed(lambda d: d.update(weight=d["weight"] - 1)),
        _signed(lambda d: d["vectors"][0]["terms"][0].update(word="0")),
        _signed(lambda d: d.update(vectors="oops")),
        _signed(lambda d: d["vectors"][0]["terms"][0].update(coeff=0.5)),
        _signed(lambda d: d["vectors"][0]["terms"][0].pop("word")),
        _signed(lambda d: d["vectors"][0].update(weight_bound=-1)),
        # equal to the key's header only after a coercion
        _signed(lambda d: d.update(weight=d["weight"] + 0.9)),
        _signed(lambda d: d.update(weight=str(d["weight"]))),
        _signed(lambda d: d.update(space=f" {d['space'].upper()} ")),
        _signed(lambda d: d.update(vectors=d["vectors"][:1], dimension=True)),
        _signed(lambda d: d.update(dimension=float(d["dimension"]))),
        # another version of the header
        _signed(lambda d: d.update(format="basis-v9")),
        _signed(lambda d: d.update(schema="s0p0")),
        # consistent with its key, so only the checksum can see it
        lambda d: d["vectors"][0]["terms"][0].update(coeff=12345),
    ],
    ids=["dimension", "space", "weight", "term-length", "vectors-type",
         "float-coeff", "missing-word", "negative-bound", "float-weight",
         "string-weight", "padded-space", "bool-dimension", "float-dimension", "format",
         "schema", "coeff"],
)
def test_inconsistent_entry_is_a_miss(private_cache, edit) -> None:
    basis = get_basis(ADDMR, 5)
    assert load_basis(ADDMR, 5) == basis
    _tamper(ADDMR, 5, edit)
    assert load_basis(ADDMR, 5) is None
    assert get_basis(ADDMR, 5) == basis
    assert load_basis(ADDMR, 5) == basis


@pytest.mark.parametrize(
    "document",
    [lambda d: {**d, "space": 5}, lambda d: {**d, "vectors": 5}, lambda d: [1]],
    ids=["int-space", "int-vectors", "list"],
)
def test_entry_the_basis_reader_rejects_is_a_miss(private_cache, document) -> None:
    """The document, made from a stored entry, raises ValueError from
    SubspaceBasis.from_json_dict and, signed as an entry when it is an
    object, is a miss."""
    basis = get_basis(ADDMR, 5)
    entry = cache._entry_path(ADDMR, 5)
    data = json.loads(entry.read_text())
    data.pop("crc32")
    doc = document(data)
    with pytest.raises(ValueError):
        SubspaceBasis.from_json_dict(doc)
    if isinstance(doc, dict):
        doc["crc32"] = reference_checksum(doc)
    entry.write_text(json.dumps(doc))
    assert load_basis(ADDMR, 5) is None
    assert get_basis(ADDMR, 5) == basis


@pytest.mark.parametrize("k", [True, False, 5.0, 0])
def test_a_weight_that_is_not_a_positive_int_stores_nothing(private_cache, k) -> None:
    with pytest.raises(ValueError, match="weight must be >= 1"):
        get_basis(DMR, k)
    assert not private_cache.exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda v: v.update(weight_bound=4),
        lambda v: v["terms"].append(v["terms"][0]),
    ],
    ids=["term-above-bound", "repeated-term"],
)
def test_entry_with_a_bad_term_and_a_valid_checksum_is_a_miss(private_cache, edit) -> None:
    basis = get_basis(ADDMR, 5)
    _tamper(ADDMR, 5, _signed(lambda d: edit(d["vectors"][0])))
    assert load_basis(ADDMR, 5) is None
    assert get_basis(ADDMR, 5) == basis


def _last_term(edit):
    return lambda v: edit(v["terms"][-1])


@pytest.mark.parametrize(
    "edit",
    [
        _last_term(lambda t: t.update(coeff=True)),
        _last_term(lambda t: t.update(coeff=None)),
        _last_term(lambda t: t.update(coeff="1/0")),
        _last_term(lambda t: t.update(coeff="five")),
        _last_term(lambda t: t.update(word="2" * len(t["word"]))),
        _last_term(lambda t: t.update(word=int(t["word"]))),
        _last_term(lambda t: t.update(word=t["word"] + "1")),
        _last_term(lambda t: t.clear()),
        lambda v: v["terms"].append(["011011", "1"]),
    ],
    ids=["true-coeff", "null-coeff", "zero-denominator", "word-coeff", "letter-2",
         "int-word", "above-bound", "empty-term", "list-term"],
)
def test_entry_with_a_rejected_term_and_a_valid_checksum_is_a_miss(private_cache, edit) -> None:
    """Each term the series reader rejects, in an entry signed after the edit."""
    basis = get_basis(ADDMR, 6)
    _tamper(ADDMR, 6, _signed(lambda d: edit(d["vectors"][0])))
    assert load_basis(ADDMR, 6) is None
    assert get_basis(ADDMR, 6) == basis


def test_entry_removed_before_it_is_opened_is_a_miss(private_cache, monkeypatch) -> None:
    basis = get_basis(ADDMR, 5)

    def remove_then_open(path, *args, **kwargs):
        os.unlink(path)  # as by a concurrent clear
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cache, "open", remove_then_open, raising=False)
    assert load_basis(ADDMR, 5) is None
    monkeypatch.delattr(cache, "open")
    assert get_basis(ADDMR, 5) == basis


def test_entry_path_that_is_a_directory_is_a_miss(private_cache) -> None:
    cache._entry_path(ADDMR, 5).mkdir(parents=True)
    assert load_basis(ADDMR, 5) is None


def test_clear_counts_only_the_entries_it_removed(private_cache, monkeypatch) -> None:
    assert dimension_table([DMR], 5) == {"dmr": [0, 0, 1, 0, 1]}
    listed = cache._cache_files

    def list_then_lose_one():
        files = listed()
        files[0][0].unlink()  # as by a concurrent clear
        return files

    monkeypatch.setattr(cache, "_cache_files", list_then_lose_one)
    assert cache.clear_cache() == 4
    assert list(private_cache.iterdir()) == []


def test_store_leaves_no_temporary_files(private_cache, monkeypatch) -> None:
    basis = get_basis(DMR, 5, use_cache=False)
    path = store_basis(basis)
    assert sorted(p.name for p in private_cache.iterdir()) == [path.name]

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cache.os, "replace", broken_replace)
    with pytest.raises(OSError):
        store_basis(get_basis(DMR, 7, use_cache=False))
    assert sorted(p.name for p in private_cache.iterdir()) == [path.name]


def test_clear_removes_only_entries_and_temporary_files(private_cache, capsys) -> None:
    assert main(["dims", "--space", "dmr", "--kmax", "5"]) == 0
    foreign = ["notes.txt", "package.json", "report-2024.json"]
    for name in foreign:
        (private_cache / name).write_text("{}")
    (private_cache / "dmr-5-s0p9.json").write_text("{}")  # another schema
    # the temporary file of a killed writer, named as store_basis names it
    fd, tmp = tempfile.mkstemp(dir=private_cache, prefix="dmr-5-s1p1.json", suffix=".tmp")
    os.close(fd)
    entries = sorted([f"dmr-{k}-s1p1.json" for k in range(1, 6)] + ["dmr-5-s0p9.json"])
    assert list_entries() == entries
    capsys.readouterr()
    assert main(["cache", "--list"]) == 0
    assert capsys.readouterr().out.split() == entries
    assert main(["cache", "--clear"]) == 0
    assert capsys.readouterr().out == "removed 6 entries\n"
    assert sorted(p.name for p in private_cache.iterdir()) == foreign


def test_entries_older_versions_wrote_for_a_bool_weight_are_listed_and_cleared(
    private_cache, capsys
) -> None:
    private_cache.mkdir()
    legacy = ["dmr-False-s1p1.json", "dmr-True-s1p1.json"]
    for name in legacy + ["dmr-5-s1p1.json", "notes.json"]:
        (private_cache / name).write_text("{}")
    assert list_entries() == sorted(legacy + ["dmr-5-s1p1.json"])
    assert main(["cache", "--clear"]) == 0
    assert capsys.readouterr().out == "removed 3 entries\n"
    assert [p.name for p in private_cache.iterdir()] == ["notes.json"]


def test_clear_during_a_store_leaves_the_entry_unstored(private_cache, monkeypatch) -> None:
    basis = get_basis(DMR, 5, use_cache=False)
    replace = os.replace

    def clear_then_replace(src, dst):
        cache.clear_cache()
        replace(src, dst)

    monkeypatch.setattr(cache.os, "replace", clear_then_replace)
    store_basis(basis)
    assert list(private_cache.iterdir()) == []
    monkeypatch.setattr(cache.os, "replace", replace)
    assert get_basis(DMR, 5) == basis


def test_intersection_stores_its_parents(private_cache) -> None:
    get_basis(ADDMR_FAD_PARITY, 6)
    assert list_entries() == [
        "addmr-6-s1p1.json", "addmr-fad-6-s1p1.json", "addmr-fad-parity-6-s1p1.json"
    ]


def test_closed_form_roots_are_never_cached(private_cache) -> None:
    for space in (VSTRPRTY, F2GEQ(1), F2GEQ(4)):
        for k in range(1, 7):
            assert (get_basis(space, k).dimension > 0) == (k >= space.min_weight)
    assert list_entries() == []


def test_cold_table_stores_only_the_space_itself(private_cache) -> None:
    assert dimension_table([DMR], 6) == {"dmr": [0, 0, 1, 0, 1, 0]}
    assert list_entries() == sorted(f"dmr-{k}-s1p1.json" for k in range(1, 7))


def test_parent_with_a_bad_checksum_is_recomputed(private_cache) -> None:
    child = get_basis(ADDMR_FAD, 6)
    child_bytes = cache._entry_path(ADDMR_FAD, 6).read_bytes()
    parent = load_basis(ADDMR, 6)
    _tamper(ADDMR, 6, lambda d: d.update(crc32=d["crc32"] ^ 1))
    assert load_basis(ADDMR, 6) is None
    cache._entry_path(ADDMR_FAD, 6).unlink()
    assert get_basis(ADDMR_FAD, 6) == child
    assert cache._entry_path(ADDMR_FAD, 6).read_bytes() == child_bytes
    assert load_basis(ADDMR, 6) == parent


def test_no_cache_writes_no_file(private_cache) -> None:
    get_basis(ADDMR_FAD_PARITY, 6, use_cache=False)
    assert not private_cache.exists()


def test_no_cache_table_solves_each_addmr_kernel_once(private_cache, monkeypatch) -> None:
    spaces_solved = []
    real = cache.rational_kernel
    monkeypatch.setattr(
        cache, "rational_kernel",
        lambda space, parent, rows: spaces_solved.append(space) or real(space, parent, rows),
    )
    table = dimension_table([ADDMR, ADDMR_FAD, ADDMR_FAD_PARITY], 7, use_cache=False)
    assert table["addmr"] == [0, 0, 0, 2, 2, 3, 3]
    assert spaces_solved.count(ADDMR) == 7
    spaces_solved.clear()
    dimension_table([ADDMR_FAD_PARITY, ADDMR_FAD], 7, use_cache=False)
    assert spaces_solved == [ADDMR, ADDMR_FAD, ADDMR_FAD_PARITY] * 7
    assert dimension_table([ADDMR, ADDMR], 5, use_cache=False) == {"addmr": table["addmr"][:5]}
    assert not private_cache.exists()


def _written_as_the_reference_writes_it(space, k) -> None:
    """The stored entry is the reference writer's text of its basis, its
    canonical JSON is built without a dump, and it loads back equal."""
    basis = get_basis(space, k)
    text = cache._entry_path(space, k).read_text()
    assert text == reference_entry(basis), (space.key, k)
    data = json.loads(text)
    data.pop("crc32")
    assert cache._canonical_entry(data) == json.dumps(data, sort_keys=True)
    assert load_basis(space, k) == basis


def test_every_entry_is_written_as_the_reference_writer_writes_it(private_cache) -> None:
    for space, kmax in [(DMR, 10), (ADDMR, 10), (ADDMR_FAD, 10), (ADDMR_FAD_PARITY, 10),
                        (FAD_PARITY, 10), (FAD, 9)]:
        for k in range(1, kmax + 1):
            _written_as_the_reference_writes_it(space, k)


@pytest.mark.slow
@pytest.mark.parametrize("space", [DMR, ADDMR], ids=["dmr", "addmr"])
@pytest.mark.parametrize("k", [12, 13])
def test_high_weight_entries_are_written_as_the_reference_writer_writes_them(
    private_cache, space, k
) -> None:
    _written_as_the_reference_writes_it(space, k)


@pytest.mark.parametrize(
    "basis",
    [
        SubspaceBasis(DMR, 4, [XSeries({"0011": Fraction(1, 2), "0101": -3, "0111": 1}, 4),
                               XSeries({"0001": Fraction(-7, 6)}, 4)]),
        SubspaceBasis(ADDMR, 6, []),
        SubspaceBasis(DMR, 3, [XSeries({"001": 2**70, "011": -(2**64) + 1}, 3)]),
    ],
    ids=["fraction", "dimension-0", "beyond-int64"],
)
def test_a_hand_made_basis_is_written_as_the_reference_writer_writes_it(private_cache, basis):
    path = store_basis(basis)
    assert path == cache._entry_path(basis.space, basis.weight)
    assert path.read_text() == reference_entry(basis)
    assert load_basis(basis.space, basis.weight) == basis


def _set_term(field, value):
    return lambda d: d["vectors"][0]["terms"][0].update({field: value})


def _set_vector(field, value):
    return lambda d: d["vectors"][0].update({field: value})


@pytest.mark.parametrize(
    "edit",
    [
        *(_set_term(field, f"0{char}1") for field in ("word", "coeff")
          for char in ('"', "\\", "\x7f", "\u00e9", "\u2028")),
        _set_term("", "1"),
        _set_term("coeff", 1),
        _set_vector("weight_bound", True),
        _set_vector("weight_bound", 5.0),
        _set_vector("", 1),
        lambda d: d.update(schema=["s1p1"]),
    ],
    ids=[*(f"{field}-{name}" for field in ("word", "coeff")
           for name in ("quote", "backslash", "delete", "e-acute", "line-separator")),
         "third-term-key", "int-coeff", "bool-bound", "float-bound", "fifth-vector-key",
         "list-header"],
)
def test_an_entry_of_another_shape_is_checksummed_by_its_dump(private_cache, edit) -> None:
    """An entry that store_basis could not have written has no canonical text
    built from its strings; its checksum is the dump's, as defined."""
    get_basis(ADDMR, 5)
    data = json.loads(cache._entry_path(ADDMR, 5).read_text())
    data.pop("crc32")
    assert cache._canonical_entry(data) == json.dumps(data, sort_keys=True)
    edit(data)
    assert cache._canonical_entry(data) is None
    assert cache._checksum(data) == reference_checksum(data)

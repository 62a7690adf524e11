from __future__ import annotations

import json

import pytest

from dslforge import algebra
from dslforge.cache import clear_cache, get_basis, list_entries, load_basis, store_basis
from dslforge.linalg import int_matrix, kernel_basis
from dslforge.lyndon import witt_number
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
    SpaceId,
    SubspaceBasis,
    _compile,
    compile_constraints,
    compile_on_parent,
    dimension_table,
    membership_check,
    rational_kernel,
)
from dslforge.words import all_xwords, all_ywords, word_pairs

from reference_systems import compile_primitivity_raw, full_rows_kernel, raw_kernel, unit_basis


def test_space_id_parse() -> None:
    assert SpaceId.parse("dmr") == DMR
    assert SpaceId.parse("ADDMR-FAD") == ADDMR_FAD
    assert SpaceId.parse("f2") == F2GEQ(1)
    assert SpaceId.parse("f2geq3") == F2GEQ(3)
    assert SpaceId.parse("f2geq:4") == F2GEQ(4)
    with pytest.raises(ValueError):
        SpaceId.parse("nope")
    with pytest.raises(ValueError):
        SpaceId.parse("f2geq0")


@pytest.mark.parametrize(
    "space",
    [DMR, ADDMR, FAD, VSTRPRTY, ADDMR_FAD, ADDMR_FAD_PARITY, FAD_PARITY]
    + [F2GEQ(m) for m in range(1, 6)],
    ids=str,
)
def test_space_id_parse_reads_back_its_key(space) -> None:
    assert SpaceId.parse(space.key) == space


def test_zero_space_below_threshold() -> None:
    for space in (DMR, ADDMR, FAD):
        for k in range(1, space.min_weight):
            assert full_rows_kernel(space, k).dimension == 0
    assert full_rows_kernel(F2GEQ(4), 3).dimension == 0
    assert full_rows_kernel(F2GEQ(4), 4).dimension == witt_number(4)


def test_fad_weight3() -> None:
    # [x0,[x0,x1]] has 00-corner word 010 with coefficient -2, so only the
    # other weight-3 bracket survives; this matches the image of bracketing
    # x1 against the one-dimensional weight-2 primitive space.
    assert {len(row) for row in compile_constraints(FAD, 3)} == {2}
    basis = full_rows_kernel(FAD, 3)
    assert basis.dimension == 1
    assert basis.vectors[0] == XSeries([("011", 1), ("101", -2), ("110", 1)], 3)
    from dslforge.lie import ad_x1

    comm = XSeries([("01", 1), ("10", -1)], 3)
    image = ad_x1(comm)
    # spans the same line
    assert image == basis.vectors[0].scale(-1)


def test_dimension_rows_up_to_7() -> None:
    expected = {
        "dmr": [0, 0, 1, 0, 1, 0, 1],
        "addmr": [0, 0, 0, 2, 2, 3, 3],
        "addmr-fad": [0, 0, 0, 1, 0, 1, 0],
        "addmr-fad-parity": [0, 0, 0, 1, 0, 1, 0],
    }
    table = dimension_table(
        [DMR, ADDMR, ADDMR_FAD, ADDMR_FAD_PARITY], 7, use_cache=False
    )
    assert table == expected


def _raw_parity_kernel(k: int) -> SubspaceBasis:
    """The reference for the closed form: the kernel of the parity rows over
    raw word coordinates, on the dense modular engine."""
    n = 2**k
    if k < VSTRPRTY.min_weight:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        rows = _compile(("parity",), unit_basis(VSTRPRTY, k)).tolist()
    return raw_kernel(VSTRPRTY, k, rows)


def test_vstrprty_raw_compile() -> None:
    for k in range(1, 10):
        basis = get_basis(VSTRPRTY, k, use_cache=False)
        assert basis == _raw_parity_kernel(k), k
        assert basis.dimension == (3 * 2 ** (k - 2) if k >= 2 else 0)
    for v in get_basis(VSTRPRTY, 2, use_cache=False).vectors:
        assert membership_check(VSTRPRTY, v).passed
    with pytest.raises(ValueError):
        compile_constraints(VSTRPRTY, 2)


def test_membership_examples() -> None:
    rep = membership_check(DMR, XSeries.word("01", 1, 2))
    assert not rep.passed
    assert any(
        v["condition"] == "primitive" and v["detail"]["u"] == "0" and v["detail"]["v"] == "1"
        for v in rep.violations
    )
    comm3 = XSeries([("101", 2), ("110", -1), ("011", -1)], 3)  # [x1,[x0,x1]]
    assert membership_check(FAD, comm3).passed


def test_every_basis_vector_passes_membership() -> None:
    for space in (DMR, ADDMR, FAD, ADDMR_FAD, ADDMR_FAD_PARITY):
        for k in range(1, 8):
            basis = full_rows_kernel(space, k)
            for v in basis.vectors:
                assert membership_check(space, v).passed, (space.key, k)


def test_basis_vectors_linearly_independent() -> None:
    for space, k in ((ADDMR, 4), (ADDMR, 6), (ADDMR_FAD, 6), (VSTRPRTY, 4)):
        basis = get_basis(space, k, use_cache=False)
        if basis.dimension == 0:
            continue
        words = sorted(all_xwords(k))
        rows = [[v.coeff(w) for v in basis.vectors] for w in words]
        assert kernel_basis(int_matrix(rows, basis.dimension), basis.dimension) == []


def test_dmr_weight_11_computed() -> None:
    # not tabulated in the acceptance data; the artifact computes it
    assert full_rows_kernel(DMR, 11).dimension == 2


def test_monotone_dimensions() -> None:
    for k in range(1, 8):
        d_fp = full_rows_kernel(ADDMR_FAD_PARITY, k).dimension
        d_f = full_rows_kernel(ADDMR_FAD, k).dimension
        d = full_rows_kernel(ADDMR, k).dimension
        assert d_fp <= d_f <= d


def test_parity_rows_vanish_on_addmr_fad() -> None:
    # computed here, not quoted from the paper: on addmr ∩ fad the parity
    # rows are all zero for k <= 12, so addmr-fad-parity = addmr-fad
    for k in range(1, 13):
        basis = get_basis(ADDMR_FAD, k)
        rows = compile_on_parent(ADDMR_FAD_PARITY, basis)
        assert bool(len(rows)) == bool(basis.vectors) and not rows.any(), k
        assert get_basis(ADDMR_FAD_PARITY, k).vectors == basis.vectors


def test_kernel_vectors_are_normalised_on_their_words() -> None:
    # a + b = 0 over these columns gives a - b = 2*x1x0 - 2*x0x1, which the
    # kernel's own scaling leaves with a common factor and the wrong sign
    columns = [XSeries({"00": 1, "10": 2}, 2), XSeries({"00": 1, "01": 2}, 2)]
    parent = SubspaceBasis(ADDMR, 2, columns)
    basis = rational_kernel(ADDMR_FAD, parent, int_matrix([[1, 1]], 2))
    assert basis.vectors == [XSeries({"01": 1, "10": -1}, 2)]


def test_raw_vs_lyndon_oracle_equivalence() -> None:
    for k in range(1, 8):
        raw = raw_kernel(F2GEQ(1), k, compile_primitivity_raw(k))
        lyn = full_rows_kernel(F2GEQ(1), k)
        assert raw.dimension == lyn.dimension == witt_number(k)
        for v in raw.vectors:
            assert membership_check(F2GEQ(1), v).passed
        for v in lyn.vectors:
            assert membership_check(F2GEQ(1), v).passed


def test_composite_spaces_raw_oracle() -> None:
    # recompute dmr/addmr dimensions over raw word coordinates, bypassing
    # the bracketing parametrization entirely
    for k in range(3, 7):
        units = unit_basis(DMR, k)
        n = units.dimension
        prim = compile_primitivity_raw(k)
        dmr_rows = prim + _compile(("star-harmonic",), units).tolist()
        dim = len(kernel_basis(int_matrix(dmr_rows, n), n))
        assert dim == full_rows_kernel(DMR, k).dimension

        if k >= 4:
            addmr_rows = prim + _compile(("sharp-harmonic", "sharp-depth-one"), units).tolist()
            dim = len(kernel_basis(int_matrix(addmr_rows, n), n))
            assert dim == full_rows_kernel(ADDMR, k).dimension

            afp_rows = addmr_rows + _compile(("corner00", "parity"), units).tolist()
            dim = len(kernel_basis(int_matrix(afp_rows, n), n))
            assert dim == full_rows_kernel(ADDMR_FAD_PARITY, k).dimension


def test_cache_round_trip(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("DSLFORGE_CACHE_DIR", str(tmp_path))
    assert load_basis(DMR, 3) is None
    basis = get_basis(DMR, 3)
    assert basis.dimension == 1
    names = list_entries()
    assert names == ["dmr-3-s1p1.json"]
    reloaded = load_basis(DMR, 3)
    assert reloaded is not None
    assert reloaded.vectors == basis.vectors
    # byte-for-byte determinism of the stored artifact
    payload = (tmp_path / names[0]).read_bytes()
    store_basis(basis)
    assert (tmp_path / names[0]).read_bytes() == payload
    assert clear_cache() == 1
    assert list_entries() == []


def test_cache_schema_mismatch_ignored(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("DSLFORGE_CACHE_DIR", str(tmp_path))
    basis = get_basis(DMR, 3)
    path = tmp_path / "dmr-3-s1p1.json"
    data = path.read_text().replace("s1p1", "s0p0")
    path.write_text(data)
    assert load_basis(DMR, 3) is None
    # still resolvable by recompute
    assert get_basis(DMR, 3).vectors == basis.vectors


def test_basis_json_round_trip() -> None:
    basis = full_rows_kernel(ADDMR, 4)
    data = basis.to_json_dict()
    assert data["format"] == "basis-v1"
    back = SubspaceBasis.from_json_dict(data)
    assert back.space == basis.space
    assert back.weight == basis.weight
    assert back.vectors == basis.vectors


@pytest.mark.parametrize(
    "space",
    [DMR, ADDMR, FAD, VSTRPRTY, ADDMR_FAD, ADDMR_FAD_PARITY, FAD_PARITY, F2GEQ(1), F2GEQ(4)],
    ids=str,
)
def test_every_basis_reads_back_as_written(space) -> None:
    for k in range(1, 9):
        basis = get_basis(space, k, use_cache=False)
        text = json.dumps(basis.to_json_dict())
        back = SubspaceBasis.from_json_dict(json.loads(text))
        assert back == basis
        assert json.dumps(back.to_json_dict()) == text


def _one_vector(data: dict, dimension) -> None:
    data.update(vectors=data["vectors"][:1], dimension=dimension)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(format="basis-v9"),
        lambda d: d.pop("format"),
        lambda d: d.update(schema="s0p0"),
        lambda d: d.update(space=" addmr "),
        lambda d: d.update(space="ADDMR"),
        lambda d: d.update(weight="7"),
        lambda d: d.update(weight=7.0),
        lambda d: d.update(weight=6.9),
        lambda d: d.update(weight=True),
        lambda d: d.update(vectors=[], dimension=0, weight="7"),
        lambda d: _one_vector(d, True),
        lambda d: _one_vector(d, 1.0),
        lambda d: d.update(dimension=d["dimension"] + 1),
        lambda d: d.update(dimension=d["dimension"] - 1),
        lambda d: d["vectors"][0]["terms"][0].update(word=d["vectors"][0]["terms"][0]["word"][1:]),
    ],
    ids=["other-format", "no-format", "other-schema", "padded-space", "upper-case-space",
         "string-weight", "float-weight", "fractional-weight", "bool-weight",
         "empty-with-string-weight", "bool-dimension", "float-dimension",
         "dimension-above-count", "dimension-below-count", "short-word"],
)
def test_basis_reader_refuses_what_its_writer_never_writes(edit) -> None:
    data = get_basis(ADDMR, 7, use_cache=False).to_json_dict()
    edit(data)
    with pytest.raises(ValueError):
        SubspaceBasis.from_json_dict(data)


def _sharp_harmonic_defects(image: dict, k: int):
    """Reference scan: each nonzero <q_right(s) | y_l (u * v)> at weight k,
    given the terms of q_right(s), for every l >= 1 and nonempty pair (u, v)
    of total weight k - l, in the order of wt u + wt v, then the pair, then l."""
    for m in range(2, k):
        for u, v in word_pairs(m, all_ywords):
            expansion = algebra.harmonic_words(u, v)
            for l in range(1, k - m + 1):
                val = 0
                for w, mult in expansion.items():
                    c = image.get((l,) + w)
                    if c is not None:
                        val += mult * c
                if val:
                    yield {"t_exp": l - 1, "u": list(u), "v": list(v), "value": str(val)}


def test_sharp_harmonic_scan_stops_at_the_cap(monkeypatch) -> None:
    import random

    from dslforge.algebra import q_right
    from dslforge.lyndon import lyndon_primitive_basis

    rng = random.Random(11)
    s = XSeries((), 8)
    for e in lyndon_primitive_basis(8):
        s = s + e.expansion.scale(rng.choice((-2, -1, 1, 2)))
    calls = []
    real = algebra.harmonic_words
    monkeypatch.setattr(
        algebra, "harmonic_words", lambda u, v: calls.append(1) or real(u, v)
    )
    full = list(_sharp_harmonic_defects(q_right(s).terms, 8))
    full_calls = len(calls)
    assert len(full) > 10
    calls.clear()
    rep = membership_check(ADDMR, s)
    assert [v["detail"] for v in rep.violations] == full[:10]
    assert {v["condition"] for v in rep.violations} == {"sharp-harmonic"}
    assert len(calls) < full_calls


def test_sharp_harmonic_defect_is_reported_at_its_own_weight() -> None:
    from dslforge.lyndon import lyndon_primitive_basis

    low = lyndon_primitive_basis(5)[1].expansion.with_bound(8)
    s = low + get_basis(ADDMR, 8).vectors[0].with_bound(8)
    rep = membership_check(ADDMR, s)
    defect = {"t_exp": 2, "u": [1], "v": [1], "value": "-2"}
    assert [v["weight"] for v in rep.violations if v["detail"] == defect] == [5]
    assert not rep.passed

from __future__ import annotations

import json

import pytest

from dslforge import linalg
from dslforge.cache import get_basis
from dslforge.cli import main
from dslforge.series import XSeries
from dslforge.spaces import ADDMR, ADDMR_FAD_PARITY, DMR, FAD_PARITY

from reference_systems import basis_json_dict


@pytest.fixture()
def cli_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("DSLFORGE_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def test_dims_table(cli_cache, capsys) -> None:
    assert main(["dims", "--space", "dmr", "--kmax", "6"]) == 0
    out = capsys.readouterr().out
    assert "dmr" in out
    assert len({line.index("|") for line in out.splitlines()}) == 1, out
    row = out.strip().splitlines()[-1]
    assert [int(x) for x in row.split("|")[1].split()] == [0, 0, 1, 0, 1, 0]


def test_dims_json(cli_cache, capsys) -> None:
    assert main(["dims", "--space", "f2,dmr", "--kmax", "5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dims"]["f2"] == [2, 1, 2, 3, 6]
    assert data["dims"]["dmr"] == [0, 0, 1, 0, 1]


def test_dims_bad_space(cli_cache, capsys) -> None:
    # a space id's weight is written in ASCII digits: not Arabic-Indic 3, not superscript 2
    for space in ("bogus", "f2geq\u0663", "f2geq\u00b2"):
        assert main(["dims", "--space", space, "--kmax", "3"]) == 2, space
        assert capsys.readouterr().err.startswith("error: unknown space id"), space


def test_basis_export_and_member(cli_cache, capsys, tmp_path) -> None:
    assert main(["basis", "--space", "addmr", "--k", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dimension"] == 2
    out_path = tmp_path / "basis.json"
    assert main(["basis", "--space", "addmr", "--k", "4", "--out", str(out_path)]) == 0
    assert json.loads(out_path.read_text()) == data
    # exported vectors are members; write one out and check it
    vec = data["vectors"][0]
    series_path = tmp_path / "vec.json"
    series_path.write_text(json.dumps(vec))
    assert main(["member", "--space", "addmr", "--in", str(series_path)]) == 0
    assert main(["member", "--space", "dmr", "--in", str(series_path)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_basis_prints_and_writes_the_reference_writers_text(cli_cache, capsys, tmp_path) -> None:
    """stdout and the --out file are the text of the basis's cache entry, as
    the reference writer writes it, without its CRC.  Each basis is printed
    when it is solved and stored, then written when it is loaded; some have
    dimension 0."""
    out_path = tmp_path / "basis.json"
    dimensions = set()
    for space in (DMR, ADDMR, ADDMR_FAD_PARITY, FAD_PARITY):
        for k in range(1, 9):
            basis = get_basis(space, k, use_cache=False)
            text = json.dumps(basis_json_dict(basis)) + "\n"
            dimensions.add(basis.dimension)
            assert main(["basis", "--space", space.key, "--k", str(k)]) == 0
            assert capsys.readouterr().out == text, (space.key, k)
            argv = ["basis", "--space", space.key, "--k", str(k), "--out", str(out_path)]
            assert main(argv) == 0
            assert out_path.read_text() == text, (space.key, k)
    assert 0 in dimensions


def test_member_fad_commutator(cli_cache, capsys, tmp_path) -> None:
    comm = XSeries([("101", 2), ("110", -1), ("011", -1)], 3)  # [x1,[x0,x1]]
    path = tmp_path / "commutator.json"
    path.write_text(comm.to_json())
    assert main(["member", "--space", "fad", "--in", str(path)]) == 0
    assert "pass" in capsys.readouterr().out


def test_member_json_output(cli_cache, capsys, tmp_path) -> None:
    path = tmp_path / "w.json"
    path.write_text(XSeries.word("01", 1, 2).to_json())
    code = main(["member", "--space", "f2", "--in", str(path), "--json"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is False
    assert data["violations"][0]["condition"] == "primitive"


def test_member_parse_error(cli_cache, capsys, tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["member", "--space", "f2", "--in", str(path)]) == 2
    path.write_text("[1, 2]")
    assert main(["member", "--space", "f2", "--in", str(path)]) == 2


def test_member_deeply_nested_json_exits_2(cli_cache, capsys, tmp_path) -> None:
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["member", "--space", "dmr", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err


def test_bracket_command(cli_cache, capsys, tmp_path) -> None:
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(XSeries.word("01", 1, 3).to_json())
    b.write_text(XSeries.word("11", 1, 3).to_json())
    assert main(["bracket", "--in", str(a), str(b)]) == 0
    result = XSeries.from_json(capsys.readouterr().out)
    assert result == XSeries([("101", 1)], 3)


def test_decompose_command(cli_cache, capsys, tmp_path) -> None:
    # conjugate of x1 by exp([x0,x1]) is accepted
    from dslforge.algebra import concat_exp, concat_product

    bound = 5
    psi = XSeries([("01", 1), ("10", -1)], bound)
    x1 = XSeries.word("1", 1, bound)
    phi = concat_product(concat_product(concat_exp(-psi), x1), concat_exp(psi))
    path = tmp_path / "phi.json"
    path.write_text(phi.to_json())
    assert main(["decompose", "--in", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["is_member"] is True
    assert list(data["psi_parts"]) == ["2"]

    # non-member exits 1
    bad = x1 + XSeries([("101", 2), ("110", -1), ("011", -1)], bound)
    path.write_text(bad.to_json())
    assert main(["decompose", "--in", str(path)]) == 1


def test_decompose_bound_above_the_file_exits_2(cli_cache, capsys, tmp_path) -> None:
    # the terms above the file's bound are unknown, so they must not be read as zeros
    from dslforge.algebra import concat_exp, concat_product

    psi = XSeries([("01", 1), ("10", -1)], 5)
    x1 = XSeries.word("1", 1, 5)
    path = tmp_path / "phi.json"
    phi = concat_product(concat_product(concat_exp(-psi), x1), concat_exp(psi))
    path.write_text(phi.to_json())
    assert main(["decompose", "--in", str(path), "--bound", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --bound 9 is above the weight_bound 5")
    for bound in ("5", "4"):
        assert main(["decompose", "--in", str(path), "--bound", bound]) == 0
        assert json.loads(capsys.readouterr().out)["is_member"] is True


def test_verify_commands(cli_cache, capsys) -> None:
    assert main(["verify", "--check", "ad-embedding", "--k", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert main(["verify", "--check", "bracket-closure", "--k1", "4", "--k2", "4"]) == 0
    assert main(["verify", "--check", "group-laws", "--trunc", "4", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and '"seed": 5' in out


def test_verify_usage_errors(cli_cache, capsys) -> None:
    assert main(["verify", "--check", "unknown-check"]) == 2
    assert main(["verify", "--check", "bracket-closure"]) == 2
    assert main(["verify", "--check", "ad-embedding"]) == 2


def test_cache_commands(cli_cache, capsys) -> None:
    main(["dims", "--space", "dmr", "--kmax", "3"])
    capsys.readouterr()
    assert main(["cache", "--list"]) == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert any(name.startswith("dmr-3") for name in listed)
    assert main(["cache", "--clear"]) == 0
    assert "removed" in capsys.readouterr().out
    assert main(["cache"]) == 0
    assert "cache" in capsys.readouterr().out


def test_library_error_exits_2_without_traceback(cli_cache, capsys, tmp_path) -> None:
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(XSeries([("1", 1), ("01", 1)], 3).to_json())  # x1 term: not in tm1
    b.write_text(XSeries.word("11", 1, 3).to_json())
    assert main(["bracket", "--in", str(a), str(b)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["terms"][0].update(coeff=0.1),
        lambda d: d["terms"][0].pop("coeff"),
        lambda d: d.update(weight_bound=-1),
        lambda d: d.update(weight_bound=2),
        lambda d: d["terms"].extend([dict(t, coeff=str(-int(t["coeff"]))) for t in d["terms"]]),
    ],
    ids=["float-coeff", "missing-coeff", "negative-bound", "term-above-bound",
         "repeated-term"],
)
def test_member_rejects_bad_series_json(cli_cache, capsys, tmp_path, edit) -> None:
    data = XSeries([("101", 2), ("110", -1), ("011", -1)], 3).to_json_dict()
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["member", "--space", "dmr", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--space", "dmr", "--kmax", "0"],
        ["dims", "--space", "dmr", "--kmax", "-2"],
        ["basis", "--space", "dmr", "--k", "0"],
        ["decompose", "--in", "{phi}", "--bound", "-3"],
        ["decompose", "--in", "{phi}", "--bound", "0"],
        ["verify", "--check", "lemma-essential", "--k", "0"],
        ["verify", "--check", "bracket-closure", "--k1", "0", "--k2", "4"],
        ["verify", "--check", "racinet-homomorphism", "--samples", "-1"],
        ["verify", "--check", "lie-axioms", "--kmax", "two"],
        ["verify", "--check", "group-laws", "--trunc", "0"],
        ["dims", "--space", "dmr", "--kmax", "\u0663"],  # Arabic-Indic 3
    ],
    ids=lambda argv: " ".join(a for a in argv if a != "{phi}"),
)
def test_bad_numbers_exit_2(cli_cache, capsys, tmp_path, argv) -> None:
    phi = tmp_path / "phi.json"
    phi.write_text(XSeries.word("1", 1, 5).to_json())
    with pytest.raises(SystemExit) as exc:
        main([a.format(phi=phi) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected a positive integer" in err and "Traceback" not in err


@pytest.mark.parametrize("seed", ["\u0661_\u0662", "1_2", "+3", " 7", "2.0", "--4", "-", ""],
                         ids=["arabic-indic", "underscore", "plus", "space", "float", "double-minus",
                              "minus", "empty"])
def test_a_seed_not_in_ascii_digits_exits_2(cli_cache, capsys, seed) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "group-laws", "--trunc", "4", f"--seed={seed}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected an integer" in err and "Traceback" not in err


def test_a_negative_seed_runs(cli_cache, capsys) -> None:
    assert main(["verify", "--check", "group-laws", "--trunc", "4", "--seed=-3"]) == 0
    assert '"seed": -3' in capsys.readouterr().out


def test_dims_empty_space_list_exits_2(cli_cache, capsys) -> None:
    assert main(["dims", "--space", ",", "--kmax", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: no space id")


def test_a_kernel_out_of_primes_exits_2(cli_cache, capsys, monkeypatch) -> None:
    right = linalg._rref_mod_p

    def corrupt(rows, ncols, p):  # every residue off by one: no basis verifies
        selected, pivot_cols, kernel = right(rows, ncols, p)
        return selected, pivot_cols, {key: (r + 1) % p for key, r in kernel.items()}

    monkeypatch.setattr(linalg, "_rref_mod_p", corrupt)
    assert main(["dims", "--space", "dmr", "--kmax", "5", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: kernel_basis: {linalg._MAX_PRIMES} primes")
    assert "Traceback" not in err


def test_a_mod_p_scan_that_would_overflow_int64_exits_2(cli_cache, capsys, monkeypatch) -> None:
    # (p - 1)**2 >= 2**63 already for the first pivot
    monkeypatch.setattr(linalg, "_PRIMES", (3037000507,))
    assert main(["dims", "--space", "dmr", "--kmax", "5", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mod-3037000507 row selection would overflow int64")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "check,kmax,message",
    [("lie-axioms", "1", "lie-axioms needs k_max >= 2, got 1"),
     ("racinet-homomorphism", "1", "racinet-homomorphism needs k_max >= 4, got 1")],
)
def test_verify_kmax_below_the_sampled_weights_exits_2(cli_cache, capsys, check, kmax, message):
    assert main(["verify", "--check", check, "--kmax", kmax]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"

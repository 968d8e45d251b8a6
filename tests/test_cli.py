"""Command-line interface: output formats, exit codes, error paths."""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from charval import catalog, cli, verify

GOLDEN = pathlib.Path(__file__).parent / "golden"

S3_FILE = """\
# symmetric group on three points
degree 3
(1 2)
(1 2 3)
"""


def run_ok(capsys, argv: list[str]) -> str:
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def run_err(capsys, argv: list[str]) -> str:
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    return captured.err


# ---------------------------------------------------------------- catalog

def test_catalog_lists_core_tier(capsys):
    out = run_ok(capsys, ["catalog"])
    lines = out.splitlines()
    names = [ln.split()[0] for ln in lines]
    assert "sym_4" in names and "alt_5" in names
    assert "alt_7" not in names  # large tier stays out of the default listing
    orders = [int(ln.split()[1]) for ln in lines]
    assert orders == sorted(orders)


def test_catalog_json_all_tiers(capsys):
    rows = json.loads(run_ok(capsys, ["catalog", "--json", "--all-tiers"]))
    by_name = {r["name"]: r for r in rows}
    assert by_name["sym_4"]["order"] == 24
    assert by_name["alt_7"]["tier"] == "large"
    assert by_name["extraspecial_32_plus"]["tier"] == "optional"
    assert set(rows[0]) == {"name", "order", "tier", "source"}


def test_catalog_optional_tier_flag(capsys):
    default = json.loads(run_ok(capsys, ["catalog", "--json"]))
    extended = json.loads(
        run_ok(capsys, ["catalog", "--json", "--optional-tier"]))
    names = {r["name"] for r in extended} - {r["name"] for r in default}
    assert names == {"extraspecial_32_minus", "extraspecial_32_plus",
                     "sg_250_14"}


# ------------------------------------------------------------------ table

def test_table_human_render(capsys):
    out = run_ok(capsys, ["table", "--group", "sym_4"])
    lines = out.splitlines()
    assert lines[0] == "group sym_4  order 24  classes 5  prime 13"
    assert lines[1].startswith("class")
    assert lines[2].startswith("size")
    assert sum(1 for ln in lines if ln.startswith("deg ")) == 5


def test_table_json_matches_golden(capsys):
    out = run_ok(capsys, ["table", "--group", "sym_4", "--json"])
    assert out == (GOLDEN / "sym_4_table.json").read_text()


# sha256 of `charval table --group NAME --seed S --json`, recorded before
# the eigensplit used sparse class matrices, echelon subspaces and
# Galois-conjugate rows; the table must not depend on how it was found
TABLE_DIGESTS = {
    "sg_250_14": "336e1e7df1232d5e16ac4fc0cf0a742dd4f076977af15f140d655246ce094a08",
    "sg_81_3": "84aab1ae571c828919adbf6d16cb5e789f247f11dca76ba362cb3c9a22604db7",
    "sg_147_4": "84185bfcafedeff4941d249f6f3cbb3683611fcca0b7928c1ade2519468eaf69",
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_table_json_matches_recorded_digest(capsys, name, seed):
    out = run_ok(capsys, ["table", "--group", name, "--seed", str(seed), "--json"])
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[name]


def test_table_alias_resolves(capsys):
    out = run_ok(capsys, ["table", "--group", "s4"])
    assert out.splitlines()[0].startswith("group sym_4 ")


# ------------------------------------------------------------- invariants

def test_invariants_human_fields(capsys):
    out = run_ok(capsys, ["invariants", "--group", "dihedral_8"])
    lines = out.splitlines()
    assert lines[0] == "group dihedral_8  order 8  classes 5"
    keys = {ln.split(":")[0] for ln in lines[1:]}
    assert {"cv", "cd", "cdc", "ncv", "cod", "b", "dl", "rational",
            "flags"} <= keys


def test_invariants_json_degree_rows(capsys):
    d = json.loads(run_ok(capsys, ["invariants", "--group", "sg_21_1",
                                   "--json"]))
    assert d["order"] == 21 and d["cd"] == [1, 3]
    # the nonlinear rows are the two with codegree 7; each takes 4 values
    sizes = [s for s, c in zip(d["per_char_cv_sizes"], d["cod"]) if c == 7]
    assert sizes == [4, 4]


# ----------------------------------------------------------------- verify

def test_verify_single_group_pass(capsys):
    out = run_ok(capsys, ["verify", "--group", "sym_4"])
    lines = out.splitlines()
    assert lines[-1] == "6 verdicts, 0 FAIL"
    assert all(ln.split()[1] == "sym_4" for ln in lines[:-1])


def test_verify_exit_one_on_fail(capsys, monkeypatch):
    forced = verify.Verdict("sym_4", "four_values_solvable", True, False,
                            "forced failure for exit-code test")
    monkeypatch.setattr(verify, "check_group", lambda name, seed: [forced])
    code = cli.run(["verify", "--group", "sym_4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "1 verdicts, 1 FAIL" in out


def test_verify_claim_filter_json(capsys):
    rows = json.loads(run_ok(capsys, ["verify", "--group", "dihedral_8",
                                      "--claim", "nilpotent_cdc3",
                                      "--json"]))
    assert len(rows) == 1
    assert rows[0]["claim"] == "nilpotent_cdc3"
    assert rows[0]["status"] == "pass"


def test_verify_json_deterministic(capsys):
    argv = ["verify", "--group", "sym_4", "--json"]
    first = run_ok(capsys, argv)
    catalog.clear_caches()
    second = run_ok(capsys, argv)
    assert first == second


# ------------------------------------------------------------------- scan

def test_scan_lists_cdc2(capsys):
    out = run_ok(capsys, ["scan", "--property", "cdc=2"])
    assert out.splitlines() == [
        "cyclic_3", "elab_3_2", "frob_3k_2_1", "frob_3k_2_2",
        "frob_3k_2_3", "gamma_3", "sym_3", "sym_4",
    ]


def test_scan_json_shape(capsys):
    d = json.loads(run_ok(capsys, ["scan", "--property", "rows<=3",
                                   "--json"]))
    assert d["property"] == "rows<=3"
    # every row of each of these takes at most three distinct values
    assert d["matches"] == [
        "alt_4", "cyclic_2", "cyclic_3", "d8xc2", "d8xc2xc2", "dihedral_8",
        "elab_2_2", "elab_2_3", "elab_3_2", "frob_3k_2_1", "frob_3k_2_2",
        "frob_3k_2_3", "gamma_3", "gamma_4", "q8", "q8xc2", "sym_3",
        "trivial",
    ]


def test_scan_rejects_bad_property(capsys):
    err = run_err(capsys, ["scan", "--property", "cdc>2"])
    assert err.startswith("error:")


# --------------------------------------------------------------------- mn

def test_mn_prints_value(capsys):
    assert run_ok(capsys, ["mn", "--partition", "13,1,1",
                           "--cycle-type", "9,4,2"]) == "0\n"


def test_mn_json(capsys):
    d = json.loads(run_ok(capsys, ["mn", "--partition", "3,1",
                                   "--cycle-type", "1,1,1,1", "--json"]))
    assert d == {"partition": [3, 1], "cycle_type": [1, 1, 1, 1], "value": 3}


def test_mn_size_mismatch(capsys):
    err = run_err(capsys, ["mn", "--partition", "13,1,1",
                           "--cycle-type", "9,4"])
    assert err.startswith("error:")


def test_mn_rejects_non_integers(capsys):
    err = run_err(capsys, ["mn", "--partition", "13,x,1",
                           "--cycle-type", "9,4,2"])
    assert err.startswith("error:")


# ------------------------------------------------------------ group files

def test_group_file_table(capsys, tmp_path):
    path = tmp_path / "little_s3.txt"
    path.write_text(S3_FILE)
    out = run_ok(capsys, ["table", "--group", str(path)])
    assert out.splitlines()[0].startswith("group little_s3  order 6 ")


def test_group_file_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("degree 3\n(1 2\n")
    err = run_err(capsys, ["table", "--group", str(path)])
    assert err.startswith("error:")


def test_header_less_group_file(capsys, tmp_path):
    path = tmp_path / "s4.txt"
    path.write_text("# no degree header\n(1 2)\n(1 2 3 4)\n")
    out = run_ok(capsys, ["table", "--group", str(path)])
    assert out.splitlines()[0].startswith("group s4  order 24 ")


def test_empty_group_file(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    err = run_err(capsys, ["table", "--group", str(path)])
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_file_named_like_an_entry_does_not_shadow_it(capsys, tmp_path,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sym_4").write_text("(1 2 3)\n")
    out = run_ok(capsys, ["invariants", "--group", "sym_4"])
    assert out.splitlines()[0].startswith("group sym_4  order 24 ")
    out = run_ok(capsys, ["invariants", "--group", "./sym_4"])
    assert out.splitlines()[0].startswith("group sym_4  order 3 ")


def test_group_file_order_bound(capsys, tmp_path):
    path = tmp_path / "s4.txt"
    path.write_text("degree 4\n(1 2)\n(1 2 3 4)\n")
    err = run_err(capsys, ["table", "--group", str(path),
                           "--max-order", "10"])
    assert err.startswith("error:")


def test_group_file_point_past_the_degree_bound(capsys, tmp_path):
    path = tmp_path / "far.txt"
    path.write_text("(1 2000000)\n")
    err = run_err(capsys, ["table", "--group", str(path)])
    assert err.startswith("error: line 1, column 4: degree 2000000 above")
    assert len(err.splitlines()) == 1


def test_missing_group_file(capsys, tmp_path):
    err = run_err(capsys, ["table", "--group", str(tmp_path / "nope.txt")])
    assert err.startswith("error:")


def test_group_file_past_the_class_guard(capsys, tmp_path):
    # C2^6: six disjoint transpositions, 64 classes against a guard of 60
    path = tmp_path / "c2_6.txt"
    path.write_text("degree 12\n" + "".join(
        f"({2 * i + 1} {2 * i + 2})\n" for i in range(6)))
    err = run_err(capsys, ["table", "--group", str(path)])
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_group_file_invariants_past_25_classes(capsys, tmp_path):
    # C2^4 x S3: 48 classes, not nilpotent, so its flags need normal
    # subgroups
    path = tmp_path / "c2_4_s3.txt"
    path.write_text("degree 11\n(1 2)\n(3 4)\n(5 6)\n(7 8)\n"
                    "(9 10 11)\n(9 10)\n")
    d = json.loads(run_ok(capsys, ["invariants", "--group", str(path),
                                   "--json"]))
    assert d["class_count"] == 48
    assert d["flags"]["o_p"] == {"2": 16, "3": 3}


# ------------------------------------------------------------ usage errors

def test_unknown_group_name(capsys):
    err = run_err(capsys, ["invariants", "--group", "monster"])
    assert err == "error: no catalog entry named 'monster'\n"


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.run([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert cli.run(["table", "--group", "sym_4", "--bogus"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "table" in capsys.readouterr().out

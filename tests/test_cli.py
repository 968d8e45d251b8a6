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


# sha256 of `charval table|invariants --group NAME --seed S --json` for every
# catalog entry, and of `charval verify --all --json [--optional-tier]`.  The
# bytes must not depend on how a table is found or how a record is declared,
# and a table must not depend on the seed of its eigensplit.
TABLE_DIGESTS = {
    "trivial":
        "3adc288634934ad15788344fc9ffe0b5d4e465374cda07dd2064c4d6daccab8e",
    "cyclic_2":
        "19978c5bc441f4aca221bf5c66b6050ca00854477e4850ec2d5db4632abae14c",
    "cyclic_3":
        "69d32f5d617488bdd8a1fdb55c320c441e6e7624fd990dfbc80d86fe7b422c2a",
    "cyclic_4":
        "cda708b8592218f048452885582e4e1fef42aa3c386cb5d52a04093a7d54be32",
    "elab_2_2":
        "6899af8fa63d5503d3beebb89c4facb02da11f210d535de49da236cbdb4eca4e",
    "cyclic_5":
        "7578eed720f29999171659d251ea92fb98fcf58aad29a735b6a70df9fa249009",
    "cyclic_6":
        "8abae1eb54a79cdd749755ecb5f5cae147efde1ac84ad8cf9ec3565e78e950ff",
    "frob_3k_2_1":
        "0e4e51fd0287df4d621028b1dfa921d08bad2698f17227ea03ffde4326e5a2c9",
    "gamma_3":
        "0e4e51fd0287df4d621028b1dfa921d08bad2698f17227ea03ffde4326e5a2c9",
    "sym_3":
        "e4467d1a795220420129d62cece26f3804b39385438ba8dcbf584c8d5bebd049",
    "cyclic_7":
        "4d26f0aa97a5aff48a57dab9c181b22c75cbce97d53d2761e27b705733d765d2",
    "cyclic_8":
        "21d8036a0fcac937ce1102c9ec991ffa0c0210a6d4aaf7854acccb7828c62cae",
    "dihedral_8":
        "be2237c2fd2792304113d310392336364a7c0b3c7161372e393789f266716d68",
    "elab_2_3":
        "c8c41b50de91e9b8e03562ddeacb7382e094985b9d4f25b4a23305e6f7c78fe9",
    "q8":
        "9ec6293e61f35cbaaad45822dbf8e168b1118be1b8f1e9a95d7a99a26f77c2bc",
    "cyclic_9":
        "ea3516540b3587b3cb503c294ee2929d74341a1d20a73f81dfcbf878bd8688a4",
    "elab_3_2":
        "900ffab6acfdbf96705a0405679c67a8af6f90cf43b6b7555c341014eb9becad",
    "dihedral_10":
        "8704c4951735bce35f81345c592252aac1a95f6688127c0146ad627f2bbb70b3",
    "alt_4":
        "9f3fa5d710f98e614a121f04826c3785fee6850b360dd7b14d24a9b5904874d9",
    "c2xs3":
        "f2f980711a608dddf686a00ea026c21a5de0c6d2180805e8dea4faccbf04e453",
    "cyclic_12":
        "b9ef54b368dd58c72104461b8de8641b6917534c28813bdc0e55294dfd9fd040",
    "dihedral_12":
        "2b9ae776f4eafac8dbef6fbcee91cf68f5fe9a43ae05667f438731ee0d9816d9",
    "gamma_4":
        "8a1a2218abda69a5f576f33ffb506d1cb48326139efb44ae5061f6c4eeb89947",
    "dihedral_14":
        "67e8fe8c1da71a4a5750b2cbb370a53ec007f15bcdfaa81e35b652ab4f487565",
    "d8xc2":
        "4aefaa9a1dd0866aa80334026a01ad298b63b8ee2926c6f2ee087175061a2cec",
    "q8xc2":
        "07cae995bbb58cf7ad423c6463581419037ca47cdde60a35df44e5298ecdd933",
    "dihedral_18":
        "dfa71019ba1a32ee5fdb5f82a5fb622df25b320ea56fbf65974004dcfb637f39",
    "frob_3k_2_2":
        "09eadb4f1b577e265e6da0c8a31f48c726ff730447edcf8b2343a1b2eaf52086",
    "gamma_5":
        "52e5749a953ce2d38c3d44f412c98e53d7cead597ca0b9afc701df34776309ec",
    "sg_21_1":
        "ba273a2e8734f84c968a0431c580c55cb876a5968bac49c8f73bf9fe88098b3d",
    "dihedral_22":
        "7f4516d43e92c4589b274ae6edbbdea98ce5010b7860354ba82741ad07fb89c5",
    "sym_4":
        "f2dcf45bf0dc2b3575a2b434f75e40bc8b8ebd90c72e124bbc7a95c854f101db",
    "sg_27_3":
        "2ff7785228c338f56175c70d5e341028376f763e574517c2fc3b4b7ec9d09c31",
    "sg_27_4":
        "5da26a4d6532ae655c4faf3ae374e3b16cb9166f8c3125fac6279cdfa227b70c",
    "d8xc2xc2":
        "6571803d86250ce984fe801656cb06e2e6150c0b1d7d9c8c1a938a9f83e6b36c",
    "extraspecial_32_minus":
        "96f0c630095036a2961b044b7ff1e5eb0c0d09cbdf6927a5b9feff4aeb14c810",
    "extraspecial_32_plus":
        "43e5f8b7ca08cbbfb2aa1405cd29d94ec84459f3ffa8ddbe2269c87cd23d7d48",
    "sg_36_9":
        "f138c31933a2ef2708c7f15393ad83b137e9d375a90994cd572bd4ac1cc20033",
    "gamma_7":
        "524f48b8906078f63ed305a922dffd4a284d194f44dc983a65f1a81f972762a8",
    "sg_50_4":
        "8b1376b8da9883aaae5c6eba522a476ca6271c97bc8951e7e9a043f35d819a10",
    "frob_3k_2_3":
        "6b31d5b197743f2d56186b9762edc2aa2da4393036fcd966172b1ec5f688f964",
    "sg_55_1":
        "aa4d90a6e56fa3f293ce059a12380059cdd36ba70d7b9683a7ea51c362db1931",
    "gamma_8":
        "dc8ce5d65b5603ddf398f930640e5dcd8279964051c08e06bf96c0af10dec195",
    "alt_5":
        "5f67ee1ec84d9882ef245b465e6d5de91a426559034aaccf4b0d6f9a586c4b49",
    "gamma_9":
        "e2df3d67dfd3ea96827056c7e6e6986f2edd5bb0b3fd439c588c50ac31328e7d",
    "sg_78_1":
        "8376549c7764e2699b4ca508e53a5cd713b22be54cf76969e8f62e82ff44da75",
    "sg_80_49":
        "800d08ee575f5790861fbc7b35f3e412d64250e1e2a3dbebb9967961996f1bc6",
    "sg_81_12":
        "8abf877583a9b08ed908b82989b0d4fa0d94d46a5e31201bcb255c5e25738d21",
    "sg_81_13":
        "78d2193ec4a1dae9c27764061a49b80c6ec9ca4e67b3646b6b8483d19a036f64",
    "sg_81_3":
        "84aab1ae571c828919adbf6d16cb5e789f247f11dca76ba362cb3c9a22604db7",
    "sg_81_4":
        "26798f2bed29a6a48dbb3f06a9b99b98151a87e493f8e4f763e2d65cbd2bb036",
    "sym_5":
        "3d915e735d91ad0d54a1f1803456ea893a87ed9f14d9e187c1b1825dd60607c1",
    "sg_136_12":
        "19d09436e7c5a0277f5f88957cfd093599d114fb8180593fb9a2f548c6d37ec3",
    "sg_147_4":
        "84185bfcafedeff4941d249f6f3cbb3683611fcca0b7928c1ade2519468eaf69",
    "sg_250_14":
        "336e1e7df1232d5e16ac4fc0cf0a742dd4f076977af15f140d655246ce094a08",
    "alt_6":
        "def62d4a7b6eec8b62c64c16dcdd0ef9fb64f034e3f74cb5d518c114ebb40908",
    "sym_6":
        "cf06b4769e44e346f672489ba3207c686e4058ab7e6b426e3d4e24e2945eabb0",
    "alt_7":
        "abde174460d1c314853beb730aee17ecd2abe580a0994167a50a1b69d8821362",
    "sym_7":
        "b42cf72d1bf68836702e939a950d75c75c5818d48255eaa08fa96cb81cbbeaca",
}

INVARIANTS_DIGESTS = {
    "trivial":
        "11e494f9de1b87b09b719fc4c72b7d3b2ebb8252ae2f0531b8ef9074cbb53ba9",
    "cyclic_2":
        "3157c4dd0640cabf871a75d7a20be24a4b9932feb621e022ef8aca2c92662080",
    "cyclic_3":
        "fb7fa76e5c869dd2d68775e08cb90a23d255ef65a31ca0419da3889adbaf5853",
    "cyclic_4":
        "e101de56f85a3df2327d93e20214f9bed497781a71a6fc1e2f896cc5c23f4269",
    "elab_2_2":
        "91663a047fa78511f08c644d9f32038268ff37c566bc045ff7cb79f37941fc65",
    "cyclic_5":
        "c393c7347c618307779151ff533b15475e3de122e56105b84c0b6c42026ad739",
    "cyclic_6":
        "ac299f9202dd6069ab0ef9fc7483ab5725f0a278463ec97d54189bfbca0fd525",
    "frob_3k_2_1":
        "4290ee10e5d8465a595cb48c0299152c13f5d413853ffe316a027bf7e178565b",
    "gamma_3":
        "4290ee10e5d8465a595cb48c0299152c13f5d413853ffe316a027bf7e178565b",
    "sym_3":
        "4290ee10e5d8465a595cb48c0299152c13f5d413853ffe316a027bf7e178565b",
    "cyclic_7":
        "da233ab49278619cc031ba0807c332ba37707b066dd18d53ebffb888d62ecd82",
    "cyclic_8":
        "bc1581cba9416a221fee03c3643ee0a802a63efcb84485d61ab2f95b37edcef8",
    "dihedral_8":
        "3ccb5448060d63d6ac7399c795179acb27d05f039c42a6751c23db0bf4decfbc",
    "elab_2_3":
        "707d5733363bd18c91221880823b2475ce11beaae6ecb197c358d7de47da9d08",
    "q8":
        "3ccb5448060d63d6ac7399c795179acb27d05f039c42a6751c23db0bf4decfbc",
    "cyclic_9":
        "20af3533bab40bdb354a5f6d9e2bffd9445c2626f8b7979b058b0940a6b0ecaf",
    "elab_3_2":
        "9781e669d983f8a6c4455a2772c4fb6b42ea9e4c9884c639040a108b5fc0e5a8",
    "dihedral_10":
        "cc324c28fc2931c642f49cd5ba8de11d10a517961f7528c8f187f4425bbfe158",
    "alt_4":
        "02cb156e4989d134ca4e9d56c18bda2819c8b3afb71846447b05b75fd419b185",
    "c2xs3":
        "1c93e54d3fecea689865b1d028ebd3f542d92e0300a07befbd8e001fdd9c88f7",
    "cyclic_12":
        "f6cb1d671f090bbd68a5e23ebea0bd8c2e4ce6d688d49242514efe3b52dcef0b",
    "dihedral_12":
        "1c93e54d3fecea689865b1d028ebd3f542d92e0300a07befbd8e001fdd9c88f7",
    "gamma_4":
        "02cb156e4989d134ca4e9d56c18bda2819c8b3afb71846447b05b75fd419b185",
    "dihedral_14":
        "dcf3a255666b821e01905c97b8219a5ddf10485d8e629fd7d0f86af14a282188",
    "d8xc2":
        "d23bc074a474deca81f78ad11fb6dde215eb5dc81b1b3fa2f2fc66deec608eaf",
    "q8xc2":
        "d23bc074a474deca81f78ad11fb6dde215eb5dc81b1b3fa2f2fc66deec608eaf",
    "dihedral_18":
        "b7446caa69001f5150259b13ad713f473b010e59e404218e3e160cf7703c902e",
    "frob_3k_2_2":
        "d8e99ea8ee0d0e0511e89cbce41b5308d9c568c29e8f394a1286ee9a00a49424",
    "gamma_5":
        "e5bac70f9b39a9e924d969a84ba44eca9ac86e455c974db9ed055d364a7e5913",
    "sg_21_1":
        "a1bbf975d63e47e7c50f76162f2d430cd583d84de8373184b1c0bb5814702db3",
    "dihedral_22":
        "774c4b4689408f37e9c04098c2fdb5022ed5192ed3bacaeab9c23cb5f5375003",
    "sym_4":
        "2add11c2bbc01bbb4e171861b38fbc4ee412a9632555f3d5d48eda3290783015",
    "sg_27_3":
        "74f2a0027edd36672148b5e13298b91e9a7c34d8bae0c99621583d24fac71db9",
    "sg_27_4":
        "74f2a0027edd36672148b5e13298b91e9a7c34d8bae0c99621583d24fac71db9",
    "d8xc2xc2":
        "0e0ba2f8d91e1b42cadb5f95321166a1d81d7f13cf8d6444ccfcfb4febf88d4f",
    "extraspecial_32_minus":
        "d0cf35679c4d57b5bcb2ef3a554a7ff6131b4c7cdb834b08671b26eb072f5a70",
    "extraspecial_32_plus":
        "d0cf35679c4d57b5bcb2ef3a554a7ff6131b4c7cdb834b08671b26eb072f5a70",
    "sg_36_9":
        "a59a81d534f66ea34e2185d8332f96ee83623a643388476ffe292954948de04b",
    "gamma_7":
        "9ea38b8cbb8e3eb31db8cd2e4a864811db2e4ff7c606a87aa4cb5627ae480cb3",
    "sg_50_4":
        "d97e324ef9eb8e6d03fe305643b2eef48c8db593c3305941cbc2d9a28018ac8d",
    "frob_3k_2_3":
        "38cc5f46ec6b2bd3f8341a0669ea9ec3fd2bd2d94d1793169f78268de0e2b6a8",
    "sg_55_1":
        "38762bd2c2ac0f562294d489fd3eb191b301b3cf2b7fa055a0370f50b9249a25",
    "gamma_8":
        "13508e879585c53bf30c2cf2fa31e87405d060b6911150929608accf8772bd1d",
    "alt_5":
        "4378f82b93daa48ed90e7aabe3c5917784fc78596b16c88b41aa954b39087294",
    "gamma_9":
        "0b6157ec3105c759ccb937ad004c1d408c1c72f0e1a10cf105a7562d268d3bc4",
    "sg_78_1":
        "ced8c55a19eb14c04336c9c6b257453eaffb32de8a9a8512760f8d4618fdf2a8",
    "sg_80_49":
        "220136e5b302a38369fb3e53f5ac20ebaee6d38c7fc7cf368d788d0119369a20",
    "sg_81_12":
        "2cf9b946cf8c37241facd42db5622df1202aab2a4761c1b538c6044b7984c4dc",
    "sg_81_13":
        "2cf9b946cf8c37241facd42db5622df1202aab2a4761c1b538c6044b7984c4dc",
    "sg_81_3":
        "650833f2fc4a1ffca508ca8dc84c1dbff8b08450033fa4523f8580ae4aad1358",
    "sg_81_4":
        "650833f2fc4a1ffca508ca8dc84c1dbff8b08450033fa4523f8580ae4aad1358",
    "sym_5":
        "c8f4cad5cebfc326a437f11128542e4dfc1ebb29e3d6855315230c0ffeab8c65",
    "sg_136_12":
        "effc3ad8ebf8c35559479fd1e297920bcea360a5c0d5d9da423ec4ba830c19cd",
    "sg_147_4":
        "607e5c39e77f40473defcb1d49c3e9d4be37f994e1e52e6184c9fbdff9820b8e",
    "sg_250_14":
        "bbb95e60022e57295ef087d819d5971667925c08eb0027ad9bc24d9678c8fd00",
    "alt_6":
        "93dad4d4454dee2aa2646e3d30dcd5669a056826ef709c0569815a990ccd65a3",
    "sym_6":
        "63d2e82004dcc135c3e3850840fd618161913e3688aeb686adc9cd089e36c85e",
    "alt_7":
        "4ed24f299cffa34741e8170e8bedc5f91c28ca0a9d1f560e7d72ef495a99f88b",
    "sym_7":
        "fd47194e98dc5a4f0527341085b67b6833fd7c64ced0d8316cf521caf1d48437",
}

VERIFY_DIGESTS = {
    (): "bb1c54ffd508c556fb93f93d87886f858fa407afdb2dffa82f9fa66eebf86b89",
    ("--optional-tier",):
        "91f4c3cb2c8f8fdee8e0611666923c0d50c7473667bcd2b5548a80d298231007",
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_table_json_matches_recorded_digest(capsys, name, seed):
    out = run_ok(capsys, ["table", "--group", name, "--seed", str(seed), "--json"])
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[name]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(INVARIANTS_DIGESTS))
def test_invariants_json_matches_recorded_digest(capsys, name, seed):
    out = run_ok(capsys, ["invariants", "--group", name, "--seed", str(seed),
                          "--json"])
    assert hashlib.sha256(out.encode()).hexdigest() == INVARIANTS_DIGESTS[name]


def test_digests_cover_every_entry():
    assert set(TABLE_DIGESTS) == set(INVARIANTS_DIGESTS) == set(catalog.names())


@pytest.mark.parametrize("extra", sorted(VERIFY_DIGESTS))
def test_verify_all_json_matches_recorded_digest(capsys, extra):
    out = run_ok(capsys, ["verify", "--all", "--json", *extra])
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[extra]


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


def test_verify_all_is_the_default(capsys):
    # --all names the default run, core tier plus corpus scans; it adds
    # no entry
    assert run_ok(capsys, ["verify", "--all", "--json"]) == \
        run_ok(capsys, ["verify", "--json"])


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


def test_mn_refuses_a_size_past_the_bound(capsys):
    err = run_err(capsys, ["mn", "--partition", "600",
                           "--cycle-type", ",".join(["1"] * 600)])
    assert err == "error: symmetric group degree 600 above 45\n"


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


def test_group_file_of_more_than_255_generators(capsys, tmp_path):
    # S4 from 299 copies of (1 2) and then (1 2 3 4) reports what S4 from
    # two generators does; only the group's name differs
    many, two = tmp_path / "s4_many.txt", tmp_path / "s4_two.txt"
    many.write_text("degree 4\n" + "(1 2)\n" * 299 + "(1 2 3 4)\n")
    two.write_text("degree 4\n(1 2)\n(1 2 3 4)\n")
    out_many = run_ok(capsys, ["invariants", "--group", str(many)]).splitlines()
    out_two = run_ok(capsys, ["invariants", "--group", str(two)]).splitlines()
    assert out_many[0].startswith("group s4_many  order 24 ")
    assert out_many[0].replace("s4_many", "s4_two") == out_two[0]
    assert out_many[1:] == out_two[1:]


def test_group_file_order_bound(capsys, tmp_path):
    path = tmp_path / "s4.txt"
    path.write_text("degree 4\n(1 2)\n(1 2 3 4)\n")
    err = run_err(capsys, ["table", "--group", str(path),
                           "--max-order", "10"])
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["table", "invariants"])
def test_order_bound_does_not_limit_catalog_names(capsys, command):
    # a catalog entry past the bound prints as it does under the default
    out = run_ok(capsys, [command, "--group", "sym_4", "--max-order", "10"])
    assert out == run_ok(capsys, [command, "--group", "sym_4"])
    assert out.splitlines()[0].startswith("group sym_4  order 24 ")


@pytest.mark.parametrize("bound", ["0", "-5"])
@pytest.mark.parametrize("command", ["table", "invariants"])
def test_nonpositive_max_order_is_an_input_error(capsys, tmp_path, command, bound):
    # for a group file, which the bound limits, and for a catalog name,
    # which it does not
    path = tmp_path / "s4.txt"
    path.write_text("degree 4\n(1 2)\n(1 2 3 4)\n")
    for group in (str(path), "sym_4"):
        err = run_err(capsys, [command, "--group", group, "--max-order", bound])
        assert err == "error: --max-order must be a positive integer\n"


def test_group_file_point_past_the_degree_bound(capsys, tmp_path):
    path = tmp_path / "far.txt"
    path.write_text("(1 2000000)\n")
    err = run_err(capsys, ["table", "--group", str(path)])
    assert err.startswith("error: line 1, column 4: degree 2000000 above")
    assert len(err.splitlines()) == 1


def test_missing_group_file(capsys, tmp_path):
    err = run_err(capsys, ["table", "--group", str(tmp_path / "nope.txt")])
    assert err.startswith("error:") and err.count("\n") == 1


def _transpositions_file(tmp_path, n: int):
    # C2^n: n disjoint transpositions, 2^n classes
    path = tmp_path / f"c2_{n}.txt"
    path.write_text(f"degree {2 * n}\n" + "".join(
        f"({2 * i + 1} {2 * i + 2})\n" for i in range(n)))
    return path


def test_group_file_table_past_60_classes(capsys, tmp_path):
    d = json.loads(run_ok(capsys, ["table", "--group",
                                   str(_transpositions_file(tmp_path, 6)), "--json"]))
    assert len(d["classes"]) == 64
    assert [r["degree"] for r in d["rows"]] == [1] * 64


def test_group_file_past_the_class_guard(capsys, tmp_path):
    # C2^8: 256 classes against a guard of 130
    err = run_err(capsys, ["table", "--group", str(_transpositions_file(tmp_path, 8))])
    assert err == "error: 256 classes exceeds guard 130\n"


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

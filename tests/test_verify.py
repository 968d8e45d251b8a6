"""Hypothesis-to-conclusion checkers and corpus scans."""

import pytest

from charval import catalog, chartab, invariants, permcore, verify
from charval.verify import CLAIMS, Verdict
from tests import helpers as H


def verdict_for(name: str, claim: str) -> Verdict:
    hits = [v for v in verify.check_group(name) if v.claim == claim]
    assert len(hits) == 1
    return hits[0]


def test_verdict_status_logic():
    met = Verdict("g", "c", True, True, "")
    failed = Verdict("g", "c", True, False, "")
    vacuous = Verdict("g", "c", False, None, "")
    assert met.status == "pass"
    assert failed.status == "FAIL"
    assert vacuous.status == "vacuous"
    d = met.to_json_dict()
    assert list(d) == ["group", "claim", "hypothesis_met",
                       "conclusion_holds", "status", "details"]


def test_check_group_emits_every_claim():
    verdicts = verify.check_group("sym_4")
    assert [v.claim for v in verdicts] == list(CLAIMS)
    assert all(v.group == "sym_4" for v in verdicts)


def test_four_values_solvable_statuses():
    assert verdict_for("sym_4", "four_values_solvable").status == "pass"
    assert verdict_for("sg_21_1", "four_values_solvable").status == "pass"
    assert verdict_for("alt_5", "four_values_solvable").status == "vacuous"
    assert verdict_for("cyclic_6", "four_values_solvable").status == "pass"


def test_cdc3_solvable_statuses():
    assert verdict_for("dihedral_8", "cdc3_solvable").status == "pass"
    assert verdict_for("alt_5", "cdc3_solvable").status == "vacuous"
    # A7 passes the composition-factor filter but has a wide cdc
    assert verdict_for("alt_7", "cdc3_solvable").status == "vacuous"


def test_cdc2_shape_statuses():
    for name in ("sym_3", "frob_3k_2_2", "frob_3k_2_3", "gamma_3"):
        v = verdict_for(name, "cdc2_shape")
        assert v.status == "pass" and "frobenius_3" in v.details, name
    v = verdict_for("sym_4", "cdc2_shape")
    assert v.status == "pass" and "s4" in v.details
    assert verdict_for("q8", "cdc2_shape").status == "pass"  # |cdc|=3, no shape
    assert verdict_for("cyclic_6", "cdc2_shape").status == "vacuous"


def test_nilpotent_cdc3_agreement_and_extraspecial_quotient():
    v = verdict_for("dihedral_8", "nilpotent_cdc3")
    assert v.status == "pass"
    v = verdict_for("q8xc2", "nilpotent_cdc3")
    assert v.status == "pass"
    v = verdict_for("sg_27_3", "nilpotent_cdc3")
    assert v.status == "pass"  # predicates all false on a 3-group, still agree
    assert verdict_for("sym_4", "nilpotent_cdc3").status == "vacuous"


def test_nonnilpotent_cdc3_statuses():
    assert verdict_for("c2xs3", "nonnilpotent_cdc3").status == "pass"
    assert verdict_for("dihedral_12", "nonnilpotent_cdc3").status == "pass"
    # S3 itself has a two-value cdc, so the size-3 hypothesis fails
    assert verdict_for("sym_3", "nonnilpotent_cdc3").status == "vacuous"
    assert verdict_for("dihedral_8", "nonnilpotent_cdc3").status == "vacuous"


def test_two_degrees_statuses():
    assert verdict_for("sym_3", "two_degrees").status == "pass"
    assert verdict_for("dihedral_8", "two_degrees").status == "pass"
    assert verdict_for("sg_21_1", "two_degrees").status == "pass"
    assert verdict_for("sym_4", "two_degrees").status == "vacuous"  # 3 degrees


def test_full_catalog_has_no_failures():
    verdicts = verify.verify_names()
    assert not verify.any_fail(verdicts)
    statuses = {v.status for v in verdicts}
    assert statuses <= {"pass", "vacuous"}
    assert any(v.status == "pass" for v in verdicts)


# Core and optional entries by max(per_char_cv_sizes), up to 6: the
# predicate rows<=K lists the entries up to K.
ROW_CV_MAX = {
    1: ["trivial"],
    2: ["cyclic_2", "elab_2_2", "elab_2_3"],
    3: ["alt_4", "cyclic_3", "d8xc2", "d8xc2xc2", "dihedral_8", "elab_3_2",
        "extraspecial_32_minus", "extraspecial_32_plus", "frob_3k_2_1",
        "frob_3k_2_2", "frob_3k_2_3", "gamma_3", "gamma_4", "q8", "q8xc2", "sym_3"],
    4: ["cyclic_4", "dihedral_10", "gamma_5", "sg_147_4", "sg_21_1", "sg_250_14",
        "sg_27_3", "sg_27_4", "sg_36_9", "sg_50_4", "sg_81_12", "sg_81_13", "sym_4"],
    5: ["alt_5", "alt_6", "c2xs3", "cyclic_5", "dihedral_12", "dihedral_14",
        "sg_55_1", "sg_80_49", "sym_5"],
    6: ["cyclic_6", "dihedral_18", "gamma_7", "sg_78_1", "sym_6"],
}


def test_scan_predicates():
    hits = verify.scan("cdc=2")
    assert hits == ["cyclic_3", "elab_3_2", "frob_3k_2_1", "frob_3k_2_2",
                    "frob_3k_2_3", "gamma_3", "sym_3", "sym_4"]
    assert verify.scan("rational", names=["sym_4", "alt_5", "cyclic_2"]) == \
        ["cyclic_2", "sym_4"]
    assert verify.scan("ncv=3", names=["sym_5", "sym_4"]) == ["sym_5"]
    assert "sym_4" in verify.scan("rows<=4")
    with pytest.raises(ValueError):
        verify.scan("degree>9000")
    # every list, over the core and optional tiers
    names = catalog.names("core") + catalog.names("optional")
    assert {k: verify.scan(f"cdc={k}", names) for k in range(1, 5)} == {
        1: ["cyclic_2", "elab_2_2", "elab_2_3"],
        2: ["cyclic_3", "elab_3_2", "frob_3k_2_1", "frob_3k_2_2", "frob_3k_2_3",
            "gamma_3", "sym_3", "sym_4"],
        3: ["c2xs3", "cyclic_4", "d8xc2", "d8xc2xc2", "dihedral_12", "dihedral_8",
            "extraspecial_32_minus", "extraspecial_32_plus", "q8", "q8xc2"],
        4: ["alt_4", "alt_5", "cyclic_5", "dihedral_10", "gamma_4", "gamma_5",
            "sg_250_14", "sg_50_4", "sym_5"],
    }
    assert {k: verify.scan(f"ncv={k}", names) for k in range(1, 7)} == {
        1: ["cyclic_2", "elab_2_2", "elab_2_3"],
        2: ["cyclic_3", "elab_3_2", "frob_3k_2_1", "frob_3k_2_2", "frob_3k_2_3",
            "gamma_3", "sym_3", "sym_4"],
        3: ["c2xs3", "cyclic_4", "d8xc2", "d8xc2xc2", "dihedral_12", "dihedral_8",
            "extraspecial_32_minus", "extraspecial_32_plus", "q8", "q8xc2", "sym_5"],
        4: ["alt_4", "alt_5", "cyclic_5", "dihedral_10", "gamma_4", "gamma_5",
            "sg_250_14", "sg_50_4", "sym_6"],
        5: ["alt_6", "cyclic_6", "dihedral_14", "dihedral_18", "sg_147_4", "sg_21_1",
            "sg_27_3", "sg_27_4", "sg_36_9", "sg_81_12", "sg_81_13"],
        6: ["cyclic_7", "gamma_7", "sg_80_49"],
    }
    for k in range(2, 7):
        assert verify.scan(f"rows<={k}", names) == \
            sorted(n for size, group in ROW_CV_MAX.items() if size <= k for n in group), k
    assert verify.scan("rational", names) == [
        "c2xs3", "cyclic_2", "d8xc2", "d8xc2xc2", "dihedral_12", "dihedral_8",
        "elab_2_2", "elab_2_3", "extraspecial_32_minus", "extraspecial_32_plus",
        "frob_3k_2_1", "frob_3k_2_2", "frob_3k_2_3", "gamma_3", "q8", "q8xc2",
        "sym_3", "sym_4", "sym_5", "sym_6", "trivial"]


def test_corpus_scan_checks_pass():
    verdicts = verify.scan_checks()
    assert [v.claim for v in verdicts] == \
        ["cdc2_classified", "no_dl4_cdc2", "ncv3_nonsolvable_unique"]
    assert all(v.status == "pass" for v in verdicts)
    assert all(v.group == "corpus" for v in verdicts)


def test_verify_names_subset_and_scan_toggle():
    verdicts = verify.verify_names(["sym_3", "q8"], include_scans=False)
    assert {v.group for v in verdicts} == {"sym_3", "q8"}
    assert len(verdicts) == 2 * len(CLAIMS)


def _counting(calls: dict, key: str, fn):
    def wrapper(*args, **kwargs):
        calls[key] = calls.get(key, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def test_checkers_build_no_table_for_a_quotient(monkeypatch):
    # every question about a quotient G/N is read off G's own table
    names = catalog.names()
    for name in names:
        catalog.bundle(name)
    calls: dict[str, int] = {}
    for module in (chartab, permcore, invariants, catalog, verify):
        for attr in ("character_table", "quotient_group", "structure_flags"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr,
                                    _counting(calls, attr, getattr(module, attr)))
    assert not verify.any_fail(verify.verify_names(names))
    for name in names:
        assert catalog.check_expected(name) == [], name
    assert calls == {}


def test_core_verify_stays_at_class_level(monkeypatch):
    # with the bundles warm, the core checkers made 10 127 products when
    # they built quotient tables and compared elements pairwise, and 6 200
    # when class representatives were tested against whole subgroups;
    # testing each pair of classes from one side made 3 716, reading both
    # products of a pair off left_mult left the 8 of the Sylow 2-subgroup
    # test of check_nonnilpotent_cdc3, and that test now calls centralizes
    for name in catalog.names("core"):
        catalog.bundle(name)
    calls: dict[str, int] = {}
    monkeypatch.setattr(permcore.PermGroup, "mult_index",
                        _counting(calls, "mult_index", permcore.PermGroup.mult_index))
    verify.verify_names()
    assert calls.get("mult_index", 0) == 0


def test_abelian_sections_of_a_non_nilpotent_entry_are_lookups(monkeypatch):
    # sg_147_4 = C7^2 : C3 is not nilpotent; its checkers made 914
    # products in is_abelian_section, which reads them off left_mult
    assert not catalog.bundle("sg_147_4")[4].flags.is_nilpotent
    calls: dict[str, int] = {}
    monkeypatch.setattr(permcore.PermGroup, "mult_index",
                        _counting(calls, "mult_index", permcore.PermGroup.mult_index))
    verdicts = verify.check_group("sg_147_4")
    assert [v.status for v in verdicts if v.hypothesis_met]
    assert calls.get("mult_index", 0) == 0


def test_sylow2_test_matches_element_products():
    # on every subgroup of index 2 that is the kernel of a linear row
    outcomes = set()
    for name in catalog.names():
        _, g, cd, table, rep = catalog.bundle(name)
        o2 = rep.flags.o_p.get(2, 1)
        for half in {row.kernel for row in table.rows if row.degree == 1
                     and 2 * permcore.mask_size(cd, row.kernel) == g.order}:
            got = verify._sylow2_abelian(cd, half, o2)
            assert got == H.naive_sylow2_test(
                g, H.class_union(cd, half), H.class_union(cd, o2)), (name, half)
            outcomes.add(got)
    assert outcomes == {False, True}


@pytest.mark.parametrize("name", catalog.names())
def test_extraspecial_quotients_are_nonlinear_row_kernels(name):
    # check_nilpotent_cdc3 searches these kernels, not the lattice
    table = catalog.bundle(name)[3]
    lattice = {n for n in permcore.normal_masks(table)
               if permcore.is_extraspecial(table, n)}
    assert lattice == {row.kernel for row in table.rows if row.degree > 1
                       and permcore.is_extraspecial(table, row.kernel)}


@pytest.mark.parametrize("name", catalog.names())
def test_index_two_subgroups_are_linear_row_kernels(name):
    # check_nonnilpotent_cdc3 takes its candidates in this order
    _, g, cd, table, _ = catalog.bundle(name)
    lattice = [n for n in permcore.normal_masks(table)
               if 2 * permcore.mask_size(cd, n) == g.order]
    assert lattice == permcore.sort_masks(cd, {
        row.kernel for row in table.rows
        if row.degree == 1 and 2 * permcore.mask_size(cd, row.kernel) == g.order})


def test_structure_answers_never_build_the_lattice(monkeypatch):
    # normal_masks serves normal_subgroups and the four claims of
    # check_expected that are about every normal subgroup; check_two_degrees
    # builds only the normal subgroups of index at most m
    def refuse(table):
        raise AssertionError("normal_masks called")

    for module in (permcore, catalog):
        monkeypatch.setattr(module, "normal_masks", refuse)
    lattice_claims = {"normal_count", "quotient_d10_count",
                      "exists_normal_with_2group_quotient",
                      "exists_normal_with_frobenius_cyclic_quotient"}
    checkers = (verify.check_four_values_solvable, verify.check_cdc3_solvable,
                verify.check_cdc2_shape, verify.check_nilpotent_cdc3,
                verify.check_nonnilpotent_cdc3, verify.check_two_degrees)
    catalog.clear_caches()
    for name in catalog.names("core"):
        ent, _, _, table, rep = catalog.bundle(name)
        for check in checkers:
            check(table, rep, name)
        if not lattice_claims & ent.expected.keys():
            assert catalog.check_expected(name) == [], name

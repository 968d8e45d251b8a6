"""Value-set invariants and their frozen golden reports."""

import json
import pathlib

import pytest

from charval import catalog
from charval.cyclo import Cyc
from charval.invariants import report, root_of_unity_elements, sorted_values
from tests import helpers as H

CORE = catalog.names("core")

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["sym_4", "dihedral_8", "alt_5", "sg_21_1"])
def test_reports_match_golden_files(name):
    _, g, cd, table, rep = catalog.bundle(name)
    frozen = (GOLDEN / f"{name}_report.json").read_text()
    assert json.dumps(rep.to_json_dict(), indent=2) + "\n" == frozen


def test_table_matches_golden_file():
    _, g, cd, table, rep = catalog.bundle("sym_4")
    frozen = (GOLDEN / "sym_4_table.json").read_text()
    assert json.dumps(table.to_json_dict(), indent=2) + "\n" == frozen


def test_sym_4_report_fields():
    _, g, cd, table, rep = catalog.bundle("sym_4")
    assert rep.cv_displays() == ["-1", "0", "1", "2", "3"]
    assert rep.cd == (1, 2, 3)
    assert [v.display() for v in rep.cdc] == ["-1", "0"]
    assert rep.cdc == rep.ncv
    assert rep.b == 3 and rep.dl == 3
    assert rep.is_rational_group
    assert rep.per_char_cv_sizes == (2, 1, 3, 4, 4)
    assert rep.cod == (2, 1, 3, 8, 8)
    assert len(rep.cod) == rep.class_count == 5


def test_cv_is_union_of_row_values():
    _, g, cd, table, rep = catalog.bundle("sg_21_1")
    union = set()
    for row in table.rows:
        row_vals = sorted_values(set(row.values))
        assert list(row_vals) == sorted(row_vals, key=lambda v: v.sort_key())
        union.update(row_vals)
    assert set(rep.cv) == union
    assert set(rep.ncv) == {v for v in union if not v.is_positive_natural()}
    assert set(rep.cdc) == {v for v in union
                            if not any(v == Cyc.from_rational(d)
                                       for d in rep.cd)}


def test_sorted_values_orders_rationals_first():
    _, g, cd, table, rep = catalog.bundle("alt_5")
    vals = list(rep.cv)
    rationals = [v for v in vals if v.is_rational()]
    assert vals[:len(rationals)] == \
        sorted(rationals, key=lambda v: v.as_fraction())
    assert sorted_values(reversed(vals)) == tuple(vals)


def test_degree_rotations_enter_ncv():
    # nonlinear rows of a nonabelian nilpotent group contribute deg*eps
    _, g, cd, table, rep = catalog.bundle("sg_27_3")
    three = Cyc.from_rational(3)
    rotated = [v for v in rep.ncv if v.abs_squared() == three * three]
    assert len(rotated) >= 2
    assert all(v.conjugate() in rotated for v in rotated)


def test_root_of_unity_element_census():
    for name in ("cyclic_6", "elab_2_3", "cyclic_9"):
        _, g, cd, table, rep = catalog.bundle(name)
        assert rep.root_of_unity_elements == tuple(range(cd.n_classes)), name
    for name in ("sym_4", "dihedral_8", "alt_5", "sg_21_1"):
        _, g, cd, table, rep = catalog.bundle(name)
        assert rep.root_of_unity_elements == (), name
    _, g, cd, table, rep = catalog.bundle("gamma_5")
    assert len(rep.root_of_unity_elements) == 1
    cls = rep.root_of_unity_elements[0]
    assert cd.element_orders[cls] == 5 and cd.sizes[cls] == 4


def test_zero_counts_as_nonnatural():
    for name in ("sym_3", "q8", "alt_4"):
        _, g, cd, table, rep = catalog.bundle(name)
        assert Cyc.zero() in set(rep.ncv), name


def test_elementary_two_groups_have_singleton_cdc():
    for name in ("cyclic_2", "elab_2_2", "elab_2_3"):
        _, g, cd, table, rep = catalog.bundle(name)
        assert [v.display() for v in rep.cdc] == ["-1"], name


def test_json_shape_is_stable():
    _, g, cd, table, rep = catalog.bundle("dihedral_8")
    d = rep.to_json_dict()
    assert list(d) == ["order", "class_count", "cv", "cd", "cdc", "ncv",
                       "per_char_cv_sizes", "cod", "b", "dl",
                       "is_rational_group", "root_of_unity_elements", "flags"]
    assert list(d["flags"]) == ["is_abelian", "elementary_abelian_p",
                                "is_nilpotent", "p_group_p", "is_extraspecial",
                                "o_p", "frobenius"]
    assert d["flags"]["is_extraspecial"] is True
    assert json.dumps(d) == json.dumps(report(table).to_json_dict())


@pytest.mark.parametrize("name", CORE)
def test_modulus_sets_match_the_abs_squared_definitions(name):
    _, g, cd, table, rep = catalog.bundle(name)
    one = Cyc.one()
    for row in table.rows:
        d_sq = Cyc.from_rational(row.degree ** 2)
        assert row.center_z == H.mask_of(i for i, v in enumerate(row.values)
                                         if v.abs_squared() == d_sq), name
    assert rep.root_of_unity_elements == tuple(
        i for i in range(cd.n_classes)
        if all(r.values[i].abs_squared() == one for r in table.rows)), name


@pytest.mark.parametrize("name", catalog.names())
def test_root_of_unity_elements_read_only_classes_of_centraliser_k(name):
    # the classes skipped, those with |C_G(g)| != k, never hold a row of
    # units: the filtered tuple is the definition over every class
    _, g, cd, table, rep = catalog.bundle(name)
    assert rep.root_of_unity_elements == root_of_unity_elements(table) == tuple(
        i for i in range(cd.n_classes)
        if all(r.values[i].is_root_of_unity() for r in table.rows)), name

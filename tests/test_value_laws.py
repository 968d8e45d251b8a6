"""Value-set laws checked across the whole group corpus.

Each test sweeps one law over every catalog entry it applies to, via the
shared sweep helpers; an empty failure list means the law held exactly.
"""

import pytest

from charval import catalog, verify
from charval.cyclo import Cyc
from tests import helpers as H

CORE = catalog.names(tier="core")
FULL = CORE + catalog.names(tier="large")

# direct products in the catalog, with their factor entries
PRODUCTS = [
    ("c2xs3", "cyclic_2", "sym_3"),
    ("d8xc2", "dihedral_8", "cyclic_2"),
    ("q8xc2", "q8", "cyclic_2"),
    ("d8xc2xc2", "d8xc2", "cyclic_2"),
]

# nonabelian core entries owning an all-unit-modulus column, with counts
UNIT_COLUMN_CENSUS = {
    "frob_3k_2_1": 1, "gamma_3": 1, "sym_3": 1,
    "alt_4": 1, "gamma_4": 1,
    "c2xs3": 2, "dihedral_12": 2,
    "gamma_5": 1, "gamma_7": 1, "gamma_8": 1, "gamma_9": 1,
}


@pytest.mark.parametrize("name", CORE)
def test_quotient_value_sets_never_grow(name):
    failures = H.quotient_value_failures(name)
    assert not failures, failures


def test_cyclic_groups_have_separating_columns():
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 12):
        _, g, cd, table, rep = catalog.bundle(f"cyclic_{n}")
        assert len(rep.cv) == n
        best = max(len({r.values[i] for r in table.rows})
                   for i in range(cd.n_classes))
        assert best == n  # some column separates all characters


@pytest.mark.parametrize("name", FULL)
def test_nonabelian_groups_take_zero(name):
    failures = H.zero_value_failures(name)
    assert not failures, failures


@pytest.mark.parametrize("name", FULL)
def test_rational_nonlinear_rows_go_negative(name):
    failures = H.rational_row_failures(name)
    assert not failures, failures


@pytest.mark.parametrize("prod,left,right", PRODUCTS)
def test_direct_products_multiply_value_sets(prod, left, right):
    failures = H.product_value_failures(prod, left, right)
    assert not failures, failures


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("prod,left,right", PRODUCTS + [
    ("sg_81_12", "cyclic_3", "sg_27_3"),
    ("sg_81_13", "cyclic_3", "sg_27_4"),
])
def test_direct_product_rows_are_tensor_products(prod, left, right, seed):
    failures = H.tensor_product_failures(prod, left, right, seed)
    assert not failures, failures


@pytest.mark.parametrize("name", FULL)
def test_row_value_sets_are_galois_stable(name):
    failures = H.galois_row_failures(name)
    assert not failures, failures


@pytest.mark.parametrize("name", FULL)
def test_row_center_over_kernel_is_cyclic_center(name):
    failures = H.center_kernel_failures(name)
    assert not failures, failures


@pytest.mark.parametrize("name", FULL)
def test_inverse_classes_carry_conjugate_values(name):
    failures = H.conjugate_symmetry_failures(name)
    assert not failures, failures


@pytest.mark.parametrize("name", FULL)
def test_prime_power_element_divisibility(name):
    failures = H.p_element_failures(name)
    assert not failures, failures


@pytest.mark.parametrize("name", FULL)
def test_nilpotent_rows_rotate_their_degree(name):
    failures = H.nilpotent_rotation_failures(name)
    assert not failures, failures


@pytest.mark.parametrize("name", FULL)
def test_nilpotent_value_count_floors(name):
    failures = H.nilpotent_ncv_bound_failures(name)
    assert not failures, failures


@pytest.mark.parametrize("name", FULL)
def test_p_group_rows_avoid_unit_modulus(name):
    failures = H.p_group_modulus_failures(name)
    assert not failures, failures


def test_unit_modulus_column_census():
    census = {}
    for name in CORE:
        _, g, cd, table, rep = catalog.bundle(name)
        if rep.flags.is_abelian:
            # every column of an abelian table is a unit-modulus column
            assert len(rep.root_of_unity_elements) == cd.n_classes, name
        elif rep.root_of_unity_elements:
            census[name] = len(rep.root_of_unity_elements)
    assert census == UNIT_COLUMN_CENSUS


@pytest.mark.parametrize("name", sorted(UNIT_COLUMN_CENSUS))
def test_unit_modulus_columns_force_split_structure(name):
    failures = H.unit_element_structure_failures(name)
    assert not failures, failures


def test_unit_modulus_columns_sit_in_frobenius_kernels():
    # in the Frobenius-shaped owners, the unit columns are exactly the
    # nonidentity kernel classes
    for name in ("sym_3", "gamma_5", "gamma_8", "alt_4"):
        _, g, cd, table, rep = catalog.bundle(name)
        kernel = H.class_union(cd, rep.flags.frobenius)
        kernel_classes = {i for i in range(1, cd.n_classes)
                          if set(cd.classes[i]) <= kernel}
        assert set(rep.root_of_unity_elements) == kernel_classes, name


def test_two_degree_groups_decompose():
    bad = []
    for name in FULL:
        ent, g, cd, table, rep = catalog.bundle(name)
        verdicts = [v for v in verify.check_group(name)
                    if v.claim == "two_degrees"]
        bad.extend(f"{name}: {v.details}" for v in verdicts
                   if v.status == "FAIL")
    assert not bad, bad
    # the hypothesis is actually exercised somewhere
    met = [v for name in ("sym_3", "dihedral_8", "sg_21_1", "sg_27_3")
           for v in verify.check_group(name) if v.claim == "two_degrees"]
    assert all(v.status == "pass" for v in met)


def test_odd_dihedral_groups_spread_their_values():
    for order, name in ((10, "dihedral_10"), (14, "dihedral_14"),
                        (18, "dihedral_18"), (22, "dihedral_22")):
        _, g, cd, table, rep = catalog.bundle(name)
        assert g.order == order
        assert len(rep.ncv) > 3, name

"""Exact character tables: prime choice, class algebra, orthogonality."""

import contextlib
import itertools
import json
import math
import random
import signal
from fractions import Fraction

import pytest

from charval import catalog, chartab, cyclo
from charval.chartab import (
    Character,
    CharTable,
    EigensplitFailure,
    OrthogonalityFailure,
    TooManyClasses,
    _distinct_roots,
    _minimal_polynomial,
    _pdivmod,
    _pmul,
    _rref,
    _self_verify,
    _split_linear,
    _split_subspace,
    _unit_generators,
    character_table,
    choose_dixon_prime,
    codegree,
)
from charval.cyclo import Cyc, power_basis, zeta
from charval.permcore import (
    ClassData,
    conjugacy_classes,
    direct_product,
    parse_group_file,
)
from tests import helpers as H


@pytest.mark.parametrize("name,prime", [
    ("trivial", 3), ("cyclic_6", 7), ("sym_4", 13), ("alt_5", 31),
    ("sym_5", 61), ("alt_6", 61), ("sg_136_12", 137),
])
def test_dixon_prime_choices(name, prime):
    _, g, cd, table, _ = catalog.bundle(name)
    assert choose_dixon_prime(g, cd) == prime
    assert table.dixon_prime == prime


def test_classes_of_another_group_are_refused():
    # the same S4 with its generators swapped lists its elements in another
    # order; taking its classes gave a table that passed the proof but named
    # the wrong representatives, class 1 of size 3 as (1 3 4)
    a = parse_group_file("degree 4\n(1 2)\n(1 2 3 4)\n")
    b = parse_group_file("degree 4\n(1 2 3 4)\n(1 2)\n")
    for call in (character_table, choose_dixon_prime):
        with pytest.raises(ValueError, match="^classes belong to another group$"):
            call(a, conjugacy_classes(b))
    shown = character_table(a, conjugacy_classes(a)).to_json_dict()["classes"][1]
    assert shown == {"size": 3, "element_order": 2, "representative": "(1 3)(2 4)"}


def test_class_mult_coeffs_identity_and_counting():
    _, g, cd, _, _ = catalog.bundle("sym_3")
    a = H.class_mult_coeffs(cd)
    k = cd.n_classes
    for j in range(k):
        for m in range(k):
            assert a[0][j][m] == (1 if j == m else 0)
            assert a[j][0][m] == (1 if j == m else 0)
    for i in range(k):
        for j in range(k):
            assert a[i][j] == a[j][i]  # class sums commute
            assert sum(a[i][j][m] * cd.sizes[m] for m in range(k)) == \
                cd.sizes[i] * cd.sizes[j]
    transposition = next(i for i in range(k) if cd.element_orders[i] == 2)
    assert a[transposition][transposition][0] == 3


@pytest.mark.parametrize("name", ["sym_3", "sym_4", "q8", "sg_21_1",
                                  "alt_5", "sg_27_3", "frob_3k_2_2"])
def test_orthogonality_against_brute_centralizers(name):
    failures = exactness_failures(name)
    assert not failures, failures


def exactness_failures(name: str) -> list[str]:
    _, g, cd, table, _ = catalog.bundle(name)
    return H.exactness_failures(name, g, cd, table)


def test_identity_column_carries_degrees():
    for name in ("sym_4", "alt_5", "sg_27_4"):
        _, g, cd, table, _ = catalog.bundle(name)
        for row in table.rows:
            assert row.values[0] == Cyc.from_rational(row.degree)
            assert g.order % row.degree == 0  # degrees divide the order


def test_row_count_equals_class_count():
    for name in ("sym_4", "sg_21_1", "cyclic_9"):
        _, _, cd, table, _ = catalog.bundle(name)
        assert len(table.rows) == cd.n_classes
        assert table.degrees == tuple(r.degree for r in table.rows)


def test_sym_3_table_is_the_textbook_one():
    _, g, cd, table, _ = catalog.bundle("sym_3")
    one, mone = Cyc.one(), Cyc.from_rational(-1)
    two, zero = Cyc.from_rational(2), Cyc.zero()
    # classes: identity, transpositions, 3-cycles
    assert cd.sizes == (1, 3, 2)
    values = {tuple(r.values) for r in table.rows}
    assert values == {(one, one, one),
                      (one, mone, one),
                      (two, zero, mone)}


def test_alt_5_golden_period_values():
    _, g, cd, table, _ = catalog.bundle("alt_5")
    golden = Cyc.zero() - zeta(5, 2) - zeta(5, 3)   # (1+sqrt5)/2
    partner = Cyc.one() + zeta(5, 2) + zeta(5, 3)   # (1-sqrt5)/2
    deg3_values = set()
    for row in table.rows:
        if row.degree == 3:
            deg3_values.update(row.values)
    assert golden in deg3_values and partner in deg3_values
    assert golden + partner == Cyc.one()
    assert golden * partner == Cyc.from_rational(-1)


def test_conjugate_rows_pair_off():
    _, g, cd, table, _ = catalog.bundle("sg_21_1")
    rows = {tuple(r.values) for r in table.rows}
    for row in table.rows:
        assert tuple(v.conjugate() for v in row.values) in rows


def test_kernels_are_normal_subgroups():
    for name in ("sym_4", "dihedral_8", "frob_3k_2_2"):
        _, g, cd, table, _ = catalog.bundle(name)
        normals = H.naive_normal_sets(g, cd)
        for row in table.rows:
            assert H.class_union(cd, row.kernel) in normals, name


def test_center_of_faithful_row_is_group_center():
    _, g, cd, table, _ = catalog.bundle("dihedral_8")
    faithful = next(r for r in table.rows
                    if r.degree == 2 and len(H.class_union(cd, r.kernel)) == 1)
    assert len(H.class_union(cd, faithful.center_z)) == 2


def test_codegree_examples():
    _, g, cd, table, _ = catalog.bundle("dihedral_8")
    faithful = next(i for i, r in enumerate(table.rows)
                    if r.degree == 2 and len(H.class_union(cd, r.kernel)) == 1)
    assert codegree(table, faithful) == 4
    _, g, cd, table, _ = catalog.bundle("cyclic_6")
    cods = sorted(codegree(table, i) for i in range(len(table.rows)))
    assert cods == [1, 2, 3, 3, 6, 6]  # |image| of each linear character
    _, g, cd, table, _ = catalog.bundle("sym_4")
    assert [codegree(table, i) for i in range(5)] == [2, 1, 3, 8, 8]


def test_table_is_seed_independent():
    for name in ("sym_4", "sg_27_3"):
        t0 = catalog.bundle(name, seed=0)[3]
        t1 = character_table(catalog.build(name), seed=987)
        assert json.dumps(t0.to_json_dict()) == json.dumps(t1.to_json_dict())


def test_class_count_guard():
    big = direct_product(catalog.build("cyclic_12"), catalog.build("cyclic_3"))
    with pytest.raises(TooManyClasses):
        character_table(big, max_classes=25)
    assert character_table(big, max_classes=40).degrees == (1,) * 36


def test_abelian_tables_are_fourier_matrices():
    """Every value of an abelian table is a root of unity and the column
    of a generator separates the characters pairwise."""
    for n, name in ((6, "cyclic_6"), (9, "cyclic_9")):
        _, g, cd, table, _ = catalog.bundle(name)
        gen_col = next(i for i in range(cd.n_classes)
                       if cd.element_orders[i] == n)
        column = [r.values[gen_col] for r in table.rows]
        assert len(set(column)) == n  # pairwise distinct
        for row in table.rows:
            assert all(v.is_root_of_unity() for v in row.values)


def test_character_tables_construct_no_fraction(monkeypatch):
    # values are integer numerators over one denominator from the lift
    # to the proof; a Fraction made on the way would be churn
    made = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(cyclo, "Fraction", CountingFraction)
    for name in catalog.names("core"):
        group = catalog.build(name)
        character_table(group, conjugacy_classes(group))
    assert not made


# --- negative controls: the self-check must reject corrupted tables ---

def _oracle_failure(table: CharTable) -> OrthogonalityFailure:
    with pytest.raises(OrthogonalityFailure) as info:
        H.full_self_verify(table)
    return info.value


def _with_values(table: CharTable, changes: dict) -> CharTable:
    """Copy of table with values[r][i] replaced for each (r, i) in changes."""
    rows = list(table.rows)
    for (r, i), value in changes.items():
        old = rows[r]
        values = list(old.values)
        values[i] = value
        rows[r] = Character(tuple(values), old.degree, old.kernel, old.center_z)
    return CharTable(table.group, table.classes, tuple(rows), table.dixon_prime)


def _plus_one(table, cd):
    # at a self-inverse class the row's norm moves; at the others of these
    # entries the value is irrational, and the row loses its Galois images
    r, i = len(table.rows) - 1, cd.n_classes - 1
    relation = "first" if cd.inverse_class[i] == i else "galois"
    return {(r, i): table.rows[r].values[i] + 1}, relation


def _swap_rows_in_column(table, cd):
    last = len(table.rows) - 1
    first_col, last_col = table.rows[0].values[0], table.rows[last].values[0]
    return {(0, 0): last_col, (last, 0): first_col}, "degrees"


def _non_conjugate_at_inverse(table, cd):
    r, i = len(table.rows) - 1, cd.n_classes - 1
    e = math.lcm(*cd.element_orders)
    m = next(d for d in range(3, e + 1) if e % d == 0)  # zeta_m is not real
    wrong = table.rows[r].values[i].conjugate() + zeta(m)
    return {(r, cd.inverse_class[i]): wrong}, "galois"


def _half_coordinate(table, cd):
    r, i = len(table.rows) - 1, cd.n_classes - 1
    return {(r, i): table.rows[r].values[i] + Fraction(1, 2)}, "integrality"


@pytest.mark.parametrize("fault", [_plus_one, _swap_rows_in_column,
                                   _non_conjugate_at_inverse, _half_coordinate],
                         ids=lambda f: f.__name__.lstrip("_"))
@pytest.mark.parametrize("name", ["sym_3", "q8", "sg_21_1", "alt_5",
                                  "sg_27_3", "sg_147_4"])
def test_self_verify_rejects_corrupted_tables(name, fault):
    _, g, cd, table, _ = catalog.bundle(name)
    changes, relation = fault(table, cd)
    bad = _with_values(table, changes)
    with pytest.raises(OrthogonalityFailure) as info:
        _self_verify(bad)
    err = info.value
    assert err.relation == relation
    assert err.order == g.order and err.prime == table.dixon_prime
    assert f"relation={relation}, indices={err.indices}" in str(err)
    _oracle_failure(bad)
    assert H.exactness_failures(name, g, cd, bad)


def _galois_images(table, cd) -> list[int]:
    """Rows equal to a power-map image of an earlier row."""
    k = cd.n_classes
    perms = [[cd.power_class(i, u) for i in range(k)]
             for u in _units(math.lcm(*cd.element_orders))]
    rows = [r.values for r in table.rows]
    return [c for c, vals in enumerate(rows)
            if any(tuple(rows[a][t] for t in perm) == vals
                   for perm in perms for a in range(c))]


@pytest.mark.parametrize("fault", ["plus_one", "negate", "duplicate"])
@pytest.mark.parametrize("name", ["sg_147_4", "sg_81_3", "sg_250_14"])
def test_self_verify_checks_a_corrupted_galois_image(name, fault):
    # a row that is the Galois image of an earlier row, once corrupted,
    # is refused by the proof and by the full check
    _, g, cd, table, _ = catalog.bundle(name)
    images = _galois_images(table, cd)
    assert images
    r = images[-1]
    values = table.rows[r].values
    i = max(i for i, v in enumerate(values) if v)
    if fault == "duplicate":
        changes = {(r, t): v for t, v in enumerate(table.rows[r - 1].values)}
    else:
        changes = {(r, i): values[i] + 1 if fault == "plus_one" else -values[i]}
    bad = _with_values(table, changes)
    with pytest.raises(OrthogonalityFailure) as info:
        _self_verify(bad)
    assert info.value.relation in ("galois", "first", "separation")
    _oracle_failure(bad)


def _trivial_row(table: CharTable) -> int:
    return next(r for r, row in enumerate(table.rows) if all(v == 1 for v in row.values))


def _recorded_moduli(monkeypatch) -> list[tuple[int, int]]:
    """(bound, modulus) of every _proof_modulus call from now on."""
    seen = []
    proof_modulus = chartab._proof_modulus

    def recording(p, bound):
        seen.append((bound, proof_modulus(p, bound)))
        return seen[-1][1]

    monkeypatch.setattr(chartab, "_proof_modulus", recording)
    return seen


@pytest.mark.parametrize("t", [6, 7, 14, 15, 30, 31, 62, 63, 64, 200])
@pytest.mark.parametrize("name", ["sym_5", "sg_147_4", "sg_136_12"])
def test_self_verify_widens_its_digits_for_a_large_value(monkeypatch, name, t):
    # 2^t added to the trivial row at its largest class other than the
    # identity keeps the row rational and fails first orthogonality on
    # its diagonal; the modulus widens with the value, past |G| (L^2 + 1)
    # for L = 2^t + 1, so that relation, near |C_i| * 4^t, is decided mod
    # a modulus above it.  The full check refuses the table too, by the
    # conjugate relation where the class is not self-inverse.
    _, g, cd, table, _ = catalog.bundle(name)
    r = _trivial_row(table)
    i = max(range(1, cd.n_classes), key=lambda i: (cd.sizes[i], i))
    bad = _with_values(table, {(r, i): table.rows[r].values[i] + 2 ** t})
    moduli = _recorded_moduli(monkeypatch)
    with pytest.raises(OrthogonalityFailure) as info:
        _self_verify(bad)
    assert info.value.relation == "first" and info.value.indices == (r, r)
    full = _oracle_failure(bad)
    assert full.relation == ("first" if cd.inverse_class[i] == i else "conjugate")
    assert r in full.indices
    [(bound, modulus)] = moduli
    assert g.order * ((2 ** t + 1) ** 2 + 1) <= bound < modulus
    assert cyclo.is_p_power(modulus, table.dixon_prime)
    assert modulus // table.dixon_prime <= bound


@pytest.mark.parametrize("name", ["sym_5", "sg_147_4", "sg_136_12", "sg_250_14"])
def test_self_verify_needs_its_full_modulus(monkeypatch, name):
    # P = p^m is the least power of p above the bound; p^(m - 1) added to
    # the trivial row at its last class leaves every residue mod p^(m - 1)
    # as it was, so with m - 1 forced the table passes, and with the
    # real m it is refused
    _, g, cd, table, _ = catalog.bundle(name)
    moduli = _recorded_moduli(monkeypatch)
    _self_verify(table)
    [(_, modulus)] = moduli
    r, i = _trivial_row(table), cd.n_classes - 1
    lower = modulus // table.dixon_prime
    bad = _with_values(table, {(r, i): table.rows[r].values[i] + lower})
    monkeypatch.setattr(chartab, "_proof_modulus", lambda p, bound: lower)
    _self_verify(bad)
    monkeypatch.undo()
    with pytest.raises(OrthogonalityFailure) as info:
        _self_verify(bad)
    assert info.value.relation == "first" and info.value.indices == (r, r)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", catalog.names("core"))
def test_packed_proof_and_full_check_accept_every_core_table(name, seed):
    _, g, cd, table, _ = catalog.bundle(name, seed)
    _self_verify(table)
    H.full_self_verify(table)


def test_self_verify_failure_names_the_row_and_class():
    _, g, cd, table, _ = catalog.bundle("sg_21_1")
    changes, _ = _half_coordinate(table, cd)
    with pytest.raises(OrthogonalityFailure, match=r"^value is not an algebraic "
                       r"integer \(relation=integrality, indices=\((\d+), (\d+)\), "
                       r"order=21, prime=43\)$") as info:
        _self_verify(_with_values(table, changes))
    assert info.value.indices == next(iter(changes))


@pytest.mark.parametrize("name", ["sym_4", "alt_5", "sg_81_3"])
def test_self_verify_refuses_a_negated_row(name):
    # -chi with degree -chi(1) keeps every relation of the full check and
    # every eigenvector of the class algebra; only d >= 1 tells
    _, g, cd, table, _ = catalog.bundle(name)
    r = max(r for r, row in enumerate(table.rows) if all(v.is_rational() for v in row.values))
    row = table.rows[r]
    negated = Character(tuple(-v for v in row.values), -row.degree, row.kernel, row.center_z)
    bad = CharTable(g, cd, table.rows[:r] + (negated,) + table.rows[r + 1:],
                    table.dixon_prime)
    H.full_self_verify(bad)
    with pytest.raises(OrthogonalityFailure) as info:
        _self_verify(bad)
    assert (info.value.relation, info.value.indices) == ("degrees", (r,))


def test_self_verify_degree_failure_keeps_the_old_message():
    _, g, cd, table, _ = catalog.bundle("sym_3")
    row = table.rows[0]
    bad = CharTable(g, cd, (Character(row.values, 2, row.kernel, row.center_z),)
                    + table.rows[1:], table.dixon_prime)
    with pytest.raises(OrthogonalityFailure,
                       match="^degree squares do not sum to the order") as info:
        _self_verify(bad)
    assert info.value.relation == "degrees"


def test_vanishes_takes_one_remainder_by_phi_e():
    assert H.vanishes([1, 1, 1])                            # 1 + z3 + z3^2 = 0
    assert power_basis([1, 1, 1], 3) == [0, 0]
    assert not H.vanishes([1, 1, 0])                        # 1 + z3 = -z3^2
    assert power_basis([1, 1, 0], 3) == [1, 1]
    assert not H.vanishes([3, 1, 1])                        # 2 + (1 + z3 + z3^2)
    assert power_basis([3, 1, 1], 3) == [2, 0]
    assert H.vanishes([0] * 420)
    assert power_basis([0] * 420, 420) == [0] * 96
    acc = [0] * 420
    acc[0] = acc[140] = acc[280] = 5
    assert H.vanishes(list(acc))
    assert not any(power_basis(list(acc), 420))
    acc[280] = 4                                            # 5 + 5 z3 + 4 z3^2
    assert not H.vanishes(list(acc))
    assert power_basis(acc[::140], 3) == [1, 1]
    assert power_basis(list(acc), 420) == power_basis([1] + [0] * 139 + [1], 420)


def _span(rows, p, n):
    return {tuple(sum(c * r[j] for c, r in zip(cs, rows)) % p for j in range(n))
            for cs in itertools.product(range(p), repeat=len(rows))}


@pytest.mark.parametrize("seed", range(40))
def test_rref_and_nullspace_agree_with_brute_force(seed):
    p = 5
    rng = random.Random(seed)
    n_rows, n = rng.randint(1, 4), rng.randint(1, 4)
    mat = [[rng.choice([0, 0, 1, 2, 3, 4]) for _ in range(n)] for _ in range(n_rows)]
    reduced, pivots = _rref(mat, p)
    rank = len(pivots)
    assert pivots == sorted(set(pivots)) and len(reduced) == rank
    for r, row in enumerate(reduced):
        assert [row[c] for c in pivots] == [int(s == r) for s in range(rank)]
        assert all(x == 0 for x in row[:pivots[r]])
    assert _span(reduced, p, n) == _span(mat, p, n)
    kernel = {v for v in itertools.product(range(p), repeat=n)
              if all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in mat)}
    assert len(kernel) == p ** (n - rank)


@pytest.mark.parametrize("seed", range(60))
def test_rref_matches_the_dense_oracle(seed):
    rng = random.Random(seed)
    p = rng.choice([7, 11])
    density = rng.uniform(0.05, 0.6)
    n_rows, n = rng.randint(1, 16), rng.randint(1, 16)
    mat = [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n)]
           for _ in range(n_rows)]
    before = [row[:] for row in mat]
    assert _rref(mat, p) == H.dense_rref(mat, p)
    assert mat == before


@pytest.mark.parametrize("seed", range(40))
def test_pdivmod_is_division_with_remainder(seed):
    p = 7
    rng = random.Random(seed)
    a = [rng.randrange(p) for _ in range(rng.randint(0, 7))]
    m = [rng.randrange(p) for _ in range(rng.randint(0, 4))] + [rng.randrange(1, p)]
    while a and not a[-1]:
        a.pop()
    q, r = _pdivmod(a, m, p)
    assert len(r) < len(m)
    total = _pmul(q, m, p) + [0] * len(a)
    for i, c in enumerate(r):
        total[i] = (total[i] + c) % p
    assert total[:len(a)] == a and not any(total[len(a):])


def test_split_linear_rejects_an_inexact_cofactor(monkeypatch):
    # (x - 1)(x - 2)(x - 3) over F_7; a "factor" x + 1 does not divide it.
    # A quadratic is solved in closed form and never reaches _pgcd.
    monkeypatch.setattr(chartab, "_pgcd", lambda a, b, p: [1, 1])
    with pytest.raises(EigensplitFailure):
        _split_linear([1, 4, 1, 1], 7, random.Random(0), [])


_TWO_ADIC_PRIMES = [257, 7681, 12289]  # p - 1 = 2^8 * 1, 2^9 * 15, 2^12 * 3


@pytest.mark.parametrize("p", [p for p in range(3, 200) if cyclo.is_prime(p)]
                         + _TWO_ADIC_PRIMES)
def test_quadratic_roots_match_brute_force_square_roots(p):
    roots: dict[int, list[int]] = {a: [] for a in range(p)}
    for x in range(p):
        roots[x * x % p].append(x)
    rng = random.Random(0)
    for a in range(p):
        assert _distinct_roots([-a % p, 0, 1], p, rng) == roots[a], (p, a)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_quadratic_roots_match_brute_force_on_every_quadratic(p):
    rng = random.Random(0)
    for a, b, c in itertools.product(range(1, p), range(p), range(p)):
        expected = [x for x in range(p) if (a * x * x + b * x + c) % p == 0]
        assert _distinct_roots([c, b, a], p, rng) == expected, (p, a, b, c)
    for a, c in itertools.product(range(1, p), range(p)):
        assert _distinct_roots([c, a], p, rng) == [-c * pow(a, -1, p) % p]


@pytest.mark.parametrize("p", [41, 421, 547, 2521, 3673, 6091])
def test_evaluation_and_the_split_find_the_same_roots(p):
    # each path called directly, on products of distinct linear factors
    # and on ones with a repeated root and an irreducible quadratic factor
    # x^2 - n, n a non-residue, under a leading coefficient other than 1
    rng = random.Random(p)
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    for s in range(3, 31):
        roots = rng.sample(range(p), s)
        linear = rng.sample(range(p), s - 2)
        linear = linear[:-1] + linear[:1]   # s - 2 roots, one twice from s = 4
        cases = [(H.linear_product(roots, p), sorted(roots)),
                 (_pmul(H.linear_product(linear, p), [(-n * 5) % p, 0, 5], p),
                  sorted(set(linear)))]
        for f, expected in cases:
            assert len(f) == s + 1
            assert chartab._evaluated_roots(f, p) == expected, (p, s)
            assert chartab._split_roots(f, p, random.Random(s)) == expected, (p, s)


def test_the_root_finder_evaluates_exactly_below_the_crossover(monkeypatch):
    # p <= _EVAL_FACTOR * s * p.bit_length() evaluates, a larger p splits
    calls = _count_calls(monkeypatch, "_evaluated_roots", "_split_roots")
    for p in (41, 421, 547, 2521, 3673, 6091):
        for s in range(3, 31):
            f = H.linear_product(range(1, s + 1), p)
            before = calls["_evaluated_roots"]
            assert _distinct_roots(f, p, random.Random(0)) == list(range(1, s + 1))
            evaluated = calls["_evaluated_roots"] > before
            assert evaluated == (p <= chartab._EVAL_FACTOR * s * p.bit_length()), (p, s)
    assert calls["_evaluated_roots"] and calls["_split_roots"]


def test_self_verify_rejects_a_table_without_a_row():
    _, g, cd, table, _ = catalog.bundle("sym_4")
    short = CharTable(g, cd, table.rows[:-1], table.dixon_prime)
    with pytest.raises(OrthogonalityFailure, match="^4 rows for 5 classes") as info:
        _self_verify(short)
    assert info.value.relation == "square" and info.value.indices == ()


# --- the split and lift path: failures, Galois-conjugate rows, counts ---

def test_eigensplit_failure_carries_prime_seed_and_class_matrix(monkeypatch):
    # on sym_3 the space W left after the linear rows is a line, which no
    # class matrix splits; on sym_4 it is 3-dimensional
    monkeypatch.setattr(chartab, "_distinct_roots", lambda f, p, rng: [])
    with pytest.raises(EigensplitFailure) as info:
        character_table(catalog.build("sym_4"), seed=5)
    err = info.value
    # class 1, the three double transpositions, is the smallest after the
    # identity and applied first
    assert (err.prime, err.seed, err.indices) == (13, 5, (1,))
    assert str(err) == ("restriction is not semisimple "
                        "(prime=13, seed=5, indices=(1,))")


def test_a_minimal_polynomial_without_roots_is_not_semisimple(monkeypatch):
    # x^2 - 2 has no root over F_13, as 2 is not a square mod 13
    monkeypatch.setattr(chartab, "_minimal_polynomial", lambda coords, p: [11, 0, 1])
    with pytest.raises(EigensplitFailure) as info:
        character_table(catalog.build("sym_4"), seed=5)
    assert str(info.value) == ("restriction is not semisimple "
                               "(prime=13, seed=5, indices=(1,))")


def _units(e: int) -> list[int]:
    return [r for r in range(2, e) if math.gcd(r, e) == 1]


@pytest.mark.parametrize("e", [1, 2, 4, 8, 9, 16, 27, 49, 136, 250, 420, 504, 1000, 3045])
def test_unit_generators_generate_every_unit(e):
    # the proof checks Galois closure only under these generators
    gens = _unit_generators(e)
    assert all(math.gcd(u, e) == 1 for u in gens)
    reached, frontier = {1 % e}, [1 % e]
    while frontier:
        x = frontier.pop()
        for u in gens:
            if x * u % e not in reached:
                reached.add(x * u % e)
                frontier.append(x * u % e)
    assert reached == {u for u in range(e) if math.gcd(u, e) == 1}


@pytest.mark.parametrize("name", ["sym_3", "sg_21_1", "sg_147_4"])
def test_galois_map_off_by_one_is_refused(name):
    # reading a row through the power map of r + 1, for r a unit mod the
    # exponent, is no Galois conjugation; each table where such a reading
    # replaces a row is refused, by the proof and by the full check
    _, _, cd, table, _ = catalog.bundle(name)
    k = cd.n_classes
    refused = 0
    for r in _units(math.lcm(*cd.element_orders)):
        perm = [cd.power_class(i, r + 1) for i in range(k)]
        for c, row in enumerate(table.rows):
            image = [row.values[perm[i]] for i in range(k)]
            if tuple(image) == row.values:
                continue
            bad = _with_values(table, {(c, i): v for i, v in enumerate(image)})
            with pytest.raises(OrthogonalityFailure):
                _self_verify(bad)
            _oracle_failure(bad)
            refused += 1
    assert refused


@pytest.mark.parametrize("name", catalog.names())
def test_rows_are_closed_under_galois_conjugation(name):
    _, g, cd, table, _ = catalog.bundle(name)
    k = cd.n_classes
    rows = {r.values: r for r in table.rows}
    for r in _units(math.lcm(*cd.element_orders)):
        perm = [cd.power_class(i, r) for i in range(k)]
        for row in table.rows:
            image = rows.get(tuple(row.values[perm[i]] for i in range(k)))
            assert image is not None, (name, r)
            assert image.kernel == H.mask_of(i for i in range(k)
                                             if row.kernel >> perm[i] & 1)
            assert image.center_z == H.mask_of(i for i in range(k)
                                               if row.center_z >> perm[i] & 1)


@pytest.mark.parametrize("name", catalog.names())
def test_lifting_every_row_gives_the_same_table(monkeypatch, name):
    # every row lifted at every class, without the table's dict of lifted
    # residue patterns, gives the same values, kernels and centres
    _, g, cd, table, _ = catalog.bundle(name)
    lift_row = chartab._lift_row
    monkeypatch.setattr(chartab, "_lift_row", lambda *args: lift_row(*args[:-1], {}))
    lifted = character_table(g, cd)
    assert json.dumps(lifted.to_json_dict()) == json.dumps(table.to_json_dict())
    assert [(r.kernel, r.center_z) for r in lifted.rows] == \
        [(r.kernel, r.center_z) for r in table.rows]


@pytest.mark.parametrize("name", catalog.names())
def test_each_table_holds_one_object_per_value(name):
    # equal values lifted at classes of different orders are one object,
    # so lookups of a value downstream stop at identity
    for seed in (0, 1):
        _, _, _, table, _ = catalog.bundle(name, seed=seed)
        values = [v for row in table.rows for v in row.values]
        assert len({id(v) for v in values}) == len(set(values)), (name, seed)


@pytest.mark.parametrize("name", catalog.names())
def test_kernels_and_centres_match_the_cyc_definitions(name):
    for seed in (0, 1):
        _, _, _, table, _ = catalog.bundle(name, seed=seed)
        for row in table.rows:
            assert row.kernel == H.cyc_kernel(row), (name, seed)
            assert row.center_z == H.cyc_center(row), (name, seed)


def test_lift_rejects_multiplicities_that_miss_the_degree(monkeypatch):
    # one more at the first root of class 1 keeps every multiplicity in
    # range, but the eigenvalues no longer number d
    seen = []

    def bumped(theta_pow, p, wm_inv, _fn=chartab._multiplicities):
        mus = _fn(theta_pow, p, wm_inv)
        seen.append(theta_pow)
        if len(seen) == 2:  # class 1 of the first row lifted, of degree 1
            mus[0] += 1
        return mus

    monkeypatch.setattr(chartab, "_multiplicities", bumped)
    with pytest.raises(EigensplitFailure, match=r"^multiplicities at class 1 sum "
                       r"to 2, not 1 \(prime=7, seed=4, indices=\(0, 1\)\)$"):
        character_table(catalog.build("sym_3"), seed=4)


def _count_calls(monkeypatch, *names: str) -> dict[str, int]:
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _fn=getattr(chartab, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(chartab, name, counting)
    return calls


@pytest.mark.parametrize("name,lifts,max_polys", [
    ("sg_250_14", 64, 46), ("sg_81_3", 33, 16), ("sg_147_4", 19, 11),
])
def test_lifts_once_per_row_and_splits_only_when_not_scalar(
        monkeypatch, name, lifts, max_polys):
    _, g, cd, _, _ = catalog.bundle(name)
    calls = _count_calls(monkeypatch, "_lift_row", "_minimal_polynomial")
    character_table(g, cd)
    assert calls["_lift_row"] == lifts
    assert 0 < calls["_minimal_polynomial"] <= max_polys


@pytest.mark.parametrize("name", catalog.names())
def test_echelon_rule_agrees_with_the_full_application(name):
    # replayed in index order, so the rule meets spaces that the build's
    # size order never makes; each application splits exactly where the
    # echelon basis has a nonzero entry at the class's column after row 0
    _, g, cd, _, _ = catalog.bundle(name)
    for seed in (0, 1):
        for i, rule, scalar, pieces in H.index_order_splits(g, cd, seed):
            assert rule == (not scalar) == (pieces > 1), (name, seed, i)


@pytest.mark.parametrize("name,matrices,splits,products,reductions", [
    ("sg_250_14", 6, 45, 274, 106), ("sg_81_3", 2, 4, 12, 9),
    ("sg_147_4", 4, 10, 48, 25),
])
def test_class_matrices_are_built_and_applied_only_where_they_split(
        monkeypatch, name, matrices, splits, products, reductions):
    # every class matrix in index order on every pending space made 19, 15
    # and 7 matrices, 174, 79 and 15 splits and 950, 423 and 99 products;
    # the rule from the identity basis of F_p^k made 7, 4 and 5 matrices,
    # 46, 16 and 11 splits, 282, 120 and 57 products and 109, 48 and 29
    # reductions; from the linear rows and W, which on sg_81_3 leaves 6 of
    # 33 dimensions, the rule makes the counts below
    # on a fresh ClassData, whose memo holds no matrix yet
    g = catalog.build(name)
    cd = conjugacy_classes(g)
    calls = _count_calls(monkeypatch, "_split_subspace", "_minimal_polynomial", "_rref")
    # products counts the basis rows the split maps, every row of each
    # space it is handed, each by the columns of the class matrix; the
    # proof makes its own product, and builds only the matrices of the
    # classes it combines that the split did not apply
    vectors, applied, memo = [], set(), []
    split_subspace, self_verify = chartab._split_subspace, chartab._self_verify
    class_matrix = ClassData.class_matrix

    def proving(table):
        monkeypatch.setattr(ClassData, "class_matrix", class_matrix)
        memo.append(set(cd._matrices))
        self_verify(table)
        memo.append(set(cd._matrices))

    monkeypatch.setattr(chartab, "_split_subspace", lambda space, mat, p, rng:
                        vectors.append(len(space[0])) or split_subspace(space, mat, p, rng))
    monkeypatch.setattr(ClassData, "class_matrix",
                        lambda cd, i: applied.add(i) or class_matrix(cd, i))
    monkeypatch.setattr(chartab, "_self_verify", proving)
    table = character_table(g, cd)
    assert calls == {"_split_subspace": splits, "_minimal_polynomial": splits,
                     "_rref": reductions}
    assert sum(vectors) == products
    assert len(applied) == matrices
    fresh = conjugacy_classes(g)
    self_verify(CharTable(g, fresh, table.rows, table.dixon_prime))
    assert memo == [applied, applied | set(fresh._matrices)]


@pytest.mark.parametrize("name", catalog.names(tier="core"))
def test_minimal_polynomial_is_the_product_over_the_charpoly_roots(
        monkeypatch, name):
    # on every split of the build, e_0's minimal polynomial has one linear
    # factor per distinct root of the Hessenberg characteristic polynomial
    _, g, cd, table, _ = catalog.bundle(name)
    p = choose_dixon_prime(g, cd)
    seen = []
    minimal_polynomial = chartab._minimal_polynomial
    monkeypatch.setattr(chartab, "_minimal_polynomial",
                        lambda coords, p: seen.append(coords)
                        or minimal_polynomial(coords, p))
    for seed in (0, 1):
        character_table(g, cd, seed=seed)
    # W, the span of the non-linear rows, is split only when it is not a line
    assert seen or sum(d > 1 for d in table.degrees) <= 1
    rng = random.Random(0)
    for coords in seen:
        rmat = [list(col) for col in zip(*coords)]
        roots = _distinct_roots(H.charpoly(rmat, p), p, rng)
        assert minimal_polynomial(coords, p) == H.linear_product(roots, p)


def _random_invertible(rng: random.Random, d: int, p: int, first_row: list[int]):
    while True:
        mat = [first_row] + [[rng.randrange(p) for _ in range(d)] for _ in range(d - 1)]
        if len(_rref(mat, p)[1]) == d:
            return mat


def _diagonalised(rng: random.Random, lams: list[int], p: int, first_row: list[int]):
    # R = S D S^-1, S's first row given: R, its coordinates (transposed
    # rows) and S, whose column j is an eigenvector at lams[j]
    d = len(lams)
    s = _random_invertible(rng, d, p, first_row)
    s_inv = [row[d:] for row in _rref([row + [int(i == j) for j in range(d)]
                                      for i, row in enumerate(s)], p)[0]]
    rmat = [[sum(s[i][j] * lams[j] * s_inv[j][t] for j in range(d)) % p
             for t in range(d)] for i in range(d)]
    return rmat, [list(col) for col in zip(*rmat)], s


@pytest.mark.parametrize("seed", range(30))
def test_minimal_polynomial_of_a_cyclic_e0_is_the_charpoly(seed):
    # R = S D S^-1 with distinct eigenvalues; e_0 R^n = sum_j (e_0 S)_j
    # lam_j^n (row j of S^-1), so with e_0 S all ones, as for central
    # characters, the minimal polynomial of e_0 is the characteristic one
    rng = random.Random(seed)
    p = rng.choice([7, 13, 31, 331, 3673])
    d = rng.randint(1, min(p, 8))
    lams = rng.sample(range(p), d)
    rmat, coords, _ = _diagonalised(rng, lams, p, [1] * d)
    expected = H.linear_product(lams, p)
    assert H.charpoly(rmat, p) == expected
    assert _minimal_polynomial(coords, p) == expected
    if d > 1:
        # a zero in e_0 S hides that eigenvalue from e_0, and the split
        # then finds too few eigenspaces
        hidden = rng.randrange(d)
        rmat, coords, _ = _diagonalised(
            rng, lams, p, [int(j != hidden) for j in range(d)])
        assert _minimal_polynomial(coords, p) == \
            H.linear_product(lams[:hidden] + lams[hidden + 1:], p)


@pytest.mark.parametrize("seed", range(40))
def test_split_returns_each_eigenspace_in_echelon_form(seed):
    # R = S D S^-1 with repeated eigenvalues and S's first row all ones, as
    # for central characters; split on the whole space, the piece at each
    # eigenvalue, ascending, is _rref of S's columns at that eigenvalue
    rng = random.Random(seed)
    p = rng.choice([7, 13, 31, 331])
    d = rng.randint(2, 8)
    distinct = rng.sample(range(p), rng.randint(1, min(p, d - 1)))
    lams = distinct + [rng.choice(distinct) for _ in range(d - len(distinct))]
    rng.shuffle(lams)
    rmat, _, s = _diagonalised(rng, lams, p, [1] * d)
    mat = [[(t, x) for t, x in enumerate(row) if x] for row in rmat]
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    pieces = _split_like_the_dense_oracle((identity, list(range(d))), mat, p, rng)
    assert pieces == [_rref([[row[j] for row in s] for j in range(d) if lams[j] == lam], p)
                      for lam in sorted(distinct)]


def _split_like_the_dense_oracle(space, mat, p, rng):
    # _split_subspace, asserted to return the pieces of H.dense_split_subspace
    # and to draw from rng as it does
    twin = random.Random()
    twin.setstate(rng.getstate())
    pieces = _split_subspace(space, mat, p, rng)
    assert pieces == H.dense_split_subspace(space, mat, p, twin)
    assert rng.getstate() == twin.getstate()
    return pieces


@pytest.mark.parametrize("name", catalog.names())
def test_split_matches_the_dense_oracle_on_every_split(monkeypatch, name):
    # every split the build makes under seeds 0 and 1, read by column and
    # checked at the non-pivot columns, returns the pieces of the dense
    # split: _mat_vecs images, every column checked, whole rows combined
    _, g, cd, table, _ = catalog.bundle(name)
    dims = []
    monkeypatch.setattr(chartab, "_split_subspace", lambda space, mat, p, rng: (
        dims.append(len(space[0])) or _split_like_the_dense_oracle(space, mat, p, rng)))
    for seed in (0, 1):
        character_table(g, cd, seed=seed)
    # W, the span of the non-linear rows, is split only when it is not a line
    assert dims or sum(d > 1 for d in table.degrees) <= 1


def test_split_refuses_a_subspace_that_is_not_invariant():
    # class 1 of sym_3 holds the transpositions, and C_1 C_1 = 3 C_0 + 3 C_2,
    # so the span of e_0 and e_1 is not invariant under its matrix
    _, g, cd, _, _ = catalog.bundle("sym_3")
    p = choose_dixon_prime(g, cd)
    space = ([[1, 0, 0], [0, 1, 0]], [0, 1])
    with pytest.raises(EigensplitFailure) as info:
        _split_subspace(space, cd.class_matrix(1), p, random.Random(0))
    assert (p, info.value.message) == (7, "subspace not invariant under class matrix")


@pytest.mark.parametrize("name", ["sym_4", "sg_81_3", "sg_250_14"])
def test_split_refuses_a_class_matrix_bent_at_one_non_pivot_column(monkeypatch, name):
    # the first space the build splits, under its class matrix with row j,
    # the first non-pivot column, also counting column piv[0] once more:
    # only the image of basis[0] moves, by e_j, which is 0 at every pivot,
    # so the image keeps its coordinates and leaves the space at column j
    # alone; the dense oracle, which checks every column, refuses it too
    _, g, cd, _, _ = catalog.bundle(name)
    p = choose_dixon_prime(g, cd)
    first = []
    monkeypatch.setattr(chartab, "_split_subspace", lambda space, mat, p, rng: (
        first.append((space, mat)) or _split_subspace(space, mat, p, rng)))
    character_table(g, cd)
    (basis, piv), mat = first[0]
    j = next(c for c in range(cd.n_classes) if c not in piv)
    counts = dict(mat[j])
    counts[piv[0]] = counts.get(piv[0], 0) + 1
    bent = [sorted(counts.items()) if i == j else row for i, row in enumerate(mat)]
    moved = [[c for c, (x, y) in enumerate(zip(v, w)) if x != y]
             for v, w in zip(chartab._mat_vecs(mat, basis, p),
                             chartab._mat_vecs(bent, basis, p))]
    assert moved == [[j]] + [[]] * (len(basis) - 1)
    for split in (_split_subspace, H.dense_split_subspace):
        with pytest.raises(EigensplitFailure) as info:
            split((basis, piv), bent, p, random.Random(0))
        assert info.value.message == "subspace not invariant under class matrix"


def test_split_refuses_an_eigenvalue_without_eigenvector(monkeypatch):
    # sym_4 splits W first by class 1, the double transpositions, whose
    # eigenvalues 3 and -1 on W miss 0, so R - 0 I has full rank
    distinct_roots = chartab._distinct_roots
    monkeypatch.setattr(chartab, "_distinct_roots", lambda f, p, rng:
                        sorted(set(distinct_roots(f, p, rng)) | {0}))
    with pytest.raises(EigensplitFailure, match=r"^eigenvalue without eigenvector "
                       r"\(prime=13, seed=5, indices=\(1,\)\)$"):
        character_table(catalog.build("sym_4"), seed=5)


@pytest.mark.parametrize("q,prime", [
    (5, 31), (7, 337), (11, 331), (13, 547), (17, 3673),
])
def test_psl2_tables_at_large_dixon_primes(monkeypatch, q, prime):
    # no catalog prime exceeds 331; q = 13 and 17 split at p = 547
    # (p - 1 = 2 * 273) and p = 3673 (p - 1 = 2^3 * 459), under the
    # default order bound, and q = 7 and 11 take the q = 3 (mod 4) degrees
    g = H.psl2(q)
    table = character_table(g)
    assert (g.order, table.dixon_prime) == (q * (q * q - 1) // 2, prime)
    assert list(table.degrees) == H.psl2_degrees(q)
    H.full_self_verify(table)
    # splitting by the characteristic polynomial gives the same table
    monkeypatch.setattr(chartab, "_minimal_polynomial", lambda coords, p:
                        H.charpoly([list(col) for col in zip(*coords)], p))
    assert json.dumps(character_table(g, seed=1).to_json_dict()) == \
        json.dumps(table.to_json_dict())


def test_psl2_29_is_proven_without_a_remainder_by_phi_3045(monkeypatch):
    # the values of PSL(2, 29) have conductors 5, 7, 15 and 29, so the
    # exact relations live in Q(zeta_3045); the proof decides them mod a
    # power of p = 6091 and reduces no vector by Phi_3045
    g = H.psl2(29, bound=12180)
    reduced, proving = [], []
    power_basis, self_verify = cyclo.power_basis, chartab._self_verify
    monkeypatch.setattr(cyclo, "power_basis", lambda acc, n: (
        proving and reduced.append(len(acc))) or power_basis(acc, n))
    monkeypatch.setattr(chartab, "_self_verify", lambda table: (
        proving.append(True), self_verify(table), proving.clear()))
    table = character_table(g)
    assert g.order == 12180 and table.dixon_prime == 6091
    assert list(table.degrees) == H.psl2_degrees(29)
    assert math.lcm(*(v.n for r in table.rows for v in r.values)) == 3045
    assert reduced and 3045 not in reduced


def _applied_classes(monkeypatch, g, cd) -> list[int]:
    # the classes whose matrices the split reads, in order; the proof,
    # which reads them again, is left out
    applied = []
    class_matrix, self_verify = ClassData.class_matrix, chartab._self_verify
    monkeypatch.setattr(ClassData, "class_matrix",
                        lambda cd, i: applied.append(i) or class_matrix(cd, i))
    monkeypatch.setattr(chartab, "_self_verify", lambda table: None)
    character_table(g, cd)
    monkeypatch.setattr(ClassData, "class_matrix", class_matrix)
    monkeypatch.setattr(chartab, "_self_verify", self_verify)
    return applied


@pytest.mark.parametrize("name", ["sym_4", "sg_81_3"])
def test_a_scalar_class_matrix_is_refused_where_the_rule_says_it_splits(
        monkeypatch, name):
    # on sym_3 the split applies no matrix, as W is a line
    _, g, cd, _, _ = catalog.bundle(name)
    applied = _applied_classes(monkeypatch, g, cd)
    assert applied and applied == sorted(applied, key=lambda i: (cd.sizes[i], i))
    class_matrix = ClassData.class_matrix
    for bad in applied:
        monkeypatch.setattr(
            ClassData, "class_matrix",
            lambda cd, i, bad=bad: (tuple(((j, 3),) for j in range(cd.n_classes))
                                    if i == bad else class_matrix(cd, i)))
        with pytest.raises(EigensplitFailure) as info:
            character_table(g, cd)
        assert info.value.message == "class matrix left whole a subspace it splits"
        assert info.value.indices == (bad,)


def test_a_pending_subspace_without_pivot_0_is_refused(monkeypatch):
    # without its first basis row, a split piece of dimension 3 or more
    # leaves a pending space whose echelon basis has no pivot at column 0
    _, g, cd, _, _ = catalog.bundle("sg_250_14")
    first = _applied_classes(monkeypatch, g, cd)[0]
    split_subspace = chartab._split_subspace

    def dropped(space, mat, p, rng):
        return [(basis[1:], piv[1:]) if len(basis) > 2 else (basis, piv)
                for basis, piv in split_subspace(space, mat, p, rng)]

    monkeypatch.setattr(chartab, "_split_subspace", dropped)
    with pytest.raises(EigensplitFailure) as info:
        character_table(g, cd)
    assert info.value.message == "pending subspace has no pivot at the identity class"
    assert info.value.indices == (first,)


# --- the linear rows, read off G/G', and the space W left to split ---

def _spy_linear_and_splits(monkeypatch) -> tuple[list, list[int]]:
    # the (coset_of, chars) of each _linear_characters call, and the
    # dimension of each space handed to _split_subspace
    linear, dims = [], []
    linear_characters, split_subspace = chartab._linear_characters, chartab._split_subspace
    monkeypatch.setattr(chartab, "_linear_characters", lambda cd, e: (
        linear.append(linear_characters(cd, e)) or linear[-1]))
    monkeypatch.setattr(chartab, "_split_subspace", lambda space, mat, p, rng: (
        dims.append(len(space[0])) or split_subspace(space, mat, p, rng)))
    return linear, dims


@pytest.mark.parametrize("name", catalog.names("core"))
def test_linear_rows_are_the_characters_of_g_over_its_derived_subgroup(
        monkeypatch, name):
    # the characters read off the cosets of G' are the table's degree-1
    # rows, |G : G'| of them with G' closed from every commutator; only W,
    # of dimension k - |G : G'|, is split, and not at all when it is a line
    _, g, cd, table, _ = catalog.bundle(name)
    derived = H.naive_derived_series(g)
    index = g.order // len(derived[1] if len(derived) > 1 else derived[0])
    e = math.lcm(*cd.element_orders)
    linear_rows = {r.values for r in table.rows if r.degree == 1}
    for seed in (0, 1):
        linear, dims = _spy_linear_and_splits(monkeypatch)
        character_table(g, cd, seed=seed)
        [(coset_of, chars)] = linear
        assert len(chars) == index == len(linear_rows), (name, seed)
        assert {tuple(zeta(e, lam[x]) for x in coset_of) for lam in chars} == linear_rows
        w_dim = cd.n_classes - index
        assert dims[:1] == ([w_dim] if w_dim > 1 else []), (name, seed)
        monkeypatch.undo()


def test_sg_81_3_splits_only_the_six_dimensions_of_w():
    # 27 of the 33 rows are linear
    _, g, cd, _, _ = catalog.bundle("sg_81_3")
    with pytest.MonkeyPatch.context() as monkeypatch:
        linear, dims = _spy_linear_and_splits(monkeypatch)
        character_table(g, cd)
    assert len(linear[0][1]) == 27 and dims[0] == 6


@contextlib.contextmanager
def _ends_within(seconds: int):
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", ["sym_3", "sym_4", "sg_81_3"])
def test_corrupted_generator_products_raise_at_once(name):
    # with every generator's products replaced by the first one's, the
    # generators commute, no class is merged and the cosets of "G'" are
    # the classes, of unequal sizes: refused before any walk over them
    g = catalog.build(name)
    cd = conjugacy_classes(g)
    g._right = (g._right[0],) * len(g._right)
    with _ends_within(20), pytest.raises(EigensplitFailure) as info:
        character_table(g, cd, seed=3)
    err = info.value
    assert err.message.startswith("cosets of G' have sizes [1, ")
    assert (err.prime, err.seed, err.indices) == (choose_dixon_prime(g, cd), 3, ())


@pytest.mark.parametrize("name,moves,message", [
    ("cyclic_4", ((1, 2, 3, 3),), "no power a^n of a generator with n <= 4 lies"),
    ("cyclic_4", ((1, 2, 0, 3),), "a generator's power a^3 is the first"),
    ("cyclic_4", ((1, 0, 3, 2),), "the generators reach 2 of 4 cosets"),
    ("cyclic_4", ((1, 0, 3, 2), (2, 2, 1, 0)), "the cosets a^t S of a generator"),
    ("elab_2_2", ((1, 0, 3, 2), (2, 3, 1, 0)), "lambda(a^2) = 1 mod 2 is not"),
])
def test_generator_moves_that_are_no_group_action_are_refused(
        monkeypatch, name, moves, message):
    # each coset of the trivial G' is one class of size 1; the moves are
    # each generator's action on the cosets, made not to be a group's
    g = catalog.build(name)
    cd = conjugacy_classes(g)
    monkeypatch.setattr(ClassData, "derived_cosets", lambda cd: ((0, 1, 2, 3), moves))
    with _ends_within(20), pytest.raises(EigensplitFailure) as info:
        character_table(g, cd, seed=2)
    assert info.value.message.startswith(message)
    assert (info.value.seed, info.value.indices) == (2, ())


def test_to_json_dict_formats_each_distinct_value_once(monkeypatch):
    _, _, _, table, _ = catalog.bundle("sg_250_14")
    distinct = {v for r in table.rows for v in r.values}
    calls = 0
    display = Cyc.display

    def counting(self):
        nonlocal calls
        calls += 1
        return display(self)

    monkeypatch.setattr(Cyc, "display", counting)
    shown = table.to_json_dict()
    assert calls == len(distinct) == 6
    assert shown["rows"] == [{"degree": r.degree, "values": [v.display() for v in r.values]}
                             for r in table.rows]


@pytest.mark.parametrize("name,patterns", [
    ("sg_250_14", 9), ("sg_81_3", 21), ("sg_147_4", 10),
])
def test_lifts_each_pattern_of_residues_once_per_table(monkeypatch, name, patterns):
    # lifting every (row, class) takes one call each, 4096, 1089 and 361;
    # the table's dict leaves one per distinct pattern
    _, g, cd, _, _ = catalog.bundle(name)
    calls = _count_calls(monkeypatch, "_multiplicities")
    character_table(g, cd)
    assert calls["_multiplicities"] == patterns


def test_a_failing_pattern_is_met_where_the_full_lift_meets_it(monkeypatch):
    # corrupt one pattern of residues that sg_250_14 meets at many classes
    # of several rows, first after other rows were lifted: the build stops
    # at its first (row, class), as a lift without the table's dict would
    _, g, cd, _, _ = catalog.bundle("sg_250_14")
    lift_row, multiplicities = chartab._lift_row, chartab._multiplicities
    met: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    lifts = 0

    def recording(theta, *args):
        nonlocal lifts
        for i in range(cd.n_classes):
            met.setdefault(tuple(theta[c] for c in cd.powers(i)), []).append((lifts, i))
        lifts += 1
        return lift_row(theta, *args)

    monkeypatch.setattr(chartab, "_lift_row", recording)
    character_table(g, cd)
    bad, where = next((key, where) for key, where in met.items()
                      if where[0][0] > 0 and len({n for n, _ in where}) > 1
                      and len({i for _, i in where}) > 1)
    corrupted = 0

    def bumped(theta_pow, p, wm_inv):
        nonlocal corrupted
        mus = multiplicities(theta_pow, p, wm_inv)
        if tuple(theta_pow) == bad:
            corrupted += 1
            mus[0] += 1
        return mus

    monkeypatch.setattr(chartab, "_multiplicities", bumped)
    monkeypatch.setattr(chartab, "_lift_row", lift_row)
    with pytest.raises(EigensplitFailure) as cached:
        character_table(g, cd)
    assert corrupted == 1
    monkeypatch.setattr(chartab, "_lift_row", lambda *args: lift_row(*args[:-1], {}))
    with pytest.raises(EigensplitFailure) as full:
        character_table(g, cd)
    assert str(cached.value) == str(full.value)
    assert cached.value.indices[1] == where[0][1]
    assert cached.value.message.startswith(f"multiplicities at class {where[0][1]} sum")


def _orbit_constant(m: int, rng: random.Random) -> list[int]:
    # one multiplicity per set {j : gcd(j, m) = g}
    by_gcd = {g: rng.randrange(6) for g in range(1, m + 1) if m % g == 0}
    return [by_gcd[math.gcd(j, m)] for j in range(m)]


def test_moebius_sums_agree_with_the_cyclotomic_reduction():
    # sum_j mu[j] zeta_m^j for mu constant on each set {j : gcd(j, m) = g}
    # is the integer sum_g mu[g] mu(m/g); any other mu is refused
    rng = random.Random(31)
    for m in range(1, 61):
        for _ in range(5):
            mus = _orbit_constant(m, rng)
            value = chartab._moebius_sum(mus)
            assert Cyc.from_rational(value) == \
                Cyc.from_exponents(m, dict(enumerate(mus))), (m, mus)
            j = next((j for j in range(2, m) if math.gcd(j, m) == 1), None)
            if j is not None:   # the set of the units mod m has 1 and j
                mus[j] += 1
                assert chartab._moebius_sum(mus) is None, (m, mus)


def test_only_orbit_constant_multiplicities_take_the_moebius_sum(monkeypatch):
    # at m = 6, p = 7, w = 3: zeta + zeta^4 = 0 is rational, but its
    # multiplicities e_1 + e_4 are not constant on {1, 5} and {2, 4}, so
    # it is reduced by from_exponents; zeta + zeta^5 = 1 is a Moebius sum
    reduced = []
    from_exponents = Cyc.from_exponents
    monkeypatch.setattr(Cyc, "from_exponents", staticmethod(
        lambda n, terms: reduced.append(dict(terms)) or from_exponents(n, terms)))
    assert chartab._moebius_sum([0, 1, 0, 0, 1, 0]) is None
    for exps, expected, via in [((1, 4), 0, [{1: 1, 4: 1}]), ((1, 5), 1, [])]:
        theta = [sum(pow(3, j * t, 7) for j in exps) % 7 for t in range(6)]
        reduced.clear()
        values, kernel, centre = chartab._lift_row(
            theta, 2, [tuple(range(6))], 7, 6, pow(3, -1, 7), {}, {})
        assert values == [expected] and (kernel, centre) == (0, 0)
        assert reduced == via, exps


def test_cold_tables_find_roots_by_the_path_their_prime_sets(monkeypatch):
    # every core entry and sg_250_14 have p <= 421 and evaluate their
    # polynomials of degree 3 and up; PSL(2, 17), p = 3673, splits them
    calls = _count_calls(monkeypatch, "_evaluated_roots", "_split_roots", "_ppowmod")
    for name in catalog.names("core") + ["sg_250_14"]:
        character_table(catalog.build(name))
    assert calls["_evaluated_roots"] > 0
    assert calls["_split_roots"] == calls["_ppowmod"] == 0
    table = character_table(H.psl2(17))
    assert table.dixon_prime == 3673
    assert calls["_split_roots"] > 0 and calls["_ppowmod"] > 0


def test_self_verify_applies_one_class_algebra_element(monkeypatch):
    # the proof combines a few classes into one element M and applies M
    # once, to every row, mod a power of the Dixon prime; here it combines
    # 7, 4 and 5 classes where the split applies 6, 2 and 4, and after the
    # split it builds only the ones the split did not apply
    # (test_class_matrices_are_built_and_applied_only_where_they_split);
    # alone, on a fresh ClassData, it builds the matrices it combines
    for name, combined in (("sg_250_14", 7), ("sg_81_3", 4), ("sg_147_4", 5)):
        _, g, _, table, _ = catalog.bundle(name)
        cd = conjugacy_classes(g)
        fresh = CharTable(g, cd, table.rows, table.dixon_prime)
        products = []
        mat_vecs = chartab._mat_vecs
        monkeypatch.setattr(chartab, "_mat_vecs", lambda mat, vecs, p:
                            products.append((len(vecs), p)) or mat_vecs(mat, vecs, p))
        _self_verify(fresh)
        assert len(cd._matrices) == combined, name
        [(vectors, modulus)] = products
        assert vectors == cd.n_classes
        assert modulus > table.dixon_prime
        assert cyclo.is_p_power(modulus, table.dixon_prime)
        monkeypatch.undo()


@pytest.mark.parametrize("name,swap,source", [("sym_4", (1, 3), 2),
                                              ("cyclic_6", (3, 4), 1)])
def test_self_verify_uses_no_map_that_moves_sizes(name, swap, source):
    # the last row made the image of a source row under a swap of two
    # columns, of sizes 3 and 8 on sym_4 and of sizes 1 and 1 on cyclic_6
    # (whose inverse classes are 2 and 5), is refused by the proof and by
    # the full check
    _, g, cd, table, _ = catalog.bundle(name)
    k = cd.n_classes
    perm = list(range(k))
    perm[swap[0]], perm[swap[1]] = swap[1], swap[0]
    values = table.rows[source].values
    bad = _with_values(table, {(k - 1, i): values[perm[i]] for i in range(k)})
    with pytest.raises(OrthogonalityFailure) as info:
        _self_verify(bad)
    # on sym_4 the last row (degree 3) takes the source row's degree 2 at
    # the identity
    assert info.value.relation == ("galois" if name == "cyclic_6" else "degrees")
    _oracle_failure(bad)


def _swapped(table: CharTable, i: int, j: int) -> CharTable:
    """table with columns i and j swapped, and their inverse columns."""
    cd = table.classes
    perm = list(range(cd.n_classes))
    for a, b in ((i, j), (cd.inverse_class[i], cd.inverse_class[j])):
        perm[a], perm[b] = b, a
    return _with_values(table, {(r, t): row.values[perm[t]]
                                for r, row in enumerate(table.rows)
                                for t in range(cd.n_classes)})


@pytest.mark.parametrize("name", ["cyclic_5", "cyclic_7", "cyclic_9", "elab_2_3",
                                  "sym_6"])
def test_self_verify_rejects_swapped_columns_of_one_size_and_order(name):
    # swapping columns 1 and 2, of equal class size and element order,
    # and their inverse columns with them, keeps every relation of the
    # full check, but the rows are no longer the group's characters, and
    # the class algebra tells
    _, g, cd, table, _ = catalog.bundle(name)
    i, j = 1, 2
    assert cd.sizes[i] == cd.sizes[j]
    assert cd.element_orders[i] == cd.element_orders[j]
    bad = _swapped(table, i, j)
    assert {r.values for r in bad.rows} != {r.values for r in table.rows}
    H.full_self_verify(bad)
    with pytest.raises(OrthogonalityFailure) as info:
        _self_verify(bad)
    assert info.value.relation == "class_algebra"


@pytest.mark.parametrize("name", catalog.names("core"))
def test_self_verify_rejects_every_swap_of_one_size_and_order(name):
    # every swap of two columns of equal size and element order, with
    # their inverse columns, that changes the row set is refused; 1552
    # such swaps over the core entries
    _, g, cd, table, _ = catalog.bundle(name)
    k = cd.n_classes
    rows = {r.values for r in table.rows}
    for i, j in itertools.combinations(range(1, k), 2):
        if (cd.sizes[i], cd.element_orders[i]) != (cd.sizes[j], cd.element_orders[j]):
            continue
        bad = _swapped(table, i, j)
        if {r.values for r in bad.rows} == rows:
            continue
        with pytest.raises(OrthogonalityFailure):
            _self_verify(bad)

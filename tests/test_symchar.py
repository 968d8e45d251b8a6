"""Symmetric-group character values via the border-strip recursion."""

import math
from fractions import Fraction

import pytest

from charval import catalog
from charval.symchar import (
    MAX_N,
    SizeMismatch,
    _mn,
    clear_memo,
    conjugate_partition,
    hook_degree,
    is_self_conjugate,
    mn_value,
    partitions,
)
from tests import helpers as H

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]  # p(0)..p(10)


def test_partition_generator_counts_and_shape():
    for n, expected in enumerate(PARTITION_COUNTS):
        parts = list(partitions(n))
        assert len(parts) == expected
        assert len(set(parts)) == expected
        for lam in parts:
            assert sum(lam) == n
            assert all(a >= b for a, b in zip(lam, lam[1:]))
    assert all(max(lam) <= 3 for lam in partitions(7, max_part=3) if lam)


def test_conjugate_partition():
    assert conjugate_partition((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate_partition((1, 1, 1)) == (3,)
    assert is_self_conjugate((3, 2, 1))
    assert is_self_conjugate((2, 2))
    assert not is_self_conjugate((3, 1))
    for n in range(1, 9):
        for lam in partitions(n):
            assert conjugate_partition(conjugate_partition(lam)) == lam


def test_hook_degrees_sum_to_factorial():
    for n in range(1, 8):
        assert sum(hook_degree(lam) ** 2 for lam in partitions(n)) == \
            math.factorial(n)
    assert hook_degree((5,)) == 1
    assert hook_degree((1, 1, 1, 1)) == 1
    assert hook_degree((6, 1)) == 6
    assert hook_degree((2, 2)) == 2


def test_identity_column_matches_hook_degrees():
    for n in range(1, 9):
        ident = (1,) * n
        for lam in partitions(n):
            assert mn_value(lam, ident) == hook_degree(lam)


def test_sign_twist_under_conjugation():
    for n in range(1, 8):
        for lam in partitions(n):
            conj = conjugate_partition(lam)
            for rho in partitions(n):
                sign = (-1) ** (n - len(rho))
                assert mn_value(conj, rho) == sign * mn_value(lam, rho)


def test_trivial_and_sign_rows():
    for n in range(1, 10):
        for rho in partitions(n):
            assert mn_value((n,), rho) == 1
            assert mn_value((1,) * n, rho) == (-1) ** (n - len(rho))


def test_external_square_oracle_spot():
    assert mn_value((13, 1, 1), (9, 4, 2)) == 0
    for n in (10, 15):
        lam = (n - 2, 1, 1)
        for rho in partitions(n):
            assert mn_value(lam, rho) == H.ext_square_value(n, rho), rho


def test_rows_match_dixon_tables():
    """Row value multisets agree with the general-purpose engine."""
    for n, name in ((3, "sym_3"), (4, "sym_4"), (5, "sym_5"), (6, "sym_6"),
                    (7, "sym_7")):
        _, g, cd, table, _ = catalog.bundle(name)
        types = [H.cycle_type_of(g.elements[r]) for r in cd.reps]
        strip_rows = {tuple(mn_value(lam, rho) for rho in types)
                      for lam in partitions(n)}
        dixon_rows = {tuple(v.as_int() for v in row.values)
                      for row in table.rows}
        assert strip_rows == dixon_rows, name


def test_alternating_rows_match_non_self_conjugate_pairs():
    """Each pair {lam, lam'} of non-self-conjugate partitions restricts to
    one irreducible row of alt_n, with the same values on split classes."""
    for n, name in ((4, "alt_4"), (5, "alt_5"), (6, "alt_6"), (7, "alt_7")):
        _, g, cd, table, _ = catalog.bundle(name)
        types = [H.cycle_type_of(g.elements[r]) for r in cd.reps]
        strip_rows = set()
        for lam in partitions(n):
            if is_self_conjugate(lam):
                continue
            row = tuple(mn_value(lam, rho) for rho in types)
            assert row == tuple(mn_value(conjugate_partition(lam), rho)
                                for rho in types), (name, lam)
            strip_rows.add(row)
        pairs = sum(1 for lam in partitions(n) if not is_self_conjugate(lam)) // 2
        dixon_rows = {tuple(v.as_int() for v in row.values)
                      for row in table.rows
                      if all(v.is_integer() for v in row.values)}
        assert len(strip_rows) == pairs, name
        assert strip_rows <= dixon_rows, name


def _diagonal_hooks(lam) -> tuple[int, ...]:
    conj = conjugate_partition(lam)
    return tuple(lam[i] + conj[i] - 2 * i - 1 for i in range(len(lam)) if lam[i] > i)


def test_alternating_rows_split_on_self_conjugate_partitions():
    """A self-conjugate lam with diagonal hooks h_1 > ... > h_d splits
    into two rows of alt_n that equal chi_lam / 2 off the two classes of
    cycle type (h_1, ..., h_d) and swap their values on those two.  Each
    row's two values there have sum eps and product
    (1 - eps * h_1 * ... * h_d) / 4, eps = (-1)^((n - d) / 2) (James and
    Kerber, The Representation Theory of the Symmetric Group, 2.5).  The
    product is checked in Cyc, with no square root.  A row constant on
    the two classes is no constituent: the trivial row of alt_4 also
    equals chi_(2,2) / 2 off them."""
    seen = []
    for n, name in ((4, "alt_4"), (5, "alt_5"), (6, "alt_6"), (7, "alt_7")):
        _, g, cd, table, _ = catalog.bundle(name)
        types = [H.cycle_type_of(g.elements[r]) for r in cd.reps]
        for lam in partitions(n):
            if not is_self_conjugate(lam):
                continue
            hooks = _diagonal_hooks(lam)
            eps = (-1) ** ((n - len(hooks)) // 2)
            assert mn_value(lam, hooks) == eps, (name, lam)
            split = [i for i, rho in enumerate(types) if rho == hooks]
            assert len(split) == 2, (name, lam)
            halves = [tuple(row.values[i] for i in split) for row in table.rows
                      if row.values[split[0]] != row.values[split[1]]
                      and all(row.values[i] == Fraction(mn_value(lam, rho), 2)
                              for i, rho in enumerate(types) if i not in split)]
            assert len(halves) == 2 and halves[0] == halves[1][::-1], (name, lam)
            product = Fraction(1 - eps * math.prod(hooks), 4)
            for a, b in halves:
                assert a + b == eps and a * b == product, (name, lam)
            seen.append((lam, product))
    assert seen == [((2, 2), 1), ((3, 1, 1), -1), ((3, 2, 1), -1),
                    ((4, 1, 1, 1), 2)]


def test_size_mismatch_and_validation():
    with pytest.raises(SizeMismatch):
        mn_value((3, 1), (2, 2, 1))
    with pytest.raises(ValueError):
        hook_degree((1, 3))  # not weakly decreasing
    with pytest.raises(ValueError):
        mn_value((3, 0), (3,))  # zero part
    with pytest.raises(ValueError):
        mn_value((-2,), (-2,))


def test_values_up_to_the_size_bound():
    ones = (1,) * MAX_N
    assert mn_value((MAX_N - 1, 1), ones) == hook_degree((MAX_N - 1, 1)) == MAX_N - 1
    assert mn_value(ones, (MAX_N,)) == (-1) ** (MAX_N - 1)
    for lam, rho in (((MAX_N + 1,), (1,) * (MAX_N + 1)), ((600,), (1,) * 600)):
        with pytest.raises(ValueError, match=f"above {MAX_N}$"):
            mn_value(lam, rho)


def test_all_ones_cycle_type_is_read_off_the_hook_lengths():
    # the staircase (9, ..., 1) against 1^45 walked 16 796 subdiagrams
    # through the border-strip recursion; it is the hook length degree
    stair = tuple(range(9, 0, -1))
    clear_memo()
    assert mn_value(stair, (1,) * MAX_N) == hook_degree(stair)
    assert _mn.cache_info().currsize == 1


def test_memo_reset_is_transparent():
    before = mn_value((4, 4, 2), (3, 3, 2, 1, 1))
    clear_memo()
    assert mn_value((4, 4, 2), (3, 3, 2, 1, 1)) == before

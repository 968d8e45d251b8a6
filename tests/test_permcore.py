"""Permutation groups: enumeration, classes, quotients, structure."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charval import catalog, permcore, verify
from charval.chartab import character_table
from charval.cyclo import is_p_power
from charval.permcore import (
    MAX_DEGREE,
    InvariantViolation,
    NotNormal,
    OrderBoundExceeded,
    ParseError,
    PermGroup,
    Permutation,
    PointOutOfRange,
    RepeatedPoint,
    centralizes,
    conjugacy_classes,
    derived_length,
    derived_series,
    direct_product,
    frobenius_kernel,
    is_abelian_quotient,
    is_abelian_section,
    is_cyclic_quotient,
    is_extraspecial,
    large_normal_masks,
    mask_size,
    minimal_normal_masks,
    normal_masks,
    normal_subgroups,
    parse_cycle_text,
    parse_group_file,
    perm_from_cycles,
    quotient_group,
    socle,
    structure_flags,
)
from tests import helpers as H

perms8 = st.permutations(range(8)).map(lambda t: Permutation(tuple(t)))


# -- permutation algebra -----------------------------------------------------


@given(perms8, perms8, perms8)
def test_permutation_group_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * a.inverse() == Permutation.identity(8)
    assert (a * b).inverse() == b.inverse() * a.inverse()


@given(perms8, st.integers(min_value=-6, max_value=12))
def test_power_matches_iteration(a, k):
    expected = Permutation.identity(8)
    step = a if k >= 0 else a.inverse()
    for _ in range(abs(k)):
        expected = expected * step
    assert a ** k == expected


@given(perms8)
def test_order_annihilates(a):
    assert a ** a.order() == Permutation.identity(8)
    assert all(a ** k != Permutation.identity(8)
               for k in range(1, a.order()))


def test_composition_is_left_to_right():
    a = parse_cycle_text("(1 2)", 3)
    b = parse_cycle_text("(2 3)", 3)
    assert (a * b).cycle_string() == "(1 3 2)"  # apply a first, then b


@given(perms8)
def test_cycles_reconstruct_permutation(a):
    assert perm_from_cycles(a.cycles(), 8) == a
    assert parse_cycle_text(a.cycle_string(), 8) == a


def test_cycle_validation_errors():
    with pytest.raises(RepeatedPoint):
        perm_from_cycles([(0, 1), (1, 2)], 4)
    with pytest.raises(PointOutOfRange):
        perm_from_cycles([(0, 5)], 4)
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permutation_refuses_images_that_are_not_integers():
    # 1.0 == 1, so the image check alone passed floats through, and
    # cycle_string then failed on a float index
    for images in ((1.0, 0.0, 2.0), (0, 1.0), ("0",), (None,)):
        with pytest.raises(ValueError):
            Permutation(images)
    assert Permutation((True, False)).cycle_string() == "(1 2)"
    assert Permutation((1, 0), _check=False).images == (1, 0)


# -- group files -------------------------------------------------------------

S4_FILE = """\
# symmetric group on four points
degree 4
(1 2)
(1 2 3 4)  # a 4-cycle
"""


def test_parse_group_file_smoke():
    g = parse_group_file(S4_FILE)
    assert g.order == 24 and g.degree == 4


def test_parse_group_file_identity_only():
    g = parse_group_file("degree 3\n")
    assert g.order == 1


@pytest.mark.parametrize("text,line", [
    ("(1 2)\ndegree 4\n", 2),  # header after a generator
    ("degree 0\n", 1),         # degree too small
    ("degree 4\n(1 2\n", 2),   # unclosed cycle
    ("degree 4\n(1 5)\n", 2),  # point out of range
    ("degree 4\n(1 1)\n", 2),  # repeated point
    ("degree 4\n(1 x)\n", 2),  # non-numeric point
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_group_file(text)
    assert exc.value.line == line


def test_missing_header_is_an_error():
    with pytest.raises(ParseError):
        parse_group_file("# only a comment\n")


def test_header_less_file_takes_the_largest_point_as_degree():
    g = parse_group_file("# S4 without a header\n(1 2)\n(1 2 3 4)\n")
    assert g.order == 24 and g.degree == 4
    assert parse_group_file("(1 3)\n").degree == 3


def test_header_less_file_reports_the_bad_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_group_file("(1 2)\n  (1 x)\n")
    assert (exc.value.line, exc.value.column) == (2, 6)
    with pytest.raises(ParseError) as exc:
        parse_group_file("(1 2)\n(3 3)\n")
    assert (exc.value.line, exc.value.column) == (2, 4)
    with pytest.raises(ParseError) as exc:
        parse_group_file("degree 4\n(1 2)\n (2 5)\n")
    assert (exc.value.line, exc.value.column) == (3, 5)


def test_degree_and_points_past_the_bound_are_refused_where_they_stand():
    with pytest.raises(ParseError, match=f"degree {MAX_DEGREE + 1} above") as exc:
        parse_group_file(f"# header\n degree {MAX_DEGREE + 1}\n(1 2)\n")
    assert (exc.value.line, exc.value.column) == (2, 9)
    with pytest.raises(ParseError, match="degree 1000000000 above") as exc:
        parse_group_file("(1 2)\n  (3 4)(5 1000000000)\n")
    assert (exc.value.line, exc.value.column) == (2, 11)
    assert parse_group_file(f"(1 {MAX_DEGREE})\n").degree == MAX_DEGREE


@st.composite
def group_file_like_text(draw):
    """Lines of the group-file grammar, some malformed: bad headers,
    points out of range, repeated, non-numeric, at MAX_DEGREE or past it,
    unclosed cycles and comments."""
    point = st.sampled_from([str(i) for i in range(1, 13)] + ["0", "-1", "x", ""]
                            + [str(MAX_DEGREE), str(MAX_DEGREE + 1), str(10 ** 9)])
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["degree ", "degree", "degree  ", "# "]))
                     + draw(point))
    for _ in range(draw(st.integers(0, 3))):
        cycles = []
        for _ in range(draw(st.integers(0, 3))):
            points = draw(st.lists(point, max_size=4))
            sep = draw(st.sampled_from([" ", " ", ",", "  "]))
            cycles.append("(" + sep.join(points) + draw(st.sampled_from([")", ")", ""])))
        lines.append(draw(st.sampled_from(["", " "])).join(cycles)
                     + draw(st.sampled_from(["", "", "  # note", "#"])))
    return "\n".join(lines)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(st.text(max_size=6), group_file_like_text()))
def test_group_file_parses_or_raises_a_typed_error(text):
    try:
        group = parse_group_file(text, bound=200)
    except (ParseError, ValueError, OrderBoundExceeded):
        return
    assert group.order <= 200 and group.elements[0].is_identity()


def test_cycle_text_errors_keep_their_types_and_carry_the_column():
    with pytest.raises(RepeatedPoint) as exc:
        parse_cycle_text("(1 2)(2 3)", 4)
    assert exc.value.column == 7
    with pytest.raises(PointOutOfRange) as exc:
        parse_cycle_text("  (1 9)", 4)
    assert exc.value.column == 6


# -- enumeration -------------------------------------------------------------


def test_closure_matches_naive_oracle():
    gens = [parse_cycle_text("(1 2)", 4), parse_cycle_text("(1 2 3 4)", 4)]
    g = PermGroup.from_generators(gens)
    assert [e.images for e in g.elements] == H.naive_closure(gens, 4, 24)[0]
    assert g.elements[0].is_identity()


def _random_generators(seed: int) -> tuple[list[Permutation], int]:
    """Degree 1 + seed % 8 and zero to three generators, each moving a
    random subset of the points among themselves."""
    rng = random.Random(seed)
    degree = 1 + seed % 8
    gens = []
    for _ in range(rng.randrange(4)):
        support = rng.sample(range(degree), rng.randint(1, degree))
        images = list(range(degree))
        for p, q in zip(support, rng.sample(support, len(support))):
            images[p] = q
        gens.append(Permutation(images))
    return gens, degree


def _assert_closure_is_naive_bfs(g: PermGroup, gens, degree: int) -> None:
    # the same elements in the same order, the same index and right tables,
    # and the order bound met exactly: order closes, order - 1 raises
    images, index, right = H.naive_closure(gens, degree, g.order)
    assert [e.images for e in g.elements] == images
    assert len(g.elements) == g.order
    assert [g.elements[i].images for i in range(g.order)] == images
    assert g.elements[-1].images == images[-1]
    assert g._index == index
    assert list(g._right) == right
    assert PermGroup.from_generators(gens, degree=degree, bound=g.order).order == g.order
    if g.order > 1:
        message = f"^group order exceeds bound {g.order - 1}$"
        with pytest.raises(OrderBoundExceeded, match=message):
            PermGroup.from_generators(gens, degree=degree, bound=g.order - 1)
        with pytest.raises(OrderBoundExceeded, match=message):
            H.naive_closure(gens, degree, g.order - 1)


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_closures_are_the_naive_bfs(name):
    g = catalog.build(name)
    _assert_closure_is_naive_bfs(g, list(g.generators), g.degree)


@pytest.mark.parametrize("seed", range(48))
def test_random_closures_are_the_naive_bfs(seed):
    gens, degree = _random_generators(seed)
    g = PermGroup.from_generators(gens, degree=degree, bound=40320)
    _assert_closure_is_naive_bfs(g, gens, degree)


@pytest.mark.parametrize("seed", range(16))
def test_products_match_naive_composition_on_random_pairs(seed):
    rng = random.Random(seed)
    gens, degree = _random_generators(seed)
    g = PermGroup.from_generators(gens, degree=degree, bound=40320)
    for _ in range(40):
        a, b = (Permutation(rng.sample(range(degree), degree)) for _ in range(2))
        assert (a * b).images == H.naive_product(a.images, b.images)
        i, j = rng.randrange(g.order), rng.randrange(g.order)
        ai, bj = g.elements[i].images, g.elements[j].images
        assert g.elements[g.mult_index(i, j)].images == H.naive_product(ai, bj)


@pytest.mark.parametrize("name", catalog.names())
def test_products_match_naive_composition_on_catalog_generators(name):
    g = catalog.build(name)
    gens = [g.elements[0], *g.generators]
    indices = [0, *g.generator_indices()]
    for a, i in zip(gens, indices):
        for b, j in zip(gens, indices):
            product = H.naive_product(a.images, b.images)
            assert (a * b).images == product
            assert g.elements[g.mult_index(i, j)].images == product


def _count_permutations(monkeypatch) -> list[int]:
    count = [0]
    init = Permutation.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Permutation, "__init__", counting)
    return count


def test_enumeration_wraps_no_element(monkeypatch):
    # the closure keeps image tuples; a Permutation is built per access
    s7 = catalog.build("sym_7")
    text = "degree 7\n" + "".join(f"{g.cycle_string()}\n" for g in s7.generators)
    count = _count_permutations(monkeypatch)
    g = parse_group_file(text, bound=5040)
    assert g.order == 5040 and count[0] == len(s7.generators)
    count[0] = 0
    assert PermGroup.from_generators(g.generators, bound=5040).order == 5040
    assert count[0] == 0
    cd = conjugacy_classes(g)
    assert count[0] == 0
    reps = [g.elements[r] for r in cd.reps]
    assert count[0] == len(reps) == cd.n_classes
    assert [p.images for p in reps] == [s7.elements[r].images for r in cd.reps]


def test_elements_view_is_read_only_and_bounded():
    g = catalog.build("sym_4")
    with pytest.raises(IndexError):
        g.elements[g.order]
    with pytest.raises(IndexError):
        g.elements[-g.order - 1]
    assert g.elements[-g.order] == g.elements[0] == Permutation.identity(4)
    with pytest.raises(TypeError):
        g.elements[0] = Permutation.identity(4)
    with pytest.raises(TypeError):
        g.elements[1:3]


def test_enumeration_order_is_bfs():
    gens = [parse_cycle_text("(1 2 3)", 3)]
    g = PermGroup.from_generators(gens)
    assert [e.cycle_string() for e in g.elements] == \
        ["()", "(1 2 3)", "(1 3 2)"]


def test_order_bound_is_enforced():
    gens = [parse_cycle_text("(1 2)", 4), parse_cycle_text("(1 2 3 4)", 4)]
    with pytest.raises(OrderBoundExceeded):
        PermGroup.from_generators(gens, bound=23)


def test_mixed_degrees_rejected():
    with pytest.raises(ValueError):
        PermGroup.from_generators([Permutation.identity(3),
                                   Permutation.identity(4)])


# -- conjugacy classes -------------------------------------------------------


@pytest.mark.parametrize("name", ["sym_4", "alt_4", "dihedral_10", "q8",
                                  "cyclic_12", "sg_21_1"])
def test_classes_match_naive_partition(name):
    _, g, cd, _, _ = catalog.bundle(name)
    assert {frozenset(c) for c in cd.classes} == H.naive_conjugacy_partition(g)


@pytest.mark.parametrize("name", ["sym_4", "alt_5", "frob_3k_2_2", "sg_27_3"])
def test_class_size_invariants(name):
    _, g, cd, _, _ = catalog.bundle(name)
    assert sum(cd.sizes) == g.order
    assert all(g.order % s == 0 for s in cd.sizes)
    assert cd.classes[0] == (0,)  # identity class first
    keys = list(zip(cd.element_orders, cd.sizes))
    assert keys == sorted(keys)  # canonical class order


def test_centralizer_matches_orbit_stabilizer():
    _, g, cd, _, _ = catalog.bundle("sym_4")
    for i, cls in enumerate(cd.classes):
        assert H.centralizer_size(g, cd.reps[i]) * cd.sizes[i] == g.order
        assert H.centralizer_size(g, cd.reps[i]) == \
            sum(1 for x in range(g.order)
                if g.mult_index(x, cd.reps[i]) == g.mult_index(cd.reps[i], x))


def test_power_class_tracks_element_powers():
    _, g, cd, _, _ = catalog.bundle("cyclic_12")
    gen = next(i for i in range(1, cd.n_classes)
               if cd.element_orders[i] == 12)
    seen = {cd.power_class(gen, t) for t in range(12)}
    assert len(seen) == 12  # cyclic table columns hit every class


def test_inverse_class_is_an_involution():
    _, g, cd, _, _ = catalog.bundle("sg_21_1")
    for i in range(cd.n_classes):
        assert cd.inverse_class[cd.inverse_class[i]] == i


# -- products by a generator, read off the enumeration ----------------------


def _assert_matches_element_level_oracle(g: PermGroup, cd) -> None:
    oracle = H.naive_class_data(g)
    assert {key: getattr(cd, key) for key in oracle} == oracle
    assert [g.inverse_index(x) for x in range(g.order)] == H.naive_inverses(g)
    for i in range(cd.n_classes):
        mat = cd.class_matrix(i)
        assert mat == tuple(tuple((t, a) for t, a in enumerate(row) if a)
                            for row in H.naive_product_rows(cd, i)), i
        assert cd.class_matrix(i) is mat, i


@pytest.mark.parametrize("name", catalog.names())
def test_classes_and_products_match_the_element_level_oracle(name):
    _, g, cd, _, _ = catalog.bundle(name)
    _assert_matches_element_level_oracle(g, cd)


@pytest.mark.parametrize("name", [n for n in catalog.names()
                                  if catalog.entry(n).order <= 200])
def test_left_mult_is_mult_index(name):
    g = catalog.build(name)
    for a in range(g.order):
        assert g.left_mult(a) == [g.mult_index(a, y) for y in range(g.order)], a


def _cycles(*texts: str, degree: int) -> list[Permutation]:
    return [parse_cycle_text(t, degree) for t in texts]


def _sym_4_over_klein_four() -> PermGroup:
    _, sym_4, _, table, _ = catalog.bundle("sym_4")
    return quotient_group(sym_4, next(n for n in normal_subgroups(table) if len(n) == 4))


_EDGE_GROUPS = {
    "trivial_degree_1": lambda: PermGroup.from_generators([Permutation((0,))], degree=1),
    "identity_only": lambda: PermGroup.from_generators([Permutation.identity(4)]),
    "identity_among": lambda: PermGroup.from_generators(
        [Permutation.identity(4), *_cycles("(1 2 3 4)", "(1 2)", degree=4)]),
    "repeated": lambda: PermGroup.from_generators(
        _cycles("(1 2)", "(1 2 3 4 5)", "(1 2)", "(1 2 3 4 5)", degree=5)),
    "three_generators": lambda: catalog.build("sg_81_3"),
    "quotient": _sym_4_over_klein_four,
    # S4 whose generator (1 2 3 4) is number 299, past what a byte holds
    "past_255_generators": lambda: parse_group_file(
        "degree 4\n" + "(1 2)\n" * 299 + "(1 2 3 4)\n"),
}


@pytest.mark.parametrize("name", list(_EDGE_GROUPS))
def test_tables_hold_on_edge_case_generator_lists(name):
    g = _EDGE_GROUPS[name]()
    for a in range(g.order):
        assert g.left_mult(a) == [g.mult_index(a, y) for y in range(g.order)], a
    _assert_matches_element_level_oracle(g, conjugacy_classes(g))


def _assert_plan_is_the_bfs_tree(g: PermGroup) -> None:
    # the recorded (pos, s) of each j >= 1 is the first pair, in (pos, s)
    # order, with right[s][pos] == j, and pos < j
    first: dict[int, tuple[int, int]] = {}
    for pos in range(g.order):
        for s, row in enumerate(g._right):
            first.setdefault(row[pos], (pos, s))
    tree = list(zip(g._parents, g._via))
    assert tree == [first[j] for j in range(1, g.order)]
    assert all(pos < j for j, (pos, _) in enumerate(tree, start=1))
    for a in {0, 1 % g.order, g.order - 1}:
        assert g.left_mult(a) == H.scanned_replay(g, [a], g._right), a
    lefts = [g.left_mult(g._generator_inverse(s)) for s in range(len(g._right))]
    assert g._inverses() == H.scanned_replay(g, [0], lefts)


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_closures_record_the_bfs_tree(name):
    _assert_plan_is_the_bfs_tree(catalog.build(name))


@pytest.mark.parametrize("name", list(_EDGE_GROUPS))
def test_edge_case_closures_record_the_bfs_tree(name):
    _assert_plan_is_the_bfs_tree(_EDGE_GROUPS[name]())


def test_classes_and_products_make_no_element_products(monkeypatch):
    # the generator products come from the enumeration; after it, classes,
    # inverses, every class product and the cosets of G' are integer lookups
    g = parse_group_file("degree 7\n(1 2)\n(1 2 3 4 5 6 7)\n", bound=5040)
    calls = {"mult_index": 0, "mul": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(PermGroup, "mult_index",
                        counting("mult_index", PermGroup.mult_index))
    monkeypatch.setattr(Permutation, "__mul__", counting("mul", Permutation.__mul__))
    cd = conjugacy_classes(g)
    mats = [cd.class_matrix(i) for i in range(cd.n_classes)]
    assert (cd.n_classes, len(mats)) == (15, 15)
    coset_of, moves = cd.derived_cosets()
    assert (max(coset_of), len(moves)) == (1, 2)
    assert calls == {"mult_index": 0, "mul": 0}


@pytest.mark.parametrize("i", [0, 1, 2, 4])
def test_class_matrix_refuses_a_count_its_class_size_does_not_divide(i):
    # on sym_4 (class sizes 1, 3, 6, 8, 6) every column of every class
    # matrix has a nonzero count, and a count times |C_i| is at most 8 * 8,
    # so class 3 given size 997 divides none of them
    cd = conjugacy_classes(catalog.build("sym_4"))
    cd.sizes = cd.sizes[:3] + (997,) + cd.sizes[4:]
    with pytest.raises(InvariantViolation, match="not divisible by class size 997$"):
        cd.class_matrix(i)
    assert cd._matrices == {}


def test_power_class_multiplies_once_per_new_power(monkeypatch):
    # the first call for a class reads all m powers of its representative
    # with m - 2 products, 1286 over the core entries; one binary power
    # per (class, exponent) took 6361 products in a cold `verify --all`
    # pass, which now makes these 1286 and no other
    calls = 0
    mult_index = PermGroup.mult_index

    def counting(self, i, j):
        nonlocal calls
        calls += 1
        return mult_index(self, i, j)

    expected = 0
    for name in catalog.names("core"):
        g = catalog.build(name)
        cd = conjugacy_classes(g)
        monkeypatch.setattr(PermGroup, "mult_index", counting)
        got = [[cd.power_class(i, t) for t in range(-m, 2 * m)]
               for i, m in enumerate(cd.element_orders)]
        monkeypatch.setattr(PermGroup, "mult_index", mult_index)
        expected += sum(max(m - 2, 0) for m in cd.element_orders)
        assert got == [[cd.elt_class[g.element_index(g.elements[rep] ** t)]
                        for t in range(-m, 2 * m)]
                       for rep, m in zip(cd.reps, cd.element_orders)], name
    assert calls == expected == 1286


def test_kept_generator_products_cost_no_memory_peak():
    # tracemalloc peak of parse + classes + table on sym_7, CPython 3.11.7:
    # 1682.9 KiB before the generator products were kept, 1315.8 KiB with
    # them.  The bound is the second figure plus 32 KiB.  With the recorded
    # BFS tree (a parent list sharing the index's ints, and one generator
    # byte per element) the peak is 1166.6 KiB.
    import gc
    import tracemalloc

    text = "degree 7\n(1 2)\n(1 2 3 4 5 6 7)\n"
    character_table(parse_group_file(text, bound=5040))   # warm module caches
    gc.collect()
    tracemalloc.start()
    try:
        g = parse_group_file(text, bound=5040)
        character_table(g, conjugacy_classes(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1315.8 + 32) * 1024


# -- subgroup machinery ------------------------------------------------------


def test_center_examples():
    for name, size in (("sym_4", 1), ("dihedral_8", 2), ("q8", 2),
                       ("cyclic_12", 12), ("sg_27_3", 3)):
        _, g, _, _, _ = catalog.bundle(name)
        assert len(H.center(g)) == size, name


def test_subgroup_closure_and_cyclicity():
    _, g, cd, _, _ = catalog.bundle("sym_4")
    four_cycle = next(cd.reps[i] for i in range(cd.n_classes)
                      if cd.element_orders[i] == 4)
    sub = H.subgroup_closure(g, [four_cycle])
    assert len(sub) == 4 and H.is_cyclic_subset(g, sub)
    assert not H.is_cyclic_subset(g, H.subgroup_closure(g, range(g.order)))


def test_exponent_examples():
    assert H.exponent(catalog.build("sym_4")) == 12
    assert H.exponent(catalog.build("q8")) == 4
    assert H.exponent(catalog.build("elab_3_2")) == 3


def test_derived_series_matches_naive_commutators():
    for name in ("sym_4", "dihedral_8", "sg_21_1"):
        _, g, cd, table, _ = catalog.bundle(name)
        assert H.class_union(cd, derived_series(table)[1]) == \
            H.naive_derived_series(g)[1], name


def test_derived_length_examples():
    def dl(name):
        return derived_length(catalog.bundle(name)[3])

    assert dl("trivial") == 0
    assert dl("cyclic_6") == 1
    assert dl("dihedral_8") == 2
    assert dl("sym_4") == 3
    assert dl("alt_5") is None  # perfect group


def test_nilpotency_detection():
    assert structure_flags(catalog.bundle("dihedral_8")[3]).is_nilpotent
    assert structure_flags(catalog.bundle("cyclic_12")[3]).is_nilpotent
    assert not structure_flags(catalog.bundle("sym_3")[3]).is_nilpotent
    assert not structure_flags(catalog.bundle("dihedral_10")[3]).is_nilpotent


def _entries_up_to_order(bound: int) -> list[str]:
    return [name for name in catalog.names() if catalog.entry(name).order <= bound]


@pytest.mark.parametrize("name", _entries_up_to_order(150))
def test_derived_series_matches_pairwise_commutator_closure(name):
    _, g, cd, table, _ = catalog.bundle(name)
    assert [H.class_union(cd, t) for t in derived_series(table)] == \
        H.naive_derived_series(g)


@pytest.mark.parametrize("name", _entries_up_to_order(150))
def test_is_nilpotent_matches_element_commutators(name):
    _, g, _, table, _ = catalog.bundle(name)
    assert structure_flags(table).is_nilpotent == H.naive_is_nilpotent(g)


def test_derived_series_stays_at_class_level(monkeypatch):
    # sym_6 > alt_6 = alt_6': a few dozen commutators, where closing
    # subgroups element by element takes orders of magnitude more products
    _, _, cd, table, _ = catalog.bundle("sym_6")
    calls = 0
    mult_index = PermGroup.mult_index

    def counting(self, i, j):
        nonlocal calls
        calls += 1
        return mult_index(self, i, j)

    monkeypatch.setattr(PermGroup, "mult_index", counting)
    assert [mask_size(cd, t) for t in derived_series(table)] == [720, 360]
    assert 0 < calls < 2000


# -- normal subgroups and quotients ------------------------------------------


def _oracle_sized_entries() -> list[str]:
    """Entries the exponential oracle affords: at most 14 classes and
    order at most 720."""
    return [name for name in catalog.names()
            if catalog.entry(name).order <= 720
            and conjugacy_classes(catalog.build(name)).n_classes <= 14]


@pytest.mark.parametrize("name", _oracle_sized_entries())
def test_normal_subgroups_match_exhaustive_search(name):
    _, g, cd, table, _ = catalog.bundle(name)
    normals = normal_subgroups(table)
    assert set(normals) == H.naive_normal_sets(g, cd)
    assert list(normals) == sorted(normals, key=lambda n: (len(n), sorted(n)))


@pytest.mark.parametrize("name", _oracle_sized_entries())
def test_o_p_is_the_largest_normal_p_subgroup(name):
    _, g, cd, table, _ = catalog.bundle(name)
    normals = H.naive_normal_sets(g, cd)
    for p, mask in structure_flags(table).o_p.items():
        o_p = H.class_union(cd, mask)
        p_normals = [n for n in normals if is_p_power(len(n), p)]
        assert o_p in p_normals and all(n <= o_p for n in p_normals), (name, p)


@pytest.mark.parametrize("name", catalog.names())
def test_normal_masks_keep_the_element_list_order(name):
    # sorting by class representatives orders the masks as sorting the
    # expanded element lists did
    _, _, cd, table, _ = catalog.bundle(name)
    masks = normal_masks(table)
    assert list(masks) == H.sorted_by_elements(cd, masks)


@pytest.mark.parametrize("name", catalog.names())
def test_large_normal_masks_cut_the_lattice_at_a_size(name):
    _, _, cd, table, _ = catalog.bundle(name)
    masks = normal_masks(table)
    for size in sorted({mask_size(cd, n) for n in masks}):
        assert large_normal_masks(table, size) == \
            tuple(n for n in masks if mask_size(cd, n) >= size), (name, size)


def test_tables_reports_and_checkers_never_expand_class_masks(monkeypatch):
    # a union of classes stays a class mask from the lift to the checkers;
    # only the public normal_subgroups view lists elements
    calls = 0
    members = permcore._members

    def counting(classes, mask):
        nonlocal calls
        calls += 1
        return members(classes, mask)

    monkeypatch.setattr(permcore, "_members", counting)
    catalog.clear_caches()
    for name in catalog.names("core"):
        catalog.bundle(name)
        verify.check_group(name)
        assert catalog.check_expected(name) == [], name
    assert calls == 0


def test_every_subgroup_of_the_translations_is_normal_in_sg_250_14():
    # all 1 + 31 + 31 + 1 subgroups of C5^3 are normal under inversion,
    # and G is the only normal subgroup outside C5^3
    _, _, _, table, _ = catalog.bundle("sg_250_14")
    normals = normal_subgroups(table)
    assert [len(n) for n in normals] == \
        [1] + [5] * 31 + [25] * 31 + [125, 250]


def test_quotient_by_klein_four_is_sym_3():
    _, g, _, table, _ = catalog.bundle("sym_4")
    v4 = next(n for n in normal_subgroups(table) if len(n) == 4)
    q = quotient_group(g, v4)
    assert q.order == 6
    assert conjugacy_classes(q).n_classes == 3
    assert derived_length(character_table(q)) == 2


def test_quotient_rejects_non_normal_subsets():
    _, g, _, _, _ = catalog.bundle("sym_4")
    transposition = next(i for i in range(g.order)
                         if g.element_order(i) == 2
                         and len(g.elements[i].cycles()) == 1)
    with pytest.raises(NotNormal):
        quotient_group(g, H.subgroup_closure(g, [transposition]))


def test_quotient_rejects_every_subset_of_c6_that_is_no_subgroup():
    # element i of cyclic_6 is g^i, and every subset is closed under
    # conjugation; {0, 1} is no subgroup, yet its translates {0, 1},
    # {2, 3}, {4, 5} do not overlap
    g = catalog.build("cyclic_6")
    for size in (1, 2, 3, 6):
        for rest in itertools.combinations(range(1, 6), size - 1):
            n_set = {0, *rest}
            if n_set == H.subgroup_closure(g, n_set):
                assert quotient_group(g, n_set).order == 6 // size
            else:
                with pytest.raises(NotNormal):
                    quotient_group(g, n_set)


def test_quotient_derived_length_never_grows():
    for name in ("sym_4", "frob_3k_2_2", "sg_27_4"):
        _, g, _, table, _ = catalog.bundle(name)
        dl_g = derived_length(table)
        for n in normal_subgroups(table):
            if len(n) == g.order:
                continue
            q = quotient_group(g, n)
            assert derived_length(character_table(q)) <= dl_g, name


def test_direct_product_multiplies_orders_and_classes():
    left, right = catalog.build("cyclic_2"), catalog.build("sym_3")
    prod = direct_product(left, right)
    assert prod.order == 12
    assert conjugacy_classes(prod).n_classes == 2 * 3


def test_frobenius_detection_with_brute_centralizers():
    for name, ksize in (("sg_21_1", 7), ("dihedral_10", 5), ("gamma_8", 8)):
        _, g, cd, table, _ = catalog.bundle(name)
        kernel = frobenius_kernel(table)
        assert kernel is not None, name
        kernel = H.class_union(cd, kernel)
        assert len(kernel) == ksize
        assert len(H.find_complement(g, kernel, g.order // ksize)) == g.order // ksize
        for n in kernel:
            if n == 0:
                continue
            centralizer = {x for x in range(g.order)
                           if H.conjugate(g, n, x) == n}
            assert centralizer <= kernel, name
    assert frobenius_kernel(catalog.bundle("sym_4")[3]) is None


def _non_nilpotent_core_entries() -> list[str]:
    return [name for name in catalog.names("core")
            if not structure_flags(catalog.bundle(name)[3]).is_nilpotent]


@pytest.mark.parametrize("name", _non_nilpotent_core_entries())
def test_kernel_condition_matches_element_centralizers(name):
    # a proper nontrivial normal N is the Frobenius kernel exactly when no
    # element of N but 1 commutes with an element outside N
    _, g, cd, table, _ = catalog.bundle(name)
    kernel = frobenius_kernel(table)
    for n_set in normal_subgroups(table)[1:-1]:
        assert H.naive_frobenius_kernel_condition(g, n_set) == \
            (H.subset_mask(cd, n_set) == kernel), (name, len(n_set))


def test_frobenius_decomposition_stays_at_class_level(monkeypatch):
    # sg_250_14 = C5^3 : C2 is Frobenius with kernel C5^3; deciding the
    # kernel condition element by element took 15 500 products
    _, g, cd, table, _ = catalog.bundle("sg_250_14")
    calls = 0
    mult_index = PermGroup.mult_index

    def counting(self, i, j):
        nonlocal calls
        calls += 1
        return mult_index(self, i, j)

    monkeypatch.setattr(PermGroup, "mult_index", counting)
    kernel = frobenius_kernel(table)
    assert mask_size(cd, kernel) == 125
    assert calls < 500


@pytest.mark.parametrize("name", catalog.names())
def test_quotient_facts_match_quotient_tables(name):
    # every fact about G/N read off G's table as class masks agrees with
    # the quotient's own table, and the Frobenius complements the class
    # criterion promises exist, found by an element-level search
    ent, g, cd, table, rep = catalog.bundle(name)
    if rep.flags.frobenius is not None:
        kernel = H.class_union(cd, rep.flags.frobenius)
        h = g.order // len(kernel)
        assert len(H.find_complement(g, kernel, h)) == h
    normals = normal_masks(table)
    for n_set, n in list(zip(normal_subgroups(table), normals))[1:-1]:
        q = quotient_group(g, n_set)
        qt = character_table(q)
        qflags = structure_flags(qt)
        where = (name, len(n_set))
        assert is_extraspecial(table, n) == qflags.is_extraspecial, where
        assert is_abelian_quotient(table, n) == qflags.is_abelian, where
        assert is_abelian_section(cd, normals[-1], n) == qflags.is_abelian, where
        assert is_abelian_section(cd, n) == H.all_commute(g, n_set), where
        assert is_cyclic_quotient(cd, n) == H.is_cyclic_subset(q, range(q.order)), where
        kernel = frobenius_kernel(table, n)
        if qflags.frobenius is None:
            assert kernel is None, where
            continue
        q_kernel = H.class_union(qt.classes, qflags.frobenius)
        h = q.order // len(q_kernel)
        assert mask_size(cd, kernel) == len(q_kernel) * len(n_set), where
        complement = H.find_complement(q, q_kernel, h)
        assert len(complement) == h, where
        assert is_cyclic_quotient(cd, kernel) == H.is_cyclic_subset(q, complement), where


@pytest.mark.parametrize("name", [n for n in catalog.names()
                                  if catalog.entry(n).tier != "large"])
def test_socle_matches_element_closure(name):
    # the large tier is left out: closing A7 element by element takes 20 s
    _, g, cd, table, rep = catalog.bundle(name)
    normals = normal_subgroups(table)
    old = H.socle_of_nilpotent(g) if rep.flags.is_nilpotent \
        else H.socle_from_normals(g, normals)
    assert H.class_union(cd, socle(table)) == old
    assert [H.class_union(cd, m) for m in minimal_normal_masks(table)] == \
        H.minimal_normal_subgroups(normals)


@pytest.mark.parametrize("name", catalog.names())
def test_minimal_normals_over_every_normal_match_the_lattice(name):
    table = catalog.bundle(name)[3]
    normals = normal_masks(table)
    for n in normals:
        above = [m for m in normals if m != n and n & ~m == 0]
        assert minimal_normal_masks(table, n) == \
            [m for m in above if not any(o != m and o & ~m == 0 for o in above)], (name, n)


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_structure_flags_examples():
    _, _, cd, table, _ = catalog.bundle("sym_4")
    flags = structure_flags(table)
    assert not flags.is_abelian and not flags.is_nilpotent
    assert {p: mask_size(cd, m) for p, m in flags.o_p.items()} == {2: 4, 3: 1}
    for name in ("dihedral_8", "q8", "sg_27_3"):
        assert structure_flags(catalog.bundle(name)[3]).is_extraspecial
    flags = structure_flags(catalog.bundle("elab_3_2")[3])
    assert flags.elementary_abelian_p == 3 and flags.is_abelian
    assert structure_flags(catalog.bundle("cyclic_9")[3]).p_group_p == 3
    assert not structure_flags(catalog.bundle("cyclic_9")[3]).is_extraspecial


def test_socle_computations():
    for name, size in (("dihedral_8", 2), ("q8", 2), ("sg_27_3", 3),
                       ("cyclic_12", 6), ("elab_2_3", 8), ("sym_4", 4),
                       ("alt_7", 2520), ("sym_7", 2520)):
        _, _, cd, table, _ = catalog.bundle(name)
        assert mask_size(cd, socle(table)) == size, name
    _, _, cd, table, _ = catalog.bundle("sym_4")
    minimals = minimal_normal_masks(table)
    assert [mask_size(cd, m) for m in minimals] == [4]  # unique minimal normal


def test_socle_of_simple_group_is_itself():
    _, _, cd, table, _ = catalog.bundle("alt_5")
    assert len(normal_masks(table)) == 2
    assert mask_size(cd, socle(table)) == 60


def _sl_2_3() -> PermGroup:
    """SL(2, 3) acting on the eight nonzero vectors of F_3^2."""
    vectors = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]

    def acting(m):
        images = [vectors.index(((m[0] * a + m[1] * b) % 3, (m[2] * a + m[3] * b) % 3))
                  for a, b in vectors]
        return Permutation(tuple(images))

    return PermGroup.from_generators([acting((1, 1, 0, 1)), acting((0, 2, 1, 0))])


@pytest.mark.parametrize("name", catalog.names())
def test_centralizes_matches_element_commutators(name):
    # every class representative against every normal K, modulo 1 and, on
    # the entries _oracle_sized_entries keeps, modulo every normal N <= K
    _, g, cd, table, _ = catalog.bundle(name)
    normals = list(zip(normal_masks(table), normal_subgroups(table)))
    belows = normals if g.order <= 720 and cd.n_classes <= 14 else normals[:1]
    for i, rep in enumerate(cd.reps):
        comms = [H.commutator(g, rep, y) for y in range(g.order)]
        for k, k_set in normals:
            for n, n_set in belows:
                if n & ~k == 0:
                    assert centralizes(cd, i, k, n) == \
                        all(comms[y] in n_set for y in k_set), (i, k, n)


def test_abelian_section_tests_pairs_within_one_class():
    # Q8 in SL(2, 3) is the centre and one class of six elements of order
    # 4, so only pairs from that one class show Q8 is not abelian
    g = _sl_2_3()
    cd = conjugacy_classes(g)
    assert g.order == 24
    q8 = H.subset_mask(cd, [x for x in range(g.order) if 4 % g.element_order(x) == 0])
    centre = H.subset_mask(cd, [x for x in range(g.order) if g.element_order(x) <= 2])
    assert _bits(q8) == _bits(centre) + [next(i for i in _bits(q8) if cd.sizes[i] == 6)]
    assert not is_abelian_section(cd, q8)
    assert not H.all_commute(g, H.class_union(cd, q8))
    assert is_abelian_section(cd, q8, centre)

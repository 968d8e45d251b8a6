"""Named constructions for the group corpus, with frozen expectations.

Each entry couples a deterministic builder with the structural and
value-set facts the corpus pins for that group (order, degree sets,
four-value row claims, Frobenius shape, socle, and so on).  Builders are
verified on construction: an order or relation mismatch raises instead
of returning the wrong group.  The groups that act on the points of
(Z/n)^k (cyclic, dihedral, AGL(1,q), C3^k : C2, C_p : C_m and others)
come from one affine builder, `_vector_group`.  GAP SmallGroup
identifiers appear in source labels as provenance only; entries are
pinned by the checked claims, not by library lookup.  Every key an entry
may pin is one claim of `CLAIMS`, and `unmet` evaluates it for both
`check_expected` and `verify.scan`.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from math import factorial
from operator import contains, eq, le
from types import MappingProxyType, UnionType
from typing import Callable, Mapping, NamedTuple

from .chartab import CharTable, character_table
from .cyclo import is_p_power
from .invariants import InvariantReport, report
from .permcore import (
    ClassData, InvariantViolation, PermGroup, Permutation, conjugacy_classes,
    direct_product, frobenius_kernel, is_abelian_quotient,
    is_cyclic_quotient, mask_size, minimal_normal_masks, normal_masks,
    quotient_group, socle,
)


class UnknownName(KeyError):
    """No catalog entry with that name; str() is the message, unquoted."""

    __str__ = BaseException.__str__


class ConstructionMismatch(RuntimeError):
    """A builder produced a group violating its frozen facts."""


class CatalogEntry(NamedTuple):
    name: str
    order: int
    source: str
    tier: str = "core"  # core | large | optional
    builder: Callable[[], PermGroup] = None
    expected: Mapping = MappingProxyType({})  # shared, so read-only


# --- permutation builders ---

def _vector_points(n: int, k: int) -> list[tuple[int, ...]]:
    pts = [()]
    for _ in range(k):
        pts = [v + (c,) for v in pts for c in range(n)]
    return pts


def _vector_group(n: int, k: int, maps: list, order: int) -> PermGroup:
    """The group of maps of (Z/n)^k, read mod n, on its n^k vector points."""
    pts = _vector_points(n, k)
    index = {v: i for i, v in enumerate(pts)}
    gens = [Permutation(tuple(index[tuple(c % n for c in fn(v))] for v in pts))
            for fn in maps]
    return PermGroup.from_generators(gens, bound=order + 1)


def _shifts(k: int) -> list:
    """The k unit translations of a k-dimensional vector space."""
    return [lambda v, axis=axis: v[:axis] + (v[axis] + 1,) + v[axis + 1:]
            for axis in range(k)]


def _scale(c: int):
    return lambda v: tuple(c * x for x in v)


def _linear(*rows: tuple[int, ...]):
    return lambda v: tuple(sum(a * x for a, x in zip(row, v)) for row in rows)


# F_q as (Z/n)^k, and the matrix of multiplication by a generator of F_q^*
_FIELDS = {
    3: (3, 1, ((2,),)),
    4: (2, 2, ((0, 1), (1, 1))),                   # F2[y]/(y^2+y+1), by y
    5: (5, 1, ((2,),)),
    7: (7, 1, ((3,),)),
    8: (2, 3, ((0, 0, 1), (1, 0, 1), (0, 1, 0))),  # F2[y]/(y^3+y+1), by y
    9: (3, 2, ((1, -1), (1, 1))),                  # F3[y]/(y^2+1), by y+1
}


def _elem_abelian(p: int, k: int) -> PermGroup:
    # a p-cycle on each of k disjoint blocks of p points
    gens = [Permutation(tuple(b * p + (x + (b == blk)) % p
                              for b in range(k) for x in range(p)))
            for blk in range(k)]
    return PermGroup.from_generators(gens, bound=p ** k + 1)


def _symmetric(n: int) -> PermGroup:
    gens = [Permutation(tuple([1, 0] + list(range(2, n)))),
            Permutation(tuple(list(range(1, n)) + [0]))]
    return PermGroup.from_generators(gens, bound=factorial(n) + 1)


def _alternating(n: int) -> PermGroup:
    three = Permutation(tuple([1, 2, 0] + list(range(3, n))))
    if n % 2:
        big = Permutation(tuple(list(range(1, n)) + [0]))
    else:
        big = Permutation(tuple([0] + list(range(2, n)) + [1]))
    return PermGroup.from_generators([three, big], bound=factorial(n) // 2 + 1)


def _quaternion8() -> PermGroup:
    # regular action on {1,-1,i,-i,j,-j,k,-k}: left mult by i and j
    i_img = (2, 3, 1, 0, 6, 7, 5, 4)
    j_img = (4, 5, 7, 6, 1, 0, 2, 3)
    g = PermGroup.from_generators([Permutation(i_img), Permutation(j_img)], bound=9)
    n2 = sum(1 for x in range(g.order) if g.element_order(x) == 2)
    if g.order != 8 or n2 != 1:
        raise ConstructionMismatch("quaternion recipe broke its relations")
    return g


def _sg_81_3() -> PermGroup:
    # C3^2 : C9, the C9 acting through order-3 unipotent [[1,1],[0,1]];
    # a disjoint 9-cycle block carries the top generator's full order
    pts = _vector_points(3, 2)
    index = {v: i for i, v in enumerate(pts)}
    t1 = Permutation(tuple(index[((v[0] + 1) % 3, v[1])] for v in pts)
                     + tuple(range(9, 18)))
    t2 = Permutation(tuple(index[(v[0], (v[1] + 1) % 3)] for v in pts)
                     + tuple(range(9, 18)))
    sigma = Permutation(tuple(index[((v[0] + v[1]) % 3, v[1])] for v in pts)
                        + tuple(9 + (x + 1) % 9 for x in range(9)))
    g = PermGroup.from_generators([t1, t2, sigma], bound=82)
    if g.element_order(g.element_index(sigma)) != 9:
        raise ConstructionMismatch("top generator lost its order")
    return g


def _sg_81_4() -> PermGroup:
    # C9 : C9 with b a b^-1 = a^4, right-regular on element pairs
    pts = [(i, j) for i in range(9) for j in range(9)]
    index = {v: i for i, v in enumerate(pts)}

    def rmul(g2):
        i2, j2 = g2
        return Permutation(tuple(
            index[((i1 + pow(4, j1, 9) * i2) % 9, (j1 + j2) % 9)]
            for (i1, j1) in pts))

    a, b = rmul((1, 0)), rmul((0, 1))
    if b * a * b.inverse() != rmul((4, 0)):
        raise ConstructionMismatch("twist relation b a b^-1 = a^4 failed")
    return PermGroup.from_generators([a, b], bound=82)


_D8 = partial(_vector_group, 4, 1, _shifts(1) + [_scale(-1)], 8)


def _central_product_32(second_factor: Callable[[], PermGroup]) -> PermGroup:
    d8 = _D8()
    other = second_factor()
    prod = direct_product(d8, other)
    z_parts = []
    for factor in (d8, other):
        cd = conjugacy_classes(factor)
        zs = [rep for rep, size in zip(cd.reps, cd.sizes) if size == 1]
        if len(zs) != 2:
            raise ConstructionMismatch("factor center is not of order 2")
        z_parts.append(factor.elements[zs[1]].images)
    diag = Permutation(z_parts[0] + tuple(x + d8.degree for x in z_parts[1]))
    return quotient_group(prod, {0, prod.element_index(diag)})


def _builder_direct(*parts: Callable[[], PermGroup]) -> Callable[[], PermGroup]:
    return lambda: reduce(direct_product, [part() for part in parts])


# --- claims ---

class Claim:
    """How a pinned key reads its fact off (table, report), and whether
    that fact meets the pinned value.  A per-row claim reads one fact per
    non-linear row, and each is met or missed on its own.  A lattice claim
    reads its fact off (table, normals) instead, normals being every
    normal subgroup with its size (_normal_sizes), which check_expected
    builds at most once.  pin is the type a pinned value must have: a
    type, exactly (True is no int), C[T] for a tuple or set C of T, or a
    union of these; _add refuses any other value.  A plain class, not a
    NamedTuple: building a NamedTuple class costs about 0.2 ms of every
    import."""

    __slots__ = ("read", "meets", "per_row", "lattice", "pin")

    def __init__(self, read: Callable[..., object], meets: Callable[[object, object], bool] = eq,
                 per_row: bool = False, lattice: bool = False, pin=int):
        self.read = read
        self.meets = meets
        self.per_row = per_row
        self.lattice = lattice
        self.pin = pin


def _fits(value, pin) -> bool:
    """Whether value has the pin type of a Claim."""
    if type(pin) is UnionType:
        return any(_fits(value, p) for p in pin.__args__)
    if type(pin) is type:
        return type(value) is pin
    return type(value) is pin.__origin__ and set(map(type, value)) <= {pin.__args__[0]}


def _frobenius_shape(table: CharTable, rep: InvariantReport) -> tuple[int, int] | None:
    kernel = rep.flags.frobenius
    if kernel is None:
        return None
    size = mask_size(table.classes, kernel)
    return size, table.group.order // size


def _socle_orders(table: CharTable, rep: InvariantReport) -> list[int]:
    soc = socle(table)
    return sorted({o for i, o in enumerate(table.classes.element_orders)
                   if soc >> i & 1})


def _normal_sizes(table: CharTable) -> list[tuple[int, int]]:
    """Every normal subgroup with its size; only the lattice claims read it."""
    return [(n, mask_size(table.classes, n)) for n in normal_masks(table)]


def _frobenius_cyclic_quotient(table: CharTable, normals: list[tuple[int, int]]) -> bool:
    # the complement of a Frobenius G/N with kernel K/N is isomorphic to G/K
    kernels = (frobenius_kernel(table, n) for n, size in normals
               if size < table.group.order)
    return any(k is not None and is_cyclic_quotient(table.classes, k) for k in kernels)


# Every key an entry may pin, in the order check_expected reports them.
CLAIMS: Mapping[str, Claim] = MappingProxyType({
    "degrees": Claim(lambda t, r: t.degrees, pin=tuple[int, ...]),
    "cd": Claim(lambda t, r: r.cd, pin=tuple[int, ...]),
    "cv": Claim(lambda t, r: set(r.cv_displays()), pin=set[str]),
    "ncv": Claim(lambda t, r: {v.display() for v in r.ncv}, pin=set[str]),
    "cdc_size": Claim(lambda t, r: len(r.cdc)),
    "ncv_size": Claim(lambda t, r: len(r.ncv)),
    "dl": Claim(lambda t, r: r.dl, pin=int | None),
    "rational": Claim(lambda t, r: r.is_rational_group, pin=bool),
    "row_cv_max": Claim(lambda t, r: max(r.per_char_cv_sizes), le),
    "has_row_with_cv_size": Claim(lambda t, r: r.per_char_cv_sizes, contains),
    "four_value_nonlinear": Claim(
        lambda t, r: [s for row, s in zip(t.rows, r.per_char_cv_sizes) if row.degree > 1],
        lambda sizes, want: (bool(sizes) and all(s == 4 for s in sizes)) == want, pin=bool),
    "nonlinear_count": Claim(lambda t, r: sum(1 for row in t.rows if row.degree > 1)),
    "nonlinear_degrees": Claim(
        lambda t, r: tuple(sorted(row.degree for row in t.rows if row.degree > 1)),
        pin=tuple[int, ...]),
    "deg2_rows": Claim(lambda t, r: sum(1 for row in t.rows if row.degree == 2)),
    "nonlinear_row_values": Claim(
        lambda t, r: [{v.display() for v in set(row.values)}
                      for row in t.rows if row.degree > 1],
        per_row=True, pin=set[str]),
    "extraspecial": Claim(lambda t, r: r.flags.is_extraspecial, pin=bool),
    "involutions": Claim(lambda t, r: sum(
        size for size, o in zip(t.classes.sizes, t.classes.element_orders) if o == 2)),
    "frobenius": Claim(_frobenius_shape, pin=tuple[int, ...]),
    # a Frobenius complement is isomorphic to G/K
    "complement_cyclic": Claim(lambda t, r: r.flags.frobenius is not None
                               and is_cyclic_quotient(t.classes, r.flags.frobenius), pin=bool),
    # |G : G'| is the number of linear rows
    "derived_size": Claim(
        lambda t, r: t.group.order // sum(1 for row in t.rows if row.degree == 1)),
    "socle": Claim(lambda t, r: mask_size(t.classes, socle(t))),
    "socle_elementary_p": Claim(_socle_orders, lambda orders, p: set(orders) <= {1, p}),
    "unique_minimal_normal": Claim(
        lambda t, r: sorted(mask_size(t.classes, m) for m in minimal_normal_masks(t)),
        lambda sizes, m: sizes == [m]),
    "normal_count": Claim(lambda t, normals: len(normals), lattice=True),
    "quotient_d10_count": Claim(lambda t, normals: sum(
        1 for n, size in normals
        if t.group.order // size == 10 and not is_abelian_quotient(t, n)), lattice=True),
    "exists_normal_with_2group_quotient": Claim(lambda t, normals: any(
        size < t.group.order and is_p_power(t.group.order // size, 2)
        for _, size in normals), lattice=True, pin=bool),
    "exists_normal_with_frobenius_cyclic_quotient": Claim(
        _frobenius_cyclic_quotient, lattice=True, pin=bool),
})


def unmet(key: str, want, table: CharTable, rep: InvariantReport,
          normals: list[tuple[int, int]] | None = None) -> list:
    """The facts of the table that miss the claim key = want, in row
    order for a per-row claim; [] when the claim holds.  A lattice claim
    reads normals, built here when not given."""
    claim = CLAIMS[key]
    if claim.lattice:
        got = claim.read(table, _normal_sizes(table) if normals is None else normals)
    else:
        got = claim.read(table, rep)
    return [fact for fact in (got if claim.per_row else [got])
            if not claim.meets(fact, want)]


# --- registry ---

_REGISTRY: dict[str, CatalogEntry] = {}


def _add(entry: CatalogEntry) -> None:
    if entry.name in _REGISTRY:
        raise InvariantViolation(f"catalog name {entry.name!r} registered twice")
    for key, want in entry.expected.items():
        claim = CLAIMS.get(key)
        if claim is None:
            unknown = sorted(entry.expected.keys() - CLAIMS.keys())
            raise InvariantViolation(
                f"catalog entry {entry.name!r} pins unknown claims {unknown}")
        pin = claim.pin
        if type(want) is not pin and not _fits(want, pin):  # most pins are a plain type
            raise InvariantViolation(f"catalog entry {entry.name!r} pins {key} = {want!r}, "
                                     f"not {pin.__name__ if type(pin) is type else pin}")
    _REGISTRY[entry.name] = entry


def _register_all() -> None:
    c2 = partial(_vector_group, 2, 1, _shifts(1), 2)
    c3 = partial(_vector_group, 3, 1, _shifts(1), 3)
    # unitriangular 3x3 matrices over F3, acting on column vectors
    he3 = partial(_vector_group, 3, 3, [_linear((1, 1, 0), (0, 1, 0), (0, 0, 1)),
                                        _linear((1, 0, 0), (0, 1, 1), (0, 0, 1))], 27)
    c9_c3 = partial(_vector_group, 9, 1, _shifts(1) + [_scale(4)], 27)
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12):
        _add(CatalogEntry("trivial" if n == 1 else f"cyclic_{n}", n, f"C{n}",
                          builder=partial(_vector_group, n, 1, _shifts(1), n),
                          expected={"degrees": (1,) * n,
                                    **({"cdc_size": 1} if n == 2 else {})}))
    _add(CatalogEntry("elab_2_2", 4, "C2 x C2", builder=lambda: _elem_abelian(2, 2),
                      expected={"degrees": (1,) * 4, "cdc_size": 1}))
    _add(CatalogEntry("elab_2_3", 8, "C2 x C2 x C2", builder=lambda: _elem_abelian(2, 3),
                      expected={"degrees": (1,) * 8, "cdc_size": 1}))
    _add(CatalogEntry("elab_3_2", 9, "C3 x C3", builder=lambda: _elem_abelian(3, 2),
                      expected={"degrees": (1,) * 9}))
    for order in (8, 10, 12, 14, 18, 22):
        exp: dict = {}
        if order == 8:
            exp = {"cv": {"1", "-1", "2", "-2", "0"}, "extraspecial": True}
        elif order == 10:
            exp = {"four_value_nonlinear": True, "derived_size": 5,
                   "frobenius": (5, 2), "ncv_size": 4,
                   "exists_normal_with_2group_quotient": True,
                   "exists_normal_with_frobenius_cyclic_quotient": True}
        elif order == 12:
            exp = {"cdc_size": 3, "dl": 2}
        _add(CatalogEntry(f"dihedral_{order}", order,
                          f"D{order} (points = Z_{order // 2})",
                          builder=partial(_vector_group, order // 2, 1,
                                          _shifts(1) + [_scale(-1)], order),
                          expected=exp))
    _add(CatalogEntry("q8", 8, "quaternion group, regular action",
                      builder=_quaternion8,
                      expected={"cv": {"1", "-1", "2", "-2", "0"},
                                "extraspecial": True}))
    _add(CatalogEntry("sym_3", 6, "S3", builder=lambda: _symmetric(3),
                      expected={"cv": {"1", "-1", "0", "2"}, "cdc_size": 2,
                                "frobenius": (3, 2)}))
    _add(CatalogEntry("sym_4", 24, "S4", builder=lambda: _symmetric(4),
                      expected={"cv": {"1", "2", "3", "0", "-1"}, "cdc_size": 2,
                                "rational": True, "row_cv_max": 4, "dl": 3,
                                "degrees": (1, 1, 2, 3, 3)}))
    _add(CatalogEntry("sym_5", 120, "S5", builder=lambda: _symmetric(5),
                      expected={"rational": True, "ncv": {"0", "-1", "-2"},
                                "dl": None}))
    _add(CatalogEntry("sym_6", 720, "S6", builder=lambda: _symmetric(6),
                      expected={"rational": True, "dl": None}))
    _add(CatalogEntry("alt_4", 12, "A4", builder=lambda: _alternating(4),
                      expected={"degrees": (1, 1, 1, 3), "dl": 2,
                                "frobenius": (4, 3)}))
    _add(CatalogEntry("alt_5", 60, "A5", builder=lambda: _alternating(5),
                      expected={"degrees": (1, 3, 3, 4, 5), "rational": False,
                                "has_row_with_cv_size": 5, "dl": None}))
    _add(CatalogEntry("alt_6", 360, "A6", builder=lambda: _alternating(6),
                      expected={"degrees": (1, 5, 5, 8, 8, 9, 10),
                                "rational": False, "dl": None}))
    # A7 is not one of the two excluded alternating factors
    _add(CatalogEntry("sym_7", 5040, "S7", tier="large",
                      builder=lambda: _symmetric(7),
                      expected={"rational": True, "dl": None}))
    _add(CatalogEntry("alt_7", 2520, "A7", tier="large",
                      builder=lambda: _alternating(7),
                      expected={"rational": False, "dl": None}))
    for k in (1, 2, 3):
        _add(CatalogEntry(f"frob_3k_2_{k}", 2 * 3 ** k,
                          f"C3^{k} : C2 (inversion on translations)",
                          builder=partial(_vector_group, 3, k,
                                          _shifts(k) + [_scale(-1)], 2 * 3 ** k),
                          expected={"cdc_size": 2, "cd": (1, 2),
                                    "frobenius": (3 ** k, 2)}))
    for q, (n, k, mul) in _FIELDS.items():
        _add(CatalogEntry(f"gamma_{q}", q * (q - 1), f"AGL(1,{q})",
                          builder=partial(_vector_group, n, k,
                                          _shifts(k) + [_linear(*mul)], q * (q - 1)),
                          expected={"frobenius": (q, q - 1),
                                    "complement_cyclic": True,
                                    "nonlinear_row_values":
                                        {str(q - 1), "-1", "0"}}))
    _add(CatalogEntry("c2xs3", 12, "C2 x S3",
                      builder=_builder_direct(c2, partial(_symmetric, 3)),
                      expected={"cdc_size": 3, "dl": 2}))
    _add(CatalogEntry("d8xc2", 16, "D8 x C2",
                      builder=_builder_direct(_D8, c2),
                      expected={"cdc_size": 3, "cd": (1, 2)}))
    _add(CatalogEntry("q8xc2", 16, "Q8 x C2",
                      builder=_builder_direct(_quaternion8, c2),
                      expected={"cdc_size": 3, "cd": (1, 2)}))
    _add(CatalogEntry("d8xc2xc2", 32, "D8 x C2 x C2",
                      builder=_builder_direct(_D8, c2, c2),
                      expected={"cdc_size": 3, "cd": (1, 2)}))
    _add(CatalogEntry("sg_21_1", 21, "SmallGroup(21,1): C7 : C3, x -> 2x",
                      builder=partial(_vector_group, 7, 1,
                                      _shifts(1) + [_scale(2)], 21),
                      expected={"cd": (1, 3), "four_value_nonlinear": True,
                                "nonlinear_count": 2}))
    _add(CatalogEntry("sg_27_3", 27, "SmallGroup(27,3): Heisenberg mod 3",
                      builder=he3,
                      expected={"four_value_nonlinear": True, "socle": 3,
                                "unique_minimal_normal": 3,
                                "extraspecial": True}))
    _add(CatalogEntry("sg_27_4", 27, "SmallGroup(27,4): C9 : C3, x -> 4x",
                      builder=c9_c3,
                      expected={"four_value_nonlinear": True, "socle": 3,
                                "unique_minimal_normal": 3,
                                "nonlinear_count": 2, "cd": (1, 3)}))
    _add(CatalogEntry("sg_36_9", 36, "SmallGroup(36,9): C3^2 : C4",
                      builder=partial(_vector_group, 3, 2,
                                      _shifts(2) + [_linear((0, -1), (1, 0))], 36),
                      expected={"four_value_nonlinear": True,
                                "unique_minimal_normal": 9,
                                "nonlinear_count": 2,
                                "nonlinear_degrees": (4, 4)}))
    _add(CatalogEntry("sg_50_4", 50, "SmallGroup(50,4): C5^2 : C2 (inversion)",
                      builder=partial(_vector_group, 5, 2,
                                      _shifts(2) + [_scale(-1)], 50),
                      expected={"four_value_nonlinear": True,
                                "deg2_rows": 12, "normal_count": 9,
                                "quotient_d10_count": 6,
                                "frobenius": (25, 2)}))
    _add(CatalogEntry("sg_55_1", 55, "SmallGroup(55,1): C11 : C5, x -> 3x",
                      builder=partial(_vector_group, 11, 1,
                                      _shifts(1) + [_scale(3)], 55),
                      expected={"four_value_nonlinear": True, "cd": (1, 5)}))
    _add(CatalogEntry("sg_78_1", 78, "SmallGroup(78,1): C13 : C6, x -> 4x",
                      builder=partial(_vector_group, 13, 1,
                                      _shifts(1) + [_scale(4)], 78),
                      expected={"four_value_nonlinear": True, "cd": (1, 6)}))
    _add(CatalogEntry("sg_80_49", 80, "SmallGroup(80,49): C2^4 : C5",
                      # F2[y]/(y^4+y+1), multiplication by y^3
                      builder=partial(_vector_group, 2, 4, _shifts(4) + [_linear(
                          (0, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))], 80),
                      expected={"four_value_nonlinear": True, "socle": 16,
                                "unique_minimal_normal": 16, "cd": (1, 5)}))
    _add(CatalogEntry("sg_81_3", 81, "SmallGroup(81,3): C3^2 : C9",
                      builder=_sg_81_3,
                      expected={"four_value_nonlinear": True, "socle": 9,
                                "socle_elementary_p": 3}))
    _add(CatalogEntry("sg_81_4", 81, "SmallGroup(81,4): C9 : C9",
                      builder=_sg_81_4,
                      expected={"four_value_nonlinear": True, "socle": 9,
                                "socle_elementary_p": 3}))
    _add(CatalogEntry("sg_81_12", 81, "SmallGroup(81,12): C3 x Heisenberg",
                      builder=_builder_direct(c3, he3),
                      expected={"four_value_nonlinear": True, "socle": 9,
                                "socle_elementary_p": 3}))
    _add(CatalogEntry("sg_81_13", 81, "SmallGroup(81,13): C3 x (C9 : C3)",
                      builder=_builder_direct(c3, c9_c3),
                      expected={"four_value_nonlinear": True, "socle": 9,
                                "socle_elementary_p": 3}))
    _add(CatalogEntry("sg_136_12", 136, "SmallGroup(136,12): C17 : C8, x -> 2x",
                      builder=partial(_vector_group, 17, 1,
                                      _shifts(1) + [_scale(2)], 136),
                      expected={"four_value_nonlinear": True, "cd": (1, 8),
                                "exists_normal_with_2group_quotient": True}))
    _add(CatalogEntry("sg_147_4", 147, "SmallGroup(147,4): C7^2 : C3 (scalar 2)",
                      builder=partial(_vector_group, 7, 2,
                                      _shifts(2) + [_scale(2)], 147),
                      expected={"four_value_nonlinear": True, "socle": 49,
                                "socle_elementary_p": 7, "cd": (1, 3)}))
    _add(CatalogEntry("sg_250_14", 250, "SmallGroup(250,14): C5^3 : C2 (inversion)",
                      tier="optional",
                      builder=partial(_vector_group, 5, 3,
                                      _shifts(3) + [_scale(-1)], 250),
                      expected={"four_value_nonlinear": True, "cd": (1, 2),
                                "deg2_rows": 62,
                                "exists_normal_with_frobenius_cyclic_quotient": True}))
    _add(CatalogEntry("extraspecial_32_plus", 32,
                      "D8 * D8 (central product)", tier="optional",
                      builder=lambda: _central_product_32(_D8),
                      expected={"extraspecial": True, "cd": (1, 4),
                                "cv": {"1", "-1", "4", "-4", "0"},
                                "involutions": 19}))
    _add(CatalogEntry("extraspecial_32_minus", 32,
                      "D8 * Q8 (central product)", tier="optional",
                      builder=lambda: _central_product_32(_quaternion8),
                      expected={"extraspecial": True, "cd": (1, 4),
                                "cv": {"1", "-1", "4", "-4", "0"},
                                "involutions": 11}))


_register_all()

_ALIASES = {
    "c1": "trivial", "s3": "sym_3", "s4": "sym_4", "s5": "sym_5",
    "s6": "sym_6", "s7": "sym_7", "a4": "alt_4", "a5": "alt_5",
    "a6": "alt_6", "a7": "alt_7", "he3": "sg_27_3", "v4": "elab_2_2",
}
for _n in (2, 3, 4, 5, 6, 7, 8, 9, 12):
    _ALIASES[f"c{_n}"] = f"cyclic_{_n}"
for _n in (8, 10, 12, 14, 18, 22):
    _ALIASES[f"d{_n}"] = f"dihedral_{_n}"


def resolve_name(name: str, param: int | None = None) -> str:
    if param is not None:
        name = f"{name}_{param}"
    name = _ALIASES.get(name, name)
    if name not in _REGISTRY:
        raise UnknownName(f"no catalog entry named {name!r}")
    return name


def entry(name: str, param: int | None = None) -> CatalogEntry:
    return _REGISTRY[resolve_name(name, param)]


def names(tier: str | None = None) -> list[str]:
    """Entry names, sorted by (order, name); optionally one tier only."""
    out = [e for e in _REGISTRY.values() if tier is None or e.tier == tier]
    out.sort(key=lambda e: (e.order, e.name))
    return [e.name for e in out]


def build(name: str, param: int | None = None) -> PermGroup:
    """Construct a catalog group; the declared order is enforced."""
    ent = entry(name, param)
    g = ent.builder()
    if g.order != ent.order:
        raise ConstructionMismatch(
            f"{ent.name}: built order {g.order}, declared {ent.order}")
    return g


@lru_cache(maxsize=None)
def _bundle_cached(resolved: str, seed: int) -> tuple[
        CatalogEntry, PermGroup, ClassData, CharTable, InvariantReport]:
    ent = _REGISTRY[resolved]
    g = build(resolved)
    cd = conjugacy_classes(g)
    table = character_table(g, cd, seed=seed)
    rep = report(table)
    return ent, g, cd, table, rep


def bundle(name: str, seed: int = 0) -> tuple[CatalogEntry, PermGroup, ClassData,
                                              CharTable, InvariantReport]:
    """Entry, group, classes, table, and report — cached per (name, seed)."""
    return _bundle_cached(resolve_name(name), seed)


def clear_caches() -> None:
    _bundle_cached.cache_clear()


def check_expected(name: str, seed: int = 0) -> list[str]:
    """Evaluate the entry's pinned claims in the order of CLAIMS; returns
    one mismatch description per missed fact."""
    ent = entry(name)
    _, _, _, table, rep = bundle(ent.name, seed)
    bad: list[str] = []
    normals = None
    for key, claim in CLAIMS.items():
        if key in ent.expected:
            if claim.lattice and normals is None:
                normals = _normal_sizes(table)
            want = ent.expected[key]
            bad += [f"{ent.name}: {key} expected {want!r}, got {got!r}"
                    for got in unmet(key, want, table, rep, normals)]
    return bad

"""Shared oracles and corpus sweeps for the test suite.

The naive_* functions recompute group facts by brute force along code
paths independent of the library's own algorithms, so agreement is
meaningful.  The *_failures sweeps each check one value-set law over a
catalog entry and return human-readable failure strings; an empty list
means the law held.  Both the unit tests and the acceptance gate run
them, so they live here rather than in any single test module.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from charval import catalog
from charval.chartab import (
    Character,
    CharTable,
    EigensplitFailure,
    OrthogonalityFailure,
    _distinct_roots,
    _mat_vecs,
    _minimal_polynomial,
    _pmul,
    _psub,
    _rref,
    _split_subspace,
    character_table,
    choose_dixon_prime,
)
from charval.cyclo import Cyc, is_prime, power_basis
from charval.permcore import (
    ClassData,
    OrderBoundExceeded,
    PermGroup,
    Permutation,
    derived_series,
    normal_subgroups,
    quotient_group,
)

ZERO = Cyc.zero()
ONE = Cyc.one()


def exactness_failures(label: str, group: PermGroup, cd: ClassData,
                       table: CharTable) -> list[str]:
    """First/second orthogonality, degree square sum, centralizer match."""
    k = cd.n_classes
    bad = []
    if sum(r.degree ** 2 for r in table.rows) != group.order:
        bad.append(f"{label}: degree squares do not sum to the order")
    order = Cyc.from_rational(group.order)
    for r, row in enumerate(table.rows):
        for s in range(r, k):
            other = table.rows[s]
            inner = Cyc.zero()
            for i in range(k):
                inner = inner + row.values[i] * other.values[i].conjugate() \
                    * cd.sizes[i]
            if inner != (order if r == s else Cyc.zero()):
                bad.append(f"{label}: row orthogonality fails at ({r},{s})")
    for i in range(k):
        for j in range(i, k):
            inner = Cyc.zero()
            for row in table.rows:
                inner = inner + row.values[i] * row.values[j].conjugate()
            expect = Cyc.from_rational(centralizer_size(group, cd.reps[i])) \
                if i == j else Cyc.zero()
            if inner != expect:
                bad.append(f"{label}: column orthogonality fails at ({i},{j})")
    return bad


# ---------------------------------------------------------------------------
# the library's earlier, unreduced definitions, kept as oracles


def vanishes(acc: list[int]) -> bool:
    """True iff sum(acc[t] * zeta_e^t) == 0, e = len(acc): one remainder
    by Phi_e."""
    return not any(acc) or not any(power_basis(acc, len(acc)))


def full_self_verify(table: CharTable) -> None:
    """The table proof as it stood before the class-algebra certificate:
    the conjugate relation at every (row, class) and first orthogonality
    at every pair of rows, exactly in Z[zeta_e], in order, raising
    OrthogonalityFailure at the first that fails.  These relations do not
    tie a column to its class, so a table may pass them and still not
    be the group's."""
    cd = table.classes
    k = cd.n_classes
    order = table.group.order
    rows = table.rows

    def fail(message: str, relation: str, *indices: int):
        raise OrthogonalityFailure(message, relation, indices, order, table.dixon_prime)

    if len(rows) != k:
        fail(f"{len(rows)} rows for {k} classes", "square")
    degs = [r.degree for r in rows]
    if sum(d * d for d in degs) != order:
        fail("degree squares do not sum to the order", "degrees")
    for r, d in enumerate(degs):
        if order % d:
            fail("degree does not divide the order", "degrees", r)
    e = math.lcm(*(v.n for r in rows for v in r.values))
    vecs = []
    for r, row in enumerate(rows):
        vec_row = []
        for i, v in enumerate(row.values):
            if v.den != 1:
                fail("value is not an algebraic integer", "integrality", r, i)
            step = e // v.n
            vec_row.append(tuple((j * step, c) for j, c in enumerate(v.num) if c))
        vecs.append(vec_row)
    for r in range(len(rows)):
        for i in range(k):
            acc = [0] * e
            for x, c in vecs[r][cd.inverse_class[i]]:
                acc[x] += c
            for y, d in vecs[r][i]:
                acc[-y] -= d
            if not vanishes(acc):
                fail("inverse classes are not conjugates", "conjugate", r, i)
    for a in range(len(rows)):
        for b in range(a, len(rows)):
            acc = [0] * e
            for i in range(k):
                for x, c in vecs[a][i]:
                    for y, d in vecs[b][i]:
                        acc[x - y] += cd.sizes[i] * c * d
            if a == b:
                acc[0] -= order
            if not vanishes(acc):
                fail("first orthogonality failed", "first", a, b)


def charpoly(mat: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial mod p via Hessenberg reduction, ascending
    coefficients: the eigensplit's earlier polynomial, kept as an oracle
    for the minimal polynomial it reads now."""
    d = len(mat)
    h = [row[:] for row in mat]
    for col in range(d - 2):
        piv = None
        for r in range(col + 1, d):
            if h[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != col + 1:
            h[piv], h[col + 1] = h[col + 1], h[piv]
            for r in range(d):
                h[r][piv], h[r][col + 1] = h[r][col + 1], h[r][piv]
        inv = pow(h[col + 1][col], p - 2, p)
        for r in range(col + 2, d):
            factor = h[r][col] * inv % p
            if factor:
                hr, hc = h[r], h[col + 1]
                for c in range(d):
                    hr[c] = (hr[c] - factor * hc[c]) % p
                for rr in range(d):
                    h[rr][col + 1] = (h[rr][col + 1] + factor * h[rr][r]) % p
    # p_m = charpoly of leading m x m block, by last-column expansion
    polys = [[1]]
    for m in range(1, d + 1):
        term = _pmul(polys[m - 1], [(-h[m - 1][m - 1]) % p, 1], p)
        prod = 1
        for s in range(1, m):
            prod = prod * h[m - s][m - s - 1] % p
            if prod == 0:
                break
            coef = h[m - 1 - s][m - 1] * prod % p
            if coef:
                term = _psub(term, [coef * c % p for c in polys[m - 1 - s]], p)
        polys.append(term)
    return polys[d]


def linear_product(roots, p: int) -> list[int]:
    """prod (x - r) over roots mod p, ascending coefficients."""
    out = [1]
    for r in roots:
        out = _pmul(out, [-r % p, 1], p)
    return out


@lru_cache(maxsize=None)
def psl2(q: int, bound: int = 2500) -> PermGroup:
    """PSL(2, q), q an odd prime, on the q + 1 points of the projective
    line (point q is infinity), generated by x -> x + 1 and x -> -1/x;
    bound is the order bound of the closure."""
    inf = q
    shift = [(x + 1) % q for x in range(q)] + [inf]
    invert = [inf if x == 0 else -pow(x, q - 2, q) % q for x in range(q)] + [0]
    return PermGroup.from_generators([Permutation(shift), Permutation(invert)],
                                     bound=bound)


def psl2_degrees(q: int) -> list[int]:
    """The irreducible degrees of PSL(2, q), q an odd prime >= 5, ascending
    (Fulton-Harris, Representation Theory, section 5.2): 1 and q once,
    (q + eps) / 2 twice with eps = (-1)^((q - 1) / 2), and then
    (q - 5) / 4 of q + 1 and (q - 1) / 4 of q - 1 when q = 1 (mod 4), or
    (q - 3) / 4 of each when q = 3 (mod 4)."""
    eps = (-1) ** ((q - 1) // 2)
    plus, minus = ((q - 5) // 4, (q - 1) // 4) if q % 4 == 1 else \
        ((q - 3) // 4, (q - 3) // 4)
    return sorted([1, q] + [(q + eps) // 2] * 2 + [q + 1] * plus + [q - 1] * minus)


def index_order_splits(group: PermGroup, cd: ClassData,
                       seed: int) -> list[tuple[int, bool, bool, int]]:
    """The eigensplit without the echelon rule: every class matrix in index
    order, applied to every pending subspace, all of its basis mapped.

    Returns one (class, rule, scalar, pieces) per application: rule is
    whether a basis row after the first is nonzero at the class's column,
    scalar whether the images of the basis are one scalar times the
    basis, and pieces the number of eigenspaces _split_subspace returns.
    """
    k = cd.n_classes
    p = choose_dixon_prime(group, cd)
    rng = random.Random(seed)
    spaces = [([[int(i == j) for j in range(k)] for i in range(k)], list(range(k)))]
    seen = []
    for i in range(1, k):
        mat = cd.class_matrix(i)
        refined = []
        for basis, piv in spaces:
            if len(basis) == 1:
                refined.append((basis, piv))
                continue
            images = _mat_vecs(mat, basis, p)
            lam = images[0][piv[0]]
            scalar = all(w == [lam * x % p for x in v] for v, w in zip(basis, images))
            pieces = _split_subspace((basis, piv), mat, p, rng)
            seen.append((i, any(row[i] for row in basis[1:]), scalar, len(pieces)))
            refined.extend(pieces)
        spaces = refined
    return seen


def dense_split_subspace(space: tuple[list[list[int]], list[int]],
                         mat: list[list[tuple[int, int]]], p: int,
                         rng: random.Random) -> list[tuple[list[list[int]], list[int]]]:
    """chartab._split_subspace read densely: every basis vector mapped by
    _mat_vecs, invariance checked at every column and each eigenvector
    combined from the whole basis rows."""
    basis, piv = space
    d = len(basis)

    def combine(coefs: list[int]) -> list[int]:
        out = [0] * len(basis[0])
        for cs, bs in zip(coefs, basis):
            for c, x in enumerate(bs):
                out[c] += cs * x
        return [x % p for x in out]

    coords = []
    for w in _mat_vecs(mat, basis, p):
        coef = [w[c] for c in piv]
        if combine(coef) != w:
            raise EigensplitFailure("subspace not invariant under class matrix", p)
        coords.append(coef)
    pieces = []
    for lam in _distinct_roots(_minimal_polynomial(coords, p), p, rng):
        reduced, rpiv = _rref([[(coords[t][s] - (lam if s == t else 0)) % p
                                for t in reversed(range(d))] for s in range(d)], p)
        bound = {d - 1 - c: row for row, c in zip(reduced, rpiv)}
        free = [f for f in range(d) if f not in bound]
        if not free:
            raise EigensplitFailure("eigenvalue without eigenvector", p)
        vecs = []
        for f in free:
            v = [0] * d
            v[f] = 1
            for t, row in bound.items():
                v[t] = -row[d - 1 - f] % p
            vecs.append(combine(v))
        pieces.append((vecs, [piv[f] for f in free]))
    if sum(len(pivots) for _, pivots in pieces) != d:
        raise EigensplitFailure("restriction is not semisimple", p)
    return pieces


def cyc_kernel(row: Character) -> int:
    """Mask of the classes where the value equals the degree, compared as Cyc."""
    return mask_of(i for i, v in enumerate(row.values) if v == row.degree)


def cyc_center(row: Character) -> int:
    """Mask of the classes where value / degree is a root of unity, in Cyc
    arithmetic."""
    return mask_of(i for i, v in enumerate(row.values)
                   if (v * Fraction(1, row.degree)).is_root_of_unity())


def dense_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan mod p that rewrites every entry of each updated row."""
    m = [row[:] for row in rows]
    n_rows = len(m)
    pivots: list[int] = []
    for c in range(len(m[0])):
        r = len(pivots)
        if r == n_rows:
            break
        piv = next((rr for rr in range(r, n_rows) if m[rr][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for rr in range(n_rows):
            if rr != r and m[rr][c]:
                f = m[rr][c]
                m[rr] = [(x - f * y) % p for x, y in zip(m[rr], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


@lru_cache(maxsize=None)
def cyclotomic_by_division(n: int) -> tuple[int, ...]:
    """Phi_n by its recursive definition: x^n - 1 divided by Phi_d for
    every proper divisor d of n, by long division (Phi_d is monic)."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = cyclotomic_by_division(d)
        quot = [0] * (len(poly) - len(den) + 1)
        for k in range(len(quot) - 1, -1, -1):
            quot[k] = c = poly[k + len(den) - 1]
            for i, a in enumerate(den):
                poly[k + i] -= c * a
        assert not any(poly), f"Phi_{d} does not divide"
        poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """x^t mod Phi_n for t < 2n, by shift and subtract: row t+1 is row t
    times x, with its x^phi(n) term rewritten as x^phi(n) - Phi_n(x)."""
    cp = cyclotomic_by_division(n)
    k = len(cp) - 1
    rows = []
    cur = [1] + [0] * (k - 1)
    for _ in range(2 * n):
        rows.append(tuple(cur))
        lead = cur[-1]
        cur = [0] + cur[:-1]
        for i in range(k):
            cur[i] -= lead * cp[i]
    return tuple(rows)


def power_basis_by_rows(acc: list[int], n: int) -> list[int]:
    """sum(acc[t] * zeta_n^t) over the power basis of Q(zeta_n), from the
    rows x^t mod Phi_n; acc may hold up to 2n entries."""
    rows = reduction_rows(n)
    out = [0] * len(rows[0])
    for c, row in zip(acc, rows):
        if c:
            for i, r in enumerate(row):
                out[i] += c * r
    return out


def naive_inverses(group: PermGroup) -> list[int]:
    """The index of every element's inverse, by Permutation.inverse."""
    return [group.element_index(e.inverse()) for e in group.elements]


def naive_class_data(group: PermGroup) -> dict:
    """Classes, reps, sizes, elt_class and inverse_class as ClassData
    defined them before the generator tables: orbits closed under
    conjugation by each generator with mult_index, inverses by
    Permutation.inverse, classes sorted by (order, size, image tuple)."""
    inverses = naive_inverses(group)
    gens = group.generator_indices()
    assigned = [-1] * group.order
    raw = []
    for seed in range(group.order):
        if assigned[seed] != -1:
            continue
        assigned[seed] = len(raw)
        orbit, frontier = [seed], [seed]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = group.mult_index(group.mult_index(inverses[g], x), g)
                if assigned[y] == -1:
                    assigned[y] = len(raw)
                    orbit.append(y)
                    frontier.append(y)
        raw.append(sorted(orbit))
    raw.sort(key=lambda c: (group.elements[c[0]].order(), len(c),
                            group.elements[c[0]].images))
    elt_class = [0] * group.order
    for i, cls in enumerate(raw):
        for x in cls:
            elt_class[x] = i
    return {
        "classes": tuple(tuple(c) for c in raw),
        "reps": tuple(c[0] for c in raw),
        "sizes": tuple(len(c) for c in raw),
        "elt_class": tuple(elt_class),
        "inverse_class": tuple(elt_class[inverses[c[0]]] for c in raw),
    }


def naive_product_rows(classes: ClassData, i: int) -> list[list[int]]:
    """class_matrix(i) as dense rows, counted with mult_index: #{y in C_j :
    rep_i y in C_t} scaled by |C_i| / |C_t|."""
    group, k = classes.group, classes.n_classes
    counts = [[0] * k for _ in range(k)]
    for y in range(group.order):
        t = classes.elt_class[group.mult_index(classes.reps[i], y)]
        counts[classes.elt_class[y]][t] += 1
    return [[c * classes.sizes[i] // classes.sizes[t] for t, c in enumerate(row)]
            for row in counts]


# ---------------------------------------------------------------------------
# brute-force oracles


def centralizer_size(group: PermGroup, i: int) -> int:
    """Order of the centralizer of elements[i], by brute-force scan."""
    target = group.elements[i].images
    count = 0
    for e in group.elements:
        ei = e.images
        if all(ei[target[x]] == target[ei[x]] for x in range(group.degree)):
            count += 1
    return count


def class_mult_coeffs(classes: ClassData) -> list[list[list[int]]]:
    """Structure constants a[i][j][k] of the class algebra.

    a[i][j][k] counts pairs (x, y) with x in C_i, y in C_j and xy equal
    to one fixed representative of C_k; the count is independent of the
    representative.  They are read off the sparse class_matrix(i) rows.
    """
    k = classes.n_classes
    coeffs = []
    for i in range(k):
        rows = [[0] * k for _ in range(k)]
        for row, mat_row in zip(rows, classes.class_matrix(i)):
            for t, a in mat_row:
                row[t] = a
        coeffs.append(rows)
    return coeffs


def exponent(group: PermGroup) -> int:
    return math.lcm(*(group.element_order(i) for i in range(group.order)))


def conjugate(group: PermGroup, i: int, g: int) -> int:
    """i^g = g^-1 i g, by mult_index."""
    return group.mult_index(group.mult_index(group.inverse_index(g), i), g)


def commutator(group: PermGroup, i: int, j: int) -> int:
    """[i, j] = i^-1 j^-1 i j = i^-1 i^j, by mult_index."""
    return group.mult_index(group.inverse_index(i), conjugate(group, i, j))


def center(group: PermGroup) -> frozenset[int]:
    gen_idx = group.generator_indices()
    out = set()
    for i in range(group.order):
        if all(conjugate(group, i, g) == i for g in gen_idx):
            out.add(i)
    return frozenset(out)


def subgroup_closure(group: PermGroup, seeds) -> frozenset[int]:
    """Closure of element indices under multiplication (subgroup generated)."""
    gens = sorted({s for s in seeds if s != 0})
    members = {0, *gens}
    frontier = [0, *gens]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (group.mult_index(x, g), group.mult_index(g, x)):
                if y not in members:
                    members.add(y)
                    frontier.append(y)
    return frozenset(members)


def is_cyclic_subset(group: PermGroup, subset) -> bool:
    subset = list(subset)
    return max(group.element_order(i) for i in subset) == len(subset)


def find_complement(group: PermGroup, n_set: frozenset[int],
                    h: int) -> frozenset[int] | None:
    """A subgroup of order h meeting n_set trivially, closed from one or
    two generators (Frobenius complements are 2-generated)."""
    pool = [i for i in range(1, group.order)
            if i not in n_set and h % group.element_order(i) == 0]

    def try_closure(seeds: list[int]) -> frozenset[int] | None:
        members = {0}
        frontier = list(seeds)
        for s in seeds:
            members.add(s)
        while frontier:
            x = frontier.pop()
            for g in seeds:
                for y in (group.mult_index(x, g), group.mult_index(g, x)):
                    if y not in members:
                        if len(members) >= h or (y in n_set and y != 0):
                            return None
                        members.add(y)
                        frontier.append(y)
        return frozenset(members) if len(members) == h else None

    for a in pool:
        if group.element_order(a) == h:
            got = try_closure([a])
            if got is not None:
                return got
    for ai, a in enumerate(pool):
        for b in pool[ai + 1:]:
            got = try_closure([a, b])
            if got is not None:
                return got
    return None


def socle_of_nilpotent(group: PermGroup) -> frozenset[int]:
    """Product of the minimal normal subgroups of a nilpotent group.

    Minimal normals of a nilpotent group are central of prime order, so
    the socle is generated by the prime-order elements of the center.
    """
    z = center(group)
    seeds = {i for i in z if i and is_prime(group.element_order(i))}
    if not seeds:
        return frozenset({0})
    return subgroup_closure(group, seeds)


def minimal_normal_subgroups(normals: tuple[frozenset[int], ...]) -> list[frozenset[int]]:
    nontrivial = [n for n in normals if len(n) > 1]
    out = []
    for n in nontrivial:
        if not any(m < n for m in nontrivial):
            out.append(n)
    return out


def socle_from_normals(group: PermGroup,
                       normals: tuple[frozenset[int], ...]) -> frozenset[int]:
    minimals = minimal_normal_subgroups(normals)
    seeds: set[int] = set()
    for m in minimals:
        seeds |= m
    if not seeds:
        return frozenset({0})
    return subgroup_closure(group, seeds)


# The catalog entries with an A5 or A6 composition factor, as they were
# set by hand before the flag was read off the table.
A5A6_ENTRIES = frozenset({"alt_5", "sym_5", "alt_6", "sym_6"})


def naive_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of a*b (apply a, then b), from the image tuples of a
    and b, by an explicit list comprehension."""
    return tuple([b[x] for x in a])


def naive_closure(gens, degree: int, bound: int):
    """(images, index, right) of the breadth-first closure of gens from the
    identity, as PermGroup.from_generators stores them, with every product
    taken by naive_product.  Raises OrderBoundExceeded, with
    from_generators' message, on reaching a new element when bound
    elements are already found."""
    ident = tuple(range(degree))
    images, index = [ident], {ident: 0}
    right: list[list[int]] = [[] for _ in gens]
    for cur in images:
        for g, row in zip(gens, right):
            nxt = naive_product(cur, g.images)
            if nxt not in index:
                if len(images) >= bound:
                    raise OrderBoundExceeded(f"group order exceeds bound {bound}")
                index[nxt] = len(images)
                images.append(nxt)
            row.append(index[nxt])
    return images, index, right


def naive_conjugacy_partition(group: PermGroup) -> set[frozenset[int]]:
    """Conjugation orbits using every element as conjugator."""
    seen: set[int] = set()
    parts: set[frozenset[int]] = set()
    for i in range(group.order):
        if i in seen:
            continue
        orbit = {conjugate(group, i, g) for g in range(group.order)}
        seen |= orbit
        parts.add(frozenset(orbit))
    return parts


def naive_normal_sets(group: PermGroup, cd: ClassData) -> set[frozenset[int]]:
    """All normal subgroups by exhaustive class-union search.

    Walks every subset of nonidentity classes (keep class counts small),
    keeping the unions whose size divides the order and that are closed
    under multiplication.
    """
    k = cd.n_classes
    assert k <= 14, "oracle is exponential in the class count"
    out: set[frozenset[int]] = set()
    for mask in range(1 << (k - 1)):
        members = {0}
        for j in range(k - 1):
            if mask >> j & 1:
                members.update(cd.classes[j + 1])
        if group.order % len(members):
            continue
        if all(group.mult_index(a, b) in members
               for a in members for b in members):
            out.add(frozenset(members))
    return out


def naive_derived_series(group: PermGroup) -> list[frozenset[int]]:
    """[G, G', ...], each term the closure of all pairwise commutators of
    the one before, down to a term equal to its own derived subgroup."""
    term = frozenset(range(group.order))
    series = [term]
    while True:
        comms = sorted({group.elements[commutator(group, i, j)].images
                        for i in term for j in term})
        images, _, _ = naive_closure([Permutation(c) for c in comms], group.degree, group.order)
        nxt = frozenset(group.element_index(Permutation(t, _check=False)) for t in images)
        if nxt == term:
            return series
        series.append(nxt)
        term = nxt


def naive_is_nilpotent(group: PermGroup) -> bool:
    """Upper central series by element-level commutators with the
    generators: Z_(i+1) = {x : [x, g] in Z_i for every generator g}."""
    gen_idx = group.generator_indices()
    z: frozenset[int] = frozenset({0})
    while True:
        if len(z) == group.order:
            return True
        nxt = frozenset(
            i for i in range(group.order)
            if all(commutator(group, i, g) in z for g in gen_idx))
        if len(nxt) == len(z):
            return False
        z = nxt


def naive_frobenius_kernel_condition(group: PermGroup, n_set) -> bool:
    """No nonidentity element of N commutes with an element outside N."""
    outside = [x for x in range(group.order) if x not in n_set]
    return all(group.mult_index(n, x) != group.mult_index(x, n)
               for n in n_set if n != 0 for x in outside)


def cycle_type_of(perm: Permutation) -> tuple[int, ...]:
    """Cycle type as a partition of the degree, fixed points included."""
    lens = sorted((len(c) for c in perm.cycles()), reverse=True)
    fixed = perm.degree - sum(lens)
    return tuple(lens) + (1,) * fixed


def ext_square_value(n: int, rho) -> int:
    """Value at cycle type rho of the exterior square of the standard
    character of the symmetric group on n points, from fixed points only.

    With f1 fixed points and f2 two-cycles the value is
    (f1 - 1)(f1 - 2)/2 - f2, since the squared standard character counts
    ordered fixed pairs and the trace on symmetric pairs removes f(g^2).
    """
    parts = list(rho)
    assert sum(parts) == n
    f1 = parts.count(1)
    f2 = parts.count(2)
    return (f1 - 1) * (f1 - 2) // 2 - f2


def mask_of(class_indices) -> int:
    """Class mask with bit i set for each class index i."""
    return sum(1 << i for i in set(class_indices))


def class_union(cd: ClassData, mask: int) -> frozenset[int]:
    """The elements of the classes whose bits are set in mask."""
    return frozenset(x for i, cls in enumerate(cd.classes) if mask >> i & 1 for x in cls)


def subset_mask(cd: ClassData, subset) -> int:
    """Class mask of a set of elements that is a union of classes."""
    subset = frozenset(subset)
    mask = mask_of(cd.elt_class[x] for x in subset)
    assert class_union(cd, mask) == subset, "not a union of classes"
    return mask


def sorted_by_elements(cd: ClassData, masks) -> list[int]:
    """Class masks sorted by (size, sorted element list), the order
    normal_subgroups had when it closed element sets."""
    return sorted(masks, key=lambda m: (len(class_union(cd, m)),
                                        sorted(class_union(cd, m))))


def row_value_set(table: CharTable, r: int) -> set[Cyc]:
    return set(table.rows[r].values)


def proper_normals(name: str) -> list[frozenset[int]]:
    _, g, _, table, _ = catalog.bundle(name)
    return [n for n in normal_subgroups(table) if 1 < len(n) < g.order]


# ---------------------------------------------------------------------------
# value-set law sweeps (empty list = law held)


def quotient_value_failures(name: str) -> list[str]:
    """cv and ncv never grow when passing to a quotient."""
    ent, g, cd, table, rep = catalog.bundle(name)
    cv_g, ncv_g = set(rep.cv), set(rep.ncv)
    bad = []
    for nsub in proper_normals(name):
        q = quotient_group(g, nsub)
        qt = character_table(q)
        q_cv: set[Cyc] = set()
        q_ncv: set[Cyc] = set()
        for row in qt.rows:
            q_cv.update(row.values)
            q_ncv.update(v for v in row.values if not v.is_positive_natural())
        if not q_cv <= cv_g:
            bad.append(f"{name}/N (|N|={len(nsub)}): quotient cv grew")
        if not q_ncv <= ncv_g:
            bad.append(f"{name}/N (|N|={len(nsub)}): quotient ncv grew")
    return bad


def zero_value_failures(name: str) -> list[str]:
    """Nonabelian groups take the value zero."""
    ent, g, cd, table, rep = catalog.bundle(name)
    if rep.flags.is_abelian:
        return []
    if ZERO not in set(rep.ncv):
        return [f"{name}: nonabelian but 0 is not a value"]
    return []


def rational_row_failures(name: str) -> list[str]:
    """All-rational nonlinear rows contain a negative value."""
    _, g, cd, table, rep = catalog.bundle(name)
    bad = []
    for r, row in enumerate(table.rows):
        if row.degree == 1:
            continue
        vals = set(row.values)
        if all(v.is_rational() for v in vals):
            if not any(v.as_fraction() < 0 for v in vals):
                bad.append(f"{name} row {r}: rational row with no negative")
    return bad


def product_value_failures(product_name: str, left_name: str,
                           right_name: str) -> list[str]:
    """cv of a direct product contains all pairwise products of factor
    values (and hence the factor values themselves)."""
    _, _, _, _, rep_p = catalog.bundle(product_name)
    _, _, _, _, rep_l = catalog.bundle(left_name)
    _, _, _, _, rep_r = catalog.bundle(right_name)
    cv_p = set(rep_p.cv)
    bad = []
    for a in rep_l.cv:
        for b in rep_r.cv:
            for v in (a, b, a * b):
                if v not in cv_p:
                    bad.append(f"{product_name}: missing factor product "
                               f"{v.display()}")
    return bad


def tensor_product_failures(product_name: str, left_name: str,
                            right_name: str, seed: int = 0) -> list[str]:
    """The rows of a direct product are exactly the products chi x psi of
    the factors' rows.  The product acts on the left factor's points
    followed by the right factor's, so a class representative's images,
    split at the left degree, name one element of each factor."""
    _, g, cd, table, _ = catalog.bundle(product_name, seed)
    _, gl, cdl, tl, _ = catalog.bundle(left_name, seed)
    _, gr, cdr, tr, _ = catalog.bundle(right_name, seed)
    cut = gl.degree
    pairs = []
    for rep in cd.reps:
        images = g.elements[rep].images
        left = Permutation(images[:cut])
        right = Permutation(tuple(x - cut for x in images[cut:]))
        pairs.append((cdl.elt_class[gl.element_index(left)],
                      cdr.elt_class[gr.element_index(right)]))
    rows = {tuple(r.values) for r in table.rows}
    products = {tuple(chi.values[i] * psi.values[j] for i, j in pairs)
                for chi in tl.rows for psi in tr.rows}
    bad = []
    if len(rows) != len(table.rows) or len(products) != len(tl.rows) * len(tr.rows):
        bad.append(f"{product_name} (seed {seed}): repeated rows")
    if rows != products:
        bad.append(f"{product_name} (seed {seed}): {len(rows - products)} rows "
                   f"are not products of {left_name} and {right_name} rows")
    return bad


def galois_row_failures(name: str) -> list[str]:
    """Row value sets are closed under the Galois action, and every
    irrational value has a distinct irrational companion in its row."""
    _, g, cd, table, rep = catalog.bundle(name)
    m = 1
    for o in cd.element_orders:
        m = math.lcm(m, o)
    bad = []
    for r, row in enumerate(table.rows):
        vals = set(row.values)
        for v in range(2, m):
            if math.gcd(v, m) != 1:
                continue
            if {x.galois(v) for x in vals} != vals:
                bad.append(f"{name} row {r}: values not Galois-stable (v={v})")
                break
        for x in vals:
            if x.is_rational():
                continue
            if not any(y != x and not y.is_rational() for y in vals):
                bad.append(f"{name} row {r}: lone irrational value "
                           f"{x.display()}")
    return bad


def center_kernel_failures(name: str) -> list[str]:
    """Z(chi)/ker(chi) is the center of G/ker(chi) and is cyclic."""
    ent, g, cd, table, rep = catalog.bundle(name)
    bad = []
    for r, row in enumerate(table.rows):
        ker = class_union(cd, row.kernel)
        zchi = class_union(cd, row.center_z)
        if len(ker) == g.order:
            continue  # principal row: everything collapses
        if len(ker) == 1:  # faithful row: the quotient is G itself
            zg = center(g)
            if zchi != zg:
                bad.append(f"{name} row {r}: Z(chi) differs from Z(G)")
            if not is_cyclic_subset(g, zg):
                bad.append(f"{name} row {r}: Z(G) not cyclic at faithful row")
            continue
        q = quotient_group(g, ker)
        zq = center(q)
        if len(zchi) != len(zq) * len(ker):
            bad.append(f"{name} row {r}: |Z(chi)| != |Z(G/ker)|*|ker|")
        if not is_cyclic_subset(q, zq):
            bad.append(f"{name} row {r}: Z(G/ker) not cyclic")
    return bad


def conjugate_symmetry_failures(name: str) -> list[str]:
    """Values on inverse classes are complex conjugates."""
    _, g, cd, table, rep = catalog.bundle(name)
    bad = []
    for r, row in enumerate(table.rows):
        for i in range(cd.n_classes):
            if row.values[cd.inverse_class[i]] != row.values[i].conjugate():
                bad.append(f"{name} row {r} class {i}: conjugate mismatch")
    return bad


def p_element_failures(name: str) -> list[str]:
    """Divisibility constraints at prime-power-order elements.

    For g of order p**k and rational a = |chi(g)|^2: p divides
    chi(1)^2 - a; in particular chi(g) = 0 forces p | chi(1), and
    |chi(g)| = 1 forces gcd(chi(1), ord(g)) = 1.
    """
    _, g, cd, table, rep = catalog.bundle(name)
    bad = []
    for i in range(1, cd.n_classes):
        o = cd.element_orders[i]
        p = min(k for k in range(2, o + 1) if o % k == 0)
        t = o
        while t % p == 0:
            t //= p
        if t != 1:
            continue  # order has a second prime factor
        for r, row in enumerate(table.rows):
            val = row.values[i]
            a2 = val.abs_squared()
            if not a2.is_rational():
                continue
            a = a2.as_fraction()
            if a.denominator != 1:
                bad.append(f"{name} row {r} class {i}: |value|^2 not integral")
                continue
            if (row.degree ** 2 - a.numerator) % p:
                bad.append(f"{name} row {r} class {i}: p={p} does not divide "
                           f"deg^2 - |value|^2")
            if val.is_zero() and row.degree % p:
                bad.append(f"{name} row {r} class {i}: zero value, p∤degree")
            if a.numerator == 1 and math.gcd(row.degree, o) != 1:
                bad.append(f"{name} row {r} class {i}: unit value, "
                           f"gcd(degree, order) > 1")
    return bad


def nilpotent_rotation_failures(name: str) -> list[str]:
    """Nonlinear rows of nonabelian nilpotent groups contain a rotated
    degree pair chi(1)*eps and its conjugate, eps a nontrivial root of
    unity."""
    _, g, cd, table, rep = catalog.bundle(name)
    if rep.flags.is_abelian or not rep.flags.is_nilpotent:
        return []
    bad = []
    d_sq = {}
    for r, row in enumerate(table.rows):
        if row.degree == 1:
            continue
        deg = Cyc.from_rational(row.degree)
        target = d_sq.setdefault(row.degree,
                                 Cyc.from_rational(row.degree ** 2))
        rotated = [v for v in set(row.values)
                   if v != deg and v.abs_squared() == target]
        if not rotated:
            bad.append(f"{name} row {r}: no rotated degree value")
            continue
        if not all(v.conjugate() in rotated for v in rotated):
            bad.append(f"{name} row {r}: rotated values not conjugate-closed")
    return bad


def nilpotent_ncv_bound_failures(name: str) -> list[str]:
    """Value-count floors for nonabelian nilpotent groups."""
    _, g, cd, table, rep = catalog.bundle(name)
    if rep.flags.is_abelian or not rep.flags.is_nilpotent:
        return []
    bad = []
    if len(rep.ncv) < 3:
        bad.append(f"{name}: nilpotent nonabelian with |ncv| < 3")
    if rep.flags.p_group_p != 2 and len(rep.ncv) < 5:
        bad.append(f"{name}: nilpotent non-2-group with |ncv| < 5")
    if len(rep.cd) >= 3 and len(rep.cdc) < 4:
        bad.append(f"{name}: |cd| >= 3 but |cdc| < 4")
    return bad


def p_group_modulus_failures(name: str) -> list[str]:
    """Nonlinear rows of p-groups never take values of modulus one."""
    _, g, cd, table, rep = catalog.bundle(name)
    if rep.flags.p_group_p is None or rep.flags.is_abelian:
        return []
    bad = []
    for r, row in enumerate(table.rows):
        if row.degree == 1:
            continue
        if any(v.abs_squared() == ONE for v in row.values):
            bad.append(f"{name} row {r}: modulus-one value in a p-group")
    return bad


def naive_sylow2_test(group: PermGroup, half: frozenset[int],
                      o2: frozenset[int]) -> bool:
    """Whether some element of 2-power order outside half commutes with
    every element of o2, by mult_index over all elements."""
    return any(x not in half and bin(group.element_order(x)).count("1") == 1
               and all(group.mult_index(x, y) == group.mult_index(y, x) for y in o2)
               for x in range(group.order))


def all_commute(group: PermGroup, elems) -> bool:
    items = sorted(elems)
    return all(group.mult_index(a, b) == group.mult_index(b, a)
               for pos, a in enumerate(items) for b in items[pos + 1:])


def unit_element_structure_failures(name: str) -> list[str]:
    """Nonabelian groups with an all-modulus-one column have an abelian
    derived subgroup meeting the center trivially."""
    ent, g, cd, table, rep = catalog.bundle(name)
    if rep.flags.is_abelian or not rep.root_of_unity_elements:
        return []
    bad = []
    deriv = class_union(cd, derived_series(table)[1])
    if not all_commute(g, deriv):
        bad.append(f"{name}: derived subgroup not abelian")
    if deriv & center(g) != {0}:
        bad.append(f"{name}: derived subgroup meets the center")
    return bad

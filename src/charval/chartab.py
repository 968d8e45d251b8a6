"""Exact character tables by eigenvector splitting over a finite field.

The table of a group with k classes is recovered from the common
eigenvectors of the class-multiplication matrices over F_p, where p = 1
(mod exponent) and p > 2*sqrt(|G|).  A class matrix is the sparse rows
of (column, count) pairs that ClassData.class_matrix builds once.  The
pending subspaces are kept in reduced echelon form from the moment they
are made.  A pending subspace is the span of the central characters
omega mod p that it holds: these form a basis of F_p^k on which every
class matrix M_i is diagonal, as p does not divide |G| and p = 1 (mod
exponent).  The split starts from the linear characters, each one line,
and one space W.  The linear characters are those of G/G', read off the
cosets of G' (ClassData.derived_cosets, _linear_characters), and their
omega is |C_i| lambda(g_i).  W = {v : sum of v[i] over the classes i
of X is 0, for every coset X of G'} holds the omega of every non-linear
chi, since the sum of chi over a coset of G' is 0: it is |G| / |G : G'|
times sum_lambda conj(lambda(x)) <chi, conj(lambda)>.  W has dimension
k - |G : G'|, the number of non-linear chi, so they span it.  Its
reduced echelon basis needs no reduction: for each coset X = {i_1 <
... < i_m} the rows e_(i_j) - e_(i_m), j < m, sorted by pivot, with
pivot 0 first when G' > 1.  Each omega is 1 at class 0, and
(M_i v)[0] = v[i] because C_i C_0 = C_i, so the eigenvalue of M_i on
omega is omega[i].  Hence the echelon basis of a pending subspace has
pivot 0 first, and M_i is scalar on it exactly when the basis rows
after the first are 0 at column i.  Classes are taken by size, then
index, so the sparse matrices come first; a class matrix is built only
when this rule shows that it splits a pending subspace, and applied
only to the subspaces it splits.  The eigenspace order thus follows the
class sizes, though the eigenspaces themselves do not depend on the
order of the splits.  The eigenvalues on a pending subspace are the
roots of the minimal polynomial of its coordinate e_0 (pivot 0) under
the restriction of M_i: as every omega is 1 at class 0, e_0 sees every
eigenvalue, and that polynomial has one linear factor per eigenspace,
where the characteristic polynomial has one per dimension.  A
quadratic is solved in closed form, by a square root mod p.  A
polynomial f of degree s >= 3 is evaluated at every x in F_p when p <=
_EVAL_FACTOR * s * p.bit_length(), and otherwise reduced to its gcd
with x^p - x and split at random (_distinct_roots).  The split reads M_i
by column: an echelon basis row is 1 at its pivot, 0 at the other
pivots and nonzero elsewhere only in its tail, so its image is the sum
of the columns at its nonzero entries, and the work follows those
entries rather than k per row.  The coordinates of an image are its
entries at the pivots, so its combination of the basis rows agrees
with it at every pivot column by the echelon form, and invariance is
checked at the other columns only.  Each eigenspace is read off one
row reduction (_split_subspace).  Central characters,
degrees, and values are computed mod p, then the values of each row
are lifted exactly to cyclotomic integers through root-of-unity
multiplicities; a value whose multiplicities are constant on each set
{j : gcd(j, m) = g} is rational, a Moebius sum of them (_lift_row).
The lift also gives each row's kernel and centre: at
each class the root multiplicities must sum to the degree, the class
lies in the centre when one root has them all, and in the kernel when
that root is 1.  Each distinct pattern of residues, the central
character at the powers of a class representative, is lifted once per
table: with the prime and the root of unity fixed, the pattern fixes
the class order (its length) and the degree (its entry at the
identity), so it fixes the multiplicities, both checks, the value and
the two bits.  The finished table is then proven to be the group's
table (_self_verify): its central characters must be eigenvectors of
one class-algebra element with distinct eigenvalues, decided modulo a
power of the Dixon prime, with the class matrices the split built and
_mat_vecs, which packs one coordinate of every vector into an integer.
Failure raises OrthogonalityFailure, never a wrong table.
"""

from __future__ import annotations

import math
import operator
import random
from functools import lru_cache
from itertools import combinations, compress

from .cyclo import Cyc, is_prime, prime_factors
from .permcore import ClassData, PermGroup, conjugacy_classes, mask_size


class TooManyClasses(RuntimeError):
    """Class count exceeds the guard for table construction."""


class EigensplitFailure(RuntimeError):
    """Common-eigenspace refinement or the lift broke an internal invariant.

    prime is the Dixon prime and seed the splitting seed, so the failure
    can be reproduced.  indices is () when the cosets of G' are no
    group's (_linear_characters): they differ in size, a generator has
    no power a^n with n <= |G : G'| in the subgroup reached, or the
    characters cannot be extended over it; and when the class matrices
    leave a subspace unsplit.  It is (i,) for the class whose matrix
    failed on a pending subspace: a check of _split_subspace failed, the
    split left whole a subspace that its echelon basis says the matrix
    splits, or a piece of dimension above 1 has no pivot at class 0.  It
    is (row,) for a row without a degree, and (row, class) for a failed
    lift; rows are numbered linear rows first, then in eigenspace order,
    which follows the class sizes, before the table is sorted.  The
    helpers raise with what they know and character_table adds the rest.
    """

    def __init__(self, message: str, prime: int | None = None,
                 seed: int | None = None, indices: tuple[int, ...] = ()):
        super().__init__(f"{message} (prime={prime}, seed={seed}, indices={indices})")
        self.message = message
        self.prime = prime
        self.seed = seed
        self.indices = indices


class OrthogonalityFailure(RuntimeError):
    """A finished table failed its exact self-verification.

    relation names the violated check: "square", "degrees",
    "integrality", "galois", "first", "separation" or "class_algebra".
    indices is () for square and the degree square sum, (row,) for other
    degrees failures and a row without its Galois image, (row, class) for
    integrality, a conductor not dividing p - 1 and class_algebra, (row,
    row) for first and the two rows of one eigenvalue for separation.
    order is |G| and prime the Dixon prime, to reproduce the failure.
    """

    def __init__(self, message: str, relation: str, indices: tuple[int, ...],
                 order: int, prime: int):
        super().__init__(f"{message} (relation={relation}, indices={indices}, "
                         f"order={order}, prime={prime})")
        self.relation = relation
        self.indices = indices
        self.order = order
        self.prime = prime


class NonIntegralCodegree(RuntimeError):
    """|G : ker| / degree failed to be an integer."""


class PrimeSearchExhausted(RuntimeError):
    """No usable prime below the search cap."""


_PRIME_CAP = 10 ** 7


def choose_dixon_prime(group: PermGroup, classes: ClassData | None = None) -> int:
    """Smallest prime p = 1 (mod exponent) with p > 2*sqrt(|G|), strictly;
    ValueError if classes belong to another group object."""
    cd = classes if classes is not None else conjugacy_classes(group)
    if cd.group is not group:
        raise ValueError("classes belong to another group")
    e = math.lcm(*cd.element_orders)
    p = e + 1
    while p <= _PRIME_CAP:
        if p * p > 4 * group.order and is_prime(p):
            return p
        p += e
    raise PrimeSearchExhausted(f"no prime = 1 mod {e} below {_PRIME_CAP}")


# --- polynomial arithmetic over F_p (ascending coefficient lists) ---

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _psub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        av = a[i] if i < len(a) else 0
        bv = b[i] if i < len(b) else 0
        out[i] = (av - bv) % p
    return _ptrim(out)


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] = (out[i + j] + av * bv) % p
    return _ptrim(out)


def _pdivmod(a: list[int], m: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by m over F_p."""
    a = a[:]
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    q = [0] * max(len(a) - dm, 0)
    while len(a) - 1 >= dm and a:
        coef = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        q[shift] = coef
        for i, mv in enumerate(m):
            a[shift + i] = (a[shift + i] - coef * mv) % p
        _ptrim(a)
    return _ptrim(q), a


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _ppowmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _pdivmod(base, m, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), m, p)[1]
        base = _pdivmod(_pmul(base, base, p), m, p)[1]
        e >>= 1
    return result


# the crossover of _distinct_roots, from the timings in its docstring
_EVAL_FACTOR = 10


def _distinct_roots(f: list[int], p: int, rng: random.Random) -> list[int]:
    """The distinct roots in F_p of f, ascending.

    Up to degree 2 the roots come in closed form (_quadratic_roots).
    Above it, a degree s with p <= _EVAL_FACTOR * s * p.bit_length()
    takes _evaluated_roots, s passes over p residues; a larger p takes
    _split_roots, whose cost grows with s^2 log p.  Timed on products of
    s distinct linear factors, s from 3 to 30, at p = 41, 421, 547, 1009,
    2521, 3673 and 6091 (one core of a 2-core x86-64 host, Python 3.11,
    median over 5 polynomials of the best of 3), against the ratio
    p / (s * p.bit_length()): evaluation won at every ratio up to 10.2,
    and the split at every ratio from 18.2 up.  Between them evaluation
    won at p <= 1009 and the split at p >= 2521, so the crossover lies
    between 10 and 17; at p = 6091, s = 3 evaluation took 2.0 ms
    against 0.21 ms.
    """
    s = len(f) - 1
    if s <= 2:
        return _quadratic_roots(f, p)
    if p <= _EVAL_FACTOR * s * p.bit_length():
        return _evaluated_roots(f, p)
    return _split_roots(f, p, rng)


def _evaluated_roots(f: list[int], p: int) -> list[int]:
    """The x in F_p, ascending, at which f vanishes: f evaluated at every
    x at once, one Horner pass over the p residues per coefficient."""
    xs = range(p)
    acc = [f[-1]] * p
    for c in reversed(f[:-1]):
        acc = [(a * x + c) % p for a, x in zip(acc, xs)]
    return [x for x, v in enumerate(acc) if not v]


def _split_roots(f: list[int], p: int, rng: random.Random) -> list[int]:
    """The distinct roots in F_p of f, ascending, by Cantor-Zassenhaus: f
    is replaced by its gcd with x^p - x, which keeps one linear factor
    per root, so the random splitting of _split_linear ends."""
    f = _pgcd(_psub(_ppowmod([0, 1], p, f, p), [0, 1], p), f, p)
    roots: list[int] = []
    _split_linear(f, p, rng, roots)
    roots.sort()
    return roots


def _split_linear(g: list[int], p: int, rng: random.Random, out: list[int]) -> None:
    """Append the roots of g, a product of distinct linear factors, to out;
    a cubic or more takes a random step (x + a)^((p-1)/2) - 1 per try."""
    d = len(g) - 1
    if d <= 2:
        out.extend(_quadratic_roots(g, p))
        return
    while True:
        a = rng.randrange(p)
        t = _ppowmod([a, 1], (p - 1) // 2, g, p)
        h = _pgcd(_psub(t, [1], p), g, p)
        if 0 < len(h) - 1 < d:
            cofactor, rem = _pdivmod(g, h, p)
            if rem:
                raise EigensplitFailure("polynomial division was not exact", p)
            _split_linear(h, p, rng, out)
            _split_linear(cofactor, p, rng, out)
            return


def _quadratic_roots(f: list[int], p: int) -> list[int]:
    """The distinct roots in F_p of f of degree at most 2, ascending.

    For c + b x + a x^2 they are (-b +- r) / 2a with r^2 = b^2 - 4ac:
    none when the discriminant is a non-residue (Euler's criterion), one
    when it is 0.  p is odd.
    """
    if len(f) < 3:
        return [-f[0] * pow(f[1], p - 2, p) % p] if len(f) == 2 else []
    c, b, a = f
    disc = (b * b - 4 * a * c) % p
    if disc and pow(disc, (p - 1) // 2, p) != 1:
        return []
    r = _sqrt_mod(disc, p) if disc else 0
    inv = pow(2 * a, p - 2, p)
    return sorted({(r - b) * inv % p, (-r - b) * inv % p})


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a nonzero square a mod an odd prime p (Tonelli-Shanks).

    With p - 1 = q 2^s, q odd, x = a^((q+1)/2) has x^2 = a t for
    t = a^q, whose order is a power of 2.  A primitive root is a
    non-residue, so its q-th power z has order 2^s.  While t has order
    2^i > 1, x is multiplied by b = z^(2^(s-i-1)), of order 2^(i+1),
    and t by b^2, so x^2 = a t still holds and the order of t drops.
    """
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    x, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if t != 1:
        z = pow(_primitive_root(p), q, p)
        while t != 1:
            # t has order 2^i, i < s
            i, u = 0, t
            while u != 1:
                u = u * u % p
                i += 1
            b = pow(z, 1 << (s - i - 1), p)
            x, z, s = x * b % p, b * b % p, i
            t = t * z % p
    return x


def _minimal_polynomial(coords: list[list[int]], p: int) -> list[int]:
    """The monic minimal polynomial of the coordinate e_0 under the restriction.

    coords[t] holds the coordinates of the image of basis vector t, so
    the restriction R maps a row vector y to yR, (yR)[t] = sum_s y[s] *
    coords[t][s].  The rows y_n = e_0 R^n are reduced one by one against
    the earlier ones, each kept with the polynomial that writes it in
    the y_j; the first that reduces to 0 gives the monic m of least
    degree with e_0 m(R) = 0.  _split_subspace shows why its roots are
    the eigenvalues of R.
    """
    y = [1] + [0] * (len(coords) - 1)
    reduced: list[tuple[int, list[int], list[int]]] = []
    while True:
        vec, poly = y, [0] * len(reduced) + [1]
        for piv, row, row_poly in reduced:
            f = vec[piv]
            if f:
                vec = [(a - f * b) % p for a, b in zip(vec, row)]
                for j, c in enumerate(row_poly):
                    poly[j] = (poly[j] - f * c) % p
        piv = next((t for t, x in enumerate(vec) if x), None)
        if piv is None:
            return poly
        inv = pow(vec[piv], p - 2, p)
        reduced.append((piv, [x * inv % p for x in vec], [c * inv % p for c in poly]))
        y = [sum(map(operator.mul, y, row)) % p for row in coords]


# --- F_p linear algebra ---

def _mat_vecs(mat: list[list[tuple[int, int]]], vecs: list[list[int]],
              p: int) -> list[list[int]]:
    """[mat v mod p for v in vecs], mat nonnegative, vecs in [0, p):
    coordinate t of every vector is packed into one int, vector s at bit
    W*s, W holding mat's largest row sum times p - 1, so nothing carries."""
    width = (max(sum([a for _, a in row]) for row in mat) * (p - 1)).bit_length() or 1
    cols = [sum([x << width * s for s, x in enumerate(col)]) for col in zip(*vecs)]
    mask = (1 << width) - 1
    shifts = range(0, width * len(vecs), width)
    images = []
    for row in mat:
        x = sum([a * cols[t] for t, a in row])
        images.append([(x >> shift & mask) % p for shift in shifts])
    return [list(v) for v in zip(*images)]


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p: (nonzero reduced rows, pivot columns).

    Entries must lie in [0, p).  Reduced row r is 1 at pivot column r and
    0 at every other pivot column.  The rows below the pivot row are zero
    left of column c, so the pivot row is too, and each elimination step
    touches only the columns where the pivot row is nonzero.
    """
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
        row = m[r]
        inv = pow(row[c], p - 2, p)
        entries = [(t, x * inv % p) for t, x in enumerate(row[c:], c) if x]
        for t, y in entries:
            row[t] = y
        for rr in range(n_rows):
            other = m[rr]
            f = other[c]
            if f and rr != r:
                for t, y in entries:
                    other[t] = (other[t] - f * y) % p
        pivots.append(c)
    return m[:len(pivots)], pivots


def _split_subspace(space: tuple[list[list[int]], list[int]],
                    mat: list[list[tuple[int, int]]], p: int,
                    rng: random.Random) -> list[tuple[list[list[int]], list[int]]]:
    """Split an invariant subspace into eigenspaces of mat restricted to it.

    space is (basis, pivots) in reduced echelon form, as _rref returns
    it: basis[s] is 1 at pivots[s] and 0 at every other pivot, so the
    coordinates of a vector of the subspace are its entries at the
    pivots.  Returns the eigenspaces in the same form, eigenvalues
    ascending.  character_table applies mat only where the echelon rule
    says it is not scalar, so a single piece comes back only when that
    rule failed, and the caller refuses it.

    mat's rows are turned into columns once.  A reduced echelon row is
    1 at its pivot and 0 at the other pivots, so its other nonzero
    entries, its tail, lie at non-pivot columns, and the image of
    basis[s] is column pivots[s] plus x times column t for each tail
    entry (t, x): a sum over the nonzero entries of the row and of the
    columns they meet, where mat's rows would each be read against the
    whole vector.  The coordinates of the image are its entries at the
    pivots.  At a pivot column the combination of the basis rows with
    these coordinates is the coordinate itself, since each row is 1 at
    its own pivot and 0 at the others, so it agrees with the image there
    by the echelon form, and invariance is checked at the non-pivot
    columns only, against the tails.

    The eigenvalues are the roots of _minimal_polynomial, the minimal
    polynomial of the coordinate e_0 under the restriction R.  The space
    is spanned by central characters omega, each 1 at class 0, and its
    basis has pivot 0 first, so e_0 S = (1, ..., 1) for the matrix S
    whose columns are their coordinates, and R = S D S^-1 with D
    diagonal.  Then e_0 R^n = sum_lam lam^n u_lam, u_lam the sum of the
    rows of S^-1 at eigenvalue lam; these are nonzero and independent,
    so the minimal polynomial is prod (x - lam), one factor per
    eigenspace.  A polynomial that misses an eigenvalue leaves the
    eigenspaces short of the dimension, which is refused as not
    semisimple.

    Each eigenspace takes one _rref, of R - lam I with its columns in
    reverse order, so a reduced row with pivot at coordinate t is 0 after
    t.  The null vector of a free coordinate f, 1 at f and 0 at the other
    free ones, is then nonzero only at f and at bound coordinates after
    f: these vectors N are in reduced echelon form, so independent.  So
    is N B for the echelon basis B: its row for f is 0 before pivots[f]
    and 1 there, and at each other pivots[f'] it reads N's 0 at f'.
    Reduced echelon form is unique, so the pieces are what _rref of them
    would return.  A row of N B is N's entries at the pivots, plus the
    tails of the basis rows times those entries.
    """
    basis, piv = space
    d, k = len(basis), len(mat)
    cols: list[list[tuple[int, int]]] = [[] for _ in mat]
    for j, row in enumerate(mat):
        for t, a in row:
            cols[t].append((j, a))
    pivot_set = set(piv)
    free_cols = [c for c in range(k) if c not in pivot_set]
    tails = [[(t, v[t]) for t in compress(range(k), v) if t != c]
             for v, c in zip(basis, piv)]
    # coords[t][s]: coefficient of basis[s] in the image of basis[t]
    coords = []
    for s, tail in enumerate(tails):
        w = [0] * k
        for j, a in cols[piv[s]]:
            w[j] = a
        for t, x in tail:
            for j, a in cols[t]:
                w[j] += x * a
        coef = [w[c] % p for c in piv]
        for y, other in zip(coef, tails):
            if y:
                for t, x in other:
                    w[t] -= y * x
        if any(w[c] % p for c in free_cols):
            raise EigensplitFailure("subspace not invariant under class matrix", p)
        coords.append(coef)
    roots = _distinct_roots(_minimal_polynomial(coords, p), p, rng)
    # R[s][t] = coords[t][s], with coordinate t in column d - 1 - t
    transposed = [list(row) for row in zip(*reversed(coords))]
    pieces = []
    for lam in roots:
        shifted = [row[:] for row in transposed]
        for s, row in enumerate(shifted):
            row[d - 1 - s] = (row[d - 1 - s] - lam) % p
        reduced, rpiv = _rref(shifted, p)
        bound = {d - 1 - c: row for row, c in zip(reduced, rpiv)}
        free = [f for f in range(d) if f not in bound]
        if not free:
            raise EigensplitFailure("eigenvalue without eigenvector", p)
        vecs = []
        for f in free:
            terms = [(f, 1)] + [(t, -row[d - 1 - f] % p) for t, row in bound.items()]
            vec = [0] * k
            for t, y in terms:
                if y:
                    vec[piv[t]] = y
                    for c, x in tails[t]:
                        vec[c] += y * x
            for c in free_cols:
                vec[c] %= p
            vecs.append(vec)
        pieces.append((vecs, [piv[f] for f in free]))
    if sum(len(pivots) for _, pivots in pieces) != d:
        raise EigensplitFailure("restriction is not semisimple", p)
    return pieces


def _primitive_root(p: int) -> int:
    fac = prime_factors(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
        g += 1


# Character and CharTable keep __slots__, not NamedTuple: rows are built per
# character and read in the split, proof and structure loops; slots read faster.
class Character:
    """One irreducible character: exact values indexed by class, and the
    class masks (bit i set for class i) of ker chi and Z(chi)."""

    __slots__ = ("values", "degree", "kernel", "center_z")

    def __init__(self, values: tuple[Cyc, ...], degree: int,
                 kernel: int, center_z: int):
        self.values = values
        self.degree = degree
        self.kernel = kernel
        self.center_z = center_z

    def __repr__(self):
        return f"Character(degree={self.degree})"


class CharTable:
    """Finished, self-verified character table."""

    __slots__ = ("group", "classes", "rows", "dixon_prime")

    def __init__(self, group: PermGroup, classes: ClassData,
                 rows: tuple[Character, ...], dixon_prime: int):
        self.group = group
        self.classes = classes
        self.rows = rows
        self.dixon_prime = dixon_prime

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(r.degree for r in self.rows)

    def to_json_dict(self) -> dict:
        cd = self.classes
        shown = {v: v.display() for v in {v for r in self.rows for v in r.values}}
        return {
            "order": self.group.order,
            "class_count": cd.n_classes,
            "dixon_prime": self.dixon_prime,
            "classes": [
                {
                    "size": cd.sizes[i],
                    "element_order": cd.element_orders[i],
                    "representative": self.group.elements[cd.reps[i]].cycle_string(),
                }
                for i in range(cd.n_classes)
            ],
            "rows": [
                {
                    "degree": r.degree,
                    "values": [shown[v] for v in r.values],
                }
                for r in self.rows
            ],
        }


def character_table(group: PermGroup, classes: ClassData | None = None,
                    seed: int = 0, max_classes: int = 130) -> CharTable:
    """Compute the full irreducible character table, exactly.

    Args:
      group: fully enumerated permutation group.
      classes: this group object's class data (computed if omitted).
      seed: PRNG seed for the equal-degree splitting steps; any seed
        yields the same table, only the internal search path differs.
      max_classes: guard on the class count.

    The linear rows are read off G/G' and numbered first; the
    non-linear ones come from splitting W, the vectors whose sums over
    the cosets of G' vanish, which their central characters span (see
    the module docstring).  Every row is lifted and the table proven.

    Raises:
      ValueError: classes belong to another group object.
      TooManyClasses: class count exceeds the guard.
      EigensplitFailure, OrthogonalityFailure: internal invariant broken
        (never expected on a correct build), among them cosets of G' that
        are no group's: of unequal sizes, or with a generator whose walk
        to a power in the subgroup reached passes |G : G'| steps.
    """
    cd = classes if classes is not None else conjugacy_classes(group)
    k = cd.n_classes
    if k > max_classes:
        raise TooManyClasses(f"{k} classes exceeds guard {max_classes}")
    p = choose_dixon_prime(group, cd)
    rng = random.Random(seed)

    def failure(message: str, *indices: int) -> EigensplitFailure:
        return EigensplitFailure(message, p, seed, indices)

    e = math.lcm(*cd.element_orders)
    w = pow(_primitive_root(p), (p - 1) // e, p)
    w_pow = [pow(w, x, p) for x in range(e)]
    try:
        coset_of, linear = _linear_characters(cd, e)
    except EigensplitFailure as exc:
        raise failure(exc.message) from exc
    # each linear central character is a line; W, the vectors whose sum
    # over every coset of G' is 0, holds the rest (see the module docstring)
    spaces = [([[size * w_pow[lam[x]] % p for size, x in zip(cd.sizes, coset_of)]], [0])
              for lam in linear]
    last = {x: i for i, x in enumerate(coset_of)}
    pivots = [i for i, x in enumerate(coset_of) if last[x] != i]
    if pivots:
        spaces.append(([[1 if t == i else p - 1 if t == last[coset_of[i]] else 0
                         for t in range(k)] for i in pivots], pivots))
    for i in sorted(range(1, k), key=lambda i: (cd.sizes[i], i)):
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        # M_i is the scalar basis[0][i] on a pending space unless a later
        # basis row is nonzero at column i (see the module docstring)
        splits = [any(row[i] for row in basis[1:]) for basis, _ in spaces]
        if not any(splits):
            continue
        mat = cd.class_matrix(i)
        refined = []
        for space, split in zip(spaces, splits):
            if not split:
                refined.append(space)
                continue
            try:
                pieces = _split_subspace(space, mat, p, rng)
            except EigensplitFailure as exc:
                raise failure(exc.message, i) from exc
            if len(pieces) == 1:
                raise failure("class matrix left whole a subspace it splits", i)
            if any(len(piv) > 1 and piv[0] for _, piv in pieces):
                raise failure("pending subspace has no pivot at the identity class", i)
            refined.extend(pieces)
        spaces = refined
    if any(len(basis) != 1 for basis, _ in spaces):
        raise failure("class matrices left a subspace unsplit")

    order = group.order
    inv_sizes = [pow(sz, p - 2, p) for sz in cd.sizes]
    w_inv = pow(w, p - 2, p)

    powers = [cd.powers(i) for i in range(k)]
    canon: dict[Cyc, Cyc] = {}
    lifted: dict[tuple[int, ...], tuple[Cyc, bool, bool]] = {}
    rows: list[Character] = []
    for r, (basis, _) in enumerate(spaces):
        v = basis[0]
        if v[0] == 0:
            raise failure("eigenvector vanishes at the identity class", r)
        inv0 = pow(v[0], p - 2, p)
        omega = [x * inv0 % p for x in v]
        s_val = 0
        for i in range(k):
            s_val += omega[i] * omega[cd.inverse_class[i]] % p * inv_sizes[i]
        s_val %= p
        if s_val == 0:
            raise failure("degree denominator vanished mod p", r)
        d_sq = order % p * pow(s_val, p - 2, p) % p
        # At most one d in 1..sqrt|G| has d^2 = |G|/s mod p: for two, d1 != d2,
        # p would divide (d1 - d2)(d1 + d2), whose factors are nonzero and
        # below 2*sqrt|G| < p.
        d = next((d for d in range(1, math.isqrt(order) + 1)
                  if d * d % p == d_sq), None)
        if d is None:
            raise failure("no degree d <= sqrt|G| with d^2 = |G|/s mod p", r)
        theta = [d * omega[i] % p * inv_sizes[i] % p for i in range(k)]
        try:
            values, kernel, center_z = _lift_row(theta, d, powers, p, e, w_inv, canon, lifted)
        except EigensplitFailure as exc:
            raise failure(exc.message, r, *exc.indices) from exc
        if values[0] != d:
            raise failure("identity value disagrees with degree", r)
        rows.append(Character(tuple(values), d, kernel, center_z))

    shown = {v: v.display() for v in {v for r in rows for v in r.values}}
    rows.sort(key=lambda r: (r.degree, tuple([shown[v] for v in r.values])))
    table = CharTable(group, cd, tuple(rows), p)
    _self_verify(table)
    return table


def _linear_characters(cd: ClassData, e: int) -> tuple[tuple[int, ...], list[list[int]]]:
    """(coset_of, chars): the class-to-coset map of ClassData.derived_cosets
    and each character lambda of A = G/G', as the exponents x mod e with
    lambda = zeta_e^x, one per coset.

    The characters are extended over the images a_s of the generators.
    A character lambda of a subgroup S extends to S<a_s> as follows: with
    n least such that a_s^n lies in S, the cosets a_s^t S for t < n are
    distinct and cover S<a_s>, and mu(a_s^t y) = t m + lambda(y) for each
    of the n solutions m of n m = lambda(a_s^n) (mod e).  There are n, as
    n divides the order o of a_s, which divides e, and lambda(a_s^n),
    whose order divides o / n, is a multiple of n e / o.

    Products that are no group's must fail, not loop: every coset must
    have one size, the walk to a_s^n stops after |A| steps, and the
    extensions must be defined and reach every coset; each check raises
    EigensplitFailure.
    """
    coset_of, moves = cd.derived_cosets()
    n_cosets = max(coset_of) + 1
    sizes = [0] * n_cosets
    for x, size in zip(coset_of, cd.sizes):
        sizes[x] += size
    if len(set(sizes)) > 1:
        raise EigensplitFailure(f"cosets of G' have sizes {sorted(set(sizes))}")
    # members: the cosets of S, in the order reached; chars: each
    # character of S, as its exponents at members
    members, chars = [0], [[0]]
    for move in moves:
        in_s = set(members)
        x, n = move[0], 1
        while x not in in_s:
            if n == n_cosets:
                raise EigensplitFailure(f"no power a^n of a generator with n <= {n_cosets} "
                                        f"lies in the subgroup reached")
            x, n = move[x], n + 1
        if n == 1:
            continue
        if e % n:
            raise EigensplitFailure(f"a generator's power a^{n} is the first in the "
                                    f"subgroup reached, but {n} does not divide {e}")
        top = members.index(x)
        layers = [members]
        for _ in range(1, n):
            layers.append([move[y] for y in layers[-1]])
        members = [y for layer in layers for y in layer]
        if len(set(members)) != len(members):
            raise EigensplitFailure(f"the cosets a^t S of a generator a, t < {n}, "
                                    f"are not distinct")
        extended = []
        for lam in chars:
            if lam[top] % n:
                raise EigensplitFailure(f"lambda(a^{n}) = {lam[top]} mod {e} "
                                        f"is not a multiple of {n}")
            for j in range(n):
                m = lam[top] // n + j * (e // n)
                extended.append([(t * m + v) % e for t in range(n) for v in lam])
        chars = extended
    if len(members) != n_cosets:
        raise EigensplitFailure(f"the generators reach {len(members)} of "
                                f"{n_cosets} cosets of G'")
    position = [0] * n_cosets
    for t, x in enumerate(members):
        position[x] = t
    return coset_of, [[lam[t] for t in position] for lam in chars]


def _lift_row(theta: list[int], d: int, powers: list[tuple[int, ...]],
              p: int, e: int, w_inv: int, canon: dict[Cyc, Cyc],
              lifted: dict[tuple[int, ...], tuple[Cyc, bool, bool]]
              ) -> tuple[list[Cyc], int, int]:
    """Lift one row: (values, kernel, center_z), the last two class masks.

    At class i of order m the multiplicity of zeta_m^j among the d
    eigenvalues is read mod p, as an integer below p/2.  The
    multiplicities must sum to d, so the value is a sum of d roots of
    unity; its modulus is d exactly when one root has multiplicity d
    (class i lies in the centre), and it is d itself when that root is 1
    (class i lies in the kernel).

    powers[i] lists the classes of the powers of rep(i), cd.powers(i).
    lifted holds the table's lifts so far, (value, in_centre, in_kernel)
    keyed by theta at the powers of rep(i).  p, e and w_inv are fixed for
    the table; the key's length is m and its first entry theta at the
    identity, which is d.  So the multiplicities, both checks and the
    result are functions of the key, and a stored key needs no lift.  A
    key that fails a check raises before it is stored, so the failure
    names the first (row, class) that meets it.

    The value is sum_j mu[j] zeta_m^j.  When mu is constant on each set
    {j : gcd(j, m) = g}, g dividing m, that is sum_g mu[g] times the sum
    of the primitive (m/g)-th roots of unity, which is mu(m/g) for the
    Moebius function mu: the value is the integer sum_g mu[g] mu(m/g)
    (_moebius_sum), with no cyclotomic reduction.  Every other pattern
    is reduced by Cyc.from_exponents.

    canon maps each value lifted so far in the table to its one object.
    Equal values lifted at classes of different orders are built apart;
    through canon they are one object, so every later set, dict or
    sort-key lookup of a value finds it by identity, not by Cyc.__eq__.
    """
    values: list[Cyc] = [Cyc.zero()] * len(powers)
    kernel = center = 0
    for i, pw in enumerate(powers):
        key = tuple([theta[c] for c in pw])
        lift = lifted.get(key)
        if lift is None:
            m = len(key)
            mus = _multiplicities(key, p, pow(w_inv, e // m, p))
            for j, mu in enumerate(mus):
                if 2 * mu >= p:
                    raise EigensplitFailure(
                        f"multiplicity {mu} of root {j} at class {i} out of range mod {p}",
                        p, None, (i,))
            if sum(mus) != d:
                raise EigensplitFailure(
                    f"multiplicities at class {i} sum to {sum(mus)}, not {d}",
                    p, None, (i,))
            rational = _moebius_sum(mus)
            if rational is not None:
                value = Cyc.from_rational(rational)
            else:
                value = Cyc.from_exponents(m, {j: mu for j, mu in enumerate(mus) if mu})
            value = canon.setdefault(value, value)
            lift = lifted[key] = (value, d in mus, mus[0] == d)
        values[i], in_centre, in_kernel = lift
        if in_centre:
            center |= 1 << i
        if in_kernel:
            kernel |= 1 << i
    return values, kernel, center


def _multiplicities(theta_pow: tuple[int, ...], p: int, wm_inv: int) -> list[int]:
    """mu[j] = (1/m) sum_t theta_pow[t] * wm_inv^(j*t) mod p, m = len(theta_pow).

    theta_pow[t] is the central-character image of g^t and wm_inv a
    primitive m-th root of unity mod p, inverted; mu[j] is then the
    multiplicity of the j-th power of the root as an eigenvalue of g,
    read as a residue in [0, p).  Each mu[j] is one dot product with row
    j of _inverse_dft.  Where mu is constant on each set {j : gcd(j, m)
    = g}, the eigenvalues sum to the integer sum_g mu[g] mu(m/g) for the
    Moebius function mu, since the primitive n-th roots of unity sum to
    mu(n) (_lift_row).
    """
    return [sum(map(operator.mul, theta_pow, row)) % p
            for row in _inverse_dft(len(theta_pow), p, wm_inv)]


@lru_cache(maxsize=256)
def _inverse_dft(m: int, p: int, wm_inv: int) -> tuple[tuple[int, ...], ...]:
    """Rows j < m of (1/m) wm_inv^(j*t) mod p, t < m: the inverse
    discrete Fourier transform of length m over F_p."""
    m_inv = pow(m, p - 2, p)
    rows = []
    for j in range(m):
        wj = pow(wm_inv, j, p)
        row = [m_inv]
        for _ in range(1, m):
            row.append(row[-1] * wj % p)
        rows.append(tuple(row))
    return tuple(rows)


def _moebius_sum(mus: list[int]) -> int | None:
    """sum_j mus[j] zeta_m^j, m = len(mus), as the int sum_g mus[g]
    mu(m/g) of _lift_row when mus is constant on each set {j : gcd(j, m)
    = g}; None otherwise."""
    orbit_of, signs = _gcd_orbits(len(mus))
    if list(map(mus.__getitem__, orbit_of)) != mus:
        return None
    return sum([mus[g] * sign for g, sign in signs])


@lru_cache(maxsize=None)
def _gcd_orbits(m: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """(orbit_of, signs) for _moebius_sum: orbit_of[j] = gcd(j, m) mod m,
    the least exponent of j's set, and signs the pairs (g mod m, mu(m/g))
    for the divisors g of m with mu(m/g) != 0, the g = m / prod(S) for
    the sets S of primes of m, with mu(m/g) = (-1)^|S|."""
    primes = prime_factors(m)
    orbit_of = tuple(math.gcd(j, m) % m for j in range(m))
    signs = tuple((m // math.prod(sub) % m, (-1) ** r)
                  for r in range(len(primes) + 1) for sub in combinations(primes, r))
    return orbit_of, signs


def _unit_generators(e: int) -> list[int]:
    """Generators of the units mod e: per prime power q^a exactly dividing
    e, those mod q^a (a primitive root g mod q, or g + q if g^(q-1) = 1
    mod q^2; -1 and 5 for q = 2), each lifted to 1 mod e / q^a."""
    gens = []
    for q in prime_factors(e):
        qa = math.gcd(e, q ** e.bit_length())
        if q > 2:
            g = _primitive_root(q)
            local = [g + q if pow(g, q - 1, q * q) == 1 else g]
        else:
            local = [-1, 5][:(qa > 2) + (qa > 4)]
        gens += [(1 + (g - 1) * (e // qa) * pow(e // qa, -1, qa)) % e for g in local]
    return gens


def _proof_modulus(p: int, bound: int) -> int:
    """The least power of p above bound."""
    return p ** next(m for m in range(1, bound.bit_length() + 1) if p ** m > bound)


def _self_verify(table: CharTable) -> None:
    """Prove that the rows are the group's irreducible characters, or
    raise OrthogonalityFailure; it reads the class matrices ClassData keeps.

    The checks, in order: square (k rows); degrees (each d_r >= 1
    divides |G|, the squares sum to |G|, X_r[0] = d_r); integrality;
    galois (e, the lcm of the value conductors, divides p - 1 for the
    Dixon prime p, and the rows are closed under zeta -> zeta^u, value
    by value, u over generators of the units mod e); first (<X_r, X_r> =
    |G|); separation and class_algebra.  Classes are taken by (size,
    index), and class i joins M = sum c_i M_i when it splits rows left
    with one lambda_r = sum c_i omega_r[i], omega_r[t] = |C_t| X_r[t] /
    d_r, c_i the least value in 1..k^2 that keeps every split; the
    lambda_r must end distinct, and M omega_r = lambda_r omega_r.  So
    M's eigenspaces are lines, and each true central character, an
    eigenvector of M that is 1 at class 0, is one omega_r: X_r = (d_r /
    chi(1)) chi for a bijection r <-> chi, and the norm gives d_r = chi(1).

    The last three checks are decided mod P, the least power of p above
    B = max(k^2 |G| max|C| (d L + L^2), |G| (L^2 + 1)), d the largest
    degree and L the largest sum of |numerators| of a value, at zeta_e
    -> w = pow(w_p, P // p, P), the Teichmueller lift of a primitive
    e-th root of unity w_p mod p.  Times d_r^2, a relation is an alpha in
    Z[zeta_e], d_r sum_t M[j][t] |C_t| X_r[t] - (sum_i c_i |C_i| X_r[i])
    |C_j| X_r[j] or sum_t |C_t| |X_r[t]|^2 - |G|, whose conjugates are
    at most B in size, as sum_t a[i][j][t] |C_t| = |C_i| |C_j|.  As e
    divides p - 1, Phi_e has distinct roots w^u mod p^m, u a unit mod e,
    so Z[zeta_e] / (P) is the product of phi(e) copies of Z / P.  By the
    Galois closure alpha at row r under w^u is alpha at row sigma_u(X_r)
    under w, so an alpha that passes lies in P Z[zeta_e], and its norm,
    a multiple of P^phi(e) below B^phi(e) < P^phi(e) in size, is 0.
    """
    cd = table.classes
    k = cd.n_classes
    order = table.group.order
    rows = table.rows
    sizes = cd.sizes

    def fail(message: str, relation: str, *indices: int):
        raise OrthogonalityFailure(message, relation, indices, order, table.dixon_prime)

    if len(rows) != k:
        fail(f"{len(rows)} rows for {k} classes", "square")
    degs = [r.degree for r in rows]
    if sum(d * d for d in degs) != order:
        fail("degree squares do not sum to the order", "degrees")
    for r, d in enumerate(degs):
        if d < 1 or order % d:
            fail("degree is not a positive divisor of the order", "degrees", r)
    p = choose_dixon_prime(table.group, cd)
    # A row is read as the indices of its (canonical) values, each checked once.
    index: dict[Cyc, int] = {}
    ids = []
    for r, row in enumerate(rows):
        id_row = []
        for i, v in enumerate(row.values):
            n = index.get(v)
            if n is None:
                if v.den != 1:
                    fail("value is not an algebraic integer", "integrality", r, i)
                if (p - 1) % v.n:
                    fail(f"value conductor does not divide {p} - 1", "galois", r, i)
                n = index[v] = len(index)
            id_row.append(n)
        if row.values[0] != degs[r]:
            fail("identity value is not the degree", "degrees", r)
        ids.append(tuple(id_row))
    e = math.lcm(*(v.n for v in index))
    id_rows = set(ids)
    for u in _unit_generators(e):
        image = [index.get(v.galois(u), -1) for v in index]
        for r, id_row in enumerate(ids):
            if tuple([image[n] for n in id_row]) not in id_rows:
                fail(f"row's image under zeta -> zeta^{u} is not a row", "galois", r)

    big = max(sum(map(abs, v.num)) for v in index)
    modulus = _proof_modulus(p, max(
        k * k * order * max(sizes) * (max(degs) * big + big * big),
        order * (big * big + 1)))
    w = pow(pow(_primitive_root(p), (p - 1) // e, p), modulus // p, modulus)
    w_pow = [pow(w, t, modulus) for t in range(e)]
    residue, residue_conj = (   # at w, and at w^-1 for the complex conjugate
        [sum([c * w_pow[sign * j * (e // v.n)] for j, c in enumerate(v.num)]) % modulus
         for v in index] for sign in (1, -1))
    for r, id_row in enumerate(ids):
        norm = sum([size * residue[n] * residue_conj[n] for size, n in zip(sizes, id_row)])
        if (norm - order) % modulus:
            fail("first orthogonality failed", "first", r, r)

    omegas = [[size * residue[n] * inv % modulus for size, n in zip(sizes, id_row)]
              for inv, id_row in zip([pow(d, -1, modulus) for d in degs], ids)]
    lam = [0] * k
    coefs: dict[int, int] = {}
    for i in sorted(range(1, k), key=lambda i: (sizes[i], i)):
        blocks = len(set(lam))
        if blocks == k:
            break
        col = [omega[i] for omega in omegas]
        refined = len(set(zip(lam, col)))
        if refined == blocks:
            continue
        # fewer than k^2 pairs of rows, each meeting again at one c at most
        c = next(c for c in range(1, k * k + 1)
                 if len({(x + c * y) % modulus for x, y in zip(lam, col)}) == refined)
        coefs[i] = c
        lam = [(x + c * y) % modulus for x, y in zip(lam, col)]
    if len(set(lam)) < k:
        r, s = next((r, s) for s in range(k) for r in range(s) if lam[r] == lam[s])
        fail("no class separates the rows", "separation", r, s)

    combined = [[0] * k for _ in range(k)]
    for i, c in coefs.items():
        for acc, mat_row in zip(combined, cd.class_matrix(i)):
            for t, a in mat_row:
                acc[t] += c * a
    images = _mat_vecs([[(t, a) for t, a in enumerate(acc) if a] for acc in combined],
                       omegas, modulus)
    for r, (x, omega, image) in enumerate(zip(lam, omegas, images)):
        expected = [x * y % modulus for y in omega]
        if image != expected:
            j = next(j for j in range(k) if image[j] != expected[j])
            fail("class algebra relation failed", "class_algebra", r, j)


def codegree(table: CharTable, row: int) -> int:
    """|G : ker chi| / chi(1) as an exact integer."""
    r = table.rows[row]
    ker_size = mask_size(table.classes, r.kernel)
    if table.group.order % ker_size:
        raise NonIntegralCodegree("kernel size does not divide the order")
    index = table.group.order // ker_size
    if index % r.degree:
        raise NonIntegralCodegree(f"{index} not divisible by degree {r.degree}")
    return index // r.degree

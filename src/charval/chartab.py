"""Exact character tables by eigenvector splitting over a finite field.

The table of a group with k classes is recovered from the common
eigenvectors of the class-multiplication matrices over F_p, where p = 1
(mod exponent) and p > 2*sqrt(|G|).  A class matrix is stored sparsely,
as the (column, value) pairs of each row's nonzero residues.  The
pending subspaces are kept in reduced echelon form from the moment they
are made, starting from the identity.  A pending subspace is the span
of the central characters omega mod p that it holds: these form a basis
of F_p^k on which every class matrix M_i is diagonal, as p does not
divide |G| and p = 1 (mod exponent).  Each omega is 1 at class 0, and
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
quadratic is solved in closed form, by a square root mod p; a
polynomial of higher degree is split at random.  Central characters,
degrees, and values are computed mod p, then the values of each row
are lifted exactly to cyclotomic integers through root-of-unity
multiplicities.  The lift also gives each row's kernel and centre: at
each class the root multiplicities must sum to the degree, the class
lies in the centre when one root has them all, and in the kernel when
that root is 1.  Each distinct pattern of residues, the central
character at the powers of a class representative, is lifted once per
table: with the prime and the root of unity fixed, the pattern fixes
the class order (its length) and the degree (its entry at the
identity), so it fixes the multiplicities, both checks, the value and
the two bits.  The finished table is then proven exactly: it must have
one row per class, every value must be an algebraic integer, the value
at an inverse class must equal the conjugate, and first orthogonality
must hold.  Each value's integer vector mod x^e - 1 is packed into one
integer at x = 2^W (Kronecker substitution), so a row pair's relation is
one exact dot product of packed integers.  The digit width W comes from
the table's own values: with L the largest sum of |numerators| of a
value, no digit of a relation exceeds |G| * (L^2 + 1), and 2^(W - 2)
lies above that, so the digits, folded by x^e = 1, are read back exactly
and each relation is decided by one remainder by the e-th cyclotomic
polynomial, cyclo.power_basis.  The power maps on classes carry row
pairs to row pairs, so a pair whose rows are the power-map images of a
pair already checked is not checked again.  For a square table first
orthogonality implies the second.  Failure raises OrthogonalityFailure
instead of returning a wrong table.
"""

from __future__ import annotations

import math
import operator
import random

from .cyclo import Cyc, is_prime, power_basis, prime_factors
from .permcore import ClassData, PermGroup, conjugacy_classes, mask_size


class TooManyClasses(RuntimeError):
    """Class count exceeds the guard for table construction."""


class EigensplitFailure(RuntimeError):
    """Common-eigenspace refinement or the lift broke an internal invariant.

    prime is the Dixon prime and seed the splitting seed, so the failure
    can be reproduced.  indices is (i,) for the class whose matrix failed
    on a pending subspace: a check of _split_subspace failed, the split
    left whole a subspace that its echelon basis says the matrix splits,
    or a piece of dimension above 1 has no pivot at class 0.  It is
    (row,) for a row without a degree, and (row, class) for a failed
    lift; rows are numbered in eigenspace order, which follows the class
    sizes, before the table is sorted.  The helpers raise with what they
    know and character_table adds the rest.
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
    "integrality", "conjugate" or "first".  indices is the offending row
    pair (first) or (row, class) pair (integrality, conjugate); for
    degrees it is the row whose degree does not divide the order, or
    empty when the squares miss the order; for square (a row count other
    than the class count) it is empty.  order is |G| and prime the
    table's Dixon prime, so the failure can be reproduced.
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
    """Smallest prime p = 1 (mod exponent) with p > 2*sqrt(|G|), strictly."""
    cd = classes if classes is not None else conjugacy_classes(group)
    e = math.lcm(*cd.element_orders)
    p = e + 1
    while p <= _PRIME_CAP:
        if p * p > 4 * group.order and is_prime(p):
            return p
        p += e
    raise PrimeSearchExhausted(f"no prime = 1 mod {e} below {_PRIME_CAP}")


def _class_matrix(classes: ClassData, i: int, p: int) -> list[list[tuple[int, int]]]:
    """Row j holds the pairs (t, a[i][j][t] mod p) with a nonzero residue."""
    return [[(t, x % p) for t, x in enumerate(row) if x % p]
            for row in classes.product_rows(i)]


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


def _distinct_roots(f: list[int], p: int, rng: random.Random) -> list[int]:
    """The distinct roots in F_p of f, ascending.

    Up to degree 2 the roots come in closed form (_quadratic_roots).
    Above it, f is first replaced by its gcd with x^p - x, which keeps
    one linear factor per root, so the random splitting of _split_linear
    ends (Cantor-Zassenhaus).
    """
    if len(f) > 3:
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

def _mat_vec(mat: list[list[tuple[int, int]]], vec: list[int], p: int) -> list[int]:
    return [sum([a * vec[t] for t, a in row]) % p for row in mat]


def _combine(coefs: list[int], basis: list[list[int]], p: int) -> list[int]:
    """sum(coefs[s] * basis[s]) mod p."""
    out = [0] * len(basis[0])
    for cs, bs in zip(coefs, basis):
        if cs:
            for c, x in enumerate(bs):
                if x:
                    out[c] += cs * x
    return [x % p for x in out]


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


def _nullspace(mat: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right nullspace, deterministic (free vars ascending)."""
    reduced, pivots = _rref(mat, p)
    n = len(mat[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [0] * n
        v[free] = 1
        for row, c in zip(reduced, pivots):
            v[c] = (-row[free]) % p
        basis.append(v)
    return basis


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
    """
    basis, piv = space
    d = len(basis)
    images = [_mat_vec(mat, v, p) for v in basis]
    # coords[t][s]: coefficient of basis[s] in the image of basis[t]
    coords = []
    for w in images:
        coef = [w[c] for c in piv]
        if _combine(coef, basis, p) != w:
            raise EigensplitFailure("subspace not invariant under class matrix", p)
        coords.append(coef)
    # restriction matrix R[s][t] = coefficient of basis[s] in image of basis[t]
    rmat = [[coords[t][s] for t in range(d)] for s in range(d)]
    roots = _distinct_roots(_minimal_polynomial(coords, p), p, rng)
    pieces = []
    total = 0
    for lam in roots:
        shifted = [[(rmat[i][j] - (lam if i == j else 0)) % p for j in range(d)]
                   for i in range(d)]
        null = _nullspace(shifted, p)
        if not null:
            raise EigensplitFailure("eigenvalue without eigenvector", p)
        piece = _rref([_combine(cvec, basis, p) for cvec in null], p)
        if len(piece[1]) != len(null):
            raise EigensplitFailure("subspace basis is dependent", p)
        pieces.append(piece)
        total += len(null)
    if total != d:
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
                    seed: int = 0, max_classes: int = 60) -> CharTable:
    """Compute the full irreducible character table, exactly.

    Args:
      group: fully enumerated permutation group.
      classes: precomputed class data (recomputed if omitted).
      seed: PRNG seed for the equal-degree splitting steps; any seed
        yields the same table, only the internal search path differs.
      max_classes: guard on the class count.

    Raises:
      TooManyClasses: class count exceeds the guard.
      EigensplitFailure, OrthogonalityFailure: internal invariant broken
        (never expected on a correct build).
    """
    cd = classes if classes is not None else conjugacy_classes(group)
    k = cd.n_classes
    if k > max_classes:
        raise TooManyClasses(f"{k} classes exceeds guard {max_classes}")
    p = choose_dixon_prime(group, cd)
    rng = random.Random(seed)

    def failure(message: str, *indices: int) -> EigensplitFailure:
        return EigensplitFailure(message, p, seed, indices)

    spaces = [([[int(i == j) for j in range(k)] for i in range(k)], list(range(k)))]
    for i in sorted(range(1, k), key=lambda i: (cd.sizes[i], i)):
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        # M_i is the scalar basis[0][i] on a pending space unless a later
        # basis row is nonzero at column i (see the module docstring)
        splits = [any(row[i] for row in basis[1:]) for basis, _ in spaces]
        if not any(splits):
            continue
        mat = _class_matrix(cd, i, p)
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
    e = math.lcm(*cd.element_orders)
    w = pow(_primitive_root(p), (p - 1) // e, p)
    w_inv = pow(w, p - 2, p)

    powers = [cd.powers(i) for i in range(k)]
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
            values, kernel, center_z = _lift_row(theta, d, powers, p, e, w_inv, lifted)
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


def _galois_maps(cd: ClassData) -> set[tuple[int, ...]]:
    """The permutations i -> class of rep(i)^r of the classes, r over the
    units mod the exponent, the identity permutation left out.  The
    Galois conjugate of a row by zeta -> zeta^r takes at class i the
    row's value at perm[i]."""
    e = math.lcm(*cd.element_orders)
    powers = [cd.powers(i) for i in range(cd.n_classes)]
    maps = {tuple([pw[r % len(pw)] for pw in powers])
            for r in range(2, e) if math.gcd(r, e) == 1}
    maps.discard(tuple(range(cd.n_classes)))
    return maps


def _lift_row(theta: list[int], d: int, powers: list[tuple[int, ...]],
              p: int, e: int, w_inv: int,
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
            value = Cyc.from_exponents(m, {j: mu for j, mu in enumerate(mus) if mu})
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
    read as a residue in [0, p).
    """
    m = len(theta_pow)
    m_inv = pow(m, p - 2, p)
    mus = []
    for j in range(m):
        wj = pow(wm_inv, j, p)
        acc = 0
        term = 1
        for t in range(m):
            acc += theta_pow[t] * term
            term = term * wj % p
        mus.append(acc % p * m_inv % p)
    return mus


def _self_verify(table: CharTable) -> None:
    """Prove the table exactly or raise OrthogonalityFailure.

    The table must be square, so that second orthogonality follows from
    the first.  Every value must have denominator 1 (den).  A value is
    kept canonical, at its minimal conductor, so equal numbers are equal
    Cycs, and the conjugate relation, the value at the inverse class is
    the complex conjugate, is decided by equality, each distinct value
    conjugated once.  For first orthogonality, with e the lcm of the
    value conductors (a divisor of the exponent), each value is read as
    the vector of its integer numerators (num) mod x^e - 1 (zeta_n^j ->
    x^(j*e/n), complex conjugation negates exponents), and that vector
    is packed into one integer at x = 2^W: slot t sits at bit W*t, and
    in the conjugate slot (-t) mod e.  A row pair's relation is then one
    integer, sum_i |C_i| * packed(a_i) * packed(conj(b_i)), minus |G| on
    the diagonal, whose base-2^W digits are the relation's 2e - 1
    coefficients before x^e = 1 is applied.

    The digits are signed, and read exactly when W is wide enough.  Let
    l(v) be the sum of |num| of a value and L the largest l over the
    table.  A product of two values has coefficients of size at most L^2
    and the class sizes sum to |G|, so no digit exceeds |G| * (L^2 + 1)
    in size, and W is the least width with 2^(W - 2) above that bound.
    A corrupted table thus gets wider digits, never overflowing ones.
    Reducing the integer mod 2^(W*e) - 1 adds digit t + e to digit t,
    which is x^e = 1.  A folded digit is at most twice the bound, so at
    most 2^(W - 1) - 2, and with 2^(W - 1) added to every digit each lies
    in [1, 2^W - 2]: that biased vector is a positive integer below the
    modulus, so it is the residue of the relation plus the bias, digit
    for digit, with no carries.  Its digits are read off by shifts, the
    bias is taken off, and the vector is decided by _vanishes, one
    remainder by Phi_e (cyclo.power_basis).

    The power maps of _galois_maps that permute the classes and keep
    class sizes permute the rows of a true table, and a size-keeping
    bijection pi keeps the inner product, which conjugates values and
    does not read inverse classes: <a o pi, b o pi> = sum_i |C_i|
    a(pi i) conj(b(pi i)) = sum_j |C_j| a(j) conj(b(j)) = <a, b>.  So
    where a o pi is row c and b o pi row d, the pair (c, d) follows from
    (a, b).  Pairs are walked in order, each one checked unless it is
    the image of a pair already checked; images are looked up by the
    indices of their values, so a corrupted row is nobody's image and
    its pairs are checked.  The first failing relation is thus the one
    the full check would report.
    """
    cd = table.classes
    k = cd.n_classes
    order = table.group.order
    rows = table.rows
    sizes, inverse = cd.sizes, cd.inverse_class

    def fail(message: str, relation: str, *indices: int):
        raise OrthogonalityFailure(message, relation, indices, order, table.dixon_prime)

    # With k rows, first orthogonality X D X* = |G| I makes X invertible
    # and gives X* X = |G| D^-1, which is second orthogonality.
    if len(rows) != k:
        fail(f"{len(rows)} rows for {k} classes", "square")
    degs = [r.degree for r in rows]
    if sum(d * d for d in degs) != order:
        fail("degree squares do not sum to the order", "degrees")
    for r, d in enumerate(degs):
        if order % d:
            fail("degree does not divide the order", "degrees", r)
    # Each distinct value gets an index, and a row is read as the tuple of
    # its values' indices; values are canonical, so equal indices mean
    # equal numbers.
    index: dict[Cyc, int] = {}
    ids = []
    for r, row in enumerate(rows):
        id_row = []
        for i, v in enumerate(row.values):
            n = index.get(v)
            if n is None:
                if v.den != 1:
                    fail("value is not an algebraic integer", "integrality", r, i)
                n = index[v] = len(index)
            id_row.append(n)
        ids.append(tuple(id_row))
    # The relation at (r, inverse(i)) holds exactly when the one at (r, i)
    # does, so only i <= inverse(i) is decided; a failure at i is met first
    # at its twin, just as the full check would meet it.
    # conj[n] is -1 when the conjugate of value n is no value of the table.
    conj = [index.get(v.conjugate(), -1) for v in index]
    for r, id_row in enumerate(ids):
        for i in range(k):
            if i <= inverse[i] and id_row[inverse[i]] != conj[id_row[i]]:
                fail("inverse classes are not conjugates", "conjugate", r, i)
    # Every value lies in Q(zeta_e), and equality there is equality in
    # any larger cyclotomic field, such as that of the group exponent.
    e = math.lcm(*(v.n for v in index))
    # Values are packed width bits a slot; the docstring shows why a
    # relation's digits, biased by half, are read back exactly.
    bound = order * (max(sum(map(abs, v.num)) for v in index) ** 2 + 1)
    width = bound.bit_length() + 2
    digit, half = (1 << width) - 1, 1 << width - 1
    modulus = (1 << width * e) - 1
    bias = modulus // digit * half
    packed, packed_conj = [], []
    for v in index:
        step = e // v.n
        terms = [(j * step, c) for j, c in enumerate(v.num) if c]
        packed.append(sum([c << width * x for x, c in terms]))
        packed_conj.append(sum([c << width * (-x % e) for x, c in terms]))
    weighted = [[size * packed[n] for size, n in zip(sizes, id_row)] for id_row in ids]
    conjugated = [[packed_conj[n] for n in id_row] for id_row in ids]
    perms = [perm for perm in _galois_maps(cd)
             if sorted(perm) == list(range(k))
             and all(sizes[perm[i]] == sizes[i] for i in range(k))]
    row_of = {id_row: r for r, id_row in enumerate(ids)}
    images = [[row_of.get(tuple([id_row[t] for t in perm])) for perm in perms]
              for id_row in ids]
    implied_pairs: set[tuple[int, int]] = set()
    for a in range(k):
        wa = weighted[a]
        for b in range(a, k):
            if (a, b) in implied_pairs:
                continue
            total = sum(map(operator.mul, wa, conjugated[b]))
            if a == b:
                total -= order
            # folded == bias exactly when every digit is 0
            folded = (total + bias) % modulus
            acc = [0] * e if folded == bias else \
                [(folded >> width * t & digit) - half for t in range(e)]
            if not _vanishes(acc):
                fail("first orthogonality failed", "first", a, b)
            # distinct rows with one image are equal rows, whose relation
            # expects 0 where the image's own expects |G|
            for ia, ib in zip(images[a], images[b]):
                if ia is not None and ib is not None and (ia == ib) == (a == b):
                    implied_pairs.add((min(ia, ib), max(ia, ib)))


def _vanishes(acc: list[int]) -> bool:
    """True iff sum(acc[t] * zeta_e^t) == 0, e = len(acc)."""
    return not any(acc) or not any(power_basis(acc, len(acc)))


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

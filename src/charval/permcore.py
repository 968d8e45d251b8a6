"""Finite permutation groups with full element enumeration.

Groups here are small (order bounded, default 2500), so the element list
is materialized, as image tuples, by breadth-first closure over the
generators, and classes are answered by exact enumeration.  Every
structural question is read off the group's proven character table as
class masks (bit i set for class i): a normal closure is an
intersection of irreducible kernels, the rows of G/N are the rows with
N in their kernel, and each centre Z(G/N) is an intersection of the
rows' Z(chi).  The derived
series, O_p, the Frobenius kernel, the socle and a chief series are
normal closures of a few classes over a known term; only
normal_subgroups and four claims of check_expected build every normal
subgroup (normal_masks), and check_two_degrees builds those of index at
most m (large_normal_masks).  Element order is
canonical: BFS from the identity with the generator list in the given
order, which makes every downstream computation deterministic.

The enumeration keeps the products it computes: right[s][y] is the index
of y*g_s for every element y and generator g_s, and the BFS tree it
walked, the parent and generator that first reached each element.  Any
product by a fixed element is then read off these tables in one pass
over that tree (PermGroup.left_mult): conjugacy classes, inverses,
quotients, the class matrices ClassData keeps and the cosets of G' are
integer lookups, not compositions.  PermGroup.mult_index composes one
pair, for the commutators of derived_series and the powers of a
representative; no other module calls either product.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from functools import reduce
from operator import add, and_, itemgetter, or_
from typing import TYPE_CHECKING, NamedTuple

from .cyclo import is_p_power, prime_factors

if TYPE_CHECKING:
    from .chartab import Character, CharTable


class BadPoint(ValueError):
    """A bad point in cycle notation, at (cycle, offset) position and, when
    parsed from text, at 1-based column."""

    def __init__(self, message: str, position: tuple[int, int]):
        super().__init__(message)
        self.position = position
        self.column: int | None = None


class RepeatedPoint(BadPoint):
    """A point occurs twice in cycle notation."""


class PointOutOfRange(BadPoint):
    """A point in cycle notation is outside 1..degree."""


class OrderBoundExceeded(RuntimeError):
    """Generator closure grew past the configured order bound."""


class NotNormal(ValueError):
    """Quotient requested by a subset that is not a normal subgroup."""


class InvariantViolation(RuntimeError):
    """A computed structure contradicts a theorem it must satisfy (a bug,
    never bad input)."""


class ParseError(ValueError):
    """Group-file syntax error, with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class Permutation:
    """A permutation of {0, ..., degree-1} stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images, _check: bool = True):
        images = tuple(images)
        if _check:
            try:
                images = tuple(map(operator.index, images))
            except TypeError:
                raise ValueError(f"images must be integers: {images}") from None
            if sorted(images) != list(range(len(images))):
                raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)), _check=False)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # Composition "apply self, then other".
        return Permutation(_then(self.images)(other.images), _check=False)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation(tuple(inv), _check=False)

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def order(self) -> int:
        return _order(self.images)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each rotated to start at its least point,
        sorted by that point."""
        return _cycles(self.images)

    def cycle_string(self) -> str:
        """1-based disjoint cycle notation; identity is "()"."""
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cyc)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.cycle_string()})"


def _cycles(images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The nontrivial cycles of an image tuple (Permutation.cycles)."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            seen[start] = True
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = images[x]
        out.append(tuple(cyc))
    return tuple(out)


def _order(images: tuple[int, ...]) -> int:
    """The order of an image tuple: the lcm of its cycle lengths."""
    return math.lcm(*map(len, _cycles(images)))


def _then(a: tuple[int, ...]):
    """The map from the image tuple b to that of a*b ("apply a, then b"),
    b[a[x]] for each point x, as one C-level itemgetter call.  itemgetter
    of a single index returns a bare item, not a tuple; a permutation of at
    most one point is the identity, so there a*b is b itself."""
    return itemgetter(*a) if len(a) > 1 else tuple


def perm_from_cycles(cycles, degree: int) -> Permutation:
    """Build a permutation from 0-based cycles, validating points.

    Args:
      cycles: iterable of point sequences, e.g. [(0, 1, 2), (3, 4)].
      degree: number of points.

    Raises:
      PointOutOfRange: a point is not in 0..degree-1.
      RepeatedPoint: a point occurs twice (within or across cycles).
    """
    images = list(range(degree))
    seen: set[int] = set()
    for c, cyc in enumerate(cycles):
        cyc = list(cyc)
        for j, p in enumerate(cyc):
            if not 0 <= p < degree:
                raise PointOutOfRange(f"point {p + 1} outside 1..{degree}", (c, j))
            if p in seen:
                raise RepeatedPoint(f"point {p + 1} repeated", (c, j))
            seen.add(p)
        for i, p in enumerate(cyc):
            images[p] = cyc[(i + 1) % len(cyc)]
    return Permutation(tuple(images), _check=False)


def parse_cycle_text(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation like "(1 2 3)(4 5)"; "()" is the identity.

    Raises ParseError on bad syntax, as line 1 of text with the column of
    the bad token, and RepeatedPoint / PointOutOfRange with the column of
    the bad point; parse_group_file maps the column onto the file.
    """
    cycles: list[list[int]] = []
    columns: list[list[int]] = []
    s = text.strip()
    lead = len(text) - len(text.lstrip())
    i = 0
    while i < len(s):
        if s[i] != "(":
            raise ParseError("expected '('", 1, lead + i + 1)
        j = s.find(")", i + 1)
        if j < 0:
            raise ParseError("unclosed cycle", 1, lead + i + 1)
        cyc, cols = [], []
        for tok in re.finditer(r"[^\s,]+", s[i + 1:j]):
            column = lead + i + 2 + tok.start()
            if not tok.group().isdigit():
                raise ParseError(f"bad point {tok.group()!r}", 1, column)
            cyc.append(int(tok.group()) - 1)
            cols.append(column)
        if cyc:
            cycles.append(cyc)
            columns.append(cols)
        i = j + 1
        while i < len(s) and s[i] == " ":
            i += 1
    try:
        return perm_from_cycles(cycles, degree)
    except BadPoint as exc:
        c, j = exc.position
        exc.column = columns[c][j]
        raise


# Degree of the regular action at the default order bound; a group file
# past it is refused before any permutation of that many points is built.
MAX_DEGREE = 2500


def parse_group_file(text: str, bound: int = 2500) -> "PermGroup":
    """Parse the group-description format.

    An optional first line ``degree N`` fixes the degree; without it the
    degree is the largest point named.  Either is at most MAX_DEGREE.
    Each further nonblank line: one generator in 1-based cycle notation.
    ``#`` starts a comment; blank lines ignored.
    """
    lines = [(lineno, raw, raw.split("#", 1)[0].strip())
             for lineno, raw in enumerate(text.splitlines(), start=1)]
    lines = [item for item in lines if item[2]]
    if lines and lines[0][2].split()[0] == "degree":
        lineno, raw, header = lines.pop(0)
        parts = header.split()
        if len(parts) != 2 or not parts[1].isdigit():
            raise ParseError("expected 'degree N'", lineno, 1)
        degree, column = int(parts[1]), raw.index(parts[1]) + 1
        if degree < 1:
            raise ParseError("degree must be at least 1", lineno, column)
    else:
        degree, lineno, column = max(
            ((int(tok.group()), lineno, raw.index(line[0]) + tok.start() + 1)
             for lineno, raw, line in lines for tok in re.finditer(r"\d+", line)),
            default=(0, 1, 1))
        if degree < 1:
            raise ParseError("no 'degree N' header and no point to infer it from", 1, 1)
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} above {MAX_DEGREE}", lineno, column)
    gens: list[Permutation] = []
    for lineno, raw, line in lines:
        start = raw.index(line[0])
        try:
            gens.append(parse_cycle_text(line, degree))
        except ParseError as exc:
            raise ParseError(exc.message, lineno, start + exc.column) from exc
        except BadPoint as exc:
            raise ParseError(str(exc), lineno, start + exc.column) from exc
    if not gens:
        gens = [Permutation.identity(degree)]
    return PermGroup.from_generators(gens, degree=degree, bound=bound)


class Elements:
    """A read-only sequence view of a group's elements over its image
    tuples: len, int indexing and iteration in BFS order.  Each access
    wraps one tuple as a Permutation; the tuples are the only copy kept,
    so a caller that needs only a few elements wraps only those."""

    __slots__ = ("_images",)

    def __init__(self, images: list[tuple[int, ...]]):
        self._images = images

    def __len__(self) -> int:
        return len(self._images)

    def __getitem__(self, i: int) -> Permutation:
        return Permutation(self._images[operator.index(i)], _check=False)

    def __iter__(self):
        for images in self._images:
            yield Permutation(images, _check=False)


class PermGroup:
    """A fully enumerated permutation group.

    The closure's image tuples are the only element store.  elements is a
    read-only view over them (Elements) that wraps a Permutation per
    access; elements[0] is the identity, and the rest follow BFS order
    over the generators, which is the canonical element order used
    everywhere.  Products follow mult_index's convention: x*y applies x,
    then y, and each is one C-level itemgetter call on image tuples
    (_then).

    The BFS keeps the product of every element by every generator:
    right[s][y] is the index of y*g_s.  It also keeps its tree: element
    j >= 1 was first reached as pos*g_s, with pos < j, and _parents[j-1]
    is pos and _via[j-1] is s.  Any product a*j is then (a*pos)*g_s =
    right[s][a*pos], read in one pass over the tree (left_mult).

    _parents is a list of the int objects the index dict already holds,
    one pointer per element: a fresh int per element would cost about
    150 KiB more on S7.  _via is bytes, one byte per element, or past
    256 generators, which a byte cannot number, a list of the generator
    numbers.  Neither form needs array or struct, whose import loads an
    extension module and lengthens start-up.
    """

    __slots__ = ("degree", "generators", "elements", "order", "_images", "_index",
                 "_right", "_parents", "_via", "_inv")

    def __init__(self, degree, generators, images, index, right, parents, via):
        self.degree = degree
        self.generators = generators
        self.elements = Elements(images)
        self.order = len(images)
        self._images = images
        self._index = index
        self._right = right
        self._parents = parents
        self._via = via
        self._inv = None

    @classmethod
    def from_generators(cls, generators, degree: int | None = None, bound: int = 2500) -> "PermGroup":
        """Breadth-first closure of the generators from the identity.

        The closure runs on plain image tuples: each element cur builds
        _then(cur), an itemgetter, once, and its call on a generator's
        images is the image tuple of cur*g.  The group keeps the list of
        those tuples as its element store and builds no Permutation.

        Each new element records its BFS parent and generator as it is
        reached, the tree _replay walks.  The parent is the int object the
        index dict holds for it, carried beside its image tuple in ids,
        so the tree makes no new int; the generator numbers are packed
        into bytes when there are at most 256 generators.

        Args:
          generators: permutations, all of the same degree.
          degree: optional; inferred from the generators.
          bound: raise OrderBoundExceeded when the closure passes this.
        """
        gens = list(generators)
        if degree is None:
            if not gens:
                raise ValueError("need generators or an explicit degree")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("mixed degrees among generators")
        ident = tuple(range(degree))
        images = [ident]
        index = {ident: 0}
        right: list[list[int]] = [[] for _ in gens]
        ids, parents, via = [0], [], []
        steps = [(s, g.images, row.append) for s, (g, row) in enumerate(zip(gens, right))]
        get, new_id, new_parent, new_via = index.get, ids.append, parents.append, via.append
        for pos, cur in zip(ids, images):
            step = _then(cur)
            for s, gi, append in steps:
                nxt = step(gi)
                j = get(nxt)
                if j is None:
                    if len(images) >= bound:
                        raise OrderBoundExceeded(
                            f"group order exceeds bound {bound}")
                    j = index[nxt] = len(images)
                    images.append(nxt)
                    new_id(j)
                    new_parent(pos)
                    new_via(s)
                append(j)
        # a byte holds a generator number below 256
        if len(gens) <= 256:
            via = bytes(via)
        return cls(degree, tuple(gens), images, index, tuple(right), parents, via)

    def element_index(self, perm: Permutation) -> int:
        try:
            return self._index[perm.images]
        except KeyError:
            raise KeyError(f"{perm!r} is not in the group") from None

    def mult_index(self, i: int, j: int) -> int:
        return self._index[_then(self._images[i])(self._images[j])]

    def _replay(self, table: list[int], lefts) -> list[int]:
        """Extend table along the BFS tree the closure recorded: for each
        element j first reached as pos*g_s, append lefts[s][table[pos]].
        pos < j, so table[pos] is already there."""
        append = table.append
        for pos, s in zip(self._parents, self._via):
            append(lefts[s][table[pos]])
        return table

    def left_mult(self, a: int) -> list[int]:
        """The index of a*y for every element y, by table lookup only:
        a*(pos*g_s) = (a*pos)*g_s, one lookup in right per element, in
        the order of the recorded tree."""
        return self._replay([a], self._right)

    def _generator_inverse(self, s: int) -> int:
        # walk the powers of g_s until the next one is the identity
        row, x = self._right[s], 0
        while row[x]:
            x = row[x]
        return x

    def _inverses(self) -> list[int]:
        """The index of y^-1 for every element y, computed once."""
        if self._inv is None:
            # (pos*g_s)^-1 = g_s^-1 * pos^-1
            lefts = [self.left_mult(self._generator_inverse(s))
                     for s in range(len(self._right))]
            self._inv = self._replay([0], lefts)
        return self._inv

    def inverse_index(self, i: int) -> int:
        return self._inverses()[i]

    def element_order(self, i: int) -> int:
        return _order(self._images[i])

    def generator_indices(self) -> tuple[int, ...]:
        return tuple(self._index[g.images] for g in self.generators)

    def __repr__(self):
        return f"PermGroup(order={self.order}, degree={self.degree})"


class ClassData:
    """Conjugacy classes in canonical order.

    Classes are sorted by (element order of representative, class size,
    image tuple of the representative); the identity class is index 0.
    The representative of a class is its least element index.  powers
    and class_matrix build on first use and keep one copy per class.
    """

    __slots__ = ("group", "classes", "reps", "sizes", "element_orders",
                 "elt_class", "inverse_class", "_powers", "_matrices")

    def __init__(self, group: PermGroup):
        self.group = group
        n = group.order
        assigned = [-1] * n
        raw: list[list[int]] = []
        # x^g = g^-1 x g = ((x^-1 g)^-1) g, by lookups in right and inv
        right, inv = group._right, group._inverses()
        for seed in range(n):
            if assigned[seed] != -1:
                continue
            cls_id = len(raw)
            orbit = [seed]
            assigned[seed] = cls_id
            frontier = [seed]
            while frontier:
                x = frontier.pop()
                for row in right:
                    y = row[inv[row[inv[x]]]]
                    if assigned[y] == -1:
                        assigned[y] = cls_id
                        orbit.append(y)
                        frontier.append(y)
            raw.append(sorted(orbit))
        keyed = sorted((group.element_order(c[0]), len(c), group._images[c[0]], c)
                       for c in raw)
        self.classes = tuple(tuple(c) for *_, c in keyed)
        self.reps = tuple(c[0] for c in self.classes)
        self.sizes = tuple(len(c) for c in self.classes)
        self.element_orders = tuple(o for o, *_ in keyed)
        elt_class = [0] * n
        for ci, cls in enumerate(self.classes):
            for x in cls:
                elt_class[x] = ci
        self.elt_class = tuple(elt_class)
        self.inverse_class = tuple(
            self.elt_class[group.inverse_index(r)] for r in self.reps)
        self._powers: dict[int, tuple[int, ...]] = {}
        self._matrices: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = {}

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def powers(self, i: int) -> tuple[int, ...]:
        """The class indices of rep(i)**u for u below the representative's
        order m, so entry u % m is the class of rep(i)**u for any u.

        The first call for class i reads them by repeated multiplication.
        """
        powers = self._powers.get(i)
        if powers is None:
            mult, rep = self.group.mult_index, self.reps[i]
            out, x = [0], rep
            for u in range(1, self.element_orders[i]):
                if u > 1:
                    x = mult(x, rep)
                out.append(self.elt_class[x])
            powers = self._powers[i] = tuple(out)
        return powers

    def power_class(self, i: int, t: int) -> int:
        """Class index of rep(i)**t."""
        powers = self.powers(i)
        return powers[t % len(powers)]

    def class_matrix(self, i: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """M_i as sparse rows: row j holds (t, a[i][j][t]) for each nonzero
        a[i][j][t], t ascending, the number of pairs in C_i x C_j whose
        product is one fixed element of C_t: #{y in C_j : rep_i y in C_t}
        |C_i| / |C_t|.  Counted once, from group.left_mult(rep_i), and kept
        as tuples, which no caller can change."""
        mat = self._matrices.get(i)
        if mat is None:
            left = self.group.left_mult(self.reps[i])
            rows: list[list[tuple[int, int]]] = [[] for _ in self.classes]
            size_i = self.sizes[i]
            for row, cls in zip(rows, self.classes):
                counts = Counter(map(self.elt_class.__getitem__, map(left.__getitem__, cls)))
                for t, count in sorted(counts.items()):
                    num, rem = divmod(count * size_i, self.sizes[t])
                    if rem:
                        raise InvariantViolation(f"class product count {count} * {size_i} "
                                                 f"not divisible by class size {self.sizes[t]}")
                    row.append((t, num))
            mat = self._matrices[i] = tuple(map(tuple, rows))
        return mat

    def derived_cosets(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The cosets of G' as unions of classes: (coset_of, moves).

        coset_of[i] is the coset of class i, cosets numbered by their least
        class, so coset 0 is G'.  moves[s][x] is the coset of y*g_s for y
        in coset x, read from right[s] at the representative of its least
        class.

        G' is the normal closure of the commutators c = [g_a, g_b] of the
        generators.  For every element y and generators a < b that do not
        commute, the class of z = y g_b g_a is merged with the class of
        y g_a g_b = z c, by union-find over classes; both products are
        lookups in right, and z runs over G as y does.  z c is conjugate to
        c z, so z is joined to c z, and then to n z for every n in G': c^g z
        is conjugate to c (g z g^-1), which is joined to g z g^-1, in the
        class of z.  No merge leaves a coset, as c lies in G' and G/G' is
        abelian, so each block is one coset.
        """
        elt_class, k = self.elt_class, self.n_classes
        right = self.group._right
        shifted = [i * k for i in elt_class]
        edges: set[int] = set()   # class(y g_b g_a) * k + class(y g_a g_b)
        for b, rb in enumerate(right):
            for ra in right[:b]:
                if ra[rb[0]] != rb[ra[0]]:
                    edges.update(map(add, map(shifted.__getitem__, map(ra.__getitem__, rb)),
                                     map(elt_class.__getitem__, map(rb.__getitem__, ra))))
        root = list(range(k))

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = i = root[root[i]]
            return i

        for edge in edges:
            a, b = map(find, divmod(edge, k))
            if a != b:
                root[max(a, b)] = min(a, b)
        least = sorted({find(i) for i in range(k)})
        number = {i: x for x, i in enumerate(least)}
        coset_of = tuple(number[find(i)] for i in range(k))
        moves = tuple(tuple(coset_of[elt_class[row[self.reps[i]]]] for i in least)
                      for row in right)
        return coset_of, moves


def conjugacy_classes(group: PermGroup) -> ClassData:
    return ClassData(group)


def _members(classes: ClassData, mask: int) -> frozenset[int]:
    """The elements of the classes whose bits are set in mask."""
    return frozenset(x for i, cls in enumerate(classes.classes) if mask >> i & 1
                     for x in cls)


def mask_size(classes: ClassData, mask: int) -> int:
    """Number of elements in the classes whose bits are set in mask."""
    return sum(size for i, size in enumerate(classes.sizes) if mask >> i & 1)


def _rows_over(table: CharTable, below: int) -> list[Character]:
    """The rows of G/N: the rows with N in ker chi, N the union of the
    classes in below."""
    return [row for row in table.rows if below & ~row.kernel == 0]


def _meet(table: CharTable, masks) -> int:
    """Intersection of class masks; G for none."""
    return reduce(and_, masks, (1 << table.classes.n_classes) - 1)


def _normal_closure(table: CharTable, seeds: int) -> int:
    """Classes of the normal closure of the classes in seeds: the
    intersection of the irreducible kernels that contain them."""
    return _meet(table, (row.kernel for row in table.rows if seeds & ~row.kernel == 0))


def _center_mask(table: CharTable, below: int = 1) -> int:
    """Classes of the preimage of Z(G/N), N the union of the classes in
    below: the intersection of Z(chi) over the rows of G/N."""
    return _meet(table, (row.center_z for row in _rows_over(table, below)))


def _derived_mask(table: CharTable, below: int = 1) -> int:
    """Classes of the preimage of (G/N)': the intersection of the kernels
    of the linear rows of G/N."""
    return _meet(table, (row.kernel for row in _rows_over(table, below)
                         if row.degree == 1))


def derived_series(table: CharTable) -> list[int]:
    """[G, G', G'', ...] as class masks, down to stabilization (last term
    perfect or trivial).

    Every term H is normal in G, so H' is the normal closure of the
    commutators [x, t], x over the class representatives of a set that
    normally generates H and t over a set that generates H: for normal N,
    the t with [x, t] in N form a subgroup, and the preimage of Z(H/N) is
    normal in G.  The classes of the commutators found serve as both sets
    for the next term, since a union of classes generates a normal
    subgroup.
    """
    group, cd = table.group, table.classes
    mult, inv = group.mult_index, group._inverses()
    term = (1 << cd.n_classes) - 1
    series = [term]
    xs = ts = group.generator_indices()
    while True:
        comms = 1
        for x in xs:
            for t in ts:
                # [x, t] = x^-1 t^-1 x t
                comms |= 1 << cd.elt_class[mult(mult(inv[x], inv[t]), mult(x, t))]
        nxt = _normal_closure(table, comms)
        if nxt == term:
            return series
        term = nxt
        series.append(term)
        if term == 1:
            return series
        found = [i for i in range(1, cd.n_classes) if comms >> i & 1]
        xs = [cd.reps[i] for i in found]
        ts = [t for i in found for t in cd.classes[i]]


def derived_length(table: CharTable) -> int | None:
    """Number of strict steps to the trivial subgroup; None if nonsolvable."""
    series = derived_series(table)
    return len(series) - 1 if series[-1] == 1 else None


def sort_masks(classes: ClassData, masks) -> list[int]:
    """Class masks sorted by (size, elements); where two unions of classes
    first differ, the least element is a class representative."""
    return sorted(masks, key=lambda m: (
        mask_size(classes, m),
        sorted(rep for i, rep in enumerate(classes.reps) if m >> i & 1)))


def normal_masks(table: CharTable) -> tuple[int, ...]:
    """All normal subgroups, as class masks in sort_masks order."""
    return large_normal_masks(table, 1)


def large_normal_masks(table: CharTable, min_size: int) -> tuple[int, ...]:
    """The normal subgroups of at least min_size elements, as class masks
    in sort_masks order.

    Every normal subgroup N is the intersection of the kernels of the
    irreducible characters of G/N, lifted to G (Isaacs, Character Theory
    of Finite Groups, Ch. 2), so the closure of {G} under intersection
    with each row's kernel is exactly the set of normal subgroups.
    Intersecting only shrinks a mask, and every partial intersection on
    the way to N contains N, so the closure may drop each mask below
    min_size and still reach every normal subgroup that is large enough.
    """
    cd = table.classes
    masks = {(1 << cd.n_classes) - 1}
    for row in table.rows:
        cut = {m & row.kernel for m in masks}
        if min_size > 1:
            cut = {k for k in cut if mask_size(cd, k) >= min_size}
        masks |= cut
    return tuple(sort_masks(cd, masks))


def normal_subgroups(table: CharTable) -> tuple[frozenset[int], ...]:
    """All normal subgroups, as element-index sets in normal_masks order."""
    return tuple(_members(table.classes, m) for m in normal_masks(table))


def quotient_group(group: PermGroup, subset) -> PermGroup:
    """G/N as a permutation group on the right cosets Ng.

    Cosets are numbered in order of their least element; coset 0 is N.
    Right multiplication x -> xg on right cosets makes the projection a
    homomorphism under the "apply left factor first" composition.

    The cosets are read off the recorded BFS tree: when element j, first
    reached as pos*g_s, lies in no coset yet, its coset is the image of
    pos's coset under right[s].  Every generator must then map each coset
    onto one coset, which holds exactly when N is a subgroup.

    Raises NotNormal if the subset is not a normal subgroup.
    """
    n_set = frozenset(subset)
    if 0 not in n_set:
        raise NotNormal("subset does not contain the identity")
    if group.order % len(n_set):
        raise NotNormal("subset size does not divide the group order")
    right, inv = group._right, group._inverses()
    for row in right:
        for x in n_set:
            if row[inv[row[inv[x]]]] not in n_set:
                raise NotNormal("subset is not closed under conjugation")
    coset_of = [-1] * group.order
    cosets = [sorted(n_set)]
    for x in cosets[0]:
        coset_of[x] = 0
    for j, (pos, s) in enumerate(zip(group._parents, group._via), start=1):
        if coset_of[j] != -1:
            continue
        row = right[s]
        coset = [row[x] for x in cosets[coset_of[pos]]]
        for y in coset:
            if coset_of[y] != -1:
                raise NotNormal("subset is not a subgroup (cosets overlap)")
            coset_of[y] = len(cosets)
        if coset_of[j] != len(cosets):
            raise NotNormal("subset is not a subgroup")
        cosets.append(coset)
    q_gens = []
    for row in right:
        images = tuple(coset_of[row[coset[0]]] for coset in cosets)
        if any(coset_of[row[x]] != image for coset, image in zip(cosets, images)
               for x in coset):
            raise NotNormal("subset is not a subgroup")
        q_gens.append(Permutation(images, _check=False))
    n_cosets = len(cosets)
    quotient = PermGroup.from_generators(q_gens, degree=n_cosets, bound=group.order + 1)
    if quotient.order != group.order // len(n_set):
        raise NotNormal("coset action order mismatch")
    return quotient


def direct_product(left: PermGroup, right: PermGroup, bound: int | None = None) -> PermGroup:
    """H x K acting on the disjoint union of the two point sets."""
    d = left.degree + right.degree
    gens = []
    for g in left.generators:
        gens.append(Permutation(g.images + tuple(range(left.degree, d)), _check=False))
    for g in right.generators:
        gens.append(Permutation(tuple(range(left.degree)) +
                                tuple(x + left.degree for x in g.images), _check=False))
    target = left.order * right.order
    product = PermGroup.from_generators(gens, degree=d, bound=bound or target + 1)
    if product.order != target:
        raise InvariantViolation(f"direct product has order {product.order}, not {target}")
    return product


# --- structure of G and its quotients, read off G's table -----------------
#
# A normal subgroup N enters as its class mask `below`.  The rows of G/N
# are the rows of G with N in their kernel, so every question about G/N
# is answered from G's own table, with no table for the quotient.


def is_extraspecial(table: CharTable, below: int = 1) -> bool:
    """Whether G/N is extraspecial, N the union of the classes in below.

    G/N must be a p-group whose centre is its derived subgroup, of order
    p; that makes G/N nonabelian.  It also makes G/N over its centre
    elementary abelian, the remaining condition: with every commutator
    central of order p, [x^p, y] = [x, y]^p = 1, so every p-th power is
    central.
    """
    cd = table.classes
    n = mask_size(cd, below)
    primes = prime_factors(table.group.order // n)
    if len(primes) != 1:
        return False
    z = _center_mask(table, below)
    return mask_size(cd, z) == primes[0] * n and _derived_mask(table, below) == z


def is_abelian_quotient(table: CharTable, below: int) -> bool:
    """Whether G/N is abelian: every row of G/N is linear."""
    return all(row.degree == 1 for row in _rows_over(table, below))


def is_cyclic_quotient(classes: ClassData, mask: int) -> bool:
    """Whether G/K is cyclic, K the union of the classes in mask.

    Some g must have order h = |G:K| modulo K, that is, g^(h/q) lies
    outside K for every prime q dividing h.
    """
    h = classes.group.order // mask_size(classes, mask)
    return any(all(not mask >> classes.power_class(i, h // q) & 1
                   for q in prime_factors(h))
               for i in range(classes.n_classes))


def centralizes(classes: ClassData, i: int, mask: int, below: int = 1) -> bool:
    """Whether the representative x of class i commutes modulo N with every
    element of the classes in mask, N the union of the classes in below.

    Both products are lookups in left_mult(x): x*y, and y*x =
    (x^-1 y^-1)^-1, with x^-1 z read off the inverse of that list.
    """
    group = classes.group
    inv = group._inverses()
    left, left_inv = group.left_mult(classes.reps[i]), [0] * group.order
    for y, xy in enumerate(left):
        left_inv[xy] = y
    for j, cls in enumerate(classes.classes):
        if not mask >> j & 1:
            continue
        for y in cls:
            xy, yx = left[y], inv[left_inv[inv[y]]]
            # (yx)^-1 xy = [x, y]; below == 1 is N = 1
            if xy != yx and (below == 1 or not below >> classes.elt_class[
                    group.mult_index(inv[yx], xy)] & 1):
                return False
    return True


def is_abelian_section(classes: ClassData, mask: int, below: int = 1) -> bool:
    """Whether K/N is abelian, K >= N normal with class masks mask, below.

    The representative of class i of K is tested against the classes
    j >= i of K: x^g commutes with y modulo N iff x commutes with
    y^(g^-1), and commuting is symmetric, so every pair of classes is
    covered from the side of its smaller index.
    """
    return all(centralizes(classes, i, mask >> i << i, below)
               for i in range(classes.n_classes) if mask >> i & 1)


def frobenius_kernel(table: CharTable, below: int = 1) -> int | None:
    """Class mask of K if G/N is Frobenius with kernel K/N, else None,
    N the union of the classes in below.

    A proper nontrivial normal K/N is a Frobenius kernel of G/N iff
    C(n) <= K/N for every n != 1 in K/N.  In a group G, C_G(n) <= N for
    every n != 1 in a normal N needs |C_G(n)| = |G|/|C| to divide |N| for
    each class C != {1} of N, and that suffices: every such C then has
    size a multiple of |G:N|, so |N| = 1 mod |G:N| and gcd(|N|, |G:N|) = 1,
    while |C_G(n) : C_N(n)| divides both |G:N| and |C_G(n)|, hence |N|, so
    it is 1.  Schur-Zassenhaus then gives a complement H, and an h != 1 in
    H centralizing some n != 1 in N would lie in C_G(n) <= N, so H acts
    fixed-point-freely and G is Frobenius.

    So for each proper divisor m of |G:N| the one candidate K/N of order m
    is N with the classes whose centralizer in G/N has order dividing m:
    an element outside a Frobenius kernel has its centralizer in a
    complement, of order greater than 1 and prime to m.  The candidate
    meets the criterion by construction, so it is the kernel when it is
    a normal subgroup of order m|N|.  The complement is isomorphic to G/K.
    """
    cd = table.classes
    order, fused = table.group.order, cd.sizes
    if below != 1:
        # classes fuse in G/N iff their columns agree on its rows, whose
        # columns are distinct; fused[i] is the preimage size of i's class
        rows = _rows_over(table, below)
        keys = [tuple(row.values[i] for row in rows) for i in range(cd.n_classes)]
        fused = [sum(s for other, s in zip(keys, cd.sizes) if other == key) for key in keys]
    n = mask_size(cd, below)
    for m in (m for m in range(2, order // n) if order % (m * n) == 0):
        kernel = below | sum(1 << i for i, f in enumerate(fused) if m % (order // f) == 0)
        if mask_size(cd, kernel) == m * n and _normal_closure(table, kernel) == kernel:
            return kernel
    return None


def minimal_normal_masks(table: CharTable, below: int = 1) -> list[int]:
    """The K with K/N minimal normal in G/N, N the union of the classes in
    below, in sort_masks order.

    Each is the normal closure of N and one class outside N, and a
    closure minimal among these is minimal normal over N.
    """
    cd = table.classes
    closures = {_normal_closure(table, below | 1 << i)
                for i in range(cd.n_classes) if not below >> i & 1}
    return sort_masks(cd, (m for m in closures
                           if not any(o != m and o & ~m == 0 for o in closures)))


def socle(table: CharTable) -> int:
    """Class mask of the socle, the product of the minimal normal
    subgroups: the normal closure of the union of minimal_normal_masks."""
    return _normal_closure(table, reduce(or_, minimal_normal_masks(table), 1))


def a5a6_free(table: CharTable) -> bool:
    """Whether no composition factor of G is A5 or A6.

    A nonabelian chief factor is T^k for a nonabelian simple T, and the
    only simple groups of order 60 and 360 are A5 and A6, so below order
    20160 the chief factors showing A5 or A6 are exactly those of order
    60, 360 or 3600 (A5^2); no abelian one has such an order.  By
    Jordan-Hoelder every chief series has the same factors, so one is
    walked, each term a smallest minimal normal subgroup over the last.
    Raises ValueError from order 20160 on, where the rule is unproven.
    """
    if table.group.order >= 20160:
        raise ValueError(f"composition factors undecided at order {table.group.order}")
    cd, low = table.classes, 1
    while low != (1 << cd.n_classes) - 1:
        high = minimal_normal_masks(table, low)[0]
        if mask_size(cd, high) // mask_size(cd, low) in (60, 360, 3600):
            return False
        low = high
    return True


class StructureFlags(NamedTuple):
    """Structural facts read off the group's proven table.

    o_p maps each prime p dividing |G| to O_p(G), the largest normal
    p-subgroup, as a class mask.  frobenius is the class mask of the
    Frobenius kernel K, or None when G is not a Frobenius group; the
    complement has order |G:K| and is isomorphic to G/K.
    """

    is_abelian: bool
    elementary_abelian_p: int | None
    is_nilpotent: bool
    p_group_p: int | None
    is_extraspecial: bool
    o_p: dict[int, int]
    frobenius: int | None


def _o_p_mask(table: CharTable, p: int) -> int:
    """O_p(G) as a class mask: the union of the normal closures of the
    p-power-order classes that are p-groups.  Each such closure lies in
    O_p, and each element of O_p has one, so the union is O_p."""
    cd = table.classes
    closures = (_normal_closure(table, 1 << i)
                for i, o in enumerate(cd.element_orders) if is_p_power(o, p))
    return reduce(or_, (m for m in closures if is_p_power(mask_size(cd, m), p)), 1)


def structure_flags(table: CharTable) -> StructureFlags:
    """Compute the structural flag set of the table's group, every
    subgroup read off as a normal closure of classes."""
    group, cd = table.group, table.classes
    abelian = cd.n_classes == group.order
    factors = prime_factors(group.order)
    p_group_p = factors[0] if len(factors) == 1 else None
    elem_p = p_group_p if abelian and all(
        o == p_group_p for o in cd.element_orders[1:]) else None
    o_p = {p: _o_p_mask(table, p) for p in factors}
    return StructureFlags(
        is_abelian=abelian,
        elementary_abelian_p=elem_p,
        # nilpotent exactly when every Sylow subgroup is normal, so O_p
        # is the Sylow p-subgroup for every p
        is_nilpotent=math.prod(mask_size(cd, m) for m in o_p.values()) == group.order,
        p_group_p=p_group_p,
        is_extraspecial=is_extraspecial(table),
        o_p=o_p,
        frobenius=frobenius_kernel(table),
    )

"""Exact arithmetic in cyclotomic fields.

A value is stored as integer numerators over one common denominator:
its coordinates over the power basis 1, z, ..., z^(phi(n)-1) of
Q(zeta_n) are num[j]/den, where n is the smallest conductor containing
the value.  Every operation, and the descent to the minimal conductor,
runs in integer arithmetic; Fractions appear only at the edges
(from_exponents input, as_fraction, the coeffs view).  Rationals have
conductor 1.  Every reduction to the power basis is one remainder by
Phi_n, power_basis, and the only table kept per conductor is Phi_n's
nonzero terms.

A sum or product of a and b, of minimal conductors n_a and n_b, is
formed in Q(zeta_m) for m = lcm(n_a, n_b), and its descent tries only
the primes p that n_a and n_b carry to the same power.  Proof that no
other prime can go: Q(zeta_k) contains a exactly when n_a divides k.
Let p^alpha exactly divide n_a and p^beta exactly divide n_b, with
alpha > beta (else swap a and b).  Then n_b divides m/p and n_a does not,
so every automorphism of Q(zeta_m) that fixes Q(zeta_(m/p)) fixes b,
and some such automorphism moves a.  That one moves a + b, and it moves a*b
because b != 0 (a rational factor takes a path with no descent).  So
the result lies outside Q(zeta_(m/p)), and its minimal conductor keeps
p^alpha, whichever other prime is removed first.  from_exponents and
parse have no operands to compare and try every prime.

Two kinds of sum take a path with neither embedding nor descent.  A
rational q added to x changes only coordinate 0 of x at x's own
conductor, and that conductor stays minimal: were x + q in a smaller
field, x = (x + q) - q would lie there too (q = 0 returns x itself).  A
sum whose numerators all cancel is 0 and is returned as such.
"""

from __future__ import annotations

import cmath
import math
import re
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import sub
from typing import NamedTuple


# Text naming a larger conductor is refused: the bound limits how large a
# field, and so how much work, a literal from outside the program may ask for.
PARSE_CONDUCTOR_BOUND = 2500


class NotCoprime(ValueError):
    """Galois substitution exponent shares a factor with the conductor."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending.

    Phi_n is the product of (x^d - 1)^mu(n/d) over the divisors d of n,
    and mu(n/d) = (-1)^|S| when n/d is the product of a set S of primes,
    else 0.  The factors with mu = 1 are multiplied in first and those
    with mu = -1 divided out after, each in one pass: about n * tau(n) steps.
    """
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    primes = prime_factors(n)
    subsets = [s for k in range(len(primes) + 1) for s in combinations(primes, k)]
    poly = [1]
    for s in sorted(subsets, key=lambda s: len(s) % 2):
        d = n // math.prod(s)
        if len(s) % 2 == 0:
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
            continue
        # exact division by x^d - 1, from the top coefficient down
        for j in range(len(poly) - 1, d - 1, -1):
            poly[j - d] += poly[j]
        if any(poly[:d]):
            raise ArithmeticError("polynomial division left a remainder")
        poly = poly[d:]
    return tuple(poly)


def phi(n: int) -> int:
    """Euler totient, read off as the degree of the cyclotomic polynomial."""
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending; () for n = 1."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == (n,)


def is_p_power(n: int, p: int) -> bool:
    """True iff n = p^a for some a >= 0."""
    while n > 1 and n % p == 0:
        n //= p
    return n == 1


@lru_cache(maxsize=None)
def _phi_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # phi(n) and the nonzero terms (s, c) of Phi_n below its leading x^phi(n)
    cp = cyclotomic_polynomial(n)
    return len(cp) - 1, tuple((s, c) for s, c in enumerate(cp[:-1]) if c)


def power_basis(acc: list[int], n: int) -> list[int]:
    """Power-basis coordinates of sum(acc[t] * zeta_n^t) over Q(zeta_n).

    They are the remainder of sum(acc[t] * x^t) by the monic Phi_n, taken
    from the top down over Phi_n's nonzero terms.  acc must hold at least
    phi(n) entries; it is reduced in place, cut to phi(n) and returned.
    """
    k, terms = _phi_terms(n)
    for top in range(len(acc) - 1, k - 1, -1):
        c = acc[top]
        if c:
            base = top - k
            for s, pc in terms:
                acc[base + s] -= c * pc
    del acc[k:]
    return acc


@lru_cache(maxsize=None)
def _descent_solver(n: int, d: int):
    # Plan for rewriting a conductor-n coordinate vector over the power
    # basis of Q(zeta_d), where d = n/p for a prime p.  Returns (p, plan).
    #
    # If p divides d, phi(n) = p*phi(d) and zeta_d^j = zeta_n^(p*j) is itself
    # a basis vector of Q(zeta_n) for j < phi(d): the value descends exactly
    # when only coordinates at multiples of p are nonzero, and plan is None.
    #
    # Otherwise zeta_n = zeta_d^u * zeta_p^w with u = 1/p mod d and
    # w = 1/d mod p, and 1, zeta_p, ..., zeta_p^(p-2) is a basis of Q(zeta_n)
    # over Q(zeta_d).  The term c*zeta_n^j is c*zeta_d^t * zeta_p^b with
    # b = w*j mod p and t = u*j mod d; plan[j] = b*d + t packs the pair
    # into one index, so a flat list of p*d slots holds every y_b.
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    p = n // d
    if d % p == 0:
        return p, None
    u = pow(p, -1, d)
    w = pow(d, -1, p)
    return p, tuple((w * j) % p * d + (u * j) % d for j in range(phi(n)))


def _try_descend(n: int, d: int, num: Sequence[int]) -> Sequence[int] | None:
    # Integer coordinates over Q(zeta_d) of the value with integer
    # coordinates num over Q(zeta_n), or None if it does not lie in Q(zeta_d).
    p, plan = _descent_solver(n, d)
    if plan is None:
        if any(c for i, c in enumerate(num) if i % p):
            return None
        return num[::p]
    # x = sum over b < p of y_b * zeta_p^b with y_b in Q(zeta_d).  Since
    # zeta_p^(p-1) = -(1 + zeta_p + ... + zeta_p^(p-2)), x lies in Q(zeta_d)
    # exactly when y_1 = ... = y_(p-1), and then x = y_0 - y_(p-1).  The y_b
    # are unreduced; each difference is reduced until one is not zero.
    parts = [0] * (p * d)
    for c, i in zip(num, plan):
        if c:
            parts[i] += c
    last = parts[(p - 1) * d:]
    for b in range(d, (p - 1) * d, d):
        diff = list(map(sub, parts[b:b + d], last))
        if any(diff) and any(power_basis(diff, d)):
            return None
    return power_basis(list(map(sub, parts[:d], last)), d)


def _embed_ints(num: Sequence[int], n: int, m: int) -> Sequence[int]:
    # Integer coordinates of a conductor-n vector inside Q(zeta_m):
    # zeta_n^j = zeta_m^(j*m/n), and phi(m) <= phi(n) * m/n.
    if m == n:
        return num
    step = m // n
    acc = [0] * (len(num) * step)
    acc[::step] = num
    return power_basis(acc, m)


def _lowest_terms(n: int, num: Sequence[int], den: int) -> "Cyc":
    # The value num/den at conductor n, with the common factor of den and
    # the numerators divided out; n must already be minimal.
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return Cyc(n, tuple(num), den)


@lru_cache(maxsize=None)
def _shared_primes(na: int, nb: int) -> tuple[int, ...]:
    # The primes that na and nb carry to the same power, the only ones a
    # sum or product of values of minimal conductors na and nb can lose
    # (module docstring).  p divides lcm/gcd exactly when the powers differ.
    g = math.gcd(na, nb)
    apart = na // g * nb // g
    return tuple(p for p in prime_factors(g) if apart % p)


def _from_ints(n: int, num: Sequence[int], den: int,
               primes: Sequence[int]) -> "Cyc":
    # Descend one prime at a time over the given primes.  A bare exponent
    # map passes every prime of n.  A sum or product passes only the primes
    # that its operands' conductors carry to the same power: at any other
    # p, one operand b lies in Q(zeta_(n/p)) and the other, a, does not, so
    # an automorphism fixing Q(zeta_(n/p)) fixes b and moves a, and so
    # moves a + b and a*b (b != 0); the result keeps p's whole power
    # (module docstring).  A prime that fails once fails for good, since
    # Q(zeta_(d/p)) lies in Q(zeta_(n/p)) when d divides n.  The minimal
    # conductor is unique, and so are the coordinates over its power basis.
    for p in primes:
        while n % p == 0:
            down = _try_descend(n, n // p, num)
            if down is None:
                break
            n, num = n // p, down
    return _lowest_terms(n, num, den)


class _Ratio(NamedTuple):
    # a coefficient read by parse, neither reduced nor made a Fraction
    numerator: int
    denominator: int


def _ratio_text(c: int, den: int) -> str:
    # c/den in lowest terms, as str() prints the equal Fraction.
    g = math.gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


class Cyc:
    """sum(num[j] * zeta_n^j for j < phi(n)) / den at the minimal conductor n.

    num is a tuple of phi(n) ints and den an int >= 1 with
    gcd(den, *num) == 1; zero is (1, (0,), 1).  That form is unique, so
    equality and hashing compare (n, num, den), and a rational hashes
    like the equal int or Fraction.  The hash is computed on the first
    call and kept in _hash.  The constructor stores its arguments
    as given, so they must already be in that form; values are built by
    from_rational, from_exponents, zeta, parse and the arithmetic.
    """

    __slots__ = ("n", "num", "den", "_hash")

    def __init__(self, n: int, num: tuple[int, ...], den: int):
        self.n = n
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates num[j]/den as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Cyc":
        return Cyc(1, (q.numerator,), q.denominator)

    @staticmethod
    def zero() -> "Cyc":
        return _ZERO

    @staticmethod
    def one() -> "Cyc":
        return _ONE

    @staticmethod
    def from_exponents(n: int, terms: dict[int, object]) -> "Cyc":
        """Sum of c * zeta_n^e over the given exponent -> coefficient map;
        the coefficients are ints, Fractions or anything else with int
        numerator and denominator >= 1.  Descends at every prime of n."""
        den = math.lcm(*(c.denominator for c in terms.values()))
        acc = [0] * n
        for e, c in terms.items():
            acc[e % n] += c.numerator * (den // c.denominator)
        return _from_ints(n, power_basis(acc, n), den, prime_factors(n))

    # -- classification ----------------------------------------------------

    def is_rational(self) -> bool:
        return self.n == 1

    def is_integer(self) -> bool:
        return self.n == 1 and self.den == 1

    def is_zero(self) -> bool:
        return self.n == 1 and not self.num[0]

    def is_positive_natural(self) -> bool:
        """True for 1, 2, 3, ... (0 does not count)."""
        return self.is_integer() and self.num[0] >= 1

    def as_fraction(self) -> Fraction:
        if self.n != 1:
            raise ValueError(f"not rational: {self.display()}")
        return Fraction(self.num[0], self.den)

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"not an integer: {self.display()}")
        return self.num[0]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Cyc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1 or other.n == 1:
            # A rational q moves only coordinate 0 of x and keeps x's
            # conductor (module docstring).
            q, x = (self, other) if self.n == 1 else (other, self)
            if not q.num[0]:
                return x
            den = math.lcm(q.den, x.den)
            fx = den // x.den
            num = [c * fx for c in x.num]
            num[0] += q.num[0] * (den // q.den)
            return _lowest_terms(x.n, num, den)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        m = math.lcm(self.n, other.n)
        a = _embed_ints(self.num, self.n, m)
        b = _embed_ints(other.num, other.n, m)
        num = [x * fa + y * fb for x, y in zip(a, b)]
        if not any(num):
            return _ZERO
        return _from_ints(m, num, den, _shared_primes(self.n, other.n))

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc(self.n, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other) -> "Cyc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = self.den * other.den
        if self.n == 1 or other.n == 1:
            # A nonzero rational factor q keeps the other's conductor.
            q, x = (self.num[0], other) if self.n == 1 else (other.num[0], self)
            if not q:
                return _ZERO
            return _lowest_terms(x.n, [c * q for c in x.num], den)
        m = math.lcm(self.n, other.n)
        a = _embed_ints(self.num, self.n, m)
        b = [(j, y) for j, y in enumerate(_embed_ints(other.num, other.n, m)) if y]
        k = phi(m)
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in b:
                    conv[i + j] += x * y
        return _from_ints(m, power_basis(conv, m), den,
                          _shared_primes(self.n, other.n))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Cyc":
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- Galois ------------------------------------------------------------

    def galois(self, v: int) -> "Cyc":
        """Apply the field automorphism zeta -> zeta^v; v must be coprime to
        the conductor."""
        n = self.n
        if n == 1:
            return self
        if math.gcd(v, n) != 1:
            raise NotCoprime(f"substitution {v} not coprime to conductor {n}")
        # An automorphism keeps the minimal conductor and maps Z[zeta_n]
        # onto itself, so the image is already in lowest terms over den.
        acc = [0] * n
        for j, c in enumerate(self.num):
            acc[(j * v) % n] = c
        return Cyc(n, tuple(power_basis(acc, n)), self.den)

    def conjugate(self) -> "Cyc":
        if self.n == 1:
            return self
        return self.galois(self.n - 1)

    def abs_squared(self) -> "Cyc":
        if self.n == 1:
            c = self.num[0]
            return Cyc(1, (c * c,), self.den * self.den)
        return self * self.conjugate()

    def is_root_of_unity(self) -> bool:
        if self.n == 1:
            return self.den == 1 and self.num[0] in (1, -1)
        return self in _roots_of_unity(self.n)

    # -- display / parse ---------------------------------------------------

    def display(self) -> str:
        """Canonical text form: rationals as plain fractions, otherwise
        nonzero terms c*z(n)^e joined by " + " in ascending exponent order."""
        den = self.den
        if self.n == 1:
            return _ratio_text(self.num[0], den)
        parts = []
        for e, c in enumerate(self.num):
            if not c:
                continue
            c = _ratio_text(c, den)
            if e == 0:
                parts.append(c)
            elif e == 1:
                parts.append(f"{c}*z({self.n})")
            else:
                parts.append(f"{c}*z({self.n})^{e}")
        return " + ".join(parts)

    # a coefficient is numerator text and optional denominator text, and a
    # denominator needs a nonzero digit
    _COEFF = r"(-?\d+)(?:/(\d*[1-9]\d*))?"
    _TERM_RE = re.compile(rf"^{_COEFF}\*z\((\d+)\)(?:\^(\d+))?$")
    _RAT_RE = re.compile(rf"^{_COEFF}$")

    @staticmethod
    def parse(text: str) -> "Cyc":
        """Inverse of display(); raises ValueError on malformed or
        non-canonical input, including a conductor above
        PARSE_CONDUCTOR_BOUND."""
        s = text.strip()
        if not s:
            raise ValueError("empty cyclotomic literal")
        m = Cyc._RAT_RE.match(s)
        if m:
            val = _lowest_terms(1, [int(m.group(1))], int(m.group(2) or 1))
        else:
            val = Cyc._parse_sum(s, text)
        if val.display() != s:
            raise ValueError(f"non-canonical cyclotomic literal {text!r}")
        return val

    @staticmethod
    def _parse_sum(s: str, text: str) -> "Cyc":
        # s is text stripped, a sum of terms at one conductor
        n = None
        terms: dict[int, _Ratio] = {}
        for part in s.split(" + "):
            m = Cyc._RAT_RE.match(part)
            if m:
                e = 0
            else:
                m = Cyc._TERM_RE.match(part)
                if not m:
                    raise ValueError(f"bad cyclotomic term {part!r} in {text!r}")
                tn = int(m.group(3))
                e = int(m.group(4)) if m.group(4) else 1
                if e == 1 and m.group(4):
                    raise ValueError(f"redundant exponent in {part!r}")
                if n is not None and tn != n:
                    raise ValueError(f"mixed conductors {n} and {tn} in {text!r}")
                if tn > PARSE_CONDUCTOR_BOUND:
                    raise ValueError(f"conductor {tn} above {PARSE_CONDUCTOR_BOUND}")
                n = tn
            if e in terms:
                raise ValueError(f"repeated exponent {e} in {text!r}")
            terms[e] = _Ratio(int(m.group(1)), int(m.group(2) or 1))
        if n is None:
            raise ValueError(f"no conductor in {text!r}")
        if n < 3:
            raise ValueError(f"conductor {n} cannot carry irrational terms")
        if any(e >= phi(n) for e in terms):
            raise ValueError(f"exponent out of reduced range in {text!r}")
        return Cyc.from_exponents(n, terms)

    # -- misc --------------------------------------------------------------

    def approx(self) -> complex:
        """Floating-point image for debugging only; never used in checks."""
        return sum(
            c / self.den * cmath.exp(2j * cmath.pi * j / self.n)
            for j, c in enumerate(self.num)
            if c
        )

    def sort_key(self):
        """Total order: rationals first by value, then by display string."""
        if self.n == 1:
            return (0, self.num[0] if self.den == 1 else self.as_fraction(), "")
        return (1, 0, self.display())

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        if self.n == 1:
            self._hash = hash(self.num[0] if self.den == 1 else self.as_fraction())
        else:
            self._hash = hash((self.n, self.num, self.den))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Cyc({self.display()})"


def _coerce(x) -> "Cyc":
    if isinstance(x, Cyc):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc.from_rational(x)
    return NotImplemented


@lru_cache(maxsize=None)
def _roots_of_unity(n: int) -> frozenset:
    out = set()
    for k in range(n):
        z = zeta(n, k)
        out.add(z)
        out.add(-z)
    return frozenset(out)


def zeta(n: int, k: int = 1) -> Cyc:
    """The root of unity zeta_n^k."""
    return Cyc.from_exponents(n, {k: 1})


_ZERO = Cyc(1, (0,), 1)
_ONE = Cyc(1, (1,), 1)

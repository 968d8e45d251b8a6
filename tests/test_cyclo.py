"""Exact cyclotomic arithmetic: ring laws, Galois action, text forms."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charval import cyclo
from charval.cyclo import (
    PARSE_CONDUCTOR_BOUND,
    Cyc,
    NotCoprime,
    cyclotomic_polynomial,
    is_p_power,
    is_prime,
    phi,
    power_basis,
    prime_factors,
    zeta,
)
from tests import helpers as H

CONDUCTORS = [1, 3, 4, 5, 7, 8, 9, 12]


@st.composite
def cyc_values(draw, n: int | None = None):
    if n is None:
        n = draw(st.sampled_from(CONDUCTORS))
    terms = draw(st.dictionaries(
        st.integers(min_value=0, max_value=n - 1),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=4))
    return Cyc.from_exponents(n, terms)


@st.composite
def same_conductor_pairs(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    return draw(cyc_values(n=n)), draw(cyc_values(n=n)), n


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in range(1, 30):
        assert len(cyclotomic_polynomial(n)) == phi(n) + 1


def test_cyclotomic_polynomials_match_the_recursive_definition():
    for n in range(1, 700):
        assert cyclotomic_polynomial(n) == H.cyclotomic_by_division(n), n
    assert cyclotomic_polynomial(105)[7] == -2  # the least n with a coefficient off {-1, 0, 1}


def test_power_basis_matches_the_reduction_rows():
    rng = random.Random(13)
    for n in range(1, 200):
        for length in (phi(n), n, 2 * n, rng.randint(phi(n), 2 * n)):
            acc = [rng.randint(-9, 9) if rng.random() < 0.3 else 0
                   for _ in range(length)]
            assert power_basis(list(acc), n) == H.power_basis_by_rows(acc, n), (n, acc)


def test_parsing_a_large_composite_conductor_stays_small():
    # a table of every reduced power x^t, t < 2145, peaked at 66 MB
    tracemalloc.start()
    try:
        assert Cyc.parse("1*z(2145)").n == 2145
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


def test_phi_values():
    assert [phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_zeta_identities():
    assert zeta(1) == Cyc.one()
    assert zeta(2) == Cyc.from_rational(-1)
    assert zeta(4) ** 2 == Cyc.from_rational(-1)
    assert zeta(6) == Cyc.one() + zeta(3)  # conductor drops to 3
    assert sum((zeta(5, k) for k in range(1, 5)), Cyc.zero()) == \
        Cyc.from_rational(-1)
    assert zeta(8) * zeta(8, 7) == Cyc.one()


def test_canonical_form_is_construction_independent():
    assert Cyc.from_exponents(6, {2: 1}) == zeta(3)
    assert Cyc.from_exponents(12, {3: 1}) == zeta(4)
    assert Cyc.from_exponents(8, {0: Fraction(1, 2), 4: Fraction(1, 2)}) == \
        Cyc.zero()
    assert Cyc.from_exponents(9, {3: 1}) == zeta(3)


@pytest.mark.parametrize("n", [8, 12, 15, 20, 21, 30, 36, 45, 60, 63, 72, 84])
def test_roots_of_unity_reduce_to_their_conductor(n):
    for a in range(n):
        c = n // math.gcd(n, a)
        if c % 4 == 2:
            c //= 2
        assert zeta(n, a).n == c
        assert zeta(n, a) * zeta(n, n - a) == Cyc.one()


def _gauss_sum(q: int) -> Cyc:
    # sum of (a/q) zeta_q^a; its square is (-1)^((q-1)/2) q
    return Cyc.from_exponents(
        q, {a: 1 if pow(a, (q - 1) // 2, q) == 1 else -1 for a in range(1, q)})


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_gauss_sums_square_down_to_the_rationals(q):
    g = _gauss_sum(q)
    assert g.n == q
    assert g * g == (-1) ** ((q - 1) // 2) * q


def test_products_of_square_roots_descend_to_their_conductor():
    sqrt2 = zeta(8) + zeta(8, 7)
    # sqrt(2) sqrt(-3) sqrt(5) sqrt(-7) = sqrt(210), of discriminant 840
    root = sqrt2 * _gauss_sum(3) * _gauss_sum(5) * _gauss_sum(7)
    assert root.n == 840
    assert root * root == 210
    assert (root * sqrt2).n == 105  # 2 sqrt(105), and 105 = 1 mod 4
    assert (root * _gauss_sum(3)).n == 280  # sqrt(-630) = 3 sqrt(-70)


@given(cyc_values(), cyc_values(), cyc_values())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Cyc.zero() == a
    assert a * Cyc.one() == a
    assert a + (-a) == Cyc.zero()


@given(cyc_values(), small_rationals)
def test_rational_scalars_mix(a, q):
    assert a * Cyc.from_rational(q) == a * q
    assert a + Cyc.from_rational(q) == a + q
    assert a - q == a + (-q)


@given(cyc_values())
def test_powers_match_repeated_product(a):
    assert a ** 0 == Cyc.one()
    assert a ** 1 == a
    assert a ** 3 == a * a * a


@given(cyc_values())
def test_conjugation_involution(a):
    assert a.conjugate().conjugate() == a
    if a.is_rational():
        assert a.conjugate() == a


@given(cyc_values(), cyc_values())
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(cyc_values())
def test_abs_squared_definition(a):
    sq = a.abs_squared()
    assert sq == a * a.conjugate()
    assert sq.conjugate() == sq  # real


@given(st.sampled_from([n for n in CONDUCTORS if n > 1]), st.integers(0, 40))
def test_roots_of_unity_have_unit_modulus(n, k):
    root = zeta(n, k)
    assert root.abs_squared() == Cyc.one()
    assert root.is_root_of_unity()
    assert root ** n == Cyc.one()


@given(same_conductor_pairs())
def test_galois_is_a_ring_endomorphism(pair):
    a, b, n = pair
    for v in range(1, n):
        if math.gcd(v, n) != 1:
            continue
        assert (a + b).galois(v) == a.galois(v) + b.galois(v)
        assert (a * b).galois(v) == a.galois(v) * b.galois(v)


@given(cyc_values())
def test_galois_inverse_recovers_value(a):
    n = a.n
    for v in range(2, n):
        if math.gcd(v, n) == 1:
            assert a.galois(v).galois(pow(v, -1, n)) == a


def test_galois_rejects_shared_factors():
    with pytest.raises(NotCoprime):
        zeta(4).galois(2)
    with pytest.raises(NotCoprime):
        zeta(9, 2).galois(6)


@given(cyc_values())
def test_display_parse_round_trip(a):
    assert Cyc.parse(a.display()) == a


def test_display_grammar_examples():
    assert Cyc.zero().display() == "0"
    assert Cyc.from_rational(Fraction(-3, 2)).display() == "-3/2"
    assert zeta(5).display() == "1*z(5)"
    assert (zeta(7) + zeta(7, 2) + zeta(7, 4)).display() == \
        "1*z(7) + 1*z(7)^2 + 1*z(7)^4"
    assert Cyc.parse("2 + 1*z(5)^2 + 1*z(5)^3") == \
        Cyc.from_rational(2) + zeta(5, 2) + zeta(5, 3)


def test_parse_rejects_malformed_text():
    for bad in ("z5", "1*z(5)^", "2 +", "1*w(5)", ""):
        with pytest.raises(ValueError):
            Cyc.parse(bad)


def test_parse_rejects_zero_denominators():
    for bad in ("7/0", "0/0", "1/0*z(3)", "1 + 1/00*z(5)^2", "-3/000"):
        with pytest.raises(ValueError):
            Cyc.parse(bad)
    assert Cyc.parse("7/10") == Cyc.from_rational(Fraction(7, 10))


def test_parse_refuses_non_canonical_rationals():
    for bad in ("2/4", "-0", "007", "1/1", "0/5", "2/4*z(3)", "1/1*z(3)",
                "-0*z(3)"):
        with pytest.raises(ValueError, match="non-canonical"):
            Cyc.parse(bad)
    assert Cyc.parse("7/10") == Cyc.from_rational(Fraction(7, 10))
    assert Cyc.parse("-3/2") == Cyc.from_rational(Fraction(-3, 2))
    assert Cyc.parse("0") == Cyc.zero()


@st.composite
def cyc_like_text(draw):
    """Terms of the display grammar, some malformed: zero denominators,
    conductors 0 to 40 and at and one past PARSE_CONDUCTOR_BOUND,
    exponents out of range, stray separators.  Other conductors stay
    small because parsing conductor n costs about n^2."""
    conductor = st.one_of(st.integers(0, 40), st.sampled_from(
        [PARSE_CONDUCTOR_BOUND, PARSE_CONDUCTOR_BOUND + 1]))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = str(draw(st.integers(-3, 3)))
        if draw(st.booleans()):
            coeff += f"/{draw(st.integers(0, 4))}"
        shape = draw(st.sampled_from(["", "*z({n})", "*z({n})^{e}"]))
        terms.append(coeff + shape.format(n=draw(conductor),
                                          e=draw(st.integers(0, 40))))
    return draw(st.sampled_from([" + ", " + ", "+", " ", " - "])).join(terms)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.one_of(st.text(max_size=40), cyc_like_text(),
                 cyc_values().map(Cyc.display)))
def test_parse_returns_a_value_or_raises_value_error(text):
    try:
        value = Cyc.parse(text)
    except ValueError:
        return
    assert Cyc.parse(value.display()) == value


def test_parse_refuses_conductors_past_the_bound():
    bound = PARSE_CONDUCTOR_BOUND
    assert Cyc.parse(f"1*z({bound})") == zeta(bound)
    for text in (f"1*z({bound + 1})", "1*z(10007)", f"1 + 1*z({10 ** 9})^2"):
        with pytest.raises(ValueError, match=f"above {bound}"):
            Cyc.parse(text)


# -- the representation: integer numerators over one denominator ---------


def assert_canonical(v: Cyc) -> None:
    assert type(v.n) is int and v.n >= 1
    assert type(v.den) is int and v.den >= 1
    assert type(v.num) is tuple and all(type(c) is int for c in v.num)
    assert len(v.num) == phi(v.n)
    assert math.gcd(v.den, *v.num) == 1
    if v.n == 1 and not v.num[0]:
        assert (v.n, v.num, v.den) == (1, (0,), 1)
    assert v.coeffs == tuple(Fraction(c, v.den) for c in v.num)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(cyc_values(), cyc_values(), small_rationals, st.integers(1, 40))
def test_every_constructed_value_is_in_lowest_terms(a, b, q, v):
    values = [a, b, a + b, a - b, a * b, -a, a * q, q + a, q - a, a - q,
              a + (-a), Cyc.zero() + a, a.abs_squared(), a.conjugate(),
              Cyc.parse(a.display()), Cyc.from_rational(q)]
    if math.gcd(v, a.n) == 1:
        values.append(a.galois(v))
    for value in values:
        assert_canonical(value)


# -- descent: pruned for sums and products, every prime elsewhere ---------

ORACLE_CONDUCTORS = [1, 3, 4, 5, 8, 9, 12, 15, 16, 20, 24, 27, 36, 45]


@st.composite
def oracle_pairs(draw):
    a = draw(cyc_values(n=draw(st.sampled_from(ORACLE_CONDUCTORS))))
    b = draw(cyc_values(n=draw(st.sampled_from(ORACLE_CONDUCTORS))))
    kind = draw(st.sampled_from(["any", "shifted", "negated", "rational"]))
    if kind == "shifted":
        b = b - a  # a + b falls back to b's old conductor, or to 0
    elif kind == "negated":
        b = -a  # a + b cancels to 0
    elif kind == "rational":
        b = Cyc.from_rational(draw(small_rationals))  # 0 included
    return a, b


def _exponent_map(v: Cyc, m: int) -> dict[int, Fraction]:
    # v as an unreduced exponent map over Q(zeta_m), for v.n dividing m
    return {j * (m // v.n): c for j, c in enumerate(v.coeffs) if c}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(oracle_pairs())
def test_sums_and_products_match_the_all_prime_descent(pair):
    a, b = pair
    m = math.lcm(a.n, b.n)
    ea, eb = _exponent_map(a, m), _exponent_map(b, m)
    total = dict(ea)
    for e, c in eb.items():
        total[e] = total.get(e, 0) + c
    product: dict[int, Fraction] = {}
    for i, x in ea.items():
        for j, y in eb.items():
            product[(i + j) % m] = product.get((i + j) % m, 0) + x * y
    for got, want in ((a + b, Cyc.from_exponents(m, total)),
                      (a * b, Cyc.from_exponents(m, product))):
        assert_canonical(got)
        assert (got.n, got.num, got.den) == (want.n, want.num, want.den)


def _call_counts(monkeypatch, op, *names) -> tuple[int, ...]:
    # how often op calls each named cyclo function
    counts = dict.fromkeys(names, 0)

    def counted(name):
        inner = getattr(cyclo, name)

        def call(*args):
            counts[name] += 1
            return inner(*args)
        return call

    with monkeypatch.context() as patch:
        for name in names:
            patch.setattr(cyclo, name, counted(name))
        op()
    return tuple(counts.values())


def _descent_attempts(monkeypatch, op) -> int:
    return _call_counts(monkeypatch, op, "_try_descend")[0]


def test_sums_and_products_skip_primes_they_cannot_remove(monkeypatch):
    a, b = zeta(5), zeta(7)
    assert _descent_attempts(monkeypatch, lambda: a * b) == 0
    a, q = zeta(4), Fraction(1, 2)
    assert _descent_attempts(monkeypatch, lambda: a + q) == 0
    a, b = zeta(9), zeta(3)
    assert _descent_attempts(monkeypatch, lambda: a * b) == 0
    assert (a * b).n == 9
    # a prime both conductors carry to the same power is still removed
    assert zeta(3) * zeta(3, 2) == 1
    assert zeta(5) + (-zeta(5)) == 0
    assert zeta(12) * zeta(12, 5) == -1


def test_sums_with_a_rational_operand_or_a_zero_result_skip_the_field_work(
        monkeypatch):
    z7, z12, z9, z8, z5 = zeta(7), zeta(12), zeta(9), zeta(8), zeta(5)
    zero, half = Cyc.zero(), Fraction(1, 2)
    for op in (lambda: z7 + half, lambda: zero + z12, lambda: 3 + z9,
               lambda: z8 - 1):
        assert _call_counts(monkeypatch, op, "_embed_ints",
                            "_try_descend") == (0, 0)
    minus_z5 = -z5
    for op in (lambda: z5 + minus_z5, lambda: z12 - z12):
        assert _descent_attempts(monkeypatch, op) == 0
        got = op()
        assert (got.n, got.num, got.den) == (1, (0,), 1)


def test_a_rational_sum_divides_out_a_common_factor():
    # (1 + 2*z3)/2 + 1/2 = (2 + 2*z3)/2 = 1 + z3
    z3 = zeta(3)
    got = Fraction(1, 2) * (1 + 2 * z3) + Fraction(1, 2)
    assert_canonical(got)
    assert got == 1 + z3
    assert got.den == 1


def test_parse_descends_at_every_prime():
    for text in ("1*z(9)^3", "1*z(15)^5", "1*z(8)^2", "1*z(20)^4"):
        with pytest.raises(ValueError, match="non-canonical"):
            Cyc.parse(text)
    for text in ("2/4*z(5)", "03/4*z(5)"):
        with pytest.raises(ValueError, match="non-canonical"):
            Cyc.parse(text)
    value = Cyc.parse("-3/4*z(5)")
    assert value == Fraction(-3, 4) * zeta(5)
    assert_canonical(value)


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(CONDUCTORS),
       st.dictionaries(st.integers(0, 40), st.integers(-6, 6), max_size=5))
def test_int_and_fraction_terms_build_the_same_value(n, terms):
    from_ints = Cyc.from_exponents(n, terms)
    from_fracs = Cyc.from_exponents(n, {e: Fraction(c) for e, c in terms.items()})
    assert_canonical(from_ints)
    assert from_ints == from_fracs
    assert (from_ints.n, from_ints.num, from_ints.den) == \
        (from_fracs.n, from_fracs.num, from_fracs.den)


@settings(derandomize=True, deadline=None)
@given(st.one_of(st.integers(-10 ** 20, 10 ** 20), small_rationals,
                 st.fractions(max_denominator=10 ** 12)))
def test_rationals_hash_like_ints_and_fractions(q):
    for x in (q, Fraction(q)):
        value = Cyc.from_rational(x)
        assert_canonical(value)
        assert hash(value) == hash(x)
        assert x in {value} and value in {x}
        assert value == x and x == value


@given(cyc_values())
def test_rationality_predicates(a):
    if a.is_rational():
        assert a.n == 1
        frac = a.as_fraction()
        assert Cyc.from_rational(frac) == a
        assert a.is_integer() == (frac.denominator == 1)
    else:
        with pytest.raises(ValueError):
            a.as_fraction()


def test_natural_value_predicate():
    assert Cyc.from_rational(3).is_positive_natural()
    assert not Cyc.zero().is_positive_natural()  # zero is non-natural here
    assert not Cyc.from_rational(-2).is_positive_natural()
    assert not Cyc.from_rational(Fraction(1, 2)).is_positive_natural()
    assert not zeta(3).is_positive_natural()


def test_sort_key_orders_rationals_numerically_first():
    vals = [zeta(3), Cyc.from_rational(2), Cyc.zero(),
            Cyc.from_rational(-1), zeta(5)]
    ordered = sorted(vals, key=lambda v: v.sort_key())
    assert ordered[:3] == [Cyc.from_rational(-1), Cyc.zero(),
                           Cyc.from_rational(2)]
    assert not ordered[3].is_rational() and not ordered[4].is_rational()


def test_golden_ratio_norm_is_irrational():
    x = zeta(5) + zeta(5, 4)  # 2*cos(72 degrees)
    sq = x.abs_squared()
    assert not sq.is_rational()
    assert sq == Cyc.from_exponents(5, {0: 2, 2: 1, 3: 1})
    assert not x.is_root_of_unity()


def test_approx_tracks_exact_values():
    assert abs(zeta(8).approx() - complex(2 ** -0.5, 2 ** -0.5)) < 1e-12
    x = zeta(5) + zeta(5, 4)
    assert abs(x.approx() - (5 ** 0.5 - 1) / 2) < 1e-12


def test_number_theory_helpers_agree_with_brute_force():
    primes = [q for q in range(2, 500) if all(q % d for d in range(2, q))]
    for n in range(1, 500):
        assert prime_factors(n) == tuple(q for q in primes if n % q == 0), n
        assert is_prime(n) == (n in primes), n
        for q in primes[:8]:
            powers = {q ** a for a in range(10)}
            assert is_p_power(n, q) == (n in powers), (n, q)

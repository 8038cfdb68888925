"""Unit tests for exact Laurent-polynomial arithmetic."""

from __future__ import annotations

import hashlib
import random

import pytest

from clusteralg.errors import NotDivisible
from clusteralg.fixtures import a4_path_matrix, kronecker_matrix
from clusteralg.periodicity import bipartite_belt
from clusteralg.seeds import LabeledSeed, orbit
from clusteralg.symbolic import LaurentPoly, exact_div, exchange_relation, generators

# the exponent range of the 15-bit packed digits
LOW, HIGH = -(2**14), 2**14 - 1


def test_zero_coefficients_are_dropped():
    p = LaurentPoly(2, {(1, 0): 0, (0, 1): 3})
    assert p.terms == {(0, 1): 3}


def test_exponent_length_mismatch_rejected():
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1,): 1})


def test_equality_and_hash_agree():
    a = LaurentPoly(2, {(1, -1): 2, (0, 0): 1})
    b = LaurentPoly(2, {(0, 0): 1, (1, -1): 2})
    assert a == b
    assert hash(a) == hash(b)
    assert a != LaurentPoly(2, {(1, -1): 2})


def test_addition_cancels_terms():
    a = LaurentPoly(1, {(2,): 3, (0,): 1})
    b = LaurentPoly(1, {(2,): -3, (1,): 5})
    assert a + b == LaurentPoly(1, {(0,): 1, (1,): 5})


def test_subtraction_of_self_is_zero():
    a = LaurentPoly(2, {(1, 2): 7, (-1, 0): -2})
    assert (a - a).is_zero()


def test_multiplication_hand_value():
    # (x + y)(x - y) = x^2 - y^2
    x, y = generators(2)
    assert (x + y) * (x - y) == LaurentPoly(2, {(2, 0): 1, (0, 2): -1})


def test_multiplication_with_negative_exponents():
    # (1 + x2)/x1 times x1 gives 1 + x2
    p = LaurentPoly(2, {(-1, 0): 1, (-1, 1): 1})
    x1 = LaurentPoly.generator(2, 1)
    assert p * x1 == LaurentPoly(2, {(0, 0): 1, (0, 1): 1})


def test_pow_matches_repeated_multiplication():
    x, y = generators(2)
    p = x + y + LaurentPoly.one(2)
    assert p.pow(3) == p * p * p
    assert p.pow(0) == LaurentPoly.one(2)
    assert p.pow(1) == p


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        LaurentPoly.one(1).pow(-1)


def test_min_max_exponents():
    p = LaurentPoly(2, {(-1, 3): 1, (2, -2): 4})
    assert p.min_exponents() == (-1, -2)
    assert p.max_exponents() == (2, 3)
    assert LaurentPoly.zero(2).min_exponents() == (0, 0)
    # a sum whose extreme terms cancel has the bounds of what is left
    q = p + LaurentPoly(2, {(2, -2): -4, (0, 1): 1})
    assert (q.min_exponents(), q.max_exponents()) == ((-1, 1), (0, 3))
    assert (p - p).max_exponents() == (0, 0)


def test_exact_div_roundtrip():
    x, y = generators(2)
    q = LaurentPoly(2, {(1, 0): 1, (0, -1): 1})  # x1 + 1/x2
    p = q * (x * y + LaurentPoly.constant(2, 3))
    assert exact_div(p, q) == x * y + LaurentPoly.constant(2, 3)


def test_exact_div_detects_failure():
    x, y = generators(2)
    with pytest.raises(NotDivisible):
        exact_div(x + y, x + LaurentPoly.one(2))


def test_exact_div_rejects_a_quotient_term_one_past_the_box():
    # (x1 - x2^2) / (x1^2 x2 (1 - x2)) is not Laurent; the leading
    # quotient term lies one past the box, where remainder digits would
    # reach the packing base and carry into a wrong quotient
    p = LaurentPoly(2, {(-1, -1): 1, (-2, 1): -1})
    q = LaurentPoly(2, {(0, 0): 1, (0, 1): -1})
    assert _ref_div(p.terms, q.terms) is None
    with pytest.raises(NotDivisible):
        exact_div(p, q)


def test_exact_div_integer_coefficient_failure():
    x = LaurentPoly.generator(1, 1)
    # 2x + 1 over 2 has no integer quotient
    with pytest.raises(NotDivisible):
        exact_div(x.scale(2) + LaurentPoly.one(1), LaurentPoly.constant(1, 2))


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_div(LaurentPoly.one(1), LaurentPoly.zero(1))


def test_canonical_strings_agree_with_equality():
    p = LaurentPoly(2, {(-1, 2): -3, (0, 0): 1})
    assert p.canonical_string() == "-3:-1,2;1:0,0"
    assert LaurentPoly.zero(2).canonical_string() == ""
    others = [LaurentPoly(2, {(-1, 2): -3}), LaurentPoly(2, {(-1, 2): 3, (0, 0): 1}), -p]
    for q in [p, LaurentPoly(2, {(0, 0): 1, (-1, 2): -3})] + others:
        assert (q.canonical_string() == p.canonical_string()) == (q == p)


def test_pretty_uses_monomial_denominator():
    p = LaurentPoly(2, {(-1, 0): 1, (-1, 1): 1})
    assert p.pretty() == "(1 + x2)/x1"
    assert LaurentPoly.generator(2, 2).pretty(["a", "b"]) == "b"
    assert LaurentPoly.zero(2).pretty() == "0"


def test_pretty_denominator_product_is_parenthesized():
    p = LaurentPoly(2, {(-1, -1): 1, (0, -1): 1, (-1, 0): 1})
    assert p.pretty() == "(1 + x2 + x1)/(x1*x2)"


def test_generator_bounds():
    with pytest.raises(ValueError):
        LaurentPoly.generator(2, 3)
    with pytest.raises(ValueError):
        LaurentPoly.generator(2, 0)


# -- differential tests against a schoolbook reference on tuple keys ---


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_div(p: dict, q: dict) -> dict | None:
    """Quotient r with q*r == p, or None; division under graded lex order."""
    rem = dict(p)
    quot: dict = {}
    grlex = lambda e: (sum(e), e)  # noqa: E731
    lead = max(q, key=grlex)
    while rem:
        top = max(rem, key=grlex)
        t = tuple(x - y for x, y in zip(top, lead))
        # a true quotient's exponents lie within the bounds of p's minus q's
        if rem[top] % q[lead] or any(
            x < min(col) - min(qcol) or x > max(col) - max(qcol)
            for x, col, qcol in zip(t, zip(*p), zip(*q))
        ):
            return None
        quot[t] = rem[top] // q[lead]
        for e, c in _ref_mul({t: quot[t]}, q).items():
            s = rem.get(e, 0) - c
            if s:
                rem[e] = s
            else:
                del rem[e]
    return quot


def _random_poly(rng: random.Random, nvars: int, max_terms: int) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(-3, 3) for _ in range(nvars))
        terms[exp] = rng.choice([-3, -2, -1, 1, 1, 1, 2, 3])
    return LaurentPoly(nvars, terms)


def _random_side(rng: random.Random, nvars: int) -> list:
    """Up to three random (factor, power) pairs, powers 1 to 4."""
    side = []
    for _ in range(rng.randint(0, 3)):
        size = rng.choice([1, 2, 4, 8])
        side.append((_random_poly(rng, nvars, size), rng.randint(1, 4 if size < 8 else 2)))
    return side


def _relation_reference(plus: list, minus: list, x: LaurentPoly) -> LaurentPoly:
    """exact_div(prod + prod, x), the definition exchange_relation must agree with."""
    one = LaurentPoly.one(x.nvars)
    num = one
    for f, a in plus:
        num = num * f.pow(a)
    other = one
    for f, a in minus:
        other = other * f.pow(a)
    return exact_div(num + other, x)


@pytest.mark.parametrize("nvars", range(6))
def test_mul_matches_schoolbook(nvars):
    rng = random.Random(100 + nvars)
    for _ in range(60):
        a = _random_poly(rng, nvars, rng.choice([1, 3, 16]))
        b = _random_poly(rng, nvars, rng.choice([1, 3, 16]))
        assert (a * b).terms == _ref_mul(a.terms, b.terms)
        assert (a * b).canonical_string() == (b * a).canonical_string()


@pytest.mark.parametrize("nvars", range(6))
def test_exact_div_matches_schoolbook(nvars):
    rng = random.Random(200 + nvars)
    relation_rng = random.Random(250 + nvars)
    for _ in range(60):
        q = _random_poly(rng, nvars, rng.choice([1, 2, 4, 12]))
        r = _random_poly(rng, nvars, rng.choice([1, 4, 12]))
        p = q * r
        assert exact_div(p, q) == r
        assert _ref_div(p.terms, q.terms) == r.terms
        # q divides a relation that has q as a factor on both sides
        plus = _random_side(relation_rng, nvars) + [(q, relation_rng.randint(1, 2))]
        minus = _random_side(relation_rng, nvars) + [(q, 1)]
        assert exchange_relation(plus, minus, q) == _relation_reference(plus, minus, q)
        # a square agrees with the product of two distinct equal copies
        f = _random_poly(relation_rng, nvars, 16)
        twice = [(f, 1), (LaurentPoly(nvars, f.terms), 1), (q, 1)]
        assert exchange_relation([(f, 2), (q, 1)], minus, q) == exchange_relation(twice, minus, q)
    # an empty product on both sides (a zero column) gives 2/x_k
    x = LaurentPoly.monomial(nvars, range(nvars))
    assert exchange_relation([], [], x) == LaurentPoly.monomial(nvars, range(0, -nvars, -1), 2)


@pytest.mark.parametrize("nvars", range(6))
def test_exact_div_fails_exactly_when_reference_fails(nvars):
    rng = random.Random(300 + nvars)
    failures = 0
    for _ in range(80):
        q = _random_poly(rng, nvars, rng.choice([1, 2, 4, 12]))
        p = q * _random_poly(rng, nvars, rng.choice([1, 4, 12]))
        exp = tuple(rng.randint(-4, 4) for _ in range(nvars))
        p = p + LaurentPoly.monomial(nvars, exp, rng.choice([-1, 1, 2]))
        if p.is_zero():
            continue
        expected = _ref_div(p.terms, q.terms)
        if expected is None:
            failures += 1
            with pytest.raises(NotDivisible):
                exact_div(p, q)
        else:
            assert exact_div(p, q).terms == expected
    assert failures > 20
    # exchange_relation fails exactly when exact_div(prod + prod, x) does
    rng = random.Random(350 + nvars)
    outcomes = set()
    for _ in range(80):
        x = _random_poly(rng, nvars, rng.choice([1, 2, 4]))
        plus, minus = _random_side(rng, nvars), _random_side(rng, nvars)
        if rng.random() < 0.3:
            plus.append((x, 1))
            minus.append((x, rng.randint(1, 3)))
        try:
            expected = _relation_reference(plus, minus, x)
        except NotDivisible:
            expected = None
        if expected is None:
            with pytest.raises(NotDivisible):
                exchange_relation(plus, minus, x)
        else:
            assert exchange_relation(plus, minus, x) == expected
        outcomes.add(expected is None)
    if nvars:
        assert outcomes == {False, True}


def test_pow_zero_and_one():
    for p in (
        LaurentPoly(3, {(1, -2, 0): 2, (0, 0, 5): -1}),
        LaurentPoly.zero(2),
        LaurentPoly.constant(0, 7),
    ):
        assert p.pow(0) == LaurentPoly.one(p.nvars)
        assert p.pow(1) is p
        assert p.pow(3).terms == _ref_mul(_ref_mul(p.terms, p.terms), p.terms)


# -- the packed exponent range ------------------------------------------


def _edge_poly(rng: random.Random, sides: list, near: int, max_terms: int) -> LaurentPoly:
    """A random polynomial whose exponent i lies within `near` units of edge sides[i]."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(
            rng.randint(LOW, LOW + near) if low else rng.randint(HIGH - near, HIGH)
            for low in sides
        )
        terms[exp] = rng.choice([-2, -1, 1, 1, 3])
    return LaurentPoly(len(sides), terms)


@pytest.mark.parametrize("nvars", range(1, 6))
def test_arithmetic_at_the_range_edges_matches_schoolbook(nvars):
    rng = random.Random(400 + nvars)
    failures = 0
    for _ in range(40):
        sides = [rng.random() < 0.5 for _ in range(nvars)]
        # a near the edges, b a small shift towards the middle, a*b near them again
        a = _edge_poly(rng, sides, 3, rng.choice([1, 3, 12])).shift(
            tuple(4 if low else -4 for low in sides)
        )
        b = LaurentPoly(nvars, {
            tuple(rng.randint(-4, 0) if low else rng.randint(0, 4) for low in sides): c
            for c in rng.choices([-1, 1, 2], k=rng.choice([1, 2, 5]))
        })
        p = a * b
        assert p.terms == _ref_mul(a.terms, b.terms)
        # halving the exponents keeps a square near the edges too
        h = LaurentPoly(nvars, {tuple(e // 2 for e in exp): c for exp, c in a.terms.items()})
        assert (h * h).terms == _ref_mul(h.terms, h.terms)
        assert exact_div(p, b) == a and exact_div(p, a) == b
        assert _ref_div(p.terms, b.terms) == a.terms
        # one more term near the edges makes most of these indivisible
        p = p + _edge_poly(rng, sides, 3, 1)
        if p.is_zero():
            continue
        expected = _ref_div(p.terms, b.terms)
        if expected is None:
            failures += 1
            with pytest.raises(NotDivisible):
                exact_div(p, b)
        else:
            assert exact_div(p, b).terms == expected
    assert failures > 10


def test_constructor_rejects_an_exponent_outside_the_range():
    assert LaurentPoly(2, {(LOW, HIGH): 1}).min_exponents() == (LOW, HIGH)
    for exp in ((HIGH + 1, 0), (0, LOW - 1)):
        with pytest.raises(ValueError):
            LaurentPoly(2, {exp: 1})


def test_product_leaving_the_range_raises():
    p = LaurentPoly(2, {(HIGH - 1, 0): 1, (0, 0): 1})
    x1, x2 = generators(2)
    assert (p * x1).max_exponents() == (HIGH, 0)
    with pytest.raises(ValueError):
        p * x1 * x1
    with pytest.raises(ValueError):
        p * p
    assert (p * x2).max_exponents() == (HIGH - 1, 1)


def test_power_leaving_the_range_raises_before_any_product(monkeypatch):
    x1, x2 = generators(2)
    f = exact_div(LaurentPoly.one(2) + x2, x1)
    near = [
        (exact_div(LaurentPoly.one(2) + x2, x1.pow(4096)), 4),  # reaches LOW in x1
        (LaurentPoly(2, {(5461, 0): 1, (0, -5461): -2}), 3),  # HIGH in x1, LOW + 1 in x2
    ]
    for p, k in near:
        expected = p
        for _ in range(k - 1):
            expected = expected * p
        assert p.pow(k) == expected
    powers = [(f, 100000), (f, HIGH + 1)] + [(p, k + 1) for p, k in near]

    def no_product(*_):
        raise AssertionError("a power out of range took a product")

    monkeypatch.setattr(LaurentPoly, "__mul__", no_product)
    for p, k in powers:
        with pytest.raises(ValueError, match=r"a power spans exponents \(.*\) to \(.*\), outside"):
            p.pow(k)


def test_shift_leaving_the_range_raises():
    p = LaurentPoly(2, {(0, 1): 1, (0, -1): 2})
    assert p.shift((0, LOW + 1)).min_exponents() == (0, LOW)
    with pytest.raises(ValueError):
        p.shift((0, LOW))
    with pytest.raises(ValueError):
        p.shift((HIGH + 1, 0))


def test_quotient_leaving_the_range_raises():
    x = LaurentPoly.generator(1, 1)
    one = LaurentPoly.one(1)
    p = LaurentPoly.monomial(1, (LOW,)) * (one + x)
    assert exact_div(p, one + x) == LaurentPoly.monomial(1, (LOW,))
    with pytest.raises(ValueError):
        exact_div(p, x * (one + x))
    with pytest.raises(ValueError):
        exact_div(p, x)


def test_editing_terms_leaves_the_polynomial_unchanged():
    p = LaurentPoly(2, {(1, -1): 2, (0, 0): 1})
    key = p.canonical_string()
    terms = p.terms
    terms[(1, -1)] = 5
    terms[(3, 3)] = 1
    del terms[(0, 0)]
    assert p.terms == {(1, -1): 2, (0, 0): 1}
    assert p.canonical_string() == key
    assert p == LaurentPoly(2, {(0, 0): 1, (1, -1): 2})


def test_nvars_is_read_only():
    # a writable nvars would decode the packed keys with the wrong digit count
    p = LaurentPoly.generator(2, 1)
    with pytest.raises(AttributeError):
        p.nvars = 3
    assert p.nvars == 2
    assert p.canonical_string() == "1:1,0"


@pytest.mark.parametrize(
    "build",
    [
        lambda: LaurentPoly(2, {(0.5, 1): 1}),
        lambda: LaurentPoly(2, {(1, 1): 1.5}),
        lambda: LaurentPoly(2, {"ab": 1}),
        lambda: LaurentPoly(2, {(True, 0): 1}),
        lambda: LaurentPoly(2, {(1, 0): True}),
        lambda: LaurentPoly.constant(1, 1.5),
        lambda: LaurentPoly.constant(1, 0.0),
        lambda: LaurentPoly(2.0, {}),
        lambda: LaurentPoly(True, {(1,): 1}),
        lambda: LaurentPoly.generator(2, 1).shift((0.5, 0)),
        lambda: LaurentPoly.generator(2, 1).shift((True, 0)),
        lambda: LaurentPoly.generator(2, 1).shift("ab"),
        lambda: LaurentPoly.generator(2, 1).pow(2.0),
        lambda: LaurentPoly.generator(2, 1).pow(True),
        lambda: LaurentPoly.generator(2, 1).scale(1.5),
        lambda: LaurentPoly.generator(2, 1.0),
    ],
    ids=[
        "float-exponent", "float-coefficient", "str-exponent-vector", "bool-exponent",
        "bool-coefficient", "float-constant", "float-zero-constant", "float-nvars",
        "bool-nvars", "float-shift", "bool-shift", "str-shift", "float-power", "bool-power",
        "float-scale", "float-generator-index",
    ],
)
def test_non_int_input_is_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_orbit_and_belt_fixture_is_unchanged():
    """Digest of the A4 relabeling orbit and the 20-step Kronecker belt."""
    g = orbit(LabeledSeed.initial(a4_path_matrix()), max_seeds=5000,
              with_permutations=True)
    belt = bipartite_belt(LabeledSeed.initial(kronecker_matrix()), 20)
    digest = hashlib.sha256()
    for line in g.dump_lines() + [s.key_string() for s in belt.seeds]:
        digest.update(line.encode())
    assert digest.hexdigest() == (
        "2a244d76819b62fe793f394aa087a051535d047d42463965032509fb8fab3cd0"
    )

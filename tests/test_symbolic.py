"""Unit tests for exact Laurent-polynomial arithmetic."""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from clusteralg.errors import NotDivisible
from clusteralg.fixtures import a4_path_matrix, kronecker_matrix
from clusteralg.periodicity import bipartite_belt
from clusteralg.seeds import LabeledSeed, orbit
from clusteralg.symbolic import (
    _SMALL_PRODUCT,
    LaurentPoly,
    exact_div,
    exchange_relation,
    generators,
)


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
    assert p.pow(0).is_one()
    assert p.pow(1) == p


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        LaurentPoly.one(1).pow(-1)


def test_min_max_exponents():
    p = LaurentPoly(2, {(-1, 3): 1, (2, -2): 4})
    assert p.min_exponents() == (-1, -2)
    assert p.max_exponents() == (2, 3)
    assert LaurentPoly.zero(2).min_exponents() == (0, 0)


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


def test_canonical_string_roundtrip():
    p = LaurentPoly(2, {(-1, 2): -3, (0, 0): 1})
    s = p.canonical_string()
    assert LaurentPoly.from_canonical_string(2, s) == p
    assert LaurentPoly.from_canonical_string(2, "") == LaurentPoly.zero(2)


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


def _packs(plus: list, minus: list, x: LaurentPoly) -> bool:
    """Whether exchange_relation leaves the products and exact_div of LaurentPoly."""
    bound = max(
        math.prod(len(f.terms) ** a for f, a in side) for side in (plus, minus)
    )
    return len(x.terms) > 1 and bound > _SMALL_PRODUCT


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
    paths = set()
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
        paths.add(_packs(plus, minus, q))
        # a square agrees with the product of two distinct equal copies
        f = _random_poly(relation_rng, nvars, 16)
        twice = [(f, 1), (LaurentPoly(nvars, f.terms), 1), (q, 1)]
        assert exchange_relation([(f, 2), (q, 1)], minus, q) == exchange_relation(twice, minus, q)
    if nvars:
        assert paths == {False, True}
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
        outcomes.add((expected is None, _packs(plus, minus, x)))
    if nvars:
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_pow_zero_and_one():
    for p in (
        LaurentPoly(3, {(1, -2, 0): 2, (0, 0, 5): -1}),
        LaurentPoly.zero(2),
        LaurentPoly.constant(0, 7),
    ):
        assert p.pow(0) == LaurentPoly.one(p.nvars)
        assert p.pow(1) is p
        assert p.pow(3).terms == _ref_mul(_ref_mul(p.terms, p.terms), p.terms)


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

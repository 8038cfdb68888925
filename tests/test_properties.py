"""Property-based invariant checks across the library."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusteralg import fixtures
from clusteralg.errors import NotSkewSymmetrizable
from clusteralg.exchange import (
    ExchangeMatrix,
    Permutation,
    _find_symmetrizer,
    matrix_mutation_class,
)
from clusteralg.periodicity import is_sigma_period, tropical_period_filter
from clusteralg.seeds import LabeledSeed, apply_sequence, mutate_seed, permute_seed
from clusteralg.symbolic import LaurentPoly, exact_div


@st.composite
def matrices(draw, max_n: int = 3, bound: int = 2):
    """Skew-symmetrizable matrix with symmetrizer built in, as (B, d)."""
    n = draw(st.integers(2, max_n))
    d = [draw(st.integers(1, 2)) for _ in range(n)]
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            z = draw(st.integers(-bound, bound))
            grid[i][j] = d[j] * z
            grid[j][i] = -d[i] * z
    return ExchangeMatrix(grid), tuple(d)


@st.composite
def small_seeds(draw):
    # entries kept in {-1,0,1}: mutation walks stay cheap
    B, _ = draw(matrices(bound=1))
    return LabeledSeed.initial(B)


@st.composite
def walks(draw, max_len: int = 3):
    seq = []
    for _ in range(draw(st.integers(1, max_len))):
        seq.append(draw(st.integers(1, 2)))
    return tuple(seq)


@st.composite
def polys(draw, nvars: int = 2, positive: bool = False):
    coeffs = (
        st.integers(1, 5)
        if positive
        else st.integers(-5, 5).filter(lambda v: v != 0)
    )
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        e = tuple(draw(st.integers(-3, 3)) for _ in range(nvars))
        terms[e] = draw(coeffs)
    return LaurentPoly(nvars, terms)


@st.composite
def permutations(draw, n: int = 4):
    return Permutation(draw(st.permutations(range(1, n + 1))))


def _clip(k: int, n: int) -> int:
    return (k - 1) % n + 1


class TestMatrixProperties:
    @settings(max_examples=200)
    @given(matrices(), st.integers(1, 3))
    def test_mutation_is_an_involution(self, Bd, k):
        B, _ = Bd
        k = _clip(k, B.n)
        assert B.mutate(k).mutate(k) == B

    @settings(max_examples=200)
    @given(matrices(), st.integers(1, 3))
    def test_mutation_commutes_with_negation(self, Bd, k):
        B, _ = Bd
        k = _clip(k, B.n)
        neg = ExchangeMatrix([[-e for e in row] for row in B.rows])
        assert B.mutate(k).entry(1, 2) == -neg.mutate(k).entry(1, 2)
        assert ExchangeMatrix([[-e for e in row] for row in B.mutate(k).rows]) == neg.mutate(k)

    @settings(max_examples=200)
    @given(matrices(), st.integers(1, 3))
    def test_symmetrizer_survives_mutation(self, Bd, k):
        B, d = Bd
        k = _clip(k, B.n)
        M = B.mutate(k)
        for i in range(1, B.n + 1):
            for j in range(1, B.n + 1):
                assert d[i - 1] * M.entry(i, j) == -d[j - 1] * M.entry(j, i)

    @settings(max_examples=200)
    @given(matrices(), permutations(3), st.integers(1, 3))
    def test_mutation_commutes_with_relabeling(self, Bd, sigma, k):
        B, _ = Bd
        if sigma.n != B.n:
            sigma = Permutation.identity(B.n)
        k = _clip(k, B.n)
        assert B.permute(sigma).mutate(k) == B.mutate(sigma(k)).permute(sigma)


def _fraction_symmetrizer(grid: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Reference symmetrizer search in exact Fraction arithmetic."""
    n = len(grid)
    d: list[Fraction | None] = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        queue = [root]
        component = [root]
        while queue:
            i = queue.pop()
            for j in range(n):
                if grid[i][j] == 0:
                    continue
                forced = d[i] * Fraction(-grid[i][j], grid[j][i])
                if forced <= 0:
                    raise NotSkewSymmetrizable("ratio propagation forces nonpositive d")
                if d[j] is None:
                    d[j] = forced
                    queue.append(j)
                    component.append(j)
                elif d[j] != forced:
                    raise NotSkewSymmetrizable("inconsistent symmetrizer ratios on a cycle")
        scale = 1
        for i in component:
            scale = scale * d[i].denominator // gcd(scale, d[i].denominator)
        nums = [int(d[i] * scale) for i in component]
        g = 0
        for x in nums:
            g = gcd(g, x)
        for i, x in zip(component, nums):
            d[i] = Fraction(x // g)
    out = tuple(int(x) for x in d)
    for i in range(n):
        for j in range(n):
            if out[i] * grid[i][j] != -out[j] * grid[j][i]:
                raise NotSkewSymmetrizable("no positive integer symmetrizer")
    return out


def _outcome(search, grid):
    """The symmetrizer, or the type and message of the exception raised."""
    try:
        return search(grid)
    except NotSkewSymmetrizable as exc:
        return type(exc), str(exc)


def _random_grid(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """A zero-paired rank 1-6 grid, symmetrizable by construction half the time.

    The other half draws each pair freely, so cycles are mostly
    inconsistent; one pair in ten has equal signs, to reach the
    nonpositive-ratio rejection.  Zero pairing keeps every ratio defined.
    """
    n = rng.randint(1, 6)
    d = [rng.randint(1, 4) for _ in range(n)] if rng.random() < 0.5 else None
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                continue
            z = rng.choice((-1, 1))
            if d is not None:
                m = z * rng.randint(1, 3)
                a, b = m * d[j], -m * d[i]
            else:
                a, b = z * rng.randint(1, 6), -z * rng.randint(1, 6)
                if rng.random() < 0.1:
                    b = -b
            grid[i][j], grid[j][i] = a, b
    return tuple(tuple(row) for row in grid)


SYMMETRIZER_FIXTURES = {
    "a2": fixtures.a2_matrix(),
    "b2": fixtures.b2_matrix(),
    "g2": fixtures.g2_matrix(),
    "kronecker2": fixtures.kronecker_matrix(),
    "kronecker3": fixtures.kronecker_matrix(3),
    "rank1": fixtures.rank1_matrix(),
    "zero3": fixtures.zero_matrix(3),
    "path3(1,2)": fixtures.path3(1, 2),
    "fork3(3,1)": fixtures.fork3(3, 1),
    "a3_path": fixtures.a3_path_matrix(),
    "a3_alternating": fixtures.a3_alternating_matrix(),
    "a4_path": fixtures.a4_path_matrix(),
    "acyclic_triangle(1,1,2)": fixtures.acyclic_triangle(1, 1, 2),
    "cyclic_triangle(1,1,1)": fixtures.cyclic_triangle(1, 1, 1),
    "fork_chord_triangle(1,1,2)": fixtures.fork_chord_triangle(1, 1, 2),
    "markov": fixtures.markov_matrix(),
    "rank4_v1": fixtures.rank4_v1_matrix(),
    "weighted_path3": fixtures.weighted_path3_matrix(),
    # B3 with the weight-2 edge between 2 and 3
    "b3": ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -2, 0]]),
}


class TestSymmetrizerReference:
    """The integer symmetrizer search agrees with the Fraction reference."""

    @pytest.mark.parametrize("name", SYMMETRIZER_FIXTURES)
    def test_fixture_classes(self, name):
        for M in matrix_mutation_class(SYMMETRIZER_FIXTURES[name], 300).matrices:
            assert M.symmetrizer == _fraction_symmetrizer(M.rows), M

    @settings(max_examples=200)
    @given(matrices(max_n=5, bound=3))
    def test_strategy_matrices(self, Bd):
        B, _ = Bd
        assert _find_symmetrizer(B.rows) == _fraction_symmetrizer(B.rows)

    def test_random_grids(self):
        rng = random.Random(20260)
        seen = set()
        for _ in range(4000):
            grid = _random_grid(rng)
            got = _outcome(_find_symmetrizer, grid)
            assert got == _outcome(_fraction_symmetrizer, grid), grid
            seen.add(got[1] if isinstance(got[0], type) else "symmetrizable")
        assert seen == {
            "symmetrizable",
            "ratio propagation forces nonpositive d",
            "inconsistent symmetrizer ratios on a cycle",
        }


class TestSeedProperties:
    @settings(max_examples=200)
    @given(small_seeds(), st.integers(1, 3))
    def test_mutation_is_an_involution(self, s, k):
        k = _clip(k, s.rank)
        assert mutate_seed(mutate_seed(s, k), k) == s

    @settings(max_examples=200)
    @given(small_seeds(), permutations(3), st.integers(1, 3))
    def test_mutation_commutes_with_relabeling(self, s, sigma, k):
        if sigma.n != s.rank:
            sigma = Permutation.identity(s.rank)
        k = _clip(k, s.rank)
        left = mutate_seed(permute_seed(s, sigma), k)
        right = permute_seed(mutate_seed(s, sigma(k)), sigma)
        assert left == right

    @settings(max_examples=200)
    @given(small_seeds(), walks())
    def test_walk_and_reversal_is_a_seed_period(self, s, w):
        seq = w + tuple(reversed(w))
        ident = Permutation.identity(s.rank)
        assert is_sigma_period(s, seq, ident).holds
        assert is_sigma_period(s.matrix, seq, ident).holds
        # the valuation filter must never reject a true period
        assert tropical_period_filter(s, seq)

    @settings(max_examples=200)
    @given(small_seeds(), walks())
    def test_laurent_positivity_along_walks(self, s, w):
        t = apply_sequence(s, w)
        for p in t.cluster:
            assert not p.is_zero()
            assert p.all_coefficients_positive()


class TestLaurentProperties:
    @settings(max_examples=200)
    @given(polys(), polys())
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @settings(max_examples=200)
    @given(polys(), polys(), polys())
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=200)
    @given(polys())
    def test_additive_inverse_and_units(self, p):
        zero = LaurentPoly.zero(p.nvars)
        assert p - p == zero
        assert p * LaurentPoly.one(p.nvars) == p
        assert p + zero == p

    @settings(max_examples=200)
    @given(polys(), polys())
    def test_exact_division_round_trip(self, p, q):
        if q.is_zero():
            q = LaurentPoly.one(q.nvars)
        assert exact_div(p * q, q) == p

    @settings(max_examples=200)
    @given(polys(), polys())
    def test_canonical_strings_agree_with_equality(self, p, q):
        assert LaurentPoly(p.nvars, p.terms).canonical_string() == p.canonical_string()
        assert (p.canonical_string() == q.canonical_string()) == (p == q)

    @settings(max_examples=200)
    @given(polys(positive=True), polys(positive=True))
    def test_valuations_add_on_positive_products(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        lhs = (p * q).min_exponents()
        rhs = tuple(a + b for a, b in zip(p.min_exponents(), q.min_exponents()))
        assert lhs == rhs


class TestPermutationProperties:
    @settings(max_examples=200)
    @given(permutations(), permutations(), permutations())
    def test_composition_is_associative(self, a, b, c):
        assert a.compose(b).compose(c) == a.compose(b.compose(c))

    @settings(max_examples=200)
    @given(permutations())
    def test_inverse_composes_to_identity(self, a):
        assert a.compose(a.inverse()).is_identity()
        assert a.inverse().compose(a).is_identity()

    @settings(max_examples=200)
    @given(permutations())
    def test_cycle_notation_round_trip(self, a):
        assert Permutation.from_cycle_notation(a.n, a.cycle_notation()) == a

"""Property-based invariant checks across the library."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from clusteralg.exchange import ExchangeMatrix, Permutation
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
    @given(polys())
    def test_canonical_string_round_trip(self, p):
        assert LaurentPoly.from_canonical_string(p.nvars, p.canonical_string()) == p

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

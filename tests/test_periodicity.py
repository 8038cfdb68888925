"""Unit tests for periods, belts, subseeds and distinguishers."""

from __future__ import annotations

import functools
import itertools

import pytest

from clusteralg import exchange, periodicity, seeds
from clusteralg.errors import InvariantViolation, NotBipartite
from clusteralg.exchange import (
    Permutation,
    all_permutations,
    apply_permutation_matrix,
    mutate_matrix,
)
from clusteralg.fixtures import (
    a2_matrix,
    a3_alternating_matrix,
    a3_path_matrix,
    a4_path_matrix,
    acyclic_triangle,
    b2_matrix,
    cyclic_triangle,
    fork3,
    fork_chord_triangle,
    g2_matrix,
    kronecker_matrix,
    markov_matrix,
    path3,
    rank1_matrix,
    rank4_v1_matrix,
    weighted_path3_matrix,
    zero_matrix,
)
from clusteralg.periodicity import (
    _walk,
    bipartite_belt,
    conjugate_period,
    find_periods,
    is_sigma_period,
    period_set_distinguisher,
    restriction_extension_check,
    subseed,
    tropical_period_filter,
)
from clusteralg.seeds import LabeledSeed, apply_sequence, orbit, permute_seed


def a2_seed() -> LabeledSeed:
    return LabeledSeed.initial(a2_matrix())


ACTION_FIXTURES = {
    "rank1": rank1_matrix(),
    "A2": a2_matrix(),
    "B2": b2_matrix(),
    "G2": g2_matrix(),
    "kronecker": kronecker_matrix(),
    "zero2": zero_matrix(2),
    "A3-path": a3_path_matrix(),
    "A3-alternating": a3_alternating_matrix(),
    "markov": markov_matrix(),
    "weighted-path3": weighted_path3_matrix(),
    "acyclic-triangle": acyclic_triangle(1, 1, 2),
    "cyclic-triangle": cyclic_triangle(1, 1, 1),
    "A4-path": a4_path_matrix(),
    "rank4-v1": rank4_v1_matrix(),
}


def _words(n: int, max_len: int):
    for length in range(max_len + 1):
        yield from itertools.product(range(1, n + 1), repeat=length)


def _free_functions(target):
    """(rank, apply, permute, kind) for target, spelled with the free functions."""
    if isinstance(target, LabeledSeed):
        return target.matrix.n, apply_sequence, permute_seed, "seed-period"
    return target.n, _fold_mutations, apply_permutation_matrix, "matrix-period"


def _fold_mutations(B, word):
    return functools.reduce(mutate_matrix, word, B)


class TestActionInterface:
    """Matrices and seeds answer rank, apply and permute alike."""

    @pytest.mark.parametrize("B", ACTION_FIXTURES.values(), ids=ACTION_FIXTURES.keys())
    def test_methods_match_free_functions(self, B):
        for x in (B, LabeledSeed.initial(B)):
            rank, apply, permute, _ = _free_functions(x)
            assert x.rank == rank == B.n
            for w in _words(B.n, 3):
                assert x.apply(w) == apply(x, w)
            for sigma in all_permutations(B.n):
                assert x.permute(sigma) == permute(x, sigma)

    @pytest.mark.parametrize("B", ACTION_FIXTURES.values(), ids=ACTION_FIXTURES.keys())
    def test_sigma_period_matches_free_function_reference(self, B):
        # every word to length 5 at rank <= 2; the sweep is capped at higher
        # rank, where the words times the n! sigmas cost seconds per fixture
        max_len = {1: 5, 2: 5, 3: 3, 4: 2}[B.n]
        for x in (B, LabeledSeed.initial(B)):
            _, apply, permute, kind = _free_functions(x)
            periods = {sigma: [] for sigma in all_permutations(B.n)}
            for w in _words(B.n, max_len):
                end = apply(x, w)
                for sigma, found in periods.items():
                    holds = permute(end, sigma) == x
                    report = is_sigma_period(x, w, sigma)
                    assert (report.holds, report.kind) == (holds, kind), (w, sigma)
                    if holds and w:
                        found.append(w)
            for sigma, found in periods.items():
                assert find_periods(x, sigma, max_len, essential_only=False) == found


class TestSigmaPeriods:
    def test_pentagon_swap_period(self):
        swap = Permutation.transposition(2, 1, 2)
        report = is_sigma_period(a2_seed(), (1, 2, 1, 2, 1), swap)
        assert report.holds and report.kind == "seed-period"

    def test_pentagon_needs_the_swap(self):
        ident = Permutation.identity(2)
        assert not is_sigma_period(a2_seed(), (1, 2, 1, 2, 1), ident).holds

    def test_matrix_period_shorter_than_seed_period(self):
        ident = Permutation.identity(2)
        assert is_sigma_period(a2_matrix(), (1, 2), ident).holds
        assert not is_sigma_period(a2_seed(), (1, 2), ident).holds

    @pytest.mark.parametrize(
        "B", [a2_matrix(), b2_matrix(), a3_path_matrix(), cyclic_triangle(1, 1, 2)],
        ids=["A2", "B2", "A3", "cyclic(1,1,2)"],
    )
    def test_a_matrix_no_mutates_nothing_and_a_yes_replays_once(self, B, matrix_mutations):
        # the rows of B answer; only a "yes" builds matrices, for its replay
        holds = 0
        for w in _words(B.n, 4):
            for sigma in all_permutations(B.n):
                before = len(matrix_mutations)
                report = is_sigma_period(B, w, sigma)
                holds += report.holds
                assert len(matrix_mutations) - before == (len(w) if report.holds else 0)
        assert holds

    def test_weighted_rank2_identity_period(self):
        # w = 2: the alternating period has length 6 and no relabeling
        ident = Permutation.identity(2)
        s = LabeledSeed.initial(b2_matrix())
        assert is_sigma_period(s, (1, 2, 1, 2, 1, 2), ident).holds
        assert not is_sigma_period(s, (1, 2, 1, 2, 1), ident).holds


class TestFindPeriods:
    def test_rank2_seed_periods_with_swap(self):
        swap = Permutation.transposition(2, 1, 2)
        found = find_periods(a2_seed(), swap, max_len=5)
        assert found == [(1, 2, 1, 2, 1), (2, 1, 2, 1, 2)]

    def test_empty_when_nothing_returns(self):
        ident = Permutation.identity(2)
        assert find_periods(LabeledSeed.initial(kronecker_matrix(2)), ident, 12) == []

    def test_nonessential_search_finds_immediate_repeats(self):
        ident = Permutation.identity(2)
        found = find_periods(a2_matrix(), ident, max_len=2, essential_only=False)
        assert (1, 1) in found and (2, 2) in found

    @pytest.mark.parametrize(
        "B", [a2_matrix(), a3_path_matrix(), a4_path_matrix(), rank4_v1_matrix()],
        ids=["A2", "A3", "A4", "rank4-v1"],
    )
    @pytest.mark.parametrize("essential_only", [True, False])
    def test_a_matrix_walk_mutates_only_for_its_replays(self, B, essential_only, matrix_mutations):
        # the walk steps the rows of B; each hit is replayed along the
        # shared-prefix trail, one mutate_matrix per distinct prefix
        sigmas = [Permutation.identity(B.n), Permutation.transposition(B.n, 1, 2)]
        for sigma in sigmas:
            del matrix_mutations[:]
            found = find_periods(B, sigma, 5, essential_only)
            prefixes = {seq[:i] for seq in found for i in range(1, len(seq) + 1)}
            assert len(matrix_mutations) == len(prefixes), sigma
        assert found

    @pytest.mark.parametrize("max_len", [0, 2])
    def test_sigma_of_the_wrong_degree_is_refused(self, max_len):
        sigma = Permutation.identity(3)
        for target in (a2_matrix(), a2_seed()):
            with pytest.raises(ValueError, match="degree does not match"):
                find_periods(target, sigma, max_len)


# rank 2 and rank 3 seeds whose seed predicate is checked word by word
PREDICATE_FIXTURES = {
    "A2": a2_matrix(),
    "B2": b2_matrix(),
    "G2": g2_matrix(),
    "A3": a3_path_matrix(),
    "kronecker": kronecker_matrix(2),
    "acyclic(1,1,2)": acyclic_triangle(1, 1, 2),
    "fork-chord(1,1,2)": fork_chord_triangle(1, 1, 2),
    "cyclic(1,1,2)": cyclic_triangle(1, 1, 2),
}


# a prime for evaluating Laurent polynomials at a point
_PRIME = 2**61 - 1


def _evaluated(t: LabeledSeed) -> tuple:
    """(matrix, cluster of t at x_i = i + 1, mod _PRIME)."""
    values = []
    for poly in t.cluster:
        total = 0
        for exp, coeff in poly.terms.items():
            term = coeff
            for i, e in enumerate(exp):
                term = term * pow(i + 2, e, _PRIME) % _PRIME
            total += term
        values.append(total % _PRIME)
    return t.matrix, tuple(values)


def _evaluated_step(state: tuple, k: int) -> tuple:
    """The exchange relation at k on the values of a cluster."""
    B, x = state
    plus = minus = 1
    for value, row in zip(x, B.rows):
        b = row[k - 1]
        if b > 0:
            plus = plus * pow(value, b, _PRIME) % _PRIME
        elif b < 0:
            minus = minus * pow(value, -b, _PRIME) % _PRIME
    assert x[k - 1], "a cluster variable vanishes at the point"
    new = (plus + minus) * pow(x[k - 1], -1, _PRIME) % _PRIME
    return B.mutate(k), x[: k - 1] + (new,) + x[k:]


class TestSeedPredicate:
    """A seed is_sigma_period says no from keys and yes after a replay."""

    @pytest.mark.parametrize("conj", [(), (1, 2)], ids=["initial", "after-1,2"])
    @pytest.mark.parametrize(
        "B", PREDICATE_FIXTURES.values(), ids=PREDICATE_FIXTURES.keys()
    )
    def test_matches_the_laurent_predicate(self, B, conj, seed_mutations):
        # every essential word, to length 10 at rank 2 and 6 at rank 3
        t = LabeledSeed.initial(B).apply(conj)
        B0, x0 = root = _evaluated(t)
        ends = {(): root}
        ends.update(_walk(root, B.n, 10 if B.n == 2 else 6, _evaluated_step))
        sigmas = list(all_permutations(B.n))
        for w, (M, x) in ends.items():
            for sigma in sigmas:
                # t.apply(w).permute(sigma) == t; evaluation at a point is a
                # ring map, so only ends whose values match t's are built
                holds = (
                    M.permute(sigma) == B0
                    and all(x[sigma(i) - 1] == x0[i - 1] for i in range(1, B.n + 1))
                    and t.apply(w).permute(sigma) == t
                )
                before = len(seed_mutations)
                assert is_sigma_period(t, w, sigma).holds == holds, (w, sigma)
                assert len(seed_mutations) - before == (len(w) if holds else 0), (w, sigma)

    @pytest.mark.parametrize("target", [a2_matrix(), a2_seed()], ids=["matrix", "seed"])
    def test_a_key_that_fakes_a_return_fails_its_replay(self, target, monkeypatch):
        # a row step that stays put makes every sequence return
        monkeypatch.setattr(periodicity, "_side_step", lambda side, k: side)
        with pytest.raises(InvariantViolation, match="failed its exact replay"):
            is_sigma_period(target, (1,), Permutation.identity(2))

    @pytest.mark.parametrize("seq", [(), (1, 2)])
    def test_sigma_of_the_wrong_degree_is_refused_first(
        self, seq, seed_mutations, matrix_mutations, key_steps
    ):
        for target in (a2_matrix(), a2_seed()):
            with pytest.raises(ValueError, match="degree does not match"):
                is_sigma_period(target, seq, Permutation.identity(3))
        assert seed_mutations == matrix_mutations == key_steps == []


class TestConjugation:
    def test_transported_period_verifies(self):
        swap = Permutation.transposition(2, 1, 2)
        out = conjugate_period(a2_seed(), (1, 2, 1, 2, 1), (2,), swap)
        assert out == (2, 1, 2, 1, 2, 1, 1)
        assert is_sigma_period(apply_sequence(a2_seed(), (2,)), out, swap).holds

    def test_rejects_non_period(self):
        with pytest.raises(ValueError):
            conjugate_period(a2_seed(), (1, 2), (1,))

    def test_an_out_of_range_conjugator_is_refused_before_sigma_reads_it(self, seed_mutations):
        s = LabeledSeed.initial(a3_path_matrix())
        with pytest.raises(IndexError, match="mutation index 5 out of range"):
            conjugate_period(s, (1,), (5,))
        assert seed_mutations == []

    def test_a_period_that_is_not_a_sequence_is_refused(self, seed_mutations):
        s = LabeledSeed.initial(a3_path_matrix())
        with pytest.raises(ValueError, match="is not a sequence"):
            conjugate_period(s, 5, ())
        assert seed_mutations == []

    def test_a_sigma_of_the_wrong_degree_is_refused(self, seed_mutations):
        with pytest.raises(ValueError, match="degree does not match"):
            conjugate_period(a2_seed(), (1, 2, 1, 2, 1), (2,), Permutation.identity(3))
        assert seed_mutations == []


class TestSubseeds:
    def test_subseed_shape(self):
        s = LabeledSeed.initial(a3_path_matrix())
        sub = subseed(s, (1, 2))
        assert sub.rank == 2 and sub.nvars == 3
        assert sub.matrix.rows == ((0, 1), (-1, 0))

    def test_pentagon_extends_across_a_simple_arrow(self):
        # the five-step swap walk on a simple arrow is a period of the
        # whole seed, not just the pair; this is the swap-gadget identity
        s = LabeledSeed.initial(a3_path_matrix())
        sigma = Permutation.transposition(3, 1, 2)
        r = restriction_extension_check(s, (1, 2), (1, 2, 1, 2, 1), sigma)
        assert r.restricted_seed_period
        assert r.full_seed_period

    def test_matrix_extension_can_fail(self):
        # (1,2) is a period of the restricted 2x2 matrix but not of the
        # full triangle
        s = LabeledSeed.initial(acyclic_triangle(1, 1, 1))
        r = restriction_extension_check(s, (1, 2), (1, 2), Permutation.identity(3))
        assert r.restricted_matrix_period
        assert not r.full_matrix_period

    def test_subseed_of_an_initial_seed_closes_its_orbit(self):
        # A3 inside A4: 14 clusters, each in 3! orders
        sub = subseed(LabeledSeed.initial(a4_path_matrix()), (1, 2, 3))
        g = orbit(sub, 1000)
        assert g.complete and len(g) == 84

    def test_non_laurent_exchange_is_an_input_error(self):
        # the exchange relation at 3 of this subseed omits x4, so its
        # new variable is not Laurent in x1..x4: bad input, not a bug
        sub = subseed(apply_sequence(LabeledSeed.initial(a4_path_matrix()), (2, 3)), (1, 2, 3))
        with pytest.raises(ValueError, match="not Laurent"):
            sub.mutate(3)
        with pytest.raises(ValueError, match="not Laurent"):
            orbit(sub, 100)

    def test_a_no_on_a_non_laurent_subseed_comes_from_keys(self, seed_mutations):
        # the subseed above, whose relation at 3 is not Laurent: its key
        # does not return along (3,), so the restricted answer is no,
        # exact by synchronicity, with no replay
        full = apply_sequence(LabeledSeed.initial(a4_path_matrix()), (2, 3))
        ident = Permutation.identity(4)
        del seed_mutations[:]
        r = restriction_extension_check(full, (1, 2, 3), (3,), ident)
        assert not (r.full_seed_period or r.restricted_seed_period)
        assert seed_mutations == []
        # a yes is replayed, and the replay of this one is not Laurent
        with pytest.raises(ValueError, match="not Laurent"):
            restriction_extension_check(full, (1, 2, 3), (3, 3), ident)

    @pytest.mark.parametrize(
        "sigma, message",
        [(Permutation.identity(2), "degree does not match"), ([2, 1, 3], "is not a Permutation")],
        ids=["degree-2", "list"],
    )
    def test_restriction_check_refuses_a_bad_sigma_first(self, sigma, message, seed_mutations):
        s = LabeledSeed.initial(a3_path_matrix())
        with pytest.raises(ValueError, match=message):
            restriction_extension_check(s, (1, 2), (1, 2), sigma)
        assert seed_mutations == []

    @pytest.mark.parametrize("index", [True, 1.0], ids=["bool", "float"])
    def test_subseed_refuses_an_index_that_is_not_an_int(self, index):
        # True would otherwise be read as the index 1
        with pytest.raises(ValueError, match=f"{index} is not an integer"):
            subseed(LabeledSeed.initial(a3_path_matrix()), (index, 2))

    def test_sequence_must_stay_inside(self):
        s = LabeledSeed.initial(a3_path_matrix())
        with pytest.raises(ValueError):
            restriction_extension_check(
                s, (1, 2), (1, 3), Permutation.identity(3)
            )


class TestBelt:
    def test_rank2_belt_returns_at_ten(self):
        r = bipartite_belt(a2_seed(), steps=10)
        assert r.return_period == 10
        assert r.seeds[0] == r.seeds[-1] == a2_seed()

    def test_rank3_alternating_belt_returns_at_twelve(self):
        r = bipartite_belt(LabeledSeed.initial(a3_alternating_matrix()), steps=15)
        assert r.return_period == 12
        assert len(r.seeds) == 13  # early stop at the return

    def test_matrix_alternates_sign(self):
        r = bipartite_belt(a2_seed(), steps=3)
        assert r.seeds[1].matrix == -a2_matrix()
        assert r.seeds[2].matrix == a2_matrix()

    def test_mirror_direction_differs(self):
        fwd = bipartite_belt(a2_seed(), steps=1)
        bwd = bipartite_belt(a2_seed(), steps=1, mirror=True)
        assert fwd.seeds[1] != bwd.seeds[1]

    def test_non_bipartite_rejected(self):
        with pytest.raises(NotBipartite):
            bipartite_belt(LabeledSeed.initial(a3_path_matrix()), steps=2)


def _min_exponent_filter(t: LabeledSeed, seq) -> bool:
    """The filter before principal-coefficient keys: minimal exponents of the cluster.

    Minimal exponents add on products and take componentwise minima on
    cancellation-free sums, so the exchange relation acts on them with
    the products replaced by weighted sums and the sum by a min.  A
    return is necessary for a seed period, not sufficient.
    """
    n = t.rank
    start = state = tuple(p.min_exponents() for p in t.cluster)
    M = t.matrix
    for k in seq:
        plus = [0] * n
        minus = [0] * n
        for j in range(1, n + 1):
            b = M.entry(j, k)
            for total, w in ((plus, b), (minus, -b)):
                if w > 0:
                    for c in range(n):
                        total[c] += w * state[j - 1][c]
        new = tuple(min(plus[c], minus[c]) - state[k - 1][c] for c in range(n))
        state = state[: k - 1] + (new,) + state[k:]
        M = M.mutate(k)
    return state == start and M == t.matrix


def _essential_words(n: int, max_len: int):
    return [w for w in _words(n, max_len) if all(a != b for a, b in zip(w, w[1:]))]


class TestTropicalFilter:
    def test_true_on_real_periods(self):
        s = LabeledSeed.initial(b2_matrix())
        assert tropical_period_filter(s, (1, 2, 1, 2, 1, 2))

    def test_false_certifies_non_period(self):
        s = a2_seed()
        assert not tropical_period_filter(s, (1, 2, 1, 2))
        assert not is_sigma_period(
            s, (1, 2, 1, 2), Permutation.identity(2)
        ).holds

    @pytest.mark.parametrize("conj", [(), (1, 2)], ids=["initial", "after-1,2"])
    @pytest.mark.parametrize(
        "B",
        [a2_matrix(), b2_matrix(), g2_matrix(), a3_path_matrix()],
        ids=["A2", "B2", "G2", "A3"],
    )
    def test_exact_on_finite_types(self, B, conj):
        # by synchronicity the c-vectors return exactly on the seed periods
        t = LabeledSeed.initial(B).apply(conj)
        ident = Permutation.identity(B.n)
        for w in _essential_words(B.n, 10 if B.n == 2 else 6):
            assert tropical_period_filter(t, w) == is_sigma_period(t, w, ident).holds, w

    @pytest.mark.parametrize("conj", [(), (1, 2)], ids=["initial", "after-1,2"])
    @pytest.mark.parametrize(
        "B",
        [
            kronecker_matrix(2),
            acyclic_triangle(1, 1, 2),
            fork_chord_triangle(1, 1, 2),
            cyclic_triangle(1, 1, 2),
        ],
        ids=["kronecker", "acyclic(1,1,2)", "fork-chord(1,1,2)", "cyclic(1,1,2)"],
    )
    def test_at_least_as_strict_as_minimal_exponents(self, B, conj):
        t = LabeledSeed.initial(B).apply(conj)
        ident = Permutation.identity(B.n)
        for w in _essential_words(B.n, 10 if B.n == 2 else 6):
            if tropical_period_filter(t, w):
                assert _min_exponent_filter(t, w), w
                assert is_sigma_period(t, w, ident).holds, w


def _reference_distinguisher(s1: LabeledSeed, s2: LabeledSeed, depth: int, period_len: int):
    """The distinguisher before principal-coefficient keys.

    Conjugates Laurent seed pairs, walks the two exchange matrices, and
    decides a seed period only where a matrix returns: the minimal-
    exponent filter first, then exact replay.  Same search order.
    """
    n = s1.rank
    ident = Permutation.identity(n)

    def pair(p, k):
        return p[0].mutate(k), p[1].mutate(k)

    def seed_period(t, seq):
        return _min_exponent_filter(t, seq) and is_sigma_period(t, seq, ident).holds

    for length in range(depth + 1):
        walk = _walk((s1, s2), n, length, pair) if length else [((), (s1, s2))]
        for conj, (t1, t2) in walk:
            if len(conj) != length:
                continue
            for seq, (m1, m2) in _walk((t1.matrix, t2.matrix), n, period_len, pair):
                p1 = m1 == t1.matrix and seed_period(t1, seq)
                p2 = m2 == t2.matrix and seed_period(t2, seq)
                if p1 != p2:
                    return conj, seq, 1 if p1 else 2
    return None


RANK3_GRID = [(0, 10), (2, 8), (3, 10)]
RANK2_GRID = [(0, 12), (2, 12)]
DISTINGUISHER_PAIRS = {
    "path-fork": (path3(1, 1), fork3(1, 1)),
    "acyclic-forkchord": (acyclic_triangle(1, 1, 2), fork_chord_triangle(1, 1, 2)),
    "acyclic-cyclic": (acyclic_triangle(1, 1, 2), cyclic_triangle(1, 1, 2)),
    "path-cyclic": (path3(1, 1), cyclic_triangle(1, 1, 1)),
    "acyclic-cyclic(1,1,1)": (acyclic_triangle(1, 1, 1), cyclic_triangle(1, 1, 1)),
    "path-acyclic(1,1,1)": (path3(1, 1), acyclic_triangle(1, 1, 1)),
    "A2-B2": (a2_matrix(), b2_matrix()),
    "B2-G2": (b2_matrix(), g2_matrix()),
    "A2-kronecker": (a2_matrix(), kronecker_matrix(2)),
}


def _distinguisher_grid(B1, B2):
    """(s1, s2, depth, period_len) over the reference grid of a pair.

    Every relabeling at rank 2; at rank 3 the identity and a 3-cycle,
    which keeps the reference's Laurent walks to seconds.
    """
    if B1.n == 2:
        sigmas, grid = all_permutations(2), RANK2_GRID
    else:
        sigmas, grid = [Permutation.identity(3), Permutation([3, 1, 2])], RANK3_GRID
    for sigma in sigmas:
        s1 = LabeledSeed.initial(B1).permute(sigma)
        s2 = LabeledSeed.initial(B2).permute(sigma)
        for depth, period_len in grid:
            yield s1, s2, depth, period_len


class TestDistinguisherAgainstReference:
    @pytest.mark.parametrize(
        "B1, B2", DISTINGUISHER_PAIRS.values(), ids=DISTINGUISHER_PAIRS.keys()
    )
    def test_witnesses_match_the_reference(self, B1, B2):
        for s1, s2, depth, period_len in _distinguisher_grid(B1, B2):
            w = period_set_distinguisher(s1, s2, depth, period_len)
            got = None if w is None else (w.conjugator, w.period, w.period_holds_on)
            assert got == _reference_distinguisher(s1, s2, depth, period_len), (
                s1.matrix, depth, period_len
            )


@pytest.fixture
def key_steps(monkeypatch):
    """The indices of every step of a key walk, one per side of a pair walk."""
    calls: list[int] = []
    real = periodicity._side_step

    def counting(side, k):
        calls.append(k)
        return real(side, k)

    monkeypatch.setattr(periodicity, "_side_step", counting)
    return calls


@pytest.fixture
def matrix_mutations(monkeypatch):
    """The indices of every mutate_matrix call, from a seed or from a matrix."""
    calls: list[int] = []
    real = exchange.mutate_matrix

    def counting(B, k):
        calls.append(k)
        return real(B, k)

    monkeypatch.setattr(exchange, "mutate_matrix", counting)
    monkeypatch.setattr(seeds, "mutate_matrix", counting)
    return calls


@pytest.fixture
def seed_mutations(monkeypatch):
    """The indices of every seeds.mutate_seed call made after the fixture starts."""
    calls: list[int] = []
    real = seeds.mutate_seed

    def counting(s, k):
        calls.append(k)
        return real(s, k)

    monkeypatch.setattr(seeds, "mutate_seed", counting)
    return calls


# the essential words of length 1..5 at rank 3: one table of a search to length 10
TABLE3 = 3 * (2**5 - 1)


class TestDistinguisher:
    def test_path_vs_fork_witness(self):
        w = period_set_distinguisher(
            LabeledSeed.initial(path3(1, 1)),
            LabeledSeed.initial(fork3(1, 1)),
            depth=3,
            period_len=10,
        )
        assert w is not None
        ident = Permutation.identity(3)
        ta = apply_sequence(LabeledSeed.initial(path3(1, 1)), w.conjugator)
        tb = apply_sequence(LabeledSeed.initial(fork3(1, 1)), w.conjugator)
        pa = is_sigma_period(ta, w.period, ident).holds
        pb = is_sigma_period(tb, w.period, ident).holds
        assert pa != pb
        assert w.period_holds_on == (1 if pa else 2)

    def test_chordal_pair_separated(self):
        w = period_set_distinguisher(
            LabeledSeed.initial(acyclic_triangle(1, 1, 2)),
            LabeledSeed.initial(fork_chord_triangle(1, 1, 2)),
            depth=3,
            period_len=10,
        )
        assert w is not None and w.period_holds_on == 1

    @pytest.mark.parametrize(
        "B1, B2, expected, moves",
        [
            (path3(1, 1), fork3(1, 1), ((), (1, 2, 1, 2, 3, 2, 3, 1, 2, 1), 2), 2 * TABLE3),
            (acyclic_triangle(1, 1, 2), fork_chord_triangle(1, 1, 2),
             ((3,), (1, 2, 1, 2, 1, 2, 1, 2, 1, 2), 1), 4 * 2 * TABLE3 + 2 * 3),
            (acyclic_triangle(1, 1, 2), cyclic_triangle(1, 1, 2),
             ((), (1, 2, 1, 3, 2, 1, 3, 1, 2, 3), 2), 2 * TABLE3),
            (path3(1, 1), cyclic_triangle(1, 1, 1),
             ((), (1, 2, 1, 2, 3, 2, 3, 1, 2, 1), 2), 2 * TABLE3),
        ],
        ids=["path-fork", "acyclic-forkchord", "acyclic-cyclic", "path-cyclic"],
    )
    def test_first_witness_is_pinned(
        self, B1, B2, expected, moves, seed_mutations, matrix_mutations, key_steps
    ):
        # the search order (conjugators by length then lex, periods lex)
        # decides which witness comes first
        s1, s2 = LabeledSeed.initial(B1), LabeledSeed.initial(B2)
        w = period_set_distinguisher(s1, s2, depth=3, period_len=10)
        assert (w.conjugator, w.period, w.period_holds_on) == expected
        # only the witness is replayed, on the side it holds for, and the
        # key walks build no exchange matrix
        assert len(seed_mutations) == len(w.conjugator) + len(w.period)
        assert len(matrix_mutations) == len(seed_mutations)
        # each conjugator searched walks one table per side (the 3 pair
        # steps of the length-1 conjugators come before the witness's);
        # the witness's replay walks its key once more first
        assert len(key_steps) == moves + len(w.period)

    def test_a_seed_against_itself_walks_half_of_length_18(self, key_steps, seed_mutations):
        # nothing separates a seed from itself; each of the four
        # conjugators searched walks one table per side, 3 * (2**9 - 1)
        # words of length 1..9, after the 3 pair steps of length 1
        s = LabeledSeed.initial(acyclic_triangle(1, 1, 2))
        assert period_set_distinguisher(s, s, depth=1, period_len=18) is None
        assert len(key_steps) == 4 * 2 * 3 * (2**9 - 1) + 2 * 3
        assert seed_mutations == []

    def test_none_within_tiny_budget(self, seed_mutations):
        w = period_set_distinguisher(
            LabeledSeed.initial(path3(1, 1)),
            LabeledSeed.initial(cyclic_triangle(1, 1, 1)),
            depth=0,
            period_len=2,
        )
        assert w is None
        assert seed_mutations == []


def _plain_returns(start: tuple, goal: tuple, n: int, max_len: int, essential_only: bool):
    """The words to max_len, in tuple order, whose rows reach goal's: a walk over every word."""
    walk = _walk(start, n, max_len, periodicity._side_step, essential_only)
    return [seq for seq, (rows, _) in walk if rows == goal[0]]


def _goal(target, sigma: Permutation) -> tuple:
    """The walk state of target relabeled by sigma^-1, the goal of find_periods."""
    g = sigma.inverse()
    rows, d = periodicity._principal_side(target)
    return exchange._permute_rows(rows, g), tuple(d[i - 1] for i in g.images)


def _plain_distinguisher(s1: LabeledSeed, s2: LabeledSeed, depth: int, period_len: int):
    """The distinguisher's keys walked over every candidate, stopping at the first split."""
    n = s1.rank
    step = periodicity._side_step

    def pair(sides, k):
        return step(sides[0], k), step(sides[1], k)

    roots = periodicity._principal_side(s1), periodicity._principal_side(s2)
    for length in range(depth + 1):
        walk = _walk(roots, n, length, pair) if length else [((), roots)]
        for conj, start in walk:
            if len(conj) != length:
                continue
            for seq, ends in _walk(start, n, period_len, pair):
                back = [end[0] == side[0] for end, side in zip(ends, start)]
                if back[0] != back[1]:
                    return conj, seq, 1 if back[0] else 2
    return None


def _rank4_sigmas():
    return [Permutation.identity(4), Permutation.transposition(4, 1, 2), Permutation([2, 3, 4, 1])]


class TestMeetInTheMiddle:
    """The half-length searches against walks over every word."""

    @pytest.mark.parametrize("kind", ["matrix", "seed"])
    @pytest.mark.parametrize("B", ACTION_FIXTURES.values(), ids=ACTION_FIXTURES.keys())
    def test_returns_match_a_plain_walk(self, B, kind):
        target = B if kind == "matrix" else LabeledSeed.initial(B)
        sigmas = all_permutations(B.n) if B.n <= 3 else _rank4_sigmas()
        start = periodicity._principal_side(target)
        for sigma in sigmas:
            goal = _goal(target, sigma)
            for essential_only in (True, False):
                plain = _plain_returns(start, goal, B.n, 6, essential_only)
                for max_len in range(7):
                    want = [w for w in plain if len(w) <= max_len]
                    got = periodicity._returns(start, goal, B.n, max_len, essential_only)
                    assert sorted(got) == want, (sigma, essential_only, max_len)
                    found = find_periods(target, sigma, max_len, essential_only)
                    assert found == sorted(want, key=lambda w: (len(w), w))

    @pytest.mark.parametrize(
        "B1, B2", DISTINGUISHER_PAIRS.values(), ids=DISTINGUISHER_PAIRS.keys()
    )
    def test_witnesses_match_a_plain_walk(self, B1, B2):
        for args in _distinguisher_grid(B1, B2):
            w = period_set_distinguisher(*args)
            got = None if w is None else (w.conjugator, w.period, w.period_holds_on)
            assert got == _plain_distinguisher(*args), args

    @pytest.mark.parametrize(
        "sigma, max_len, steps",
        [
            # one table when the goal is the start: 4 + 12 + 36 words to length 3
            (Permutation.identity(4), 6, 52),
            # a goal that moves walks its own table, to length 3 and to length 2
            (Permutation.transposition(4, 1, 2), 6, 52 + 52),
            (Permutation.transposition(4, 1, 2), 5, 52 + 16),
        ],
        ids=["identity", "swap-even", "swap-odd"],
    )
    def test_a4_seed_periods_walk_half_the_length(
        self, sigma, max_len, steps, key_steps, seed_mutations, matrix_mutations
    ):
        # a walk over every word takes 4 * (3**6 - 1) // 2 = 1456 key steps
        found = find_periods(LabeledSeed.initial(a4_path_matrix()), sigma, max_len)
        assert len(found) == (26 if sigma.is_identity() else 2)
        assert len(key_steps) == steps
        # the walk builds no exchange matrix: every mutation is a replay's
        assert len(matrix_mutations) == len(seed_mutations)

    def test_a_mixed_sign_column_of_c_is_refused(self):
        # no walk builds such a key: c-vectors are sign-coherent
        B = a2_matrix()
        bad = (B.rows + ((1, 0), (-1, 1)), B.symmetrizer)
        with pytest.raises(InvariantViolation, match="column 1 of C"):
            periodicity._side_step(bad, 1)
        periodicity._side_step(bad, 2)  # column 2 is (0, 1)


class TestTableCap:
    """A search whose table would pass the cap is refused before its first step."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("essential_only", [True, False])
    def test_the_size_is_the_states_of_one_table(self, n, essential_only, monkeypatch):
        root = periodicity._principal_side(zero_matrix(n))
        for max_len in range(8):
            depth = (max_len + 1) // 2
            size = sum(1 for _ in _walk(root, n, depth, periodicity._side_step, essential_only))
            monkeypatch.setattr(periodicity, "_MAX_TABLE_STATES", size)
            periodicity._require_table_size(n, max_len, essential_only)
            monkeypatch.setattr(periodicity, "_MAX_TABLE_STATES", size - 1)
            with pytest.raises(ValueError, match=f"would hold {size} walk states"):
                periodicity._require_table_size(n, max_len, essential_only)

    def test_find_periods_refuses_a_long_search(self, key_steps):
        # 2 * (3**30 - 1) essential words of length 1..30 at rank 4
        for target in (a4_path_matrix(), LabeledSeed.initial(a4_path_matrix())):
            with pytest.raises(ValueError, match="would hold 411782264189296 walk states"):
                find_periods(target, Permutation.identity(4), 60)
        with pytest.raises(ValueError, match=r"would hold more than \d+ walk states"):
            find_periods(a4_path_matrix(), Permutation.identity(4), 10**9)
        assert key_steps == []

    def test_the_distinguisher_refuses_a_long_search(self, key_steps):
        s = LabeledSeed.initial(a3_path_matrix())
        with pytest.raises(ValueError, match="past the cap"):
            period_set_distinguisher(s, s, 2, 60)
        assert key_steps == []

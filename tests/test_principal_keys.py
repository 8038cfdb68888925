"""Principal-coefficient keys against the Laurent-keyed searches they replace.

`orbit` and seed `find_periods` decide seed identity by the integer
keys (B, C).  The references below are the searches keyed by the seeds
themselves, one full Laurent exchange relation per edge; every output
of the package must equal theirs.
"""

from __future__ import annotations

import itertools
import random

import pytest

from clusteralg import exchange, fixtures, periodicity, seeds
from clusteralg.errors import InvariantViolation
from clusteralg.exchange import (
    ExchangeMatrix,
    Permutation,
    all_permutations,
    mutate_matrix,
)
from clusteralg.periodicity import _walk, find_periods, is_sigma_period
from clusteralg.seeds import (
    LabeledSeed,
    OrbitGraph,
    apply_sequence,
    mutate_seed,
    orbit,
    permute_seed,
)
from clusteralg.symbolic import generators


def _laurent_orbit(s: LabeledSeed, max_seeds: int, with_permutations: bool) -> OrbitGraph:
    """Reference orbit: a plain BFS keyed by the seeds themselves.

    It computes every move, back edges included, and shares no search
    code with the package.
    """
    n = s.rank
    gens: list = [(f"mu{k}", k) for k in range(1, n + 1)]
    if with_permutations:
        for i in range(1, n):
            g = Permutation.transposition(n, i, i + 1)
            gens.append((g.cycle_notation(), g))
    found, words, index, edges = [s], [((), Permutation.identity(n))], {s: 0}, []

    def graph(complete: bool) -> OrbitGraph:
        return OrbitGraph(found, words, edges, complete, with_permutations, index)

    cur = 0
    while cur < len(found):
        t, (mutations, pi) = found[cur], words[cur]
        for label, g in gens:
            if type(g) is int:
                u, word = mutate_seed(t, g), (mutations + (pi(g),), pi)
            else:
                u, word = permute_seed(t, g), (mutations, pi.compose(g))
            if u not in index:
                if len(found) >= max_seeds:
                    return graph(False)
                index[u] = len(found)
                found.append(u)
                words.append(word)
            edges.append((cur, label, index[u]))
        cur += 1
    return graph(True)


def _laurent_periods(
    s: LabeledSeed, sigma: Permutation, max_len: int, essential_only: bool
) -> list[tuple[int, ...]]:
    """Reference seed-period walk: every visited seed relabeled and compared."""
    found = [
        seq
        for seq, t in _walk(s, s.rank, max_len, lambda t, k: t.mutate(k), essential_only)
        if t.permute(sigma) == s
    ]
    return sorted(found, key=lambda t: (len(t), t))


B3 = ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -2, 0]])
D4 = ExchangeMatrix([[0, 1, 1, 1], [-1, 0, 0, 0], [-1, 0, 0, 0], [-1, 0, 0, 0]])

# finite type: the closures are also compared at full size
FINITE = {
    "rank1": fixtures.rank1_matrix(),
    "zero2": fixtures.zero_matrix(2),
    "A2": fixtures.a2_matrix(),
    "B2": fixtures.b2_matrix(),
    "G2": fixtures.g2_matrix(),
    "A3-path": fixtures.a3_path_matrix(),
    "A3-alternating": fixtures.a3_alternating_matrix(),
    "B3": B3,
}
INFINITE = {
    "kronecker": fixtures.kronecker_matrix(),
    "kronecker3": fixtures.kronecker_matrix(3),
    "path3(1,2)": fixtures.path3(1, 2),
    "weighted-path": fixtures.weighted_path3_matrix(),
    "markov": fixtures.markov_matrix(),
    "cyclic(1,1,1)": fixtures.cyclic_triangle(1, 1, 1),
    "acyclic(1,1,2)": fixtures.acyclic_triangle(1, 1, 2),
    "fork-chord(1,1,2)": fixtures.fork_chord_triangle(1, 1, 2),
    "rank4-v1": fixtures.rank4_v1_matrix(),
}
FIXTURES = {**FINITE, **INFINITE}
# pairs of seeds that exchange x1 against the same neighbours through
# different relations, so a relation memo must keep them apart: x2 as a
# repeated factor, (x2^2 + 1)/x1 against (x2 + 1)/x1; another exponent,
# (x2 + 1)/x1 against (x2^2 + 1)/x1; another sign, (x2 x3 + 1)/x1
# against (x2 + x3)/x1
_x = generators(3)
RELATION_PAIRS = {
    "repeated-factor": [
        LabeledSeed((_x[0], _x[1], _x[1]), ExchangeMatrix([[0, -1, -1], [1, 0, 0], [1, 0, 0]])),
        LabeledSeed((_x[0], _x[1], _x[1]), ExchangeMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])),
    ],
    "exponent": [
        LabeledSeed(_x[:2], ExchangeMatrix([[0, 1], [-1, 0]])),
        LabeledSeed(_x[:2], ExchangeMatrix([[0, 1], [-2, 0]])),
    ],
    "sign": [
        LabeledSeed(_x, ExchangeMatrix([[0, 1, 1], [-1, 0, 0], [-1, 0, 0]])),
        LabeledSeed(_x, ExchangeMatrix([[0, 1, -1], [-1, 0, 0], [1, 0, 0]])),
    ],
}
# budgets that cut each closure; on the rank-2 infinite paths the
# Laurent references grow fastest, exponentially for Kronecker(3)
CUT_BUDGETS = {"kronecker": (1, 7, 20), "kronecker3": (1, 5)}


def _roots(B: ExchangeMatrix) -> list[LabeledSeed]:
    s = LabeledSeed.initial(B)
    return [s, apply_sequence(s, (1, 2))] if B.n >= 2 else [s]


def _same_orbit(got: OrbitGraph, want: OrbitGraph) -> None:
    assert got.seeds == want.seeds
    assert got.words == want.words
    assert got.edges == want.edges
    assert got.index == want.index
    assert got.complete == want.complete
    assert got.dump_lines() == want.dump_lines()


class TestOrbitKeys:
    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("with_permutations", [False, True])
    def test_budget_cut_orbits_match_the_laurent_orbit(self, name, with_permutations):
        budgets = CUT_BUDGETS.get(name, (1, 7, 40))
        for root, budget in itertools.product(_roots(FIXTURES[name]), budgets):
            _same_orbit(
                orbit(root, budget, with_permutations),
                _laurent_orbit(root, budget, with_permutations),
            )

    @pytest.mark.parametrize("name", FINITE)
    @pytest.mark.parametrize("with_permutations", [False, True])
    def test_full_orbits_match_the_laurent_orbit(self, name, with_permutations):
        for root in _roots(FINITE[name]):
            got = orbit(root, 2000, with_permutations)
            assert got.complete
            _same_orbit(got, _laurent_orbit(root, 2000, with_permutations))

    @pytest.mark.parametrize("B", [fixtures.a4_path_matrix(), D4], ids=["A4", "D4"])
    def test_rank4_orbits_match_the_laurent_orbit(self, B):
        s = LabeledSeed.initial(B)
        _same_orbit(orbit(s, 2000), _laurent_orbit(s, 2000, False))
        root = apply_sequence(s, (1, 2))
        _same_orbit(orbit(root, 300, True), _laurent_orbit(root, 300, True))

    def test_a_subseed_root_keeps_its_orbit(self):
        # the cluster entries of a subseed live in a larger ambient ring
        sub = periodicity.subseed(LabeledSeed.initial(fixtures.a4_path_matrix()), (2, 3, 4))
        assert sub.nvars == 4
        _same_orbit(orbit(sub, 2000, True), _laurent_orbit(sub, 2000, True))

    def test_each_seed_and_matrix_move_is_computed_once(self, monkeypatch):
        # one exchange relation per exchange pair (x_k, x'_k) met on an
        # edge that discovers a seed of the reference orbit, and one
        # ExchangeMatrix per matrix of the class (14 for A3) but the root's
        s = LabeledSeed.initial(fixtures.a3_path_matrix())
        ref = _laurent_orbit(s, 2000, False)
        discovered = {0}
        pairs = set()
        for source, label, target in ref.edges:
            if target not in discovered:
                discovered.add(target)
                k = int(label[2:])
                pairs.add((ref.seeds[source].cluster[k - 1], ref.seeds[target].cluster[k - 1]))
        assert len(pairs) == 29
        counts = {"_exchanged": 0, "ExchangeMatrix": 0}
        for name in counts:
            original = getattr(seeds, name)

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(seeds, name, counted)
        g = orbit(s, 2000)
        assert g.complete and len(g) == 84
        assert counts == {"_exchanged": len(pairs), "ExchangeMatrix": 14 - 1}

    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("case", RELATION_PAIRS)
    def test_the_relation_memo_tells_relations_apart(self, case, first):
        pair = RELATION_PAIRS[case]
        memo: dict = {}
        got = {
            t: seeds._exchanged_once(memo, t, 1, mutate_matrix(t.matrix, 1))
            for t in pair[first:] + pair[:first]
        }
        assert len(memo) == 2
        for t in pair:
            assert got[t] == mutate_seed(t, 1)
        assert got[pair[0]].cluster[0] != got[pair[1]].cluster[0]

    def test_the_relation_memo_stores_no_failed_relation(self):
        # a subseed relation that is not Laurent raises every time
        sub = periodicity.subseed(
            apply_sequence(LabeledSeed.initial(fixtures.a4_path_matrix()), (2, 3)), (1, 2, 3)
        )
        memo: dict = {}
        for _ in range(2):
            with pytest.raises(ValueError, match="not Laurent"):
                seeds._exchanged_once(memo, sub, 3, mutate_matrix(sub.matrix, 3))
            assert memo == {}

    def test_two_keys_for_one_seed_raise(self, monkeypatch):
        # a key step that never repeats a key admits every seed twice over
        tick = itertools.count()
        original = seeds._mutate_rows

        def fresh(rows, k):
            rows = original(rows, k)
            return rows + ((next(tick),) * len(rows[0]),)

        monkeypatch.setattr(seeds, "_mutate_rows", fresh)
        with pytest.raises(InvariantViolation, match="built one seed"):
            orbit(LabeledSeed.initial(fixtures.a2_matrix()), 50)

    def test_a_key_step_that_breaks_the_symmetrizer_raises(self, monkeypatch):
        # A2's symmetrizer is (1, 1); doubling row 2 of B makes it (2, 1)
        original = seeds._mutate_rows

        def doubled(rows, k):
            rows = original(rows, k)
            return (rows[0], tuple(2 * x for x in rows[1])) + rows[2:]

        monkeypatch.setattr(seeds, "_mutate_rows", doubled)
        with pytest.raises(InvariantViolation, match="skew-symmetrizer"):
            orbit(LabeledSeed.initial(fixtures.a2_matrix()), 50)


def _period_cases():
    for name, B in FIXTURES.items():
        max_len = {1: 6, 2: 7, 3: 4, 4: 3}[B.n]
        if name in INFINITE and (B.n >= 3 or name == "kronecker3"):
            max_len = 3  # the Laurent references grow fast off finite type
        yield pytest.param(B, max_len, id=name)
    yield pytest.param(fixtures.a4_path_matrix(), 3, id="A4")
    yield pytest.param(D4, 3, id="D4")


class TestPeriodKeys:
    @pytest.mark.parametrize("B, max_len", _period_cases())
    def test_seed_periods_match_the_laurent_walk(self, B, max_len):
        for root in _roots(B):
            for sigma in all_permutations(B.n):
                for essential_only in (True, False):
                    assert find_periods(root, sigma, max_len, essential_only) == (
                        _laurent_periods(root, sigma, max_len, essential_only)
                    ), (sigma, essential_only)

    @pytest.mark.parametrize("images", [(2, 3, 1), (3, 1, 2)])
    def test_three_cycle_periods_match_the_laurent_walk(self, images):
        # an involution is its own inverse, so only a longer cycle tells
        # sigma from sigma^-1; on A3 its shortest seed periods have length 8
        s = LabeledSeed.initial(fixtures.a3_path_matrix())
        sigma = Permutation(images)
        found = find_periods(s, sigma, 8)
        assert len(found) == 14 and found == _laurent_periods(s, sigma, 8, True)

    def test_weighted_path_nonessential_periods_replay(self):
        s = apply_sequence(LabeledSeed.initial(fixtures.weighted_path3_matrix()), (2, 1))
        ident = Permutation.identity(3)
        found = find_periods(s, ident, 4, essential_only=False)
        assert len(found) == 18
        assert all(is_sigma_period(s, seq, ident).holds for seq in found)

    def test_replays_share_prefixes(self, monkeypatch):
        # every even-length word over {1} is a period of a rank-1 seed
        calls = []
        original = seeds.mutate_seed
        monkeypatch.setattr(
            seeds, "mutate_seed", lambda *args: calls.append(1) or original(*args)
        )
        s = LabeledSeed.initial(fixtures.rank1_matrix())
        found = find_periods(s, Permutation.identity(1), 200, essential_only=False)
        assert found == [(1,) * m for m in range(2, 201, 2)]
        assert len(calls) == 200

    @pytest.mark.parametrize(
        "target",
        [fixtures.a2_matrix(), LabeledSeed.initial(fixtures.a2_matrix())],
        ids=["matrix", "seed"],
    )
    def test_a_false_key_hit_fails_its_replay(self, target, monkeypatch):
        # a row step that stays at the root makes every sequence a hit
        monkeypatch.setattr(periodicity, "_side_step", lambda side, k: side)
        with pytest.raises(InvariantViolation, match=r"^period word \(1,\) does not replay"):
            find_periods(target, Permutation.identity(2), 1)


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def _reference_key_step(B: tuple, C: tuple, k: int) -> tuple:
    """Mutation at k of the key (B, C), each rule written out on its own.

    b'_ij = -b_ij when i = k or j = k, else b_ij + sgn(b_ik) [b_ik b_kj]_+;
    c'_ij = -c_ij when j = k, else c_ij + sgn(c_ik) [c_ik b_kj]_+.
    """
    a = k - 1
    n = len(B)
    B2 = tuple(
        tuple(
            -B[i][j] if a in (i, j) else B[i][j] + _sgn(B[i][a]) * max(B[i][a] * B[a][j], 0)
            for j in range(n)
        )
        for i in range(n)
    )
    C2 = tuple(
        tuple(
            -row[j] if j == a else row[j] + _sgn(row[a]) * max(row[a] * B[a][j], 0)
            for j in range(n)
        )
        for row in C
    )
    return B2, C2


def _reference_relabel(B: tuple, C: tuple, sigma: Permutation) -> tuple:
    """Relabeling of the key (B, C) by sigma.

    Entry (i, j) of the new B is b_{sigma(i) sigma(j)}, and column j of
    the new C is column sigma(j) of C; the rows of C stay where they are.
    """
    labels = range(1, len(B) + 1)
    B2 = tuple(tuple(B[sigma(i) - 1][sigma(j) - 1] for j in labels) for i in labels)
    C2 = tuple(tuple(row[sigma(j) - 1] for j in labels) for row in C)
    return B2, C2


def _step_cases():
    for name, B in FIXTURES.items():
        yield pytest.param(B, id=name)
    yield pytest.param(fixtures.a4_path_matrix(), id="A4")
    yield pytest.param(D4, id="D4")


class TestRowRules:
    """Every caller of the one row rule against the rules written out above."""

    @pytest.mark.parametrize("B", _step_cases())
    def test_random_walks_with_relabelings_match_the_reference(self, B):
        n = B.n
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        sigmas = list(all_permutations(n))
        rng = random.Random(str(B.rows))
        for _ in range(20):
            ref = B.rows, identity
            side = periodicity._principal_side(LabeledSeed.initial(B))
            rows = exchange._principal_rows(B)
            matrix = B
            assert side[0] == rows == ref[0] + ref[1]
            for _ in range(12):
                k = rng.randint(1, n)
                ref = _reference_key_step(*ref, k)
                side = periodicity._side_step(side, k)
                rows = seeds._mutate_rows(rows, k)
                matrix = mutate_matrix(matrix, k)
                if rng.random() < 0.5:
                    sigma = rng.choice(sigmas)
                    ref = _reference_relabel(*ref, sigma)
                    rows = seeds._permute_rows(rows, sigma)
                    matrix = matrix.permute(sigma)
                    # a walk state never relabels: restart it from the
                    # reference, with d moved as the labels move
                    d = side[1]
                    side = ref[0] + ref[1], tuple(d[i - 1] for i in sigma.images)
                assert matrix.rows == ref[0]
                assert rows == side[0] == ref[0] + ref[1]
                assert side[1] == matrix.symmetrizer

    def test_a_wrong_symmetrizer_is_refused(self):
        # B2's symmetrizer is (2, 1); mutation keeps it, so (1, 1) fails
        B = fixtures.b2_matrix()
        rows, _ = periodicity._principal_side(LabeledSeed.initial(B))
        with pytest.raises(InvariantViolation, match="skew-symmetrizer"):
            periodicity._side_step((rows, (1, 1)), 1)

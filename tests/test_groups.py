"""Unit tests for the automorphism group machinery."""

from __future__ import annotations

from collections import Counter

import pytest

from clusteralg import exchange, groups, seeds
from clusteralg.errors import DecomposableMatrix, InvariantViolation
from clusteralg.exchange import ExchangeMatrix, Permutation, all_permutations
from clusteralg.fixtures import (
    a2_matrix,
    a3_alternating_matrix,
    a3_path_matrix,
    a4_path_matrix,
    b2_matrix,
    g2_matrix,
    kronecker_matrix,
    markov_matrix,
    rank4_v1_matrix,
    weighted_path3_matrix,
    zero_matrix,
)
from clusteralg.groups import (
    GroupSummary,
    compute_L_P,
    enumerate_aut_plus,
    enumerate_saut_plus,
    equivariant_automorphisms,
)
from clusteralg.seeds import LabeledSeed, orbit
from clusteralg.symbolic import LaurentPoly


SWAP = Permutation.transposition(2, 1, 2)


def a2_seed() -> LabeledSeed:
    return LabeledSeed.initial(a2_matrix())


class TestSautEnumeration:
    def test_rank2_simple_order_five(self):
        e = enumerate_saut_plus(a2_seed(), budget=100)
        assert e.complete and e.order == 5
        assert e.orbit_size == 10

    def test_witnesses_act_as_claimed(self):
        e = enumerate_saut_plus(a2_seed(), budget=100)
        for el in e.elements:
            moved = a2_seed().apply(el.witness)
            assert moved.matrix == a2_matrix()
            assert moved.cluster == el.image_cluster

    def test_truncated_enumeration_has_no_order(self):
        e = enumerate_saut_plus(LabeledSeed.initial(kronecker_matrix(2)), budget=9)
        assert not e.complete and e.order is None
        assert e.elements  # the identity at least

    def test_decomposable_rejected(self):
        with pytest.raises(DecomposableMatrix):
            enumerate_saut_plus(LabeledSeed.initial(zero_matrix(2)), budget=10)


class TestLP:
    def test_rank2_simple_L_and_P_are_S2(self):
        r = compute_L_P(a2_seed(), budget=100)
        assert r.L_exact and r.P_exact
        assert len(r.L_members) == 2 and len(r.P_members) == 2
        # the closed orbit answers first, with its BFS witness
        assert r.P_witnesses == {Permutation.identity(2): (), SWAP: (1, 2, 1, 2, 1)}
        assert not r.P_certificates

    def test_rank3_path_L_and_P_are_S3(self):
        r = compute_L_P(LabeledSeed.initial(a3_path_matrix()), budget=300)
        assert r.L_exact and r.P_exact
        assert len(r.L_members) == 6 and len(r.P_members) == 6

    def test_double_arrow_P_is_trivial_by_certificate(self):
        # L = S_2 at matrix level; the seed orbit does not close, and the
        # swap is certified outside P by the rank-2 theorem (bc = 4: the
        # exchange graph is an infinite path)
        r = compute_L_P(LabeledSeed.initial(kronecker_matrix(2)), budget=30)
        assert r.L_exact and len(r.L_members) == 2
        assert r.P_exact and len(r.P_members) == 1
        assert next(iter(r.P_members)).is_identity()
        assert r.P_certificates

    @pytest.mark.parametrize("budget", [1, 3, 5])
    @pytest.mark.parametrize(
        "s",
        [
            a2_seed(),
            LabeledSeed.initial(-a2_matrix()),
            a2_seed().apply((1,)),
            LabeledSeed.initial(b2_matrix()),
            LabeledSeed.initial(-b2_matrix()),
            LabeledSeed.initial(g2_matrix()),
            LabeledSeed.initial(kronecker_matrix(2)),
            LabeledSeed.initial(kronecker_matrix(3)),
            LabeledSeed.initial(ExchangeMatrix([[0, 1], [-4, 0]])),
        ],
        ids=["A2", "-A2", "A2-mu1", "B2", "-B2", "G2", "K2", "K3", "1x4"],
    )
    def test_rank2_P_is_exact_below_the_orbit(self, s, budget):
        b12, b21 = s.matrix.entry(1, 2), s.matrix.entry(2, 1)
        bc = -b12 * b21
        r = compute_L_P(s, budget)
        assert r.P_exact
        assert len(r.P_members) == (2 if bc == 1 else 1)
        for sigma, seq in r.P_witnesses.items():
            assert s.apply(seq) == s.permute(sigma)
        if bc == 1:
            assert r.P_witnesses[SWAP] == (1, 2, 1, 2, 1)
        assert list(r.P_certificates) == ([] if bc == 1 else [SWAP])
        for certificate in r.P_certificates.values():
            assert f"bc = {bc}" in certificate
            assert ("not in L" in certificate) == (b12 != -b21)

    @pytest.mark.parametrize("budget", [1, 3])
    @pytest.mark.parametrize(
        "B",
        [
            a2_matrix(),
            -a2_matrix(),
            b2_matrix(),
            g2_matrix(),
            kronecker_matrix(2),
            kronecker_matrix(3),
            ExchangeMatrix([[0, 1], [-4, 0]]),
        ],
        ids=["A2", "-A2", "B2", "G2", "K2", "K3", "1x4"],
    )
    def test_rank2_L_is_exact_below_the_class(self, B, budget):
        # a budget of 1 cuts the class {B, -B} before -B is admitted
        skew = B.entry(1, 2) == -B.entry(2, 1)
        r = compute_L_P(LabeledSeed.initial(B), budget)
        assert r.L_exact
        assert len(r.L_members) == (2 if skew else 1)
        for sigma, seq in r.L_witnesses.items():
            assert B.apply(seq) == B.permute(sigma)
        if skew:
            assert r.L_witnesses[SWAP] == (1,)
        assert set(r.P_members) <= set(r.L_members)

    @pytest.mark.parametrize(
        "B, budget",
        [(a3_path_matrix(), 2000), (kronecker_matrix(2), 12), (a2_matrix(), 1)],
        ids=["A3", "kronecker", "A2-cut"],
    )
    def test_each_relabeled_target_is_built_once(self, monkeypatch, B, budget):
        # B^sigma once for L and once inside s^sigma for P, and nothing rebuilt
        # for the replays, the rank-2 rules included
        seed_perms, matrix_perms = [], []
        real_seed, real_matrix = seeds.permute_seed, exchange.apply_permutation_matrix
        monkeypatch.setattr(
            seeds, "permute_seed", lambda t, g: seed_perms.append(g) or real_seed(t, g)
        )
        monkeypatch.setattr(
            exchange,
            "apply_permutation_matrix",
            lambda M, g: matrix_perms.append(g) or real_matrix(M, g),
        )
        compute_L_P(LabeledSeed.initial(B), budget)
        perms = list(all_permutations(B.n))
        assert seed_perms == perms
        assert Counter(g.images for g in matrix_perms) == {g.images: 2 for g in perms}

    def test_membership_witnesses_replay(self):
        from clusteralg.periodicity import is_sigma_period

        r = compute_L_P(a2_seed(), budget=100)
        for sigma, seq in r.P_witnesses.items():
            # witness reaches the permuted seed, so the inverse closes the loop
            assert is_sigma_period(a2_seed(), seq, sigma.inverse()).holds


class TestAutPlus:
    def test_rank2_summary_orders(self):
        s = enumerate_aut_plus(a2_seed(), budget=100).summary
        assert (s.saut_order, s.aut_plus_order, s.L_order, s.P_order) == (5, 5, 2, 2)
        assert s.exactness_verified

    def test_rank3_summary_orders(self):
        s = enumerate_aut_plus(
            LabeledSeed.initial(a3_path_matrix()), budget=300
        ).summary
        assert (s.saut_order, s.aut_plus_order, s.L_order, s.P_order) == (6, 6, 6, 6)
        assert s.exactness_verified

    def test_unknown_orders_render_budget(self):
        s = enumerate_aut_plus(
            LabeledSeed.initial(kronecker_matrix(2)), budget=12
        ).summary
        assert s.saut_order == "unknown(budget=12)"
        assert not s.exactness_verified

    def test_json_output_is_machine_readable(self):
        import json

        s = enumerate_aut_plus(a2_seed(), budget=100).summary
        data = json.loads(s.to_json())
        assert data["aut_plus_order"] == 5 and data["exactness_verified"] is True


def _reference_aut_plus(s: LabeledSeed, budget: int):
    """Aut+ read off the relabeling orbit, with the summary built from it.

    The enumeration the package used before Aut+ came from the
    mutation-only orbit: one element per seed of the orbit closed under
    mutation and relabeling that carries B.  Returns the image clusters,
    whether that orbit closed, and the summary JSON.
    """
    graph = orbit(s, max_seeds=budget, with_permutations=True)
    images = [t.cluster for t in graph.seeds if t.matrix == s.matrix]
    saut = enumerate_saut_plus(s, budget).order
    lp = compute_L_P(s, budget)
    orders = (
        saut,
        len(images) if graph.complete else None,
        len(lp.L_members) if lp.L_exact else None,
        len(lp.P_members) if lp.P_exact else None,
    )
    exact = None not in orders
    assert not exact or orders[1] * orders[3] == orders[0] * orders[2]
    fields = [x if x is not None else f"unknown(budget={budget})" for x in orders]
    summary = GroupSummary(*fields, exact, budget).to_json()
    return images, graph.complete, summary


def _assert_elements_replay(s: LabeledSeed, e) -> None:
    for el in e.elements:
        moved = s.apply(el.witness_sequence)
        assert moved.matrix == s.matrix.permute(el.witness_sigma.inverse())
        image = moved.permute(el.witness_sigma)
        assert image.matrix == s.matrix and image.cluster == el.image_cluster
    assert len({el.image_cluster for el in e.elements}) == len(e.elements)


# B3 with the weight-2 edge between 2 and 3; its relabeling orbit has 120 seeds
B3 = ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -2, 0]])
D4 = ExchangeMatrix([[0, 1, 1, 1], [-1, 0, 0, 0], [-1, 0, 0, 0], [-1, 0, 0, 0]])
FINITE = {
    "A2": a2_matrix(),
    "B2": b2_matrix(),
    "G2": g2_matrix(),
    "A3": a3_path_matrix(),
    "A3alt": a3_alternating_matrix(),
    "B3": B3,
    "A4": a4_path_matrix(),
    "D4": D4,
}


class TestAutPlusAgainstReference:
    """Aut+ from the mutation-only orbit against the relabeling-orbit reference."""

    @pytest.mark.parametrize("start", [(), (1, 2)], ids=["initial", "after12"])
    @pytest.mark.parametrize("name", list(FINITE))
    def test_finite_types(self, name, start):
        s = LabeledSeed.initial(FINITE[name]).apply(start)
        full = orbit(s, max_seeds=2000, with_permutations=True)
        assert full.complete
        # the smallest budget at which the reference closes, one below it,
        # and a budget well past it
        for budget in (len(full) - 1, len(full), 2000):
            images, closed, summary = _reference_aut_plus(s, budget)
            e = enumerate_aut_plus(s, budget)
            _assert_elements_replay(s, e)
            found = {el.image_cluster for el in e.elements}
            if closed:
                assert e.summary.to_json() == summary
                assert e.summary.exactness_verified
            if closed and e.complete:
                assert found == set(images)
            elif e.complete:
                assert found >= set(images)

    @pytest.mark.parametrize("budget", [1, 3, 7, 12])
    @pytest.mark.parametrize(
        "B",
        [kronecker_matrix(2), markov_matrix(), weighted_path3_matrix(), rank4_v1_matrix()],
        ids=["kronecker", "markov", "weighted_path", "rank4_v1"],
    )
    def test_infinite_types(self, B, budget):
        s = LabeledSeed.initial(B)
        images, closed, summary = _reference_aut_plus(s, budget)
        e = enumerate_aut_plus(s, budget)
        _assert_elements_replay(s, e)
        assert not closed and not e.complete
        assert e.summary.to_json() == summary

    @pytest.mark.parametrize(
        "B, budget, order",
        [(b2_matrix(), 7, 3), (g2_matrix(), 12, 4), (B3, 50, 4)],
        ids=["B2", "G2", "B3"],
    )
    def test_exact_where_the_relabeling_orbit_is_cut(self, B, budget, order):
        s = LabeledSeed.initial(B)
        assert not orbit(s, max_seeds=budget, with_permutations=True).complete
        summary = enumerate_aut_plus(s, budget).summary
        assert summary.aut_plus_order == order
        assert summary.exactness_verified


class TestEquivariant:
    def test_requires_permutation_closed_orbit(self):
        g = orbit(a2_seed(), max_seeds=50, with_permutations=False)
        with pytest.raises(ValueError):
            equivariant_automorphisms(g)

    def test_rank2_group_of_ten(self):
        g = orbit(a2_seed(), max_seeds=50, with_permutations=True)
        r = equivariant_automorphisms(g)
        assert r.aut_order == 10 and r.w_order == 10
        assert r.aut_A_order == 10 and r.kp_identity
        assert r.verify_group()

    @pytest.mark.parametrize("start", [(), (1, 2)], ids=["initial", "after-1-2"])
    @pytest.mark.parametrize(
        "B", [a2_matrix(), a3_path_matrix(), B3, g2_matrix()], ids=["A2", "A3", "B3", "G2"]
    )
    def test_the_edge_pass_finds_every_equivariant_bijection(self, B, start):
        # reference: grow each candidate's graph as a set of pairs under
        # every generator table, in no particular order
        g = orbit(LabeledSeed.initial(B).apply(start), 2000, with_permutations=True)
        tables: dict[str, list[int]] = {}
        for source, label, target in g.edges:
            tables.setdefault(label, [0] * len(g))[source] = target
        expected = []
        for image0 in range(len(g)):
            f = {0: image0}
            stack = [0]
            while stack and f is not None:
                i = stack.pop()
                for T in tables.values():
                    j, fj = T[i], T[f[i]]
                    if j not in f:
                        f[j] = fj
                        stack.append(j)
                    elif f[j] != fj:
                        f = None
                        break
            if f is not None and len(set(f.values())) == len(g):
                expected.append((image0, tuple(f[i] for i in range(len(g)))))
        r = equivariant_automorphisms(g)
        assert list(zip(r.element_images, r.elements)) == expected

    def test_elements_commute_with_mutation(self):
        g = orbit(a2_seed(), max_seeds=50, with_permutations=True)
        r = equivariant_automorphisms(g)
        # recompute one generator action and check equivariance directly
        f = r.elements[1] if len(r.elements) > 1 else r.elements[0]
        for idx, s in enumerate(g.seeds):
            for k in (1, 2):
                left = g.seeds[f[g.find(s.mutate(k))]]
                right = g.seeds[f[idx]].mutate(k)
                assert left == right


class TestClosureSharing:
    """Group queries reuse the closures they build instead of rebuilding them."""

    @pytest.mark.parametrize(
        "B, order",
        [(a2_matrix(), 10), (a3_path_matrix(), 12), (B3, 8)],
        ids=["A2", "A3", "B3"],
    )
    def test_equivariant_reads_recorded_edges(self, monkeypatch, B, order):
        g = orbit(LabeledSeed.initial(B), max_seeds=500, with_permutations=True)
        assert g.complete

        def refuse(*args, **kwargs):
            raise AssertionError("equivariant_automorphisms mutated a seed")

        monkeypatch.setattr(seeds, "mutate_seed", refuse)
        r = equivariant_automorphisms(g)
        assert r.aut_order == r.w_order == r.aut_A_order == order
        assert r.kp_identity and r.verify_group()

    @pytest.mark.parametrize(
        "B, budget",
        [(a2_matrix(), 100), (a3_path_matrix(), 300), (kronecker_matrix(2), 12)],
        ids=["A2", "A3", "kronecker"],
    )
    def test_aut_plus_builds_two_closures(self, monkeypatch, B, budget):
        s = LabeledSeed.initial(B)
        calls = []
        seen = {}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, kwargs))
                result = fn(*args, **kwargs)
                seen[name] = result
                return result

            monkeypatch.setattr(groups, name, wrapped)

        for name in ("orbit", "matrix_mutation_class", "_saut_from_orbit", "_lp_from_closures"):
            spy(name, getattr(groups, name))
        enumerate_aut_plus(s, budget)
        names = [name for name, _ in calls]
        assert names.count("orbit") == 1 and names.count("matrix_mutation_class") == 1
        assert [kw for name, kw in calls if name == "orbit"] == [
            {"max_seeds": budget, "with_permutations": False}
        ]
        monkeypatch.undo()

        saut = enumerate_saut_plus(s, budget)
        assert [e.witness for e in seen["_saut_from_orbit"].elements] == [
            e.witness for e in saut.elements
        ]
        lp = compute_L_P(s, budget)
        shared, l_targets, p_targets = seen["_lp_from_closures"]
        # every permutation a closure finds comes back with its target,
        # keyed by the permutation, and with the closure word as witness
        mclass, graph = seen["matrix_mutation_class"], seen["orbit"]
        in_class = {g for g in lp.L_witnesses if mclass.find(B.permute(g)) is not None}
        in_orbit = {g for g in lp.P_witnesses if graph.find(s.permute(g)) is not None}
        assert Permutation.identity(B.n) in in_class & in_orbit
        assert l_targets == {g: B.permute(g) for g in in_class}
        assert p_targets == {g: s.permute(g) for g in in_orbit}
        assert all(lp.L_witnesses[g] == mclass.words[mclass.find(t)] for g, t in l_targets.items())
        assert all(lp.P_witnesses[g] == graph.words[graph.find(t)][0] for g, t in p_targets.items())
        assert shared.L_witnesses == lp.L_witnesses
        assert shared.P_witnesses == lp.P_witnesses
        assert (shared.L_members, shared.P_members) == (lp.L_members, lp.P_members)
        assert shared.P_certificates == lp.P_certificates

    def test_aut_plus_replays_each_distinct_word_once(self, seed_mutations):
        # the 24 elements of Aut+ of D4 share 4 orbit words of 14 letters,
        # which have 13 distinct nonempty prefixes
        r = enumerate_aut_plus(LabeledSeed.initial(D4), 2000)
        words = {e.witness_sequence for e in r.elements}
        assert (len(r.elements), len(words)) == (24, 4)
        assert len(seed_mutations) == len(_prefixes(words)) == 13


def _prefixes(words) -> set:
    """The distinct nonempty prefixes of words."""
    return {w[:i] for w in words for i in range(1, len(w) + 1)}


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


class TestReplays:
    """Every reported element and witness is replayed, one mutation per distinct prefix."""

    @pytest.mark.parametrize(
        "B, budget, replays",
        [
            (kronecker_matrix(2), 40, 39),
            (a3_path_matrix(), 2000, 10),
            (B3, 2000, 9),
            (a4_path_matrix(), 2000, 18),
        ],
        ids=["kronecker", "A3", "B3", "A4"],
    )
    def test_aut_plus_mutates_once_per_distinct_prefix(self, seed_mutations, B, budget, replays):
        # on Kronecker(2) the 40 words lie on two rays from the root, so a
        # replay of each word from the root would make 400 mutations
        r = enumerate_aut_plus(LabeledSeed.initial(B), budget)
        words = {e.witness_sequence for e in r.elements}
        assert len(seed_mutations) == len(_prefixes(words)) == replays

    @pytest.mark.parametrize(
        "B, budget",
        [(a2_matrix(), 100), (kronecker_matrix(2), 40), (a3_path_matrix(), 2000), (D4, 2000)],
        ids=["A2", "kronecker", "A3", "D4"],
    )
    def test_saut_plus_replays_its_words(self, seed_mutations, B, budget):
        e = enumerate_saut_plus(LabeledSeed.initial(B), budget)
        assert len(seed_mutations) == len(_prefixes(el.witness for el in e.elements)) > 0

    @pytest.mark.parametrize(
        "B", [a2_matrix(), a3_path_matrix(), D4], ids=["A2", "A3", "D4"]
    )
    def test_P_witnesses_replay_once_per_prefix(self, seed_mutations, B):
        r = compute_L_P(LabeledSeed.initial(B), 2000)
        assert len(seed_mutations) == len(_prefixes(r.P_witnesses.values())) > 0

    @pytest.mark.parametrize("budget", [1, 3])
    def test_the_A2_swap_witness_replays_once(self, seed_mutations, budget):
        # the cut orbit leaves the swap to _rank2_swap, whose replay of
        # (1, 2, 1, 2, 1) is the only one
        r = compute_L_P(a2_seed(), budget)
        assert r.P_witnesses[SWAP] == (1, 2, 1, 2, 1)
        assert len(seed_mutations) == 5

    @pytest.mark.parametrize("enumerate_group", [enumerate_saut_plus, enumerate_aut_plus])
    @pytest.mark.parametrize(
        "B, budget",
        [(a3_path_matrix(), 300), (kronecker_matrix(2), 12)],
        ids=["A3", "kronecker"],
    )
    def test_a_corrupted_orbit_seed_fails_its_replay(
        self, monkeypatch, enumerate_group, B, budget
    ):
        # the last orbit seed that carries B gets a cluster that is no cluster
        real = groups.orbit

        def corrupted(s, **kwargs):
            graph = real(s, **kwargs)
            idx = max(i for i, t in enumerate(graph.seeds) if t.matrix == s.matrix)
            assert idx > 0
            t = graph.seeds[idx]
            wrong = (t.cluster[0] + LaurentPoly.one(t.nvars),) + t.cluster[1:]
            graph.seeds[idx] = LabeledSeed(wrong, t.matrix)
            return graph

        monkeypatch.setattr(groups, "orbit", corrupted)
        with pytest.raises(InvariantViolation, match=r"Aut\+ word \(.*\) does not replay"):
            enumerate_group(LabeledSeed.initial(B), budget)

    @pytest.mark.parametrize("group", ["L", "P"])
    def test_a_corrupted_L_or_P_witness_fails_its_replay(self, monkeypatch, group):
        # (1, 2) returns A2's matrix, and its seed, to themselves, not to the swap
        real = groups._lp_from_closures

        def corrupted(*args):
            lp, l_targets, p_targets = real(*args)
            getattr(lp, f"{group}_witnesses")[SWAP] = (1, 2)
            return lp, l_targets, p_targets

        monkeypatch.setattr(groups, "_lp_from_closures", corrupted)
        with pytest.raises(InvariantViolation, match=f"^{group} word \\(1, 2\\) does not replay"):
            compute_L_P(a2_seed(), 100)

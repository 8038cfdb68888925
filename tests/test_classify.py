"""Unit tests for finiteness classification and the group-size probe."""

from __future__ import annotations

import itertools
import json
import sys

import pytest

from clusteralg.classify import (
    BoundWitness,
    ProbeResult,
    automorphism_finiteness_probe,
    classify,
    dynkin_type,
    is_finite_mutation_type,
    is_finite_type,
    main1_conditions,
    search_m_and_acyclic,
)
from clusteralg import exchange
from clusteralg.errors import DecomposableMatrix
from clusteralg.exchange import (
    ExchangeMatrix,
    Permutation,
    matrix_mutation_class,
)
from clusteralg.fixtures import (
    a2_matrix,
    a3_path_matrix,
    a4_path_matrix,
    acyclic_triangle,
    b2_matrix,
    g2_matrix,
    kronecker_matrix,
    markov_matrix,
    path3,
    rank4_v1_matrix,
    weighted_path3_matrix,
    zero_matrix,
)
from clusteralg.periodicity import _return_power, find_periods
from clusteralg.seeds import LabeledSeed

# the package exports a function of the same name
classify_module = sys.modules["clusteralg.classify"]


class TestDecisions:
    def test_a2_finite_both_ways(self):
        ft = is_finite_type(a2_matrix(), 100)
        fmt = is_finite_mutation_type(a2_matrix(), 100)
        assert ft.status == "yes" and ft.witness is None
        assert fmt.status == "yes" and fmt.witness is None

    def test_kronecker_root_violation(self):
        K = kronecker_matrix()
        d = is_finite_type(K, 50)
        assert d.status == "no"
        w = d.witness
        assert (w.sequence, w.i, w.j, w.product) == ((), 1, 2, 4)
        assert w.replay(K, 3)
        # rank 2 always has a two-element matrix class
        assert is_finite_mutation_type(K, 50).status == "yes"

    def test_markov_statuses(self):
        M = markov_matrix()
        assert is_finite_type(M, 50).status == "no"
        assert is_finite_mutation_type(M, 50).status == "yes"

    def test_rank4_witnesses_replay(self):
        B = rank4_v1_matrix()
        ft = is_finite_type(B, 200)
        fmt = is_finite_mutation_type(B, 200)
        assert ft.status == "no"
        assert ft.witness.replay(B, 3)
        assert fmt.status == "no"
        w = fmt.witness
        assert (w.sequence, w.i, w.j, w.product) == ((2, 4), 1, 3, 9)
        assert w.replay(B, 4)

    def test_finite_type_at_any_budget(self):
        # the test on B alone: a budget that cuts A3's 14-matrix class
        # still reads "yes", with the companion as certificate
        B = a3_path_matrix()
        for budget in (5, 200):
            d = is_finite_type(B, budget)
            assert d.status == "yes" and d.witness is None
            assert d.certificate.replay(B)

    @pytest.mark.parametrize(
        "i, j, error",
        [(0, 2, IndexError), (2, 4, IndexError), (1.0, 2, ValueError), (1, "2", ValueError)],
    )
    def test_a_witness_vertex_that_is_not_an_index_is_refused(self, i, j, error):
        # entry(0, 2) would wrap to row 3, where A3 has |b_32 b_23| = 1
        with pytest.raises(error, match="mutation index"):
            BoundWitness((), i, j, 1).replay(a3_path_matrix(), 0)


class TestMSearch:
    def test_rank4_infimum_met_at_root(self):
        m = search_m_and_acyclic(rank4_v1_matrix(), 200)
        assert m.min_v == 1
        assert m.min_v_word == ()
        assert m.m_certified
        assert m.acyclic_word == ()

    def test_weighted_path_stays_at_two(self):
        m = search_m_and_acyclic(weighted_path3_matrix(), 200)
        assert m.min_v == 2
        # the class never closes, so the bound stays an upper bound
        assert not m.m_certified

    def test_single_mutations_can_raise_v(self):
        assert rank4_v1_matrix().apply((2, 4)).v() == 3
        assert weighted_path3_matrix().apply((2, 1)).v() == 3


class TestMain1Conditions:
    def test_rank4_meets_only_first(self):
        f = main1_conditions(rank4_v1_matrix(), 200)
        assert (f.i, f.ii, f.iii) == (True, False, False)

    def test_weighted_path_meets_second(self):
        W = weighted_path3_matrix()
        assert W.is_acyclic()
        assert W.v() == 2
        assert W.underlying_triangles() == []
        f = main1_conditions(W, 200)
        assert f.ii
        assert not f.i

    def test_rejects_skew_symmetrizable_only(self):
        with pytest.raises(ValueError):
            main1_conditions(b2_matrix(), 10)


class TestDynkinType:
    def test_named_diagrams(self):
        assert dynkin_type(a2_matrix()) == ("A2", 3)
        assert dynkin_type(a3_path_matrix()) == ("A3", 4)
        assert dynkin_type(b2_matrix()) == ("B2", 4)
        assert dynkin_type(g2_matrix()) == ("G2", 6)

    def test_unnamed_diagrams(self):
        assert dynkin_type(kronecker_matrix()) is None
        assert dynkin_type(markov_matrix()) is None
        assert dynkin_type(weighted_path3_matrix()) is None


class TestClassification:
    def test_rank4_record(self):
        c = classify(rank4_v1_matrix(), budget=200)
        assert c.finite_type == "no"
        assert c.finite_mutation_type == "no"
        assert c.mutation_acyclic == "yes"
        assert (c.v, c.m_upper_bound, c.m_exact) == (1, 1, True)
        assert c.main1.i and not c.main1.ii
        assert c.dynkin is None

    def test_budget_tags_unknown_statuses(self):
        c = classify(rank4_v1_matrix(), budget=2)
        assert c.finite_mutation_type == "unknown(budget=2)"

    def test_json_round_trip(self):
        payload = json.loads(classify(a2_matrix(), budget=100).to_json())
        assert payload["finite_type"] == "yes"
        assert payload["dynkin"] == "A2"
        assert payload["main1_conditions"] == {"i": True, "ii": False, "iii": False}
        assert payload["budget"] == 100

    def test_symmetrizable_record_skips_quiver_flags(self):
        c = classify(b2_matrix(), budget=100)
        assert c.main1 is None
        assert c.finite_type == "yes"
        assert c.dynkin == "B2"
        assert (c.v, c.m_upper_bound, c.m_exact) == (2, 2, True)


CLASSIFY_FIXTURES = [
    a2_matrix,
    a3_path_matrix,
    b2_matrix,
    g2_matrix,
    kronecker_matrix,
    markov_matrix,
    rank4_v1_matrix,
    weighted_path3_matrix,
]
# rank4_v1 and the weighted path have infinite classes; sweep them this far
SWEEP_CAP = 40

FINITE_TYPE_FIXTURES = {a2_matrix, a3_path_matrix, a4_path_matrix, b2_matrix, g2_matrix}


def _render(decision):
    if decision.status == "unknown":
        return f"unknown(budget={decision.budget})"
    return decision.status


def _has_forward_order(B) -> bool:
    """Brute-force acyclicity: some vertex order puts every arrow i -> j forward."""
    arrows = [(i, j) for i in range(B.n) for j in range(B.n) if B.rows[i][j] > 0]
    return any(
        all(order.index(i) < order.index(j) for i, j in arrows)
        for order in itertools.permutations(range(B.n))
    )


class TestAcyclicity:
    @pytest.mark.parametrize("fixture", CLASSIFY_FIXTURES, ids=lambda f: f.__name__)
    def test_matches_brute_force_on_the_class(self, fixture):
        for M in matrix_mutation_class(fixture(), SWEEP_CAP).matrices:
            assert M.is_acyclic() == _has_forward_order(M), M


class TestV:
    @pytest.mark.parametrize("fixture", CLASSIFY_FIXTURES, ids=lambda f: f.__name__)
    def test_largest_absolute_entry_on_the_class(self, fixture):
        for M in matrix_mutation_class(fixture(), SWEEP_CAP).matrices:
            top = max(abs(x) for row in M.rows for x in row)
            assert M.v() == (-M).v() == top, M


class TestClassifyBudgetSweep:
    """classify's single class walk agrees with the standalone searches."""

    @pytest.mark.parametrize("fixture", CLASSIFY_FIXTURES, ids=lambda f: f.__name__)
    def test_fields_match_standalone_functions(self, fixture):
        B = fixture()
        mclass = matrix_mutation_class(B, SWEEP_CAP)
        top = len(mclass) + 2 if mclass.complete else SWEEP_CAP
        for budget in range(1, top + 1):
            c = classify(B, budget)
            ft = is_finite_type(B, budget)
            fmt = is_finite_mutation_type(B, budget)
            m = search_m_and_acyclic(B, budget)
            assert c.finite_type == _render(ft), budget
            assert c.finite_type_witness == ft.witness, budget
            assert c.finite_mutation_type == _render(fmt), budget
            assert c.finite_mutation_type_witness == fmt.witness, budget
            assert (c.m_upper_bound, c.m_witness, c.m_exact) == (
                m.min_v,
                m.min_v_word,
                m.m_certified,
            ), budget
            assert c.mutation_acyclic_witness == m.acyclic_word, budget
            if B.is_skew_symmetric():
                assert c.main1 == main1_conditions(B, budget), budget

    @pytest.mark.parametrize("fixture", CLASSIFY_FIXTURES, ids=lambda f: f.__name__)
    def test_probe_matches_standalone_searches(self, fixture, monkeypatch):
        # the probe's one walk must give the answer the probe gives when fed
        # the two standalone decisions
        B = fixture()
        s = LabeledSeed.initial(B)
        mclass = matrix_mutation_class(B, SWEEP_CAP)
        top = len(mclass) + 2 if mclass.complete else SWEEP_CAP
        for budget in range(1, top + 1):
            probe = automorphism_finiteness_probe(s, budget)
            decisions = (is_finite_type(B, budget), is_finite_mutation_type(B, budget))
            with monkeypatch.context() as m:
                m.setattr(classify_module, "_bounded_class_search", lambda *a: decisions)
                assert probe == automorphism_finiteness_probe(s, budget), budget

    def test_violation_just_past_the_budget(self):
        # the first bound-4 violation is the sixth matrix the walk meets:
        # outside a five-matrix class, yet still examined by a budget-5 search
        W = weighted_path3_matrix()
        mclass = matrix_mutation_class(W, 5)
        assert not mclass.complete
        assert all(
            abs(M.entry(i, j) * M.entry(j, i)) <= 4
            for M in mclass.matrices
            for i in range(1, M.n + 1)
            for j in range(i + 1, M.n + 1)
        )
        assert mclass.find(W.apply((2, 1))) is None
        d = is_finite_mutation_type(W, 5)
        assert d.status == "no"
        assert (d.witness.sequence, d.witness.product) == ((2, 1), 9)
        c = classify(W, 5)
        assert c.finite_mutation_type == "no"
        assert c.finite_mutation_type_witness == d.witness

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="budget must be positive"):
            classify(a2_matrix(), 0)


class TestFinitenessProbe:
    def test_finite_type_forces_finite(self):
        for B in (a2_matrix(), a3_path_matrix(), b2_matrix()):
            p = automorphism_finiteness_probe(LabeledSeed.initial(B), 100)
            assert p.status == "finite"

    def test_kronecker_infinite_with_replay(self):
        s = LabeledSeed.initial(kronecker_matrix())
        p = automorphism_finiteness_probe(s, 50)
        assert p.status == "infinite"
        assert p.witness == (1, 2)
        assert p.powers_checked == 50
        assert p.replay(s)

    def test_markov_infinite_with_replay(self):
        s = LabeledSeed.initial(markov_matrix())
        p = automorphism_finiteness_probe(s, 50)
        assert p.status == "infinite"
        assert p.witness == (1, 2)
        assert p.replay(s)

    def test_weighted_path_uses_bipartite_composite(self):
        s = LabeledSeed.initial(weighted_path3_matrix())
        p = automorphism_finiteness_probe(s, 60)
        assert p.status == "infinite"
        assert p.witness == (1, 2, 3)
        assert p.powers_checked == 60
        assert p.replay(s)

    @pytest.mark.parametrize(
        "fixture, witness",
        [(rank4_v1_matrix, (1, 2, 4, 3)), (weighted_path3_matrix, (1, 2, 3))],
        ids=["rank4_v1", "weighted_path3"],
    )
    def test_powers_checked_to_the_budget(self, fixture, witness):
        s = LabeledSeed.initial(fixture())
        p = automorphism_finiteness_probe(s, 200)
        assert (p.status, p.witness, p.powers_checked) == ("infinite", witness, 200)
        assert p.replay(s)

    @pytest.mark.parametrize(
        "fixture", CLASSIFY_FIXTURES + [a4_path_matrix], ids=lambda f: f.__name__
    )
    def test_alternating_return_word_walks_rows(self, fixture, monkeypatch):
        # against the walk over ExchangeMatrix objects it replaces, at every
        # bound witness of the fixture's class; the row walk builds no matrix
        B = fixture()
        mclass = matrix_mutation_class(B, 60)
        cases = []
        for M, word in zip(mclass.matrices, mclass.words):
            for i, j in M.underlying_edges():
                seen, walk, cur = {M: 0}, [], M
                for step in range(40):
                    k = i if step % 2 == 0 else j
                    cur = cur.mutate(k)
                    walk.append(k)
                    pos = seen.setdefault(cur, step + 1)
                    if pos != step + 1:
                        prefix = word + tuple(walk[:pos])
                        expect = prefix + tuple(walk[pos:]) + prefix[::-1]
                        break
                else:
                    expect = None
                cases.append((word, i, j, expect))

        def refuse(*args):
            raise AssertionError("the alternating walk built a matrix")

        monkeypatch.setattr(exchange, "mutate_matrix", refuse)
        for word, i, j, expect in cases:
            assert classify_module._alternating_return_word(B, word, i, j, 20) == expect

    def test_a_return_within_the_budget_rejects_the_word(self):
        # (1, 2, 3) is a matrix period of A3 whose sixth power returns the
        # seed: a result claiming more powers than that fails its replay
        s = LabeledSeed.initial(a3_path_matrix())
        assert _return_power(s, (1, 2, 3), 8) == 6
        assert ProbeResult("infinite", (1, 2, 3), 5, 5).replay(s)
        assert not ProbeResult("infinite", (1, 2, 3), 6, 6).replay(s)
        assert not ProbeResult("infinite", (1, 2), 1, 1).replay(s)

    @pytest.mark.parametrize(
        "fixture", CLASSIFY_FIXTURES + [a4_path_matrix], ids=lambda f: f.__name__
    )
    def test_return_power_matches_the_laurent_powers(self, fixture):
        # the key walk against the seeds themselves: up to 8 powers on the
        # finite types, where the words return (orders 6 and 7 on A3 and
        # A4), and 2 elsewhere, where Laurent entries grow fast
        B = fixture()
        s = LabeledSeed.initial(B)
        most = 8 if fixture in FINITE_TYPE_FIXTURES else 2
        words = find_periods(B, Permutation.identity(B.n), max_len=min(B.n + 1, 4))
        assert words
        for w in words:
            t, least = s, None
            for p in range(1, most + 1):
                t = t.apply(w)
                if t == s:
                    least = p
                    break
            assert _return_power(s, w, most) == least, w

    @pytest.mark.parametrize("fixture", [markov_matrix, weighted_path3_matrix])
    def test_one_class_walk(self, fixture, monkeypatch):
        walks = []
        real = classify_module._closure

        def counting(*args, **kwargs):
            walks.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(classify_module, "_closure", counting)
        p = automorphism_finiteness_probe(LabeledSeed.initial(fixture()), 60)
        assert p.status == "infinite"
        assert walks == [fixture()]

    def test_decomposable_rejected(self):
        # the block sum of path3(1,1) and acyclic_triangle(1,1,2): the probe
        # used to answer "infinite" with witness (1, 2, 3) checked to 5
        # powers, although that word applied six times returns the seed
        a, b = path3(1, 1).rows, acyclic_triangle(1, 1, 2).rows
        B = ExchangeMatrix([list(r) + [0] * 3 for r in a] + [[0] * 3 + list(r) for r in b])
        s = LabeledSeed.initial(B)
        assert s.apply((1, 2, 3) * 6) == s
        for seed in (s, LabeledSeed.initial(zero_matrix(2))):
            with pytest.raises(DecomposableMatrix, match="indecomposable"):
                automorphism_finiteness_probe(seed, 200)

    def test_undecided_when_the_walk_finds_no_witness(self):
        # finite type is decided at any budget; off it, a walk cut before
        # its first bound violation leaves the answer open
        s = LabeledSeed.initial(a3_path_matrix())
        assert automorphism_finiteness_probe(s, 5).status == "finite"
        p = automorphism_finiteness_probe(LabeledSeed.initial(rank4_v1_matrix()), 1)
        assert p.status == "unknown"
        assert p.witness is None

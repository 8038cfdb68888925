"""Unit tests for mutation realization of relabelings."""

from __future__ import annotations

import pytest

from clusteralg import realize, seeds
from clusteralg.errors import DecomposableMatrix
from clusteralg.exchange import (
    ExchangeMatrix,
    Permutation,
    all_permutations,
)
from clusteralg.fixtures import (
    a2_matrix,
    a3_path_matrix,
    a4_path_matrix,
    b2_matrix,
)
from clusteralg.realize import realize_permutation, swap_gadget
from clusteralg.seeds import LabeledSeed, apply_sequence, permute_seed


class TestSwapGadget:
    def test_shape_and_action(self):
        s = LabeledSeed.initial(a2_matrix())
        seq = swap_gadget(s, 1, 2)
        assert seq == (1, 2, 1, 2, 1)
        swap = Permutation.transposition(2, 1, 2)
        assert apply_sequence(s, seq) == permute_seed(s, swap)

    def test_rejects_equal_vertices(self):
        s = LabeledSeed.initial(a2_matrix())
        with pytest.raises(ValueError):
            swap_gadget(s, 1, 1)

    def test_rejects_heavy_edge(self):
        s = LabeledSeed.initial(b2_matrix())
        with pytest.raises(ValueError):
            swap_gadget(s, 1, 2)

    def test_rejects_missing_edge(self):
        s = LabeledSeed.initial(a3_path_matrix())
        with pytest.raises(ValueError):
            swap_gadget(s, 1, 3)

    @pytest.mark.parametrize(
        "i, j, error",
        [(3, 0, IndexError), (1, 4, IndexError), (1, 2.0, ValueError), (True, 2, ValueError)],
    )
    def test_rejects_a_vertex_that_is_not_an_index(self, i, j, error, monkeypatch):
        # vertex 0 would wrap to row 3, and nothing is mutated before the check
        def refuse(*args):
            raise AssertionError("swap_gadget mutated before checking its vertices")

        monkeypatch.setattr(seeds, "mutate_seed", refuse)
        with pytest.raises(error, match="mutation index"):
            swap_gadget(LabeledSeed.initial(a3_path_matrix()), i, j)


class TestRealizePermutation:
    def test_reversal_on_the_path(self):
        s = LabeledSeed.initial(a4_path_matrix())
        sigma = Permutation.from_cycle_notation(4, "(1 4)(2 3)")
        plan = realize_permutation(s, sigma)
        assert plan.verified
        assert apply_sequence(s, plan.full_sequence) == permute_seed(s, sigma)
        assert len(plan.stages) == len(plan.finalized)
        assert sum(len(st) for st in plan.stages) == len(plan.full_sequence)

    def test_exhaustive_degree_three(self):
        s = LabeledSeed.initial(a3_path_matrix())
        for sigma in all_permutations(3):
            plan = realize_permutation(s, sigma)
            assert apply_sequence(s, plan.full_sequence) == permute_seed(s, sigma)

    @pytest.mark.parametrize(
        "B, sigmas",
        [
            (a4_path_matrix(), [Permutation.from_cycle_notation(4, "(1 4)(2 3)")]),
            (a3_path_matrix(), list(all_permutations(3))),
        ],
        ids=["A4-reversal", "A3-all"],
    )
    def test_each_plan_mutation_is_made_once(self, B, sigmas, monkeypatch):
        # every gadget is replayed by swap_gadget alone; the plan itself
        # adds no second replay
        calls = []
        real = seeds.mutate_seed

        def counted(s, k):
            calls.append(k)
            return real(s, k)

        monkeypatch.setattr(seeds, "mutate_seed", counted)
        s = LabeledSeed.initial(B)
        for sigma in sigmas:
            calls.clear()
            plan = realize_permutation(s, sigma)
            assert len(calls) == len(plan.full_sequence)

    @pytest.mark.parametrize(
        "B, sigmas",
        [
            (a4_path_matrix(), [Permutation.from_cycle_notation(4, "(1 4)(2 3)")]),
            (a3_path_matrix(), list(all_permutations(3))),
        ],
        ids=["A4-reversal", "A3-all"],
    )
    def test_each_gadget_builds_its_transposed_seed_once(self, B, sigmas, monkeypatch):
        # the plan moves on to the seed the gadget was verified against;
        # the one further relabeling is the end check against sigma
        calls = []
        real = realize.permute_seed

        def counted(s, sigma):
            calls.append(sigma)
            return real(s, sigma)

        monkeypatch.setattr(realize, "permute_seed", counted)
        s = LabeledSeed.initial(B)
        for sigma in sigmas:
            calls.clear()
            plan = realize_permutation(s, sigma)
            assert len(calls) == len(plan.full_sequence) // 5 + 1

    def test_identity_needs_no_mutations(self):
        s = LabeledSeed.initial(a4_path_matrix())
        plan = realize_permutation(s, Permutation.identity(4))
        assert plan.full_sequence == ()
        assert all(stage == () for stage in plan.stages)

    def test_describe_lines(self):
        s = LabeledSeed.initial(a4_path_matrix())
        sigma = Permutation.from_cycle_notation(4, "(1 4)(2 3)")
        lines = realize_permutation(s, sigma).describe()
        assert lines[0].startswith("stage 1/")
        assert "fixes position" in lines[0]
        assert lines[-1].startswith("full sequence: ")
        ident_lines = realize_permutation(s, Permutation.identity(4)).describe()
        assert ident_lines[-1] == "full sequence: (empty)"

    def test_rejects_degree_mismatch(self):
        s = LabeledSeed.initial(a4_path_matrix())
        with pytest.raises(ValueError):
            realize_permutation(s, Permutation.identity(3))

    def test_rejects_heavy_edges(self):
        s = LabeledSeed.initial(b2_matrix())
        with pytest.raises(ValueError):
            realize_permutation(s, Permutation.transposition(2, 1, 2))

    def test_rejects_disconnected_quiver(self):
        B = ExchangeMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        s = LabeledSeed.initial(B)
        with pytest.raises(DecomposableMatrix):
            realize_permutation(s, Permutation.identity(3))

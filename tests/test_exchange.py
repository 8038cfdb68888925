"""Unit tests for exchange matrices, permutations and quivers."""

from __future__ import annotations

import pytest

from clusteralg import exchange, seeds
from clusteralg.classify import classify, is_finite_mutation_type, is_finite_type
from clusteralg.errors import InvariantViolation, NotSkewSymmetrizable
from clusteralg.exchange import (
    ExchangeMatrix,
    Permutation,
    _replay,
    all_permutations,
    is_inflexion,
    matrix_mutation_class,
    mutate_matrix,
    validate_sequence,
)
from clusteralg.fixtures import (
    a2_matrix,
    a3_path_matrix,
    a4_path_matrix,
    acyclic_triangle,
    b2_matrix,
    cyclic_triangle,
    g2_matrix,
    kronecker_matrix,
    markov_matrix,
    rank4_v1_matrix,
    weighted_path3_matrix,
)
from clusteralg.groups import compute_L_P, enumerate_aut_plus, enumerate_saut_plus
from clusteralg.periodicity import find_periods, is_sigma_period
from clusteralg.realize import realize_permutation
from clusteralg.seeds import LabeledSeed, mutate_seed, orbit


class TestExchangeMatrix:
    def test_zero_diagonal_required(self):
        with pytest.raises(ValueError):
            ExchangeMatrix([[1, 0], [0, 0]])

    def test_sign_pattern_required(self):
        # b_12 > 0 forces b_21 < 0
        with pytest.raises((ValueError, NotSkewSymmetrizable)):
            ExchangeMatrix([[0, 1], [1, 0]])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0, 1.7], [-1, 0]], "not an integer"),
            ([[0, True], [-1, 0]], "not an integer"),
            ([[0, "1"], [-1, 0]], "not an integer"),
            ([1, 2], "rows must be sequences"),
        ],
        ids=["1.7", "True", "1", "flat"],
    )
    def test_non_int_entries_rejected(self, rows, message):
        with pytest.raises(ValueError, match=message):
            ExchangeMatrix(rows)

    def test_symmetrizer_found(self):
        assert b2_matrix().symmetrizer == (2, 1)
        assert a2_matrix().symmetrizer == (1, 1)

    def test_not_skew_symmetrizable_rejected(self):
        # cycle with inconsistent weight ratios has no symmetrizer
        with pytest.raises(NotSkewSymmetrizable):
            ExchangeMatrix([[0, 1, -1], [-2, 0, 1], [1, -1, 0]])

    def test_mutation_rejects_a_wrong_parent_symmetrizer(self):
        B = b2_matrix()
        # the matrix is immutable, so the corruption goes around the guard
        object.__setattr__(B, "symmetrizer", (1, 1))
        with pytest.raises(InvariantViolation, match="^mutation broke the skew-symmetrizer$"):
            mutate_matrix(B, 1)

    def test_immutable(self):
        B = a2_matrix()
        h = hash(B)
        for name, value in [("rows", kronecker_matrix(2).rows), ("symmetrizer", (1, 1)),
                            ("n", 3), ("_hash", 0), ("extra", 1)]:
            with pytest.raises(AttributeError):
                setattr(B, name, value)
        assert B == a2_matrix() and hash(B) == h and B in {a2_matrix(): 0}

    @pytest.mark.parametrize("B", [a2_matrix(), b2_matrix(), markov_matrix()],
                             ids=["A2", "B2", "markov"])
    def test_copy_and_pickle_round_trip(self, B):
        import copy
        import pickle

        h = hash(B)
        for C in (copy.copy(B), copy.deepcopy(B), pickle.loads(pickle.dumps(B))):
            assert C == B and hash(C) == h
            assert C.symmetrizer == B.symmetrizer and C.n == B.n

    def test_mutation_hand_value_rank2(self):
        # mutation negates everything in rank 2
        assert a2_matrix().mutate(1) == -a2_matrix()
        assert kronecker_matrix(2).mutate(2) == -kronecker_matrix(2)

    def test_mutation_hand_value_rank3(self):
        # path 1 -> 2 -> 3 mutated at 2: arrows reverse at 2, composite 1 -> 3
        B = a3_path_matrix().mutate(2)
        assert B == ExchangeMatrix([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])

    def test_mutation_is_involutive(self):
        for B in (a3_path_matrix(), b2_matrix(), rank4_v1_matrix()):
            for k in range(1, B.n + 1):
                assert B.mutate(k).mutate(k) == B

    def test_mutation_commutes_with_global_negation(self):
        B = acyclic_triangle(1, 1, 2)
        for k in range(1, 4):
            assert (-B).mutate(k) == -(B.mutate(k))

    def test_v(self):
        assert a2_matrix().v() == 1
        assert kronecker_matrix(2).v() == 2
        # the largest |entry|, whichever sign it has
        assert b2_matrix().v() == (-b2_matrix()).v() == 2
        assert g2_matrix().v() == (-g2_matrix()).v() == 3

    def test_acyclicity(self):
        assert a3_path_matrix().is_acyclic()
        assert acyclic_triangle(1, 1, 2).is_acyclic()
        assert not cyclic_triangle(1, 1, 1).is_acyclic()
        assert not markov_matrix().is_acyclic()

    def test_bipartition(self):
        # alternating orientation: sources +1, sinks -1
        assert a2_matrix().bipartition() == (1, -1)
        assert a3_path_matrix().bipartition() is None
        assert markov_matrix().bipartition() is None

    def test_underlying_edges_and_triangles(self):
        B = acyclic_triangle(1, 1, 2)
        assert B.underlying_edges() == [(1, 2), (1, 3), (2, 3)]
        assert B.underlying_triangles() == [(1, 2, 3)]
        assert weighted_path3_matrix().underlying_triangles() == []

    def test_indecomposable(self):
        assert a3_path_matrix().is_indecomposable()
        assert not ExchangeMatrix([[0, 0], [0, 0]]).is_indecomposable()

    def test_permuted_entries(self):
        B = a3_path_matrix()
        sigma = Permutation.from_cycle_notation(3, "(1 2 3)")
        C = B.permute(sigma)
        for i in range(1, 4):
            for j in range(1, 4):
                assert C.entry(i, j) == B.entry(sigma(i), sigma(j))


class TestPermutation:
    def test_cycle_notation_roundtrip(self):
        sigma = Permutation.from_cycle_notation(4, "(1 4)(2 3)")
        assert sigma.cycle_notation() == "(1 4)(2 3)"
        assert sigma(1) == 4 and sigma(2) == 3

    def test_identity_spellings(self):
        for text in ("", "id", "()", "e"):
            assert Permutation.from_cycle_notation(3, text).is_identity()
        assert Permutation.identity(3).cycle_notation() == "id"

    def test_compose_and_inverse(self):
        a = Permutation.from_cycle_notation(3, "(1 2)")
        b = Permutation.from_cycle_notation(3, "(2 3)")
        # compose(a, b) applies b first
        c = a.compose(b)
        assert [c(i) for i in (1, 2, 3)] == [2, 3, 1]
        assert c.compose(c.inverse()).is_identity()

    def test_all_permutations_count(self):
        assert len(list(all_permutations(4))) == 24
        assert len({p.cycle_notation() for p in all_permutations(3)}) == 6

    def test_invalid_cycles_rejected(self):
        with pytest.raises(ValueError):
            Permutation.from_cycle_notation(3, "(1 4)")
        with pytest.raises(ValueError):
            Permutation.from_cycle_notation(3, "(1 1)")
        # cycles that share an entry are not read as a product
        for text, entry in (("(1 2)(1 2)", 1), ("(1 2 3)(1 2 3)", 1), ("(1 2)(2 3)", 2)):
            with pytest.raises(ValueError, match=f"not disjoint: {entry} "):
                Permutation.from_cycle_notation(3, text)

    # a sign, a non-ASCII digit, a letter, and a space between cycles
    @pytest.mark.parametrize("text", ["(+1 2)", "(\u0661 2)", "(1 a)", "(1 2) (3)"])
    def test_only_ascii_digit_entries_parse(self, text):
        with pytest.raises(ValueError) as exc:
            Permutation.from_cycle_notation(3, text)
        assert str(exc.value) == f"bad cycle notation: {text!r}"

    def test_commas_and_inner_spaces_separate_entries(self):
        for text in ("(1,2)(3)", "( 1 , 2 )", "(1  2)"):
            assert Permutation.from_cycle_notation(3, text).images == (2, 1, 3)

    @pytest.mark.parametrize(
        "images",
        [[1.9, 2], [2.0, 1], ["2", "1"], [True, 2]],
        ids=["1.9", "2.0", "str", "True"],
    )
    def test_non_int_images_rejected(self, images):
        with pytest.raises(ValueError, match="not an integer"):
            Permutation(images)

    def test_immutable(self):
        sigma = Permutation.from_cycle_notation(3, "(1 2)")
        h = hash(sigma)
        for name, value in [("images", (1, 2, 3)), ("extra", 1)]:
            with pytest.raises(AttributeError):
                setattr(sigma, name, value)
        assert sigma(1) == 2 and hash(sigma) == h
        assert sigma in {Permutation.from_cycle_notation(3, "(1 2)"): 0}

    @pytest.mark.parametrize("cycles", ["id", "(1 2)", "(1 3 2)"])
    def test_copy_and_pickle_round_trip(self, cycles):
        import copy
        import pickle

        sigma = Permutation.from_cycle_notation(3, cycles)
        for tau in (copy.copy(sigma), copy.deepcopy(sigma), pickle.loads(pickle.dumps(sigma))):
            assert tau == sigma and hash(tau) == hash(sigma)
            assert tau.images == sigma.images


class TestQuiverAndDiagram:
    """Quiver and diagram notions, read directly off the exchange matrix."""

    def test_inflexion(self):
        # path 1 -> 2 -> 3: arrows pass through 2
        B = a3_path_matrix()
        assert is_inflexion(B, 2, 1, 3)
        assert not is_inflexion(B, 1, 2, 3)

    @pytest.mark.parametrize("triple", [(2, 1, 0), (2, 1, 4), (0, 1, 2), (4, 1, 2)])
    def test_inflexion_rejects_an_index_out_of_range(self, triple):
        # vertex 0 would read row -1, the last vertex, and answer True
        with pytest.raises(IndexError, match=r"out of range \[1,3\]"):
            is_inflexion(a3_path_matrix(), *triple)


class TestMatrixClass:
    def test_rank2_simple_class(self):
        # the rank-2 simple matrix has class {B, -B}
        cls = matrix_mutation_class(a2_matrix(), max_matrices=10)
        assert cls.complete and len(cls) == 2
        assert cls.find(-a2_matrix()) is not None

    def test_markov_class_is_sign_pair(self):
        cls = matrix_mutation_class(markov_matrix(), max_matrices=10)
        assert cls.complete and len(cls) == 2

    def test_rank3_path_class_size(self):
        cls = matrix_mutation_class(a3_path_matrix(), max_matrices=50)
        assert cls.complete and len(cls) == 14

    def test_truncation_reported(self):
        cls = matrix_mutation_class(rank4_v1_matrix(), max_matrices=5)
        assert not cls.complete and len(cls) == 5

    def test_words_replay(self):
        cls = matrix_mutation_class(a3_path_matrix(), max_matrices=50)
        for M, word in zip(cls.matrices, cls.words):
            assert a3_path_matrix().apply(word) == M


_A3 = a3_path_matrix()
_IDENT = Permutation.identity(3)
# (parameter name, call with that parameter set to the value)
COUNT_ARGUMENTS = {
    "orbit": ("max_seeds", lambda v: orbit(LabeledSeed.initial(_A3), v)),
    "matrix_mutation_class": ("max_matrices", lambda v: matrix_mutation_class(_A3, v)),
    "classify": ("budget", lambda v: classify(_A3, v)),
    "is_finite_type": ("budget", lambda v: is_finite_type(_A3, v)),
    "is_finite_mutation_type": ("budget", lambda v: is_finite_mutation_type(_A3, v)),
    "enumerate_saut_plus": ("budget", lambda v: enumerate_saut_plus(LabeledSeed.initial(_A3), v)),
    "enumerate_aut_plus": ("budget", lambda v: enumerate_aut_plus(LabeledSeed.initial(_A3), v)),
    "compute_L_P": ("budget", lambda v: compute_L_P(LabeledSeed.initial(_A3), v)),
    "find_periods(seed)": ("max_len", lambda v: find_periods(LabeledSeed.initial(_A3), _IDENT, v)),
    "find_periods(matrix)": ("max_len", lambda v: find_periods(_A3, _IDENT, v)),
}


class TestCountArguments:
    """Budgets and lengths are ints: bool, float and str are rejected, not coerced."""

    @pytest.mark.parametrize("value", [True, False, 2.5, 3.0, "3", None])
    @pytest.mark.parametrize("function", COUNT_ARGUMENTS)
    def test_non_int_is_rejected_by_name(self, function, value):
        name, call = COUNT_ARGUMENTS[function]
        with pytest.raises(ValueError, match=f"^{name} must be an int, not "):
            call(value)

    @pytest.mark.parametrize("function", COUNT_ARGUMENTS)
    def test_out_of_range_is_rejected_by_name(self, function):
        name, call = COUNT_ARGUMENTS[function]
        with pytest.raises(ValueError, match=f"^{name} must be (positive|nonnegative)$"):
            call(-1)


_A2 = a2_matrix()
_A2_SEED = LabeledSeed.initial(_A2)
_ID2 = Permutation.identity(2)
# calls whose mutation index is not an int; none may be coerced
NON_INT_INDICES = {
    "B.mutate(True)": lambda: _A2.mutate(True),
    "B.mutate(1.0)": lambda: _A2.mutate(1.0),
    "mutate_matrix(B, '1')": lambda: mutate_matrix(_A2, "1"),
    "B.apply('12')": lambda: _A2.apply("12"),
    "s.mutate(True)": lambda: _A2_SEED.mutate(True),
    "mutate_seed(s, 1.0)": lambda: mutate_seed(_A2_SEED, 1.0),
    "s.apply((1, 2.0))": lambda: _A2_SEED.apply((1, 2.0)),
    "is_sigma_period(s, (1.0, 2.0), id)": lambda: is_sigma_period(_A2_SEED, (1.0, 2.0), _ID2),
    "is_sigma_period(B, (True,), id)": lambda: is_sigma_period(_A2, (True,), _ID2),
    "validate_sequence((1, None), 2)": lambda: validate_sequence((1, None), 2),
}
OUT_OF_RANGE_INDICES = {
    "B.mutate(0)": lambda: _A2.mutate(0),
    "B.apply((1, 3))": lambda: _A2.apply((1, 3)),
    "s.mutate(3)": lambda: _A2_SEED.mutate(3),
    "is_sigma_period(s, (3,), id)": lambda: is_sigma_period(_A2_SEED, (3,), _ID2),
    "validate_sequence((1, -1), 2)": lambda: validate_sequence((1, -1), 2),
}
NON_SEQUENCES = {
    "ExchangeMatrix(5)": lambda: ExchangeMatrix(5),
    "ExchangeMatrix(None)": lambda: ExchangeMatrix(None),
    "Permutation(5)": lambda: Permutation(5),
    "Permutation(None)": lambda: Permutation(None),
    "B.apply(5)": lambda: _A2.apply(5),
    "s.apply(None)": lambda: _A2_SEED.apply(None),
    "validate_sequence(3, 2)": lambda: validate_sequence(3, 2),
    "is_sigma_period(s, 5, id)": lambda: is_sigma_period(_A2_SEED, 5, _ID2),
}
# relabelings that are not a Permutation; none may be coerced
NON_PERMUTATIONS = {
    "B.permute((2, 1))": lambda: _A2.permute((2, 1)),
    "s.permute(None)": lambda: _A2_SEED.permute(None),
    "find_periods(s, (2, 1), 3)": lambda: find_periods(_A2_SEED, (2, 1), 3),
    "realize_permutation(s, None)": lambda: realize_permutation(_A2_SEED, None),
}


class TestIndexAndSequenceInput:
    """Mutation indices are ints and constructors take sequences: nothing is coerced."""

    @pytest.mark.parametrize("call", NON_INT_INDICES.values(), ids=list(NON_INT_INDICES))
    def test_a_non_int_index_is_a_value_error(self, call):
        with pytest.raises(ValueError, match="^mutation index .* is not an integer$"):
            call()

    @pytest.mark.parametrize(
        "call", OUT_OF_RANGE_INDICES.values(), ids=list(OUT_OF_RANGE_INDICES)
    )
    def test_an_int_out_of_range_keeps_its_index_error(self, call):
        with pytest.raises(IndexError, match="^mutation index -?[0-9]+ out of range"):
            call()

    @pytest.mark.parametrize("call", NON_SEQUENCES.values(), ids=list(NON_SEQUENCES))
    def test_a_non_sequence_is_a_value_error(self, call):
        with pytest.raises(ValueError, match="sequence"):
            call()

    @pytest.mark.parametrize("call", NON_PERMUTATIONS.values(), ids=list(NON_PERMUTATIONS))
    def test_a_non_permutation_is_a_value_error(self, call):
        with pytest.raises(ValueError, match="is not a Permutation$"):
            call()

    def test_a_bad_word_mutates_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(seeds, "mutate_seed", lambda *args: calls.append(args))
        with pytest.raises(IndexError):
            _A2_SEED.apply((1, 2, 3))
        assert calls == []


class TestReplay:
    """exchange._replay: one mutation per distinct nonempty prefix, for matrices and seeds."""

    WORDS = [(1, 2, 3), (), (1, 2), (2,), (1, 2, 3), (1, 3, 1), (2, 4)]

    @pytest.mark.parametrize("kind", ["matrix", "seed"])
    def test_distinct_words_in_sorted_order_once_per_prefix(self, monkeypatch, kind):
        B = a4_path_matrix()
        root = B if kind == "matrix" else LabeledSeed.initial(B)
        calls = []
        module, name = (exchange, "mutate_matrix") if kind == "matrix" else (seeds, "mutate_seed")
        real = getattr(module, name)

        def counting(x, k):
            calls.append(k)
            return real(x, k)

        monkeypatch.setattr(module, name, counting)
        out = list(_replay(root, self.WORDS))
        monkeypatch.undo()
        assert [w for w, _ in out] == sorted(set(self.WORDS))
        assert all(end == root.apply(w) for w, end in out)
        # (1), (1,2), (1,2,3), (1,3), (1,3,1), (2), (2,4)
        assert len(calls) == 7

    def test_a_bad_letter_raises_when_the_replay_reaches_it(self):
        out = _replay(a3_path_matrix(), [(1,), (2, 4)])
        assert next(out)[0] == (1,)
        with pytest.raises(IndexError, match="out of range"):
            next(out)

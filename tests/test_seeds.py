"""Unit tests for labeled seeds, mutation, relabeling and orbits."""

from __future__ import annotations

import pytest

from clusteralg.exchange import ExchangeMatrix, Permutation
from clusteralg.fixtures import (
    a2_matrix,
    a3_path_matrix,
    a4_path_matrix,
    kronecker_matrix,
    markov_matrix,
    zero_matrix,
)
from clusteralg.periodicity import bipartite_belt
from clusteralg.seeds import (
    LabeledSeed,
    apply_sequence,
    inverse_sequence,
    orbit,
    parse_sequence,
    permute_seed,
    seed_equivalence,
    seed_from_json,
    seed_to_json,
)
from clusteralg.symbolic import LaurentPoly


def a2_seed() -> LabeledSeed:
    return LabeledSeed.initial(a2_matrix())


class TestSequences:
    def test_parse_and_inverse(self):
        assert parse_sequence("1, 2,1") == (1, 2, 1)
        assert parse_sequence("") == ()
        assert inverse_sequence((1, 2, 3)) == (3, 2, 1)

    @pytest.mark.parametrize("text", ["1,,2", "1;2", ",", "1 2", "1_0", "x"])
    def test_parse_rejects_non_integer_lists(self, text):
        with pytest.raises(ValueError, match="comma-separated integers") as info:
            parse_sequence(text)
        assert repr(text) in str(info.value)


class TestSeedMutation:
    def test_first_mutation_hand_value(self):
        # mu_1 of ((x1, x2), [[0,1],[-1,0]]): x1' = (1 + x2)/x1
        s = a2_seed().mutate(1)
        assert s.cluster[0] == LaurentPoly(2, {(-1, 0): 1, (-1, 1): 1})
        assert s.cluster[1] == LaurentPoly.generator(2, 2)
        assert s.matrix == -a2_matrix()

    def test_mutation_is_involutive_on_seeds(self):
        s = LabeledSeed.initial(a3_path_matrix())
        for k in (1, 2, 3):
            assert s.mutate(k).mutate(k) == s

    def test_five_step_return_with_swap(self):
        # the rank-2 pentagon: five alternating mutations swap the labels
        s = a2_seed()
        end = apply_sequence(s, (1, 2, 1, 2, 1))
        assert end == permute_seed(s, Permutation.transposition(2, 1, 2))

    def test_laurent_expansion_stays_exact(self):
        # double-arrow variables grow but stay integer Laurent with
        # positive coefficients
        s = LabeledSeed.initial(kronecker_matrix(2))
        for k in (1, 2, 1, 2, 1, 2):
            s = s.mutate(k)
        assert all(p.all_coefficients_positive() for p in s.cluster)

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            a2_seed().mutate(3)

    def test_zero_matrix_exchange(self):
        # with no arrows both products are empty: x_k' = 2/x_k
        s = LabeledSeed.initial(zero_matrix(2)).mutate(1)
        assert s.cluster[0] == LaurentPoly(2, {(-1, 0): 2})


class TestPermutationAction:
    def test_entry_convention(self):
        # entry i of the relabeled cluster is old entry sigma(i)
        s = LabeledSeed.initial(a3_path_matrix()).mutate(2)
        sigma = Permutation.from_cycle_notation(3, "(1 2 3)")
        t = permute_seed(s, sigma)
        for i in (1, 2, 3):
            assert t.cluster[i - 1] == s.cluster[sigma(i) - 1]

    def test_iterated_permutation_composes(self):
        s = LabeledSeed.initial(a3_path_matrix())
        a = Permutation.from_cycle_notation(3, "(1 2)")
        b = Permutation.from_cycle_notation(3, "(2 3)")
        assert permute_seed(permute_seed(s, a), b) == permute_seed(s, a.compose(b))

    def test_mutation_commutes_with_relabeling(self):
        s = LabeledSeed.initial(a3_path_matrix())
        sigma = Permutation.from_cycle_notation(3, "(1 3)")
        for k in (1, 2, 3):
            left = permute_seed(s, sigma).mutate(k)
            right = permute_seed(s.mutate(sigma(k)), sigma)
            assert left == right


class TestSeedEquivalence:
    def test_equal(self):
        r = seed_equivalence(a2_seed(), a2_seed())
        assert r.kind == "equal" and r.sigma.is_identity()

    def test_equivalent_with_witness(self):
        s = a2_seed()
        t = permute_seed(s, Permutation.transposition(2, 1, 2))
        r = seed_equivalence(s, t)
        assert r.kind == "equivalent"
        assert permute_seed(s, r.sigma) == t

    def test_distinct(self):
        assert seed_equivalence(a2_seed(), a2_seed().mutate(1)).kind == "distinct"


class TestOrbit:
    def test_rank2_orbit_closes_at_ten(self):
        g = orbit(a2_seed(), max_seeds=50)
        assert g.complete and len(g) == 10

    def test_words_replay(self):
        g = orbit(a2_seed(), max_seeds=50, with_permutations=True)
        for s, (word, pi) in zip(g.seeds, g.words):
            assert permute_seed(apply_sequence(a2_seed(), word), pi) == s

    def test_truncation_flag(self):
        g = orbit(LabeledSeed.initial(kronecker_matrix(2)), max_seeds=7)
        assert not g.complete and len(g) == 7

    def test_find(self):
        g = orbit(a2_seed(), max_seeds=50)
        assert g.find(a2_seed().mutate(2)) is not None
        assert g.find(LabeledSeed.initial(markov_matrix())) is None


# B3 with the weight-2 edge between 2 and 3
B3 = ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -2, 0]])


def _rebuilt(s: LabeledSeed) -> LabeledSeed:
    """s rebuilt from fresh objects that share nothing with it."""
    cluster = [LaurentPoly(s.nvars, p.terms) for p in s.cluster]
    return LabeledSeed(cluster, ExchangeMatrix(s.matrix.to_lists()))


class TestSeedIdentity:
    """A seed is its value: equality and hashing agree with the serialized string."""

    @pytest.fixture(
        scope="class",
        params=["A3", "B3", "A4", "kronecker-belt"],
    )
    def seeds(self, request):
        if request.param == "kronecker-belt":
            return bipartite_belt(LabeledSeed.initial(kronecker_matrix()), steps=12).seeds
        B = {"A3": a3_path_matrix(), "B3": B3, "A4": a4_path_matrix()}[request.param]
        g = orbit(LabeledSeed.initial(B), max_seeds=2000, with_permutations=True)
        assert g.complete
        return g.seeds

    def test_equal_exactly_when_key_strings_equal(self, seeds):
        strings = [s.key_string() for s in seeds]
        for s, string in zip(seeds, strings):
            t = _rebuilt(s)
            assert s == t and hash(s) == hash(t)
            assert t.key_string() == string
        # a sample of the orbit against all of it, including mutated copies
        # that share all but one cluster entry with their source
        for i in range(0, len(seeds), max(1, len(seeds) // 40)):
            for t, string in zip(seeds, strings):
                assert (seeds[i] == t) == (strings[i] == string)
            back = seeds[i].mutate(1).mutate(1)
            assert back == seeds[i] and hash(back) == hash(seeds[i])

    def test_distinct_values_and_distinct_strings_agree(self, seeds):
        assert len(set(seeds)) == len({s.key_string() for s in seeds})

    def test_find_takes_a_rebuilt_seed(self, seeds):
        g = orbit(seeds[0], max_seeds=len(seeds) + 1)
        for i, s in enumerate(g.seeds):
            assert g.find(_rebuilt(s)) == i

    def test_canonical_key_is_cluster_and_rows(self):
        s = a2_seed().mutate(1)
        assert s.canonical_key() == (s.cluster, s.matrix.rows)

    def test_immutable(self):
        A = a2_seed()
        C = LabeledSeed.initial(kronecker_matrix())
        h = hash(A)
        for name, value in [("matrix", C.matrix), ("cluster", C.cluster),
                            ("_hash", 0), ("extra", 1)]:
            with pytest.raises(AttributeError):
                setattr(A, name, value)
        assert A != C and hash(A) == h and A in {a2_seed(): 0}

    @pytest.mark.parametrize(
        "s",
        [a2_seed(), a2_seed().apply((1, 2)), LabeledSeed.initial(markov_matrix()).mutate(1)],
        ids=["A2", "A2-mu12", "markov-mu1"],
    )
    def test_copy_and_pickle_round_trip(self, s):
        import copy
        import pickle

        h = hash(s)
        for t in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert t == s and hash(t) == h
            assert t.cluster == s.cluster and t.matrix == s.matrix


class TestJsonRoundtrip:
    def test_roundtrip(self):
        text = seed_to_json(a3_path_matrix(), ["a", "b", "c"])
        seed, names = seed_from_json(text)
        assert seed == LabeledSeed.initial(a3_path_matrix())
        assert names == ["a", "b", "c"]

    def test_names_key_is_written_and_read(self):
        text = seed_to_json(a2_matrix(), ["a", "b"])
        assert '"names"' in text
        _, names = seed_from_json('{"n": 2, "matrix": [[0, 1], [-1, 0]], "names": ["p", "q"]}')
        assert names == ["p", "q"]

    @pytest.mark.parametrize(
        "payload",
        [
            '{"n": 2, "matrix": [[0, 1], [-1, 0]], "variables": ["a", "b"]}',
            '{"n": 2, "matrix": [[0, 1], [-1, 0]], "names": ["a", 2]}',
            '{"n": 2, "matrix": [1, 2]}',
            '{"n": true, "matrix": [[0]]}',
        ],
    )
    def test_unknown_keys_and_malformed_fields_rejected(self, payload):
        with pytest.raises(ValueError):
            seed_from_json(payload)

    def test_default_names(self):
        _, names = seed_from_json(seed_to_json(a2_matrix()))
        assert names == ["x1", "x2"]

    def test_bare_matrix(self):
        seed, names = seed_from_json("[[0, 1], [-1, 0]]")
        assert seed == LabeledSeed.initial(a2_matrix())
        assert names == ["x1", "x2"]

    @pytest.mark.parametrize(
        "payload, message",
        [("[]", "empty matrix"), ("[1, 2]", "n-row array of arrays")],
    )
    def test_bad_bare_matrices_rejected(self, payload, message):
        with pytest.raises(ValueError, match=message):
            seed_from_json(payload)

    @pytest.mark.parametrize("n", ['"2"', "true", "2.0", "null"])
    def test_an_n_that_is_not_an_int_is_named(self, n):
        with pytest.raises(ValueError, match='^"n" must be an int, not '):
            seed_from_json(f'{{"n": {n}, "matrix": [[0, 1], [-1, 0]]}}')

    def test_bad_payloads(self):
        with pytest.raises(ValueError):
            seed_from_json('{"n": 2, "matrix": [[0, 1]]}')
        with pytest.raises(ValueError):
            seed_from_json(
                '{"n": 2, "matrix": [[0, 1], [-1, 0]], "names": ["a", "a"]}'
            )

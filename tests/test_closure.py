"""The closure engine against a plain breadth-first search.

`exchange._closure` computes each edge of an involutive move once: the
back edge is read from its back table.  Here every closure that a
caller runs is run again by a plain search that computes every move,
and the two must agree on items, words, index, completeness, edges and
what the visitor sees.  The same runs pin the engine's cost: a complete
closure of N items under m moves computes (N*m + F)/2 moves, F the
number of (item, move) pairs that the move fixes.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys

import pytest

import clusteralg
from clusteralg import exchange, fixtures, seeds
from clusteralg.classify import (
    automorphism_finiteness_probe,
    is_finite_mutation_type,
    is_finite_type,
)
from clusteralg.exchange import ExchangeMatrix, _closure, matrix_mutation_class
from clusteralg.seeds import LabeledSeed, apply_sequence, orbit

# the package exports a function of the same name
classify = sys.modules["clusteralg.classify"]

B3 = ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -2, 0]])
D4 = ExchangeMatrix([[0, 1, 1, 1], [-1, 0, 0, 0], [-1, 0, 0, 0], [-1, 0, 0, 0]])
MATRICES = {
    "rank1": fixtures.rank1_matrix(),
    "zero2": fixtures.zero_matrix(2),
    "A2": fixtures.a2_matrix(),
    "kronecker": fixtures.kronecker_matrix(2),
    "A3": fixtures.a3_path_matrix(),
    "B3": B3,
    "markov": fixtures.markov_matrix(),
    "A4": fixtures.a4_path_matrix(),
    "D4": D4,
    "rank4-v1": fixtures.rank4_v1_matrix(),
    "weighted-path3": fixtures.weighted_path3_matrix(),
}
# (matrix, budget): orbits from the initial seed and from the seed after (1, 2)
ORBITS = {
    "rank1": (fixtures.rank1_matrix(), 10),
    "A2": (fixtures.a2_matrix(), 50),
    "A3": (fixtures.a3_path_matrix(), 2000),
    "B3": (B3, 2000),
    "A4/cut": (fixtures.a4_path_matrix(), 300),
    "kronecker/12": (fixtures.kronecker_matrix(2), 12),
    "kronecker/40": (fixtures.kronecker_matrix(2), 40),
    "acyclic(1,1,2)/20": (fixtures.acyclic_triangle(1, 1, 2), 20),
}


def _plain_closure(root, root_word, moves, budget, visit=None, edges=None):
    """Breadth-first closure of root that computes every move, back edges too."""
    items, words, index = [root], [root_word], {root: 0}
    if visit is not None and visit(root, root_word):
        return items, words, index, False
    cur = 0
    while cur < len(items):
        for label, act, extend in moves:
            t = act(items[cur])
            if t not in index:
                t_word = extend(words[cur])
                if (visit is not None and visit(t, t_word)) or len(items) >= budget:
                    return items, words, index, False
                index[t] = len(items)
                items.append(t)
                words.append(t_word)
            if edges is not None:
                edges.append((cur, label, index[t]))
        cur += 1
    return items, words, index, True


class _Checked:
    """Stands in for _closure: runs it, counts its moves, and checks it.

    The plain search replays the visitor's answers in the order the
    engine got them, so a visitor with side effects runs once.  Each
    run is recorded as (complete, stopped by the visitor, N, m, F, moves
    computed).
    """

    def __init__(self):
        self.runs: list[tuple[bool, bool, int, int, int, int]] = []

    def __call__(self, root, root_word, moves, budget, visit=None, edges=None):
        acts = [0]

        def counted(act):
            def once(item):
                acts[0] += 1
                return act(item)

            return once

        seen = []

        def logged(item, word):
            stop = visit(item, word)
            seen.append((item, word, stop))
            return stop

        got_edges = [] if edges is None else edges
        got = _closure(
            root,
            root_word,
            [(label, counted(act), extend) for label, act, extend in moves],
            budget,
            None if visit is None else logged,
            got_edges,
        )
        replay = iter(seen)

        def replayed(item, word):
            want = next(replay, None)
            assert want is not None and want[:2] == (item, word)
            return want[2]

        ref_edges = []
        ref = _plain_closure(
            root, root_word, moves, budget, None if visit is None else replayed, ref_edges
        )
        assert got == ref
        assert got_edges == ref_edges
        assert next(replay, None) is None
        items = ref[0]
        for _, act, _ in moves:
            for item in items:
                assert act(act(item)) == item
        fixed = sum(1 for source, _, target in ref_edges if source == target)
        stopped = bool(seen) and seen[-1][2]
        self.runs.append((ref[3], stopped, len(items), len(moves), fixed, acts[0]))
        return got

    def assert_costs(self):
        assert self.runs
        for complete, _, n, m, fixed, acts in self.runs:
            if complete:
                assert 2 * acts == n * m + fixed
            else:
                assert acts <= n * m


@pytest.fixture
def checked(monkeypatch):
    engine = _Checked()
    for module in (exchange, seeds, classify):
        monkeypatch.setattr(module, "_closure", engine)
    yield engine
    engine.assert_costs()


def test_every_caller_is_checked():
    # the fixture patches every package module that holds the engine
    holders = {
        info.name
        for info in pkgutil.iter_modules(clusteralg.__path__)
        if getattr(importlib.import_module(f"clusteralg.{info.name}"), "_closure", None)
        is _closure
    }
    assert holders == {"exchange", "seeds", "classify"}


@pytest.mark.parametrize("name", MATRICES)
def test_matrix_classes_match_the_plain_search(checked, name):
    for budget in (1, 2, 7, 40, 300):
        matrix_mutation_class(MATRICES[name], budget)
    assert len(checked.runs) == 5


@pytest.mark.parametrize("name", MATRICES)
def test_bound_searches_match_the_plain_search(checked, name):
    B = MATRICES[name]
    for budget in (1, 3, 7, 40):
        classify._bounded_class_search(B, (3,), budget)
        is_finite_mutation_type(B, budget)
    if B.n >= 2 and B.is_indecomposable():
        automorphism_finiteness_probe(LabeledSeed.initial(B), 40)


@pytest.mark.parametrize("with_permutations", [False, True], ids=["plain", "relabel"])
@pytest.mark.parametrize("name", ORBITS)
def test_orbits_match_the_plain_search(checked, name, with_permutations):
    B, budget = ORBITS[name]
    s = LabeledSeed.initial(B)
    roots = [s] if B.n == 1 else [s, apply_sequence(s, (1, 2))]
    for root in roots:
        orbit(root, budget, with_permutations)


def test_the_runs_cover_every_way_a_closure_ends(checked):
    # complete, cut by the budget, and stopped by the visitor
    matrix_mutation_class(fixtures.a3_path_matrix(), 50)
    matrix_mutation_class(fixtures.a4_path_matrix(), 20)
    is_finite_type(fixtures.rank4_v1_matrix(), 200)
    ends = [(complete, stopped) for complete, stopped, *_ in checked.runs]
    assert ends == [(True, False), (False, False), (False, True)]


def _counting(monkeypatch, module, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_the_a4_class_mutates_each_matrix_pair_once(monkeypatch):
    counts = _counting(monkeypatch, exchange, ["mutate_matrix"])
    c = matrix_mutation_class(fixtures.a4_path_matrix(), 2000)
    assert c.complete and len(c) == 144
    assert counts == {"mutate_matrix": 144 * 4 // 2}


@pytest.mark.parametrize(
    "B, with_permutations, size, expected",
    [
        (fixtures.a4_path_matrix(), False, 1008, {"_mutate_rows": 2016, "_permute_rows": 0}),
        (D4, False, 1200, {"_mutate_rows": 2400, "_permute_rows": 0}),
        (B3, True, 120, {"_mutate_rows": 180, "_permute_rows": 120}),
    ],
    ids=["A4", "D4", "B3/relabel"],
)
def test_orbits_step_each_key_pair_once(monkeypatch, B, with_permutations, size, expected):
    counts = _counting(monkeypatch, seeds, ["_mutate_rows", "_permute_rows"])
    g = orbit(LabeledSeed.initial(B), 2000, with_permutations)
    assert g.complete and len(g) == size
    assert counts == expected

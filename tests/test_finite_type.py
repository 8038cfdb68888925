"""Finite type by the Barot–Geiss–Zelevinsky test, against the class search.

`is_finite_type` decides from B alone: every Dynkin diagram up to rank 8
reads "yes" at budget 1 and every affine one "no", on the diagrams and
on random mutation conjugates of them.  On random matrices of rank 2 to
5 the answer is the class search's wherever the search decides.  The
admissible sign choice is checked against every sign choice, and every
certificate replays, while a tampered one does not.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from math import lcm

import pytest

from clusteralg.classify import (
    classify,
    dynkin_type,
    is_finite_mutation_type,
    is_finite_type,
)
from clusteralg.exchange import ExchangeMatrix
from clusteralg.fixtures import (
    affine_a,
    affine_d,
    affine_e,
    dynkin_a,
    dynkin_b,
    dynkin_c,
    dynkin_d,
    dynkin_e,
    dynkin_f4,
    g2_matrix,
)

# the package exports a function of the same name
classify_module = sys.modules["clusteralg.classify"]

FINITE = {
    **{f"A{n}": dynkin_a(n) for n in range(1, 9)},
    **{f"B{n}": dynkin_b(n) for n in range(2, 9)},
    **{f"C{n}": dynkin_c(n) for n in range(3, 9)},
    **{f"D{n}": dynkin_d(n) for n in range(4, 9)},
    **{f"E{n}": dynkin_e(n) for n in range(6, 9)},
    "F4": dynkin_f4(),
    "G2": g2_matrix(),
}
AFFINE = {
    "affine-A(2,1)": affine_a(2, 1),
    "affine-A(2,2)": affine_a(2, 2),
    "affine-A(3,2)": affine_a(3, 2),
    "affine-D4": affine_d(4),
    "affine-D5": affine_d(5),
    "affine-E6": affine_e(6),
    "affine-E7": affine_e(7),
    "affine-E8": affine_e(8),
}
CONJUGATES = 200
MAX_STEPS = 25


def _conjugates(B: ExchangeMatrix, seed: int):
    rng = random.Random(seed)
    for _ in range(CONJUGATES):
        yield B.apply([rng.randint(1, B.n) for _ in range(rng.randint(0, MAX_STEPS))])


def _evidence_replays(B: ExchangeMatrix, d) -> bool:
    if d.witness is not None:
        return d.certificate is None and d.witness.replay(B, 3)
    return d.certificate.replay(B) and d.certificate.finite == (d.status == "yes")


class TestDiagrams:
    def test_builders_carry_their_labels(self):
        for name, B in FINITE.items():
            label = dynkin_type(B)[0]
            assert label == name or label == f"B/C{name[1:]}", name
        for B in AFFINE.values():
            assert dynkin_type(B) is None

    @pytest.mark.parametrize("name", FINITE)
    def test_finite_types_read_yes_at_budget_1(self, name):
        B = FINITE[name]
        d = is_finite_type(B, 1)
        assert (d.status, d.witness) == ("yes", None)
        assert _evidence_replays(B, d)
        fmt = is_finite_mutation_type(B, 1)
        assert fmt.status == "yes"
        c = classify(B, 1)
        assert (c.finite_type, c.finite_mutation_type) == ("yes", "yes")
        assert c.mutation_acyclic == "yes"

    @pytest.mark.parametrize("name", AFFINE)
    def test_affine_types_read_no(self, name):
        B = AFFINE[name]
        for budget in (1, 200):
            d = is_finite_type(B, budget)
            assert d.status == "no"
            assert _evidence_replays(B, d)
            assert classify(B, budget).finite_type == "no"

    def test_conjugates_keep_their_type(self):
        # 200 random mutation words of up to 25 steps per diagram; about a
        # tenth of the conjugates have chordless cycles of length 4 or more
        long_cycles = 0
        for seed, (name, B) in enumerate(list(FINITE.items()) + list(AFFINE.items())):
            want = "yes" if name in FINITE else "no"
            for M in _conjugates(B, seed):
                d = is_finite_type(M, 1)
                assert d.status == want, (name, M)
                assert _evidence_replays(M, d), (name, M)
                long_cycles += any(len(c) >= 4 for c in classify_module._chordless_cycles(M))
        assert long_cycles > 200


def _random_matrix(rng: random.Random) -> ExchangeMatrix:
    """Rank 2 to 5, symmetrizer entries from {1, 2} or {1, 3}, products 1 to 12."""
    n = rng.randint(2, 5)
    d = [rng.choice(rng.choice(((1,), (1, 2), (1, 3)))) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                # d_i b_ij = -d_j b_ji = +-m, a multiple of both d_i and d_j
                m = rng.choice((1, 1, 1, 1, 1, 2)) * lcm(d[i], d[j]) * rng.choice((1, -1))
                rows[i][j], rows[j][i] = m // d[i], -m // d[j]
    return ExchangeMatrix(rows)


def _grid(count: int, seed: int) -> list[ExchangeMatrix]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        B = _random_matrix(rng)
        if B.is_indecomposable():
            out.append(B)
    return out


GRID = _grid(1500, 22)


def test_agrees_with_the_class_search():
    # every finite class up to rank 5 has at most 2184 matrices (D5), so a
    # search of 3000 that is cut has met an infinite type
    answers = {"yes": 0, "no": 0}
    skew_symmetrizable = 0
    for B in GRID:
        found = classify_module._bounded_class_search(B, (3,), 3000)[0][3]
        d = is_finite_type(B, 3000)
        if found.status != "unknown":
            assert d.status == found.status, B
            assert d.witness == found.witness, B
        else:
            assert d.status == "no" and d.witness is None, B
        assert _evidence_replays(B, d), B
        answers[d.status] += 1
        skew_symmetrizable += not B.is_skew_symmetric()
    assert answers["yes"] > 300 and answers["no"] > 300
    assert skew_symmetrizable > 400


def _simple_skew_symmetric(n: int):
    """Every rank-n skew-symmetric matrix with entries in {-1, 0, 1}."""
    pairs = list(itertools.combinations(range(n), 2))
    for values in itertools.product((-1, 0, 1), repeat=len(pairs)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), x in zip(pairs, values):
            rows[i][j], rows[j][i] = x, -x
        yield ExchangeMatrix(rows)


def _reference_components(B: ExchangeMatrix) -> list[list[int]]:
    """Components (0-based) by union-find over the nonzero entries, by least vertex."""
    parent = list(range(B.n))

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in itertools.combinations(range(B.n), 2):
        if B.rows[i][j]:
            parent[root(i)] = root(j)
    groups: dict[int, list[int]] = {}
    for v in range(B.n):
        groups.setdefault(root(v), []).append(v)
    return sorted(groups.values())


def _reference_has_directed_cycle(B: ExchangeMatrix) -> bool:
    """Depth-first search over the arrows i -> j (b_ij > 0) for a back edge."""
    state = [0] * B.n  # 0 unseen, 1 on the path, 2 done

    def visit(v: int) -> bool:
        state[v] = 1
        for w in range(B.n):
            if B.rows[v][w] > 0 and (state[w] == 1 or (state[w] == 0 and visit(w))):
                return True
        state[v] = 2
        return False

    return any(state[v] == 0 and visit(v) for v in range(B.n))


def _reference_chordless_cycles(B: ExchangeMatrix) -> list[tuple[int, ...]]:
    """Vertex subsets whose induced diagram is one cycle, walked from the least
    vertex towards its smaller neighbour."""
    out = []
    for size in range(3, B.n + 1):
        for subset in itertools.combinations(range(B.n), size):
            nbrs = {v: [w for w in subset if B.rows[v][w]] for v in subset}
            if any(len(x) != 2 for x in nbrs.values()):
                continue
            cycle = [subset[0], nbrs[subset[0]][0]]
            while cycle[-1] != subset[0]:
                a, b = nbrs[cycle[-1]]
                cycle.append(b if a == cycle[-2] else a)
            # two disjoint cycles close before every vertex is visited
            if len(cycle) == size + 1:
                out.append(tuple(cycle[:-1]))
    return out


def _reference_bipartition(B: ExchangeMatrix) -> tuple[int, ...] | None:
    eps = []
    for row in B.rows:
        if any(x > 0 for x in row) and any(x < 0 for x in row):
            return None
        eps.append(-1 if any(x < 0 for x in row) else 1)
    return tuple(eps)


READER_INPUTS = {
    "simple, rank <= 4": [B for n in range(1, 5) for B in _simple_skew_symmetric(n)],
    "fixtures": list(FINITE.values()) + list(AFFINE.values()),
    "grid": GRID,
}


@pytest.mark.parametrize("inputs", READER_INPUTS)
def test_the_diagram_reader_agrees_with_plain_references(inputs):
    # every structural answer read from the neighbour and arrow masks,
    # against references written from B.rows alone
    for B in READER_INPUTS[inputs]:
        n, rows = B.n, B.rows
        pairs = [(i, j) for i, j in itertools.combinations(range(n), 2) if rows[i][j]]
        assert B.underlying_edges() == [(i + 1, j + 1) for i, j in pairs], B
        assert B.underlying_triangles() == [
            (i + 1, j + 1, k + 1)
            for i, j, k in itertools.combinations(range(n), 3)
            if rows[i][j] and rows[i][k] and rows[j][k]
        ], B
        components = _reference_components(B)
        assert B.is_indecomposable() == (len(components) == 1), B
        assert B.is_acyclic() == (not _reference_has_directed_cycle(B)), B
        assert B.bipartition() == _reference_bipartition(B), B
        cycles = classify_module._chordless_cycles(B)
        assert len(set(cycles)) == len(cycles), B
        assert sorted(cycles) == sorted(_reference_chordless_cycles(B)), B
        large = sorted(v for c in components if len(c) >= 3 for v in c)
        assert classify_module._refuting_vertices(B, 4) == tuple(large), B


def _positive_definite(A, d) -> bool:
    """Sylvester's criterion on D·A, by Gaussian elimination over the rationals."""
    M = [[Fraction(d[i] * x) for x in row] for i, row in enumerate(A)]
    n = len(M)
    for k in range(n):
        if M[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            factor = M[i][k] / M[k][k]
            for j in range(k, n):
                M[i][j] -= factor * M[k][j]
    return True


def test_the_admissible_signs_decide_as_well_as_any():
    # where every chordless cycle is oriented, some sign choice of the
    # companion is positive definite exactly when the admissible one is
    checked = {"yes": 0, "no": 0}
    for B in GRID:
        d = is_finite_type(B, 1)
        if d.certificate is None or d.certificate.cycle is not None:
            continue
        n = B.n
        edges = B.underlying_edges()
        if len(edges) > 7:
            continue
        any_positive = False
        for signs in itertools.product((1, -1), repeat=len(edges)):
            A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), sign in zip(edges, signs):
                A[i - 1][j - 1] = sign * abs(B.entry(i, j))
                A[j - 1][i - 1] = sign * abs(B.entry(j, i))
            if _positive_definite(A, B.symmetrizer):
                any_positive = True
                break
        assert any_positive == (d.status == "yes"), B
        assert _positive_definite(d.certificate.companion, B.symmetrizer) == any_positive
        checked[d.status] += 1
    assert checked["yes"] > 300 and checked["no"] > 100


SQUARE = ExchangeMatrix([[0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1], [1, 0, -1, 0]])


def _flipped(A, entries) -> tuple[tuple[int, ...], ...]:
    rows = [list(row) for row in A]
    for i, j in entries:
        rows[i - 1][j - 1] *= -1
    return tuple(map(tuple, rows))


class TestCertificates:
    @pytest.mark.parametrize("B", [dynkin_e(6), SQUARE], ids=["E6", "square"])
    def test_a_flipped_sign_fails_the_replay(self, B):
        # flipping one entry breaks the sign pairing of a_ij and a_ji
        cert = is_finite_type(B, 1).certificate
        assert cert.replay(B)
        for i, j in B.underlying_edges():
            for entry in ((i, j), (j, i)):
                assert not type(cert)(None, _flipped(cert.companion, [entry]), 0).replay(B)

    def test_a_flipped_cycle_edge_fails_the_replay(self):
        # the oriented 4-cycle is of type D4; flipping both entries of one
        # of its edges leaves an even number of positive signs on it
        cert = is_finite_type(SQUARE, 1).certificate
        assert cert.finite
        assert classify_module._chordless_cycles(SQUARE) == [(0, 1, 2, 3)]
        bad = type(cert)(None, _flipped(cert.companion, [(1, 2), (2, 1)]), 0)
        assert not bad.replay(SQUARE)
        # with the right signs but a wrong minor the replay fails too
        assert not type(cert)(None, cert.companion, 3).replay(SQUARE)

    @pytest.mark.parametrize(
        "cycle", [("a",), 5, (1.0, 2.0, 3.0), (True, 2, 3)], ids=["str", "int", "floats", "bool"]
    )
    def test_a_malformed_cycle_fails_the_replay(self, cycle):
        # (1.0, 2.0, 3.0) equals the obstruction (1, 2, 3), but is no cycle of vertices
        cert = is_finite_type(affine_a(2, 1), 1).certificate
        assert cert.cycle == (1, 2, 3) and cert.replay(affine_a(2, 1))
        assert not type(cert)(cycle, None, 0).replay(affine_a(2, 1))

    def test_obstructions_replay_only_on_their_matrix(self):
        cyclic = is_finite_type(affine_a(2, 1), 1)
        assert cyclic.certificate.cycle == (1, 2, 3)
        assert cyclic.certificate.replay(affine_a(2, 1))
        # the oriented triangle is in A3's class: there the cycle is no obstruction
        oriented = ExchangeMatrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
        assert is_finite_type(oriented, 1).status == "yes"
        assert not cyclic.certificate.replay(oriented)
        minor = is_finite_type(affine_e(6), 1).certificate
        assert (minor.cycle, minor.minor) == (None, 7)
        assert minor.replay(affine_e(6))
        assert not minor.replay(dynkin_e(7))

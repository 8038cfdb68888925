"""Labeled seeds, seed mutation, permutation action, and orbit search.

A labeled seed is an ordered cluster of Laurent polynomials together
with an exchange matrix.  The cluster entries live in the Laurent ring
of the initial variables; the ambient variable count may exceed the
matrix rank (that is how subseeds on an index subset are represented).
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .errors import InvariantViolation, NotDivisible
from .exchange import (
    ExchangeMatrix,
    Permutation,
    _closure,
    _mutate_rows,
    _permute_rows,
    _principal_rows,
    _require_count,
    _require_index,
    _require_permutation,
    mutate_matrix,
    validate_sequence,
)
from .symbolic import LaurentPoly, exchange_relation, generators

MutationSequence = tuple  # finite list of 1-based indices, applied left to right

_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_sequence(text: str) -> tuple[int, ...]:
    """Parse "1, 2,1" into (1, 2, 1); the empty string is the empty sequence."""
    s = text.strip()
    if not s:
        return ()
    parts = [x.strip() for x in s.split(",")]
    if not all(_INTEGER.fullmatch(x) for x in parts):
        raise ValueError(f"sequence {text!r} is not comma-separated integers")
    return tuple(int(x) for x in parts)


def format_sequence(seq: Sequence[int]) -> str:
    return ",".join(str(k) for k in seq)


def inverse_sequence(seq: Sequence[int]) -> tuple[int, ...]:
    return tuple(reversed(seq))


class LabeledSeed:
    """An ordered cluster plus an exchange matrix, compared and hashed by value.

    Instances are immutable: they key every orbit index by value.
    """

    __slots__ = ("cluster", "matrix", "_hash")

    def __init__(self, cluster: Sequence[LaurentPoly], matrix: ExchangeMatrix):
        cluster = tuple(cluster)
        if len(cluster) != matrix.n:
            raise ValueError("cluster length must equal matrix rank")
        nvars = {p.nvars for p in cluster}
        if len(nvars) > 1:
            raise ValueError("cluster entries disagree on ambient variable count")
        object.__setattr__(self, "cluster", cluster)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"LabeledSeed is immutable; cannot set {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor
        return LabeledSeed, (self.cluster, self.matrix)

    @classmethod
    def initial(cls, B: ExchangeMatrix) -> "LabeledSeed":
        """The seed ((x_1,...,x_n), B)."""
        return cls(generators(B.n), B)

    @property
    def rank(self) -> int:
        return self.matrix.n

    @property
    def nvars(self) -> int:
        return self.cluster[0].nvars

    def canonical_key(self) -> tuple:
        return self.cluster, self.matrix.rows

    def key_string(self) -> str:
        """Serialized form: canonical strings of the cluster, then the matrix rows."""
        strings = "|".join(p.canonical_string() for p in self.cluster)
        return strings + " # " + json.dumps(self.matrix.to_lists())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledSeed):
            return NotImplemented
        return self.matrix == other.matrix and self.cluster == other.cluster

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.cluster, self.matrix)))
        return self._hash

    def __repr__(self) -> str:
        return f"LabeledSeed({self.key_string()})"

    def mutate(self, k: int) -> "LabeledSeed":
        return mutate_seed(self, k)

    def apply(self, seq: Sequence[int]) -> "LabeledSeed":
        return apply_sequence(self, seq)

    def permute(self, sigma: Permutation) -> "LabeledSeed":
        return permute_seed(self, sigma)


def mutate_seed(s: LabeledSeed, k: int) -> LabeledSeed:
    """Seed mutation: the exchange relation at k plus matrix mutation."""
    _require_index(k, s.rank)
    return _exchanged(s, k, mutate_matrix(s.matrix, k))


def _exchanged(s: LabeledSeed, k: int, matrix: ExchangeMatrix) -> LabeledSeed:
    """s with x_k replaced through the exchange relation, carrying matrix.

    x'_k = (prod_i x_i^[b_ik]_+ + prod_i x_i^[-b_ik]_+) / x_k, computed
    by symbolic.exchange_relation as LaurentPoly powers and products
    divided by exact_div.  The division is exact for every seed reachable
    from an initial one, so when the cluster spans the ambient variables
    a division failure signals an implementation bug and surfaces as
    InvariantViolation.  A seed with more ambient variables than its
    rank (a subseed) may have an exchange relation that is not Laurent
    in those variables; that is a property of the input and raises
    ValueError.
    """
    col = k - 1
    plus: list[tuple[LaurentPoly, int]] = []
    minus: list[tuple[LaurentPoly, int]] = []
    for x, row in zip(s.cluster, s.matrix.rows):
        b = row[col]
        if b > 0:
            plus.append((x, b))
        elif b < 0:
            minus.append((x, -b))
    try:
        new_var = exchange_relation(plus, minus, s.cluster[col])
    except NotDivisible as exc:
        if s.nvars > s.rank:
            raise ValueError(
                f"exchange relation at {k} is not Laurent in the {s.nvars} ambient variables"
            ) from exc
        raise InvariantViolation(
            f"exchange relation at {k} did not divide exactly"
        ) from exc
    cluster = list(s.cluster)
    cluster[col] = new_var
    return LabeledSeed(cluster, matrix)


def _exchanged_once(
    memo: dict[tuple, LaurentPoly], s: LabeledSeed, k: int, matrix: ExchangeMatrix
) -> LabeledSeed:
    """_exchanged(s, k, matrix), computing each distinct relation once per memo.

    x'_k depends on x_k and on the multiset of pairs (x_i, b_ik) with
    b_ik != 0, and on nothing else, so that is the key: free of labels,
    and a multiset, not a set, because a repeated pair is a repeated
    factor.  A relation that fails raises and stores nothing.
    """
    col = k - 1
    pairs = Counter((x, row[col]) for x, row in zip(s.cluster, s.matrix.rows) if row[col])
    relation = s.cluster[col], frozenset(pairs.items())
    new_var = memo.get(relation)
    if new_var is None:
        t = _exchanged(s, k, matrix)
        memo[relation] = t.cluster[col]
        return t
    cluster = list(s.cluster)
    cluster[col] = new_var
    return LabeledSeed(cluster, matrix)


def apply_sequence(s: LabeledSeed, seq: Sequence[int]) -> LabeledSeed:
    """Mutate at seq[0] first, then seq[1], and so on."""
    for k in validate_sequence(seq, s.rank):
        s = mutate_seed(s, k)
    return s


def permute_seed(s: LabeledSeed, sigma: Permutation) -> LabeledSeed:
    """(x,B)^sigma: entry i of the result is old entry sigma(i).

    Iterating follows permute(permute(s,a),b) = permute(s, a.compose(b)).
    """
    _require_permutation(sigma, s.rank)
    cluster = tuple(s.cluster[sigma(i) - 1] for i in range(1, s.rank + 1))
    return LabeledSeed(cluster, s.matrix.permute(sigma))


@dataclass(frozen=True)
class EquivalenceResult:
    kind: str  # "equal" | "equivalent" | "distinct"
    sigma: Permutation | None = None


def seed_equivalence(s: LabeledSeed, t: LabeledSeed) -> EquivalenceResult:
    """Equal, equivalent via some relabeling sigma, or distinct.

    Sigma is read off the cluster alignment alone; the matrix is then
    required to match as well.  A cluster match with a matrix mismatch
    would contradict the uniqueness of a seed with a given cluster, so
    it is treated as an internal error.
    """
    if s.rank != t.rank:
        raise ValueError("rank mismatch")
    if s == t:
        return EquivalenceResult("equal", Permutation.identity(s.rank))
    if Counter(s.cluster) != Counter(t.cluster):
        return EquivalenceResult("distinct")
    positions: dict[LaurentPoly, list[int]] = {}
    for i, p in enumerate(s.cluster):
        positions.setdefault(p, []).append(i + 1)
    # the clusters agree as multisets, so handing out each entry's
    # positions in order gives the lexicographically first alignment
    sigma = Permutation([positions[p].pop(0) for p in t.cluster])
    if s.matrix.permute(sigma) != t.matrix:
        raise InvariantViolation(
            "clusters align under a relabeling but the matrices do not"
        )
    return EquivalenceResult("equivalent", sigma)


@dataclass
class OrbitGraph:
    """BFS closure of a seed under mutation (and optionally permutation).

    seeds are listed in discovery order; words[i] is a normalized
    witness (mutation word M, relabeling pi) with
    seeds[i] == permute(apply_sequence(root, M), pi).  edges holds
    (source, generator label, target) for every generator applied to a
    seed, so a complete orbit carries its whole action table.
    """

    seeds: list[LabeledSeed]
    words: list[tuple[tuple[int, ...], Permutation]]
    edges: list[tuple[int, str, int]]
    complete: bool
    with_permutations: bool
    max_seeds: int
    index: dict = field(repr=False, default_factory=dict)

    def find(self, s: LabeledSeed) -> int | None:
        return self.index.get(s)

    def __len__(self) -> int:
        return len(self.seeds)

    def dump_lines(self) -> list[str]:
        return sorted(s.key_string() for s in self.seeds)


def orbit(
    s: LabeledSeed,
    max_seeds: int,
    with_permutations: bool = False,
) -> OrbitGraph:
    """Breadth-first closure under mu_1..mu_n (and adjacent transpositions).

    Stops as soon as the seed count would exceed max_seeds; the result
    then carries complete=False and is never silently truncated.  The
    closure runs on principal-coefficient keys, the plain rows [B; C] of
    exchange._principal_rows stepped by _mutate_rows and _permute_rows;
    each admitted seed is then built once, from the edge that discovered
    it, and checked against the seeds already built.  Its matrix comes
    from one dict from B rows to ExchangeMatrix, filled with the root's,
    so each distinct matrix is built once (13 times for the A3 orbit),
    and a mutation edge must keep the parent's symmetrizer.  A mutation
    edge needs an exchange relation, and one memo per call computes each
    distinct relation (see _exchanged_once) once, exactly.  In finite
    type the orbit has far more labeled seeds than relations: from the
    initial A4 seed, 1008 seeds need 69.  Replays never read this memo.
    Key mutation and relabeling by a transposition are involutions, so
    the closure steps once per pair of neighbouring keys: a complete
    orbit of N seeds costs N*n/2 key mutations (2016 for A4) and, with
    relabelings, N*(n - 1)/2 key relabelings.
    """
    _require_count("max_seeds", max_seeds, 1)
    n = s.rank
    # each closure move is labeled by itself: the index k or the transposition
    moves: list = [
        (k, lambda rows, k=k: _mutate_rows(rows, k), lambda w, k=k: (w[0] + (w[1](k),), w[1]))
        for k in range(1, n + 1)
    ]
    if with_permutations:
        for i in range(1, n):
            g = Permutation.transposition(n, i, i + 1)
            moves.append(
                (
                    g,
                    lambda rows, g=g: _permute_rows(rows, g),
                    lambda w, g=g: (w[0], w[1].compose(g)),
                )
            )
    edges: list[tuple[int, int | Permutation, int]] = []
    keys, words, _, complete = _closure(
        _principal_rows(s.matrix), ((), Permutation.identity(n)), moves, max_seeds, edges=edges
    )
    seeds = [s]
    index = {s: 0}
    matrices = {s.matrix.rows: s.matrix}
    relations: dict[tuple, LaurentPoly] = {}
    for source, g, target in edges:
        if target < len(seeds):
            continue
        # edges are in discovery order, so this one discovered target
        parent = seeds[source]
        rows = keys[target][:n]
        matrix = matrices.get(rows)
        if matrix is None:
            matrix = matrices[rows] = ExchangeMatrix(rows)
        if type(g) is int:
            if matrix.symmetrizer != parent.matrix.symmetrizer:
                raise InvariantViolation("mutation broke the skew-symmetrizer")
            t = _exchanged_once(relations, parent, g, matrix)
        else:
            t = LabeledSeed(tuple(parent.cluster[i - 1] for i in g.images), matrix)
        if index.setdefault(t, target) != target:
            raise InvariantViolation("two principal-coefficient keys built one seed")
        seeds.append(t)
    names = {g: f"mu{g}" if type(g) is int else g.cycle_notation() for g, _, _ in moves}
    labeled = [(source, names[g], target) for source, g, target in edges]
    return OrbitGraph(seeds, words, labeled, complete, with_permutations, max_seeds, index)


def seed_from_json(text: str) -> tuple[LabeledSeed, list[str]]:
    """Parse a bare matrix [[int]] or {"n": int, "matrix": [[int]], "names": [str]?}.

    Returns the initial seed of the matrix plus display names.  Unknown
    keys are rejected rather than ignored.
    """
    data = json.loads(text)
    if isinstance(data, list):
        data = {"n": len(data), "matrix": data}
    if not isinstance(data, dict) or "n" not in data or "matrix" not in data:
        raise ValueError('seed file needs keys "n" and "matrix"')
    unknown = sorted(set(data) - {"n", "matrix", "names"})
    if unknown:
        raise ValueError(f"unknown seed file keys: {', '.join(unknown)}")
    n = data["n"]
    matrix = data["matrix"]
    if (
        type(n) is not int
        or not isinstance(matrix, list)
        or len(matrix) != n
        or not all(isinstance(row, list) for row in matrix)
    ):
        raise ValueError('"matrix" must be an n-row array of arrays')
    B = ExchangeMatrix(matrix)
    names = data.get("names")
    if names is None:
        names = [f"x{i}" for i in range(1, n + 1)]
    if (
        not isinstance(names, list)
        or not all(isinstance(x, str) for x in names)
        or len(names) != n
        or len(set(names)) != n
    ):
        raise ValueError("names must be n distinct strings")
    return LabeledSeed.initial(B), names


def seed_to_json(B: ExchangeMatrix, names: Iterable[str] | None = None) -> str:
    data: dict = {"n": B.n, "matrix": B.to_lists()}
    if names is not None:
        data["names"] = list(names)
    return json.dumps(data, indent=2)

"""Constructive realization of relabelings by mutation sequences.

On a seed whose quiver is connected with all edge weights 1, any
permutation of the positions can be produced by pure mutation.  The
construction routes one variable at a time along simple edges using the
five-step swap gadget, shrinking the working subquiver each stage.  Each
gadget is replayed once, in swap_gadget, by exchange._require_replays,
and that chain of checked replays is the plan's exact replay.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import DecomposableMatrix, InvariantViolation
from .exchange import (
    Permutation,
    _is_connected,
    _require_index,
    _require_permutation,
    _require_replays,
)
from .seeds import (
    LabeledSeed,
    MutationSequence,
    format_sequence,
    permute_seed,
)


def _adjacency(edges: list[tuple[int, int]], vertices: set[int]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in edges:
        if a in vertices and b in vertices:
            adj[a].append(b)
            adj[b].append(a)
    for v in adj:
        adj[v].sort()
    return adj


def _smallest_noncut(edges: list[tuple[int, int]], vertices: set[int]) -> int:
    """Smallest vertex whose removal keeps the rest connected."""
    for v in sorted(vertices):
        if _is_connected(vertices - {v}, edges):
            return v
    raise InvariantViolation("a connected graph always has a removable vertex")


def swap_gadget(s: LabeledSeed, i: int, j: int) -> MutationSequence:
    """The five-step sequence acting on the seed as the transposition (i j).

    Needs a simple edge between i and j; the action is re-verified on s
    before the sequence is returned.  i and j are checked as mutation
    indices are: one that is not an int raises ValueError, one out of
    range IndexError.
    """
    return _swap_gadget(s, i, j)[0]


def _swap_gadget(s: LabeledSeed, i: int, j: int) -> tuple[MutationSequence, LabeledSeed]:
    """swap_gadget's sequence, with the transposed seed it was verified against."""
    _require_index(i, s.rank)
    _require_index(j, s.rank)
    if i == j:
        raise ValueError("need two distinct vertices")
    if abs(s.matrix.entry(i, j)) != 1 or abs(s.matrix.entry(j, i)) != 1:
        weight = abs(s.matrix.entry(i, j) * s.matrix.entry(j, i))
        raise ValueError(f"no simple edge between {i} and {j}: weight {weight}")
    seq = (i, j, i, j, i)
    swapped = permute_seed(s, Permutation.transposition(s.rank, i, j))
    _require_replays(s, {seq: swapped}, "swap gadget")
    return seq, swapped


@dataclass(frozen=True)
class RealizationPlan:
    """A staged mutation plan carrying a relabeling, verified by replay."""

    sigma: Permutation
    stages: tuple[MutationSequence, ...]
    finalized: tuple[int, ...]  # position pinned down by each stage
    full_sequence: MutationSequence
    verified: bool

    def describe(self) -> list[str]:
        lines = []
        total = len(self.stages)
        for idx, (stage, pos) in enumerate(zip(self.stages, self.finalized)):
            body = format_sequence(stage) if stage else "(empty)"
            lines.append(f"stage {idx + 1}/{total} fixes position {pos}: {body}")
        full = format_sequence(self.full_sequence)
        lines.append(f"full sequence: {full if full else '(empty)'}")
        return lines


def _shortest_path(
    adj: dict[int, list[int]], start: int, goal: int
) -> list[int]:
    """BFS path; ascending neighbor order makes the choice deterministic."""
    parent = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            break
        for w in adj[cur]:
            if w not in parent:
                parent[w] = cur
                queue.append(w)
    if goal not in parent:
        raise InvariantViolation("routing endpoints fell in different components")
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return list(reversed(path))


def realize_permutation(s: LabeledSeed, sigma: Permutation) -> RealizationPlan:
    """Produce a mutation sequence i with apply_sequence(s, i) == permute_seed(s, sigma).

    Works stage by stage: pick the smallest removable vertex v of the
    working subquiver, route its variable to the position it must occupy
    by composing swap gadgets along a shortest path of simple edges,
    then drop that position from play.  Each gadget and the end seed are
    checked exactly; a failed check is a bug, not an input error.
    """
    B = s.matrix
    n = s.rank
    _require_permutation(sigma, n)
    if any(abs(e) > 1 for row in B.rows for e in row):
        raise ValueError("realization needs all edge weights 1")
    if not B.is_indecomposable():
        raise DecomposableMatrix("quiver is disconnected")

    sigma_inv = sigma.inverse()
    current = s
    content = {p: p for p in range(1, n + 1)}
    active = set(range(1, n + 1))
    stages: list[MutationSequence] = []
    finalized: list[int] = []

    while len(active) > 1:
        cur_edges = current.matrix.underlying_edges()
        if not _is_connected(active, cur_edges):
            raise InvariantViolation("working subquiver lost connectivity")
        v = _smallest_noncut(cur_edges, active)
        w0 = sigma_inv(content[v])
        if w0 not in active:
            raise InvariantViolation("target position left play before its variable")
        if w0 == v:
            stages.append(())
            finalized.append(v)
            active.remove(v)
            continue
        path = _shortest_path(_adjacency(cur_edges, active), w0, v)
        stage_seq: list[int] = []
        for wk in path[1:]:
            # the gadget's replay has just built the transposed seed
            seq, current = _swap_gadget(current, w0, wk)
            content[w0], content[wk] = content[wk], content[w0]
            stage_seq.extend(seq)
        if content[w0] != sigma(w0):
            raise InvariantViolation("stage did not deliver the required variable")
        stages.append(tuple(stage_seq))
        finalized.append(w0)
        active.remove(w0)

    last = active.pop()
    if content[last] != sigma(last):
        raise InvariantViolation("final position holds the wrong variable")

    if current != permute_seed(s, sigma):
        raise InvariantViolation("realization plan failed replay verification")
    return RealizationPlan(sigma, tuple(stages), tuple(finalized), sum(stages, ()), True)

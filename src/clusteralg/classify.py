"""Classification of exchange matrices by their mutation class.

Finite type is decided from B alone by the Barot–Geiss–Zelevinsky test
(math/0411341) at any budget: a "yes" carries the positive admissible
quasi-Cartan companion, and a "no" the bound witness of the class search
(2x2 products over 3) where a budgeted search finds one, else the
theorem's obstruction.  Finite mutation type is decided through the
class-wide 2x2 product bound 4, searched breadth-first with pruning;
finite type implies it (Fomin–Zelevinsky, math/0208229).  The same
search machinery yields the m-invariant upper bound, mutation-acyclicity,
the three sufficient relabeling-transitivity conditions, a cosmetic
Dynkin-diagram labeling, and the automorphism-finiteness probe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvariantViolation
from .exchange import (
    ExchangeMatrix,
    MatrixClass,
    Permutation,
    _closure,
    _mutation_moves,
    _require_count,
    _require_indecomposable,
    _require_index,
    _require_replays,
    matrix_mutation_class,
)
from .periodicity import (
    _principal_side,
    _return_power,
    _side_step,
    find_periods,
    is_sigma_period,
)
from .seeds import LabeledSeed, inverse_sequence


@dataclass(frozen=True)
class BoundWitness:
    """A class member violating a 2x2 product bound, with its access path."""

    sequence: tuple[int, ...]
    i: int
    j: int
    product: int

    def replay(self, B: ExchangeMatrix, bound: int) -> bool:
        """Whether the pair (i, j) of B.apply(sequence) has the product, over bound.

        i and j are checked as mutation indices are: one that is not an
        int raises ValueError, one out of range IndexError.
        """
        _require_index(self.i, B.n)
        _require_index(self.j, B.n)
        M = B.apply(self.sequence)
        value = abs(M.entry(self.i, self.j) * M.entry(self.j, self.i))
        return value == self.product and value > bound

    def to_json_dict(self) -> dict:
        return {
            "sequence": list(self.sequence),
            "i": self.i,
            "j": self.j,
            "product": self.product,
        }


@dataclass(frozen=True)
class FiniteTypeCertificate:
    """The Barot–Geiss–Zelevinsky evidence on B's type, checkable from B alone.

    B is of finite type iff every chordless cycle of its diagram is
    cyclically oriented and its admissible quasi-Cartan companion A makes
    D·A positive definite, D the symmetrizer.  A has a_ii = 2,
    |a_ij| = |b_ij|, a_ij and a_ji of one sign, and an odd number of
    positive a_ij on every chordless cycle; admissible companions differ
    only by simultaneous sign changes, which keep definiteness.

    `cycle` (1-based, least vertex first) is a chordless cycle that is
    not cyclically oriented, and then there is no companion.  Otherwise
    `companion` is A and `minor` is 0 when every leading principal minor
    of D·A is positive, else the order of the first that is not.
    """

    cycle: tuple[int, ...] | None
    companion: tuple[tuple[int, ...], ...] | None
    minor: int

    @property
    def finite(self) -> bool:
        return self.cycle is None and self.minor == 0

    def replay(self, B: ExchangeMatrix) -> bool:
        """Whether the certificate holds for B, rechecked from B's entries."""
        cycles = _chordless_cycles(B)
        if self.cycle is not None:
            return (
                self.companion is None
                and tuple(v - 1 for v in self.cycle) in cycles
                and not _is_oriented(B, tuple(v - 1 for v in self.cycle))
            )
        A, n = self.companion, B.n
        if (
            type(A) is not tuple
            or len(A) != n
            or any(type(row) is not tuple or len(row) != n for row in A)
            or any(type(x) is not int for row in A for x in row)
        ):
            return False
        if any(A[i][i] != 2 for i in range(n)) or any(
            abs(A[i][j]) != abs(B.rows[i][j]) or A[i][j] * A[j][i] < 0
            for i in range(n)
            for j in range(n)
            if i != j
        ):
            return False
        return all(
            _is_oriented(B, c)
            and sum(A[c[k - 1]][c[k]] > 0 for k in range(len(c))) % 2 == 1
            for c in cycles
        ) and _first_nonpositive_minor(A, B.symmetrizer) == self.minor


@dataclass(frozen=True)
class Decision:
    """yes / no / unknown, with the evidence each answer carries.

    A finite-type "yes" carries the companion in `certificate`; a "no"
    carries the class search's bound witness where the search finds one
    within its budget, else the theorem's obstruction in `certificate`.
    Finite-mutation-type answers carry the search's witness, and a "yes"
    that the search could not reach carries the finite-type certificate.
    """

    status: str  # yes | no | unknown
    witness: BoundWitness | None
    budget: int
    certificate: FiniteTypeCertificate | None = None


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _chordless_cycles(B: ExchangeMatrix) -> list[tuple[int, ...]]:
    """Every chordless cycle of B's diagram, 0-based, once each.

    A cycle is listed from its least vertex s, in the direction whose
    second vertex is below its last: induced paths from s through larger
    vertices grow one vertex at a time, and a path closes at a vertex
    adjacent to s.  `blocked` holds the path, the vertices up to s and
    every neighbour of an inner path vertex, none of which may come next.
    """
    n = B.n
    adj = [sum(1 << j for j in range(n) if B.rows[i][j]) for i in range(n)]
    cycles = []
    for s in range(n):
        low = (1 << (s + 1)) - 1
        stack = [((s, v), low | 1 << v) for v in _bits(adj[s] & ~low)]
        while stack:
            path, blocked = stack.pop()
            last = path[-1]
            for w in _bits(adj[last] & ~blocked):
                if not adj[s] >> w & 1:
                    stack.append((path + (w,), blocked | 1 << w | adj[last]))
                elif path[1] < w:
                    cycles.append(path + (w,))
    return cycles


def _is_oriented(B: ExchangeMatrix, cycle: tuple[int, ...]) -> bool:
    """Whether the arrows of the cycle (0-based) all run one way round."""
    signs = {B.rows[cycle[k - 1]][cycle[k]] > 0 for k in range(len(cycle))}
    return len(signs) == 1


def _admissible_companion(
    B: ExchangeMatrix, cycles: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """The quasi-Cartan companion with an odd number of positive a_ij on each cycle.

    One unknown per edge, 1 when a_ij > 0, solved over GF(2) by
    elimination on bit masks; free unknowns take 0 (a_ij < 0).  BGZ show
    the system is solvable once every chordless cycle is oriented.
    """
    n = B.n
    edge: dict[tuple[int, int], int] = {}  # both orientations of an edge share its bit
    for i in range(n):
        for j in range(i + 1, n):
            if B.rows[i][j]:
                edge[i, j] = edge[j, i] = 1 << (len(edge) // 2)
    pivots: list[tuple[int, int, int]] = []  # (pivot bit, row mask, right side), reduced
    for c in cycles:
        mask, rhs = sum(edge[c[k - 1], c[k]] for k in range(len(c))), 1
        for bit, row, side in pivots:
            if mask & bit:
                mask, rhs = mask ^ row, rhs ^ side
        if not mask:
            if rhs:
                raise InvariantViolation("no admissible companion for oriented cycles")
            continue
        bit = mask & -mask
        pivots = [(b, r ^ mask, t ^ rhs) if r & bit else (b, r, t) for b, r, t in pivots]
        pivots.append((bit, mask, rhs))
    positive = sum(bit for bit, _, side in pivots if side)
    return tuple(
        tuple(
            2 if i == j else abs(x) if edge.get((i, j), 0) & positive else -abs(x)
            for j, x in enumerate(row)
        )
        for i, row in enumerate(B.rows)
    )


def _first_nonpositive_minor(A: tuple[tuple[int, ...], ...], d: tuple[int, ...]) -> int:
    """0 if every leading principal minor of D·A is positive, else the first order that is not.

    Fraction-free (Bareiss) elimination on integers: the k-th pivot is
    the k-th leading minor, and each division by the previous pivot is
    exact.
    """
    M = [[d[i] * x for x in row] for i, row in enumerate(A)]
    n, prev = len(M), 1
    for k in range(n):
        pivot = M[k][k]
        if pivot <= 0:
            return k + 1
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (pivot * M[i][j] - M[i][k] * M[k][j]) // prev
        prev = pivot
    return 0


def _bgz_decision(B: ExchangeMatrix, budget: int) -> Decision:
    """Finite type from B alone, with no search.

    A pair with |b_ij b_ji| > 3 answers "no" with the bound witness the
    class search would find first, at the root.
    """
    hit = _violating_pair(B, 3)
    if hit is not None:
        return Decision("no", BoundWitness((), *hit), budget)
    cycles = _chordless_cycles(B)
    for c in cycles:
        if not _is_oriented(B, c):
            cycle = tuple(v + 1 for v in c)
            return Decision("no", None, budget, FiniteTypeCertificate(cycle, None, 0))
    A = _admissible_companion(B, cycles)
    certificate = FiniteTypeCertificate(None, A, _first_nonpositive_minor(A, B.symmetrizer))
    return Decision("yes" if certificate.finite else "no", None, budget, certificate)


def _witnessed(theorem: Decision, found: Decision) -> Decision:
    """A finite-type "no" of the theorem, with the search's bound witness if it found one.

    A search that closes the class without a violation contradicts the
    theorem (FZ: infinite type has a product over 3 in its class).
    """
    if found.status == "yes":
        raise InvariantViolation("a closed class search contradicts infinite type")
    return found if found.status == "no" else theorem


def _violating_pair(M: ExchangeMatrix, bound: int) -> tuple[int, int, int] | None:
    for i in range(1, M.n + 1):
        for j in range(i + 1, M.n + 1):
            product = abs(M.entry(i, j) * M.entry(j, i))
            if product > bound:
                return i, j, product
    return None


def _bounded_class_search(
    B: ExchangeMatrix, bounds: tuple[int, ...], budget: int
) -> tuple[Decision, ...]:
    """One BFS of the mutation class deciding each product bound in bounds.

    A bound's answer is "no" at its first violation, and the walk stops
    once every bound has one; with ascending bounds that is the first
    violation of the last.  Each new matrix is checked before the budget
    is, so the first matrix past the budget can still give "no".
    """
    witnesses: dict[int, BoundWitness] = {}

    def violates(M: ExchangeMatrix, word: tuple[int, ...]) -> bool:
        for bound in bounds:
            if bound not in witnesses:
                hit = _violating_pair(M, bound)
                if hit is not None:
                    witnesses[bound] = BoundWitness(word, *hit)
        return len(witnesses) == len(bounds)

    _, _, _, complete = _closure(B, (), _mutation_moves(B.n), budget, visit=violates)
    open_status = "yes" if complete else "unknown"
    return tuple(
        Decision("no", witnesses[bound], budget)
        if bound in witnesses
        else Decision(open_status, None, budget)
        for bound in bounds
    )


def _bound_decision(mclass: MatrixClass, bound: int, budget: int) -> Decision:
    """_bounded_class_search's answer, read off a class built to budget + 1."""
    for M, word in zip(mclass.matrices, mclass.words):
        hit = _violating_pair(M, bound)
        if hit is not None:
            return Decision("no", BoundWitness(word, *hit), budget)
    closed = mclass.complete and len(mclass) <= budget
    return Decision("yes" if closed else "unknown", None, budget)


def is_finite_mutation_type(B: ExchangeMatrix, budget: int) -> Decision:
    """Finitely many matrices in the class iff products stay <= 4 (rank >= 3).

    The class search answers first; where its budget cuts it, finite
    type (which implies finite mutation type) still gives "yes".
    """
    _require_count("budget", budget, 1)
    if B.n <= 2:
        # class is {B, -B}
        return Decision("yes", None, budget)
    found = _bounded_class_search(B, (4,), budget)[0]
    if found.status == "unknown":
        theorem = _bgz_decision(B, budget)
        if theorem.status == "yes":
            return theorem
    return found


def is_finite_type(B: ExchangeMatrix, budget: int) -> Decision:
    """Finitely many seeds, decided by the Barot–Geiss–Zelevinsky test.

    The answer does not depend on the budget.  A "yes" carries the
    positive admissible companion as its certificate.  A "no" carries
    the first bound witness (a class member with |b_ij b_ji| > 3) of a
    class search of `budget` matrices; when that search is cut first,
    it carries the theorem's obstruction as its certificate instead.
    """
    _require_count("budget", budget, 1)
    theorem = _bgz_decision(B, budget)
    if theorem.status == "yes" or theorem.witness is not None:
        return theorem
    return _witnessed(theorem, _bounded_class_search(B, (3,), budget)[0])


@dataclass(frozen=True)
class MSearch:
    """Best v seen over the explored class, plus an acyclic representative."""

    min_v: int
    min_v_word: tuple[int, ...]
    acyclic_word: tuple[int, ...] | None
    complete: bool
    matrices_seen: int
    budget: int

    @property
    def m_certified(self) -> bool:
        # v >= 1 for any nonzero matrix, so min_v == 1 meets the infimum;
        # a complete class search also pins it exactly
        return self.min_v <= 1 or self.complete


def search_m_and_acyclic(B: ExchangeMatrix, budget: int) -> MSearch:
    return _m_search(matrix_mutation_class(B, max_matrices=budget), budget)


def _m_search(mclass: MatrixClass, budget: int) -> MSearch:
    """The m-invariant search over the first `budget` matrices of mclass."""
    matrices = mclass.matrices[:budget]
    min_v = None
    min_word: tuple[int, ...] = ()
    acyclic_word = None
    for M, word in zip(matrices, mclass.words):
        v = M.v()
        if min_v is None or v < min_v:
            min_v, min_word = v, word
        if acyclic_word is None and M.is_acyclic():
            acyclic_word = word
    complete = mclass.complete and len(mclass) <= budget
    return MSearch(min_v, min_word, acyclic_word, complete, len(matrices), budget)


@dataclass(frozen=True)
class Main1Flags:
    """Sufficient conditions for W to exhaust the equivariant group."""

    i: bool
    ii: bool
    iii: bool

    def to_json_dict(self) -> dict:
        return {"i": self.i, "ii": self.ii, "iii": self.iii}


def _edge_is_simple(B: ExchangeMatrix, i: int, j: int) -> bool:
    return abs(B.entry(i, j)) == 1


def main1_conditions(B: ExchangeMatrix, budget: int) -> Main1Flags:
    """Evaluate the three quiver conditions; flags mean established-within-budget.

    (i)  the class contains a matrix with all entries in {-1,0,1};
    (ii) acyclic, v(B)=2, and the underlying graph has no 3-cycles;
    (iii) acyclic, v(B)=2, and every underlying 3-cycle has a simple edge.
    """
    if not B.is_skew_symmetric():
        raise ValueError("the quiver conditions need a skew-symmetric matrix")
    return _main1_flags(B, search_m_and_acyclic(B, budget).min_v)


def _main1_flags(B: ExchangeMatrix, min_v: int) -> Main1Flags:
    """The three conditions, given the least v found in the class."""
    flag_i = min_v == 1
    acyclic = B.is_acyclic()
    v2 = B.v() == 2
    triangles = B.underlying_triangles()
    flag_ii = acyclic and v2 and not triangles
    flag_iii = (
        acyclic
        and v2
        and all(
            _edge_is_simple(B, a, b)
            or _edge_is_simple(B, b, c)
            or _edge_is_simple(B, a, c)
            for a, b, c in triangles
        )
    )
    return Main1Flags(flag_i, flag_ii, flag_iii)


def dynkin_type(B: ExchangeMatrix) -> tuple[str, int] | None:
    """Best-effort Dynkin label and Coxeter number for a tree-shaped diagram.

    Purely cosmetic: classification decisions never consult this.
    """
    n = B.n
    if n == 1:
        return "A1", 2
    edges = B.underlying_edges()
    if len(edges) != n - 1 or not B.is_indecomposable():
        return None
    weights = {e: abs(B.entry(*e) * B.entry(e[1], e[0])) for e in edges}
    heavy = sorted(w for w in weights.values() if w > 1)
    degree = {i: 0 for i in range(1, n + 1)}
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    is_path = max(degree.values()) <= 2

    if not heavy:
        if is_path:
            return f"A{n}", n + 1
        branch = [v for v, d in degree.items() if d >= 3]
        if len(branch) != 1 or max(degree.values()) > 3:
            return None
        arms = sorted(_arm_lengths(edges, branch[0], n))
        if arms[0] == 1 and arms[1] == 1:
            return f"D{n}", 2 * n - 2
        if arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4):
            rank = 4 + arms[2]
            h = {6: 12, 7: 18, 8: 30}[rank]
            return f"E{rank}", h
        return None
    if heavy == [2] and is_path:
        (edge,) = [e for e, w in weights.items() if w == 2]
        a, b = edge
        if n == 2:
            return "B2", 4
        if degree[a] == 1 or degree[b] == 1:
            return f"B/C{n}", 2 * n
        if n == 4:
            return "F4", 12
        return None
    if heavy == [3] and n == 2:
        return "G2", 6
    return None


def _arm_lengths(edges: list[tuple[int, int]], branch: int, n: int) -> list[int]:
    adj = {i: [] for i in range(1, n + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    arms = []
    for start in adj[branch]:
        length = 0
        prev, cur = branch, start
        while cur is not None:
            length += 1
            nxt = [w for w in adj[cur] if w != prev]
            prev, cur = cur, (nxt[0] if nxt else None)
        arms.append(length)
    return arms


@dataclass
class Classification:
    """The full decision record for one exchange matrix."""

    finite_type: str
    finite_mutation_type: str
    mutation_acyclic: str
    v: int
    m_upper_bound: int
    m_witness: tuple[int, ...]
    m_exact: bool
    main1: Main1Flags | None
    finite_type_witness: BoundWitness | None
    finite_mutation_type_witness: BoundWitness | None
    mutation_acyclic_witness: tuple[int, ...] | None
    dynkin: str | None
    budget: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "finite_type": self.finite_type,
                "finite_type_witness": (
                    self.finite_type_witness.to_json_dict()
                    if self.finite_type_witness
                    else None
                ),
                "finite_mutation_type": self.finite_mutation_type,
                "finite_mutation_type_witness": (
                    self.finite_mutation_type_witness.to_json_dict()
                    if self.finite_mutation_type_witness
                    else None
                ),
                "mutation_acyclic": self.mutation_acyclic,
                "mutation_acyclic_witness": (
                    list(self.mutation_acyclic_witness)
                    if self.mutation_acyclic_witness is not None
                    else None
                ),
                "v": self.v,
                "m_upper_bound": self.m_upper_bound,
                "m_witness": list(self.m_witness),
                "m_exact": self.m_exact,
                "main1_conditions": self.main1.to_json_dict() if self.main1 else None,
                "dynkin": self.dynkin,
                "budget": self.budget,
            },
            indent=2,
        )


def _render(status: str, budget: int) -> str:
    return status if status != "unknown" else f"unknown(budget={budget})"


def classify(B: ExchangeMatrix, budget: int) -> Classification:
    """Every decision for B from a single walk of its mutation class.

    Finite type comes from the Barot–Geiss–Zelevinsky test, as in
    is_finite_type.  The class is built once, to budget + 1 matrices:
    the bound searches (the witness of a finite-type "no", finite
    mutation type) also examine the first matrix past their budget,
    while the m-invariant and acyclicity search reads only the first
    budget matrices.  Each field equals what the standalone functions
    return for the same budget.
    """
    _require_count("budget", budget, 1)
    theorem = _bgz_decision(B, budget)
    mclass = matrix_mutation_class(B, budget + 1)
    if theorem.status == "yes":
        ft = theorem
    else:
        ft = _witnessed(theorem, _bound_decision(mclass, 3, budget))
    if B.n <= 2:
        fmt = Decision("yes", None, budget)
    else:
        fmt = _bound_decision(mclass, 4, budget)
        if fmt.status == "unknown" and ft.status == "yes":
            fmt = ft
    msearch = _m_search(mclass, budget)
    if msearch.acyclic_word is not None:
        acyclic_status = "yes"
    elif msearch.complete:
        acyclic_status = "no"
    else:
        acyclic_status = "unknown"
    if ft.status == "yes" and (fmt.status != "yes" or acyclic_status == "no"):
        raise InvariantViolation(
            "finite type must imply finite mutation type and mutation-acyclic"
        )
    main1 = _main1_flags(B, msearch.min_v) if B.is_skew_symmetric() else None
    dynkin = dynkin_type(B)
    return Classification(
        _render(ft.status, budget),
        _render(fmt.status, budget),
        _render(acyclic_status, budget),
        B.v(),
        msearch.min_v,
        msearch.min_v_word,
        msearch.m_certified,
        main1,
        ft.witness,
        fmt.witness,
        msearch.acyclic_word,
        dynkin[0] if dynkin else None,
        budget,
    )


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the automorphism-finiteness probe.

    An "infinite" answer carries a matrix period none of whose first
    powers_checked (the budget) powers returns the seed.  The powers are
    checked on principal-coefficient keys, exact by synchronicity; that
    shows an order above the budget, not an infinite group.  Replaying
    redoes both checks: the matrix period exactly, the powers on keys.
    """

    status: str  # finite | infinite | unknown
    witness: tuple[int, ...] | None
    powers_checked: int
    budget: int

    def replay(self, s: LabeledSeed) -> bool:
        if self.status != "infinite":
            return True
        ident = Permutation.identity(s.rank)
        return (
            is_sigma_period(s.matrix, self.witness, ident).holds
            and _return_power(s, self.witness, self.powers_checked) is None
        )


def _alternating_return_word(
    B: ExchangeMatrix, access: tuple[int, ...], i: int, j: int, budget: int
) -> tuple[int, ...] | None:
    """Conjugated return of the (i,j)-alternating walk started at apply(B, access).

    Inside a finite mutation class the walk must revisit a matrix; the
    enclosed segment is a period there and conjugation carries it back
    to B.  The walk steps B's rows (see periodicity._side_step) and
    builds no ExchangeMatrix; the probe replays the word it returns.
    """
    side = _principal_side(B)
    for k in access:
        side = _side_step(side, k)
    seen = {side[0]: 0}
    walk: list[int] = []
    for step in range(2 * budget):
        k = i if step % 2 == 0 else j
        side = _side_step(side, k)
        walk.append(k)
        pos = seen.get(side[0])
        if pos is not None:
            prefix = access + tuple(walk[:pos])
            segment = tuple(walk[pos:])
            return prefix + segment + inverse_sequence(prefix)
        seen[side[0]] = step + 1
    return None


def automorphism_finiteness_probe(s: LabeledSeed, budget: int) -> ProbeResult:
    """finite / infinite(witness) / unknown for the automorphism group.

    Finite type, decided as in is_finite_type at any budget, forces a
    finite group.  Otherwise one class walk of `budget` matrices looks
    for the first bound violation; if it finds none, the answer is
    "unknown".  Else the answer is "infinite" with the first candidate
    matrix period none of whose first `budget` powers, checked on keys
    (see ProbeResult), returns the seed; candidates come from the
    bound-violation walk, the source/sink composite of a bipartite
    matrix, and a short generic period search, in that order.  The two
    words built here are replayed on B by exchange._require_replays, and
    the search replays its own periods.  A decomposable matrix is
    refused with DecomposableMatrix, as the group enumerations refuse it.
    """
    _require_count("budget", budget, 1)
    B = s.matrix
    _require_indecomposable(B, "the finiteness probe")
    theorem = _bgz_decision(B, budget)
    if theorem.status == "yes":
        return ProbeResult("finite", None, 0, budget)
    # one walk answers both bounds; a product over 4 is also over 3
    found, fmt = _bounded_class_search(B, (3, 4), budget)
    ft = _witnessed(theorem, found)
    if B.n <= 2:
        fmt = Decision("yes", None, budget)
    if ft.witness is None:
        return ProbeResult("unknown", None, 0, budget)

    candidates: list[tuple[int, ...]] = []
    if fmt.status == "yes" and ft.witness is not None:
        w = ft.witness
        word = _alternating_return_word(B, w.sequence, w.i, w.j, budget)
        if word is not None:
            candidates.append(word)
    eps = B.bipartition()
    if eps is not None:
        sinks = [k for k in range(1, B.n + 1) if eps[k - 1] == -1]
        sources = [k for k in range(1, B.n + 1) if eps[k - 1] == +1]
        candidates.append(tuple(sinks + sources))
    _require_replays(B, dict.fromkeys(candidates, B), "probe candidate")
    candidates.extend(find_periods(B, Permutation.identity(B.n), max_len=min(B.n + 1, 4)))

    for word in candidates:
        if _return_power(s, word, budget) is None:
            return ProbeResult("infinite", word, budget, budget)
    return ProbeResult("unknown", None, budget, budget)

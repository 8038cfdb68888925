"""Classification of exchange matrices by their mutation class.

Finite type is decided from B alone by the Barot–Geiss–Zelevinsky test
(math/0411341) at any budget: a "yes" carries the positive admissible
quasi-Cartan companion, a "no" the class walk's first 2x2 product over 3
if the budget reaches one, else the theorem's obstruction.  Finite
mutation type is the class-wide product bound 4 on each component of
rank >= 3 (a component of rank <= 2 has a two-matrix class); finite type
implies it (Fomin–Zelevinsky, math/0208229).  One breadth-first walk,
_bounded_class_search, reads every class: the first violation of each
bound and, when asked, the least v and an acyclic member, for the
m-invariant bound, mutation-acyclicity, the three sufficient
relabeling-transitivity conditions and the automorphism-finiteness
probe.  The diagram questions here (chordless cycles, components, the
companion's edges) read exchange's one reader of B's diagram, as does
the cosmetic Dynkin label exchange.dynkin_type.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .errors import InvariantViolation
from .exchange import (
    ExchangeMatrix,
    Permutation,
    _bits,
    _closure,
    _components,
    _mutation_moves,
    _neighbours,
    _require_count,
    _require_indecomposable,
    _require_index,
    _require_replays,
    dynkin_type,
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
                and type(self.cycle) is tuple
                and all(type(v) is int for v in self.cycle)  # 1.0 == 1 would pass `in`
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


def _chordless_cycles(B: ExchangeMatrix) -> list[tuple[int, ...]]:
    """Every chordless cycle of B's diagram, 0-based, once each.

    A cycle is listed from its least vertex s, in the direction whose
    second vertex is below its last: induced paths from s through larger
    vertices grow one vertex at a time, and a path closes at a vertex
    adjacent to s.  `blocked` holds the path, the vertices up to s and
    every neighbour of an inner path vertex, none of which may come next.
    """
    n = B.n
    adj = _neighbours(B)
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
    edge: dict[tuple[int, int], int] = {}  # both orientations of an edge share its bit
    for i, j in B.underlying_edges():
        edge[i - 1, j - 1] = edge[j - 1, i - 1] = 1 << (len(edge) // 2)
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
    class walk would find first, at the root.
    """
    hit = _violating_pair(B, 3, tuple(range(B.n)))
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


def _refuting_vertices(B: ExchangeMatrix, bound: int) -> tuple[int, ...]:
    """The vertices (0-based) among whose pairs a class member can break bound.

    Any pair can break bound 3.  Bound 4 holds on a component of rank <= 2,
    whose class is {C, -C}, so only a pair in a component of three or more
    vertices can break it, and those components' vertices are returned.
    Mutation keeps components: b_ij changes only when i and j are both
    adjacent to k.
    """
    if bound == 3:
        return tuple(range(B.n))
    components = _components(_neighbours(B), (1 << B.n) - 1)
    return tuple(_bits(sum(c for c in components if c.bit_count() >= 3)))


def _violating_pair(
    M: ExchangeMatrix, bound: int, vertices: tuple[int, ...]
) -> tuple[int, int, int] | None:
    rows = M.rows
    for a, i in enumerate(vertices):
        for j in vertices[a + 1 :]:
            product = abs(rows[i][j] * rows[j][i])
            if product > bound:
                return i + 1, j + 1, product
    return None


@dataclass(frozen=True)
class MSearch:
    """Best v seen over the explored class, plus an acyclic representative."""

    min_v: int
    min_v_word: tuple[int, ...]
    acyclic_word: tuple[int, ...] | None
    complete: bool
    budget: int

    @property
    def m_certified(self) -> bool:
        # v >= 1 for any nonzero matrix, so min_v == 1 meets the infimum;
        # a complete class search also pins it exactly
        return self.min_v <= 1 or self.complete


def _bounded_class_search(
    B: ExchangeMatrix, bounds: tuple[int, ...], budget: int, m_search: bool = False
) -> tuple[dict[int, Decision], MSearch | None]:
    """One BFS of the mutation class: the one walk behind every decision here.

    A bound reads "no" at its first violation among the matrices the walk
    meets, the first past the budget included; "yes" when the walk closes
    the class or no pair can break the bound; else "unknown".  m_search
    adds MSearch over the first `budget` matrices and walks to the budget;
    without it the walk stops once every breakable bound has a witness.
    """
    vertices = {bound: _refuting_vertices(B, bound) for bound in bounds}
    breakable = [bound for bound in bounds if vertices[bound]]
    witnesses: dict[int, BoundWitness] = {}

    def visit(M: ExchangeMatrix, word: tuple[int, ...]) -> bool:
        for bound in breakable:
            if bound not in witnesses:
                hit = _violating_pair(M, bound, vertices[bound])
                if hit is not None:
                    witnesses[bound] = BoundWitness(word, *hit)
        return not m_search and len(witnesses) == len(breakable)

    items, words, _, complete = _closure(B, (), _mutation_moves(B.n), budget, visit=visit)
    decisions = {
        bound: Decision("no", witnesses[bound], budget)
        if bound in witnesses
        else Decision("yes" if complete or not vertices[bound] else "unknown", None, budget)
        for bound in bounds
    }
    if not m_search:
        return decisions, None
    v = [M.v() for M in items]
    least = v.index(min(v))
    acyclic = next((word for M, word in zip(items, words) if M.is_acyclic()), None)
    return decisions, MSearch(v[least], words[least], acyclic, complete, budget)


def _finite_type(B: ExchangeMatrix, theorem: Decision, found: dict | None = None) -> Decision:
    """The theorem's finite type; a "no" carries the walk's first bound-3 witness.

    Without the caller's walk (found), one is made here unless that witness
    is the root's.  A walk closing the class without one contradicts the
    theorem (FZ: infinite type has a product over 3 in its class).
    """
    if theorem.status == "yes" or theorem.witness is not None:
        return theorem
    if found is None:
        found, _ = _bounded_class_search(B, (3,), theorem.budget)
    if found[3].status == "yes":
        raise InvariantViolation("a closed class search contradicts infinite type")
    return found[3] if found[3].status == "no" else theorem


def _finite_mutation_type(
    B: ExchangeMatrix, found: dict[int, Decision], theorem: Decision | None = None
) -> Decision:
    """The walk's bound-4 answer, or finite type's "yes" where the budget cuts the walk.

    theorem is the caller's _bgz_decision, made here only when it is None.
    """
    fmt = found[4]
    if fmt.status == "unknown":
        theorem = theorem or _bgz_decision(B, fmt.budget)
        if theorem.status == "yes":
            return theorem
    return fmt


def is_finite_mutation_type(B: ExchangeMatrix, budget: int) -> Decision:
    """Finitely many matrices in the class iff products stay <= 4 (rank >= 3).

    The bound applies per component of rank >= 3, since one of rank <= 2
    has a two-matrix class: a matrix whose components all have rank <= 2
    reads "yes" at any budget.  Else the class walk answers; where its
    budget cuts it, finite type (implying finite mutation type) gives "yes".
    """
    _require_count("budget", budget, 1)
    return _finite_mutation_type(B, _bounded_class_search(B, (4,), budget)[0])


def is_finite_type(B: ExchangeMatrix, budget: int) -> Decision:
    """Finitely many seeds, decided by the Barot–Geiss–Zelevinsky test.

    The answer does not depend on the budget.  A "yes" carries the
    positive admissible companion as its certificate.  A "no" carries
    the first bound witness (a class member with |b_ij b_ji| > 3) of a
    class walk of `budget` matrices; when that walk is cut first, it
    carries the theorem's obstruction as its certificate instead.
    """
    _require_count("budget", budget, 1)
    return _finite_type(B, _bgz_decision(B, budget))


def search_m_and_acyclic(B: ExchangeMatrix, budget: int) -> MSearch:
    """The least v and the first acyclic member over `budget` matrices of the class."""
    _require_count("budget", budget, 1)
    return _bounded_class_search(B, (), budget, m_search=True)[1]


@dataclass(frozen=True)
class Main1Flags:
    """Sufficient conditions for W to exhaust the equivariant group."""

    i: bool
    ii: bool
    iii: bool


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


@dataclass
class Classification:
    """The full decision record for one exchange matrix."""

    finite_type: str
    finite_type_witness: BoundWitness | None
    finite_mutation_type: str
    finite_mutation_type_witness: BoundWitness | None
    mutation_acyclic: str
    mutation_acyclic_witness: tuple[int, ...] | None
    v: int
    m_upper_bound: int
    m_witness: tuple[int, ...]
    m_exact: bool
    main1_conditions: Main1Flags | None
    dynkin: str | None
    budget: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _render(status: str, budget: int) -> str:
    return status if status != "unknown" else f"unknown(budget={budget})"


def classify(B: ExchangeMatrix, budget: int) -> Classification:
    """Every decision for B from a single walk of its mutation class.

    The walk reads the bounds and the m-search to the budget, and finite
    type, finite mutation type, m and acyclicity read it through the
    helpers of is_finite_type, is_finite_mutation_type and
    search_m_and_acyclic: each field equals what the standalone function
    returns for the same budget.
    """
    _require_count("budget", budget, 1)
    theorem = _bgz_decision(B, budget)
    # finite type's "yes" reads no bound-3 witness
    bounds = (4,) if theorem.status == "yes" else (3, 4)
    found, msearch = _bounded_class_search(B, bounds, budget, m_search=True)
    ft = _finite_type(B, theorem, found)
    fmt = _finite_mutation_type(B, found, theorem)
    acyclic_status = (
        "yes" if msearch.acyclic_word is not None else "no" if msearch.complete else "unknown"
    )
    if ft.status == "yes" and (fmt.status != "yes" or acyclic_status == "no"):
        raise InvariantViolation(
            "finite type must imply finite mutation type and mutation-acyclic"
        )
    main1 = _main1_flags(B, msearch.min_v) if B.is_skew_symmetric() else None
    dynkin = dynkin_type(B)
    return Classification(
        _render(ft.status, budget),
        ft.witness,
        _render(fmt.status, budget),
        fmt.witness,
        _render(acyclic_status, budget),
        msearch.acyclic_word,
        B.v(),
        msearch.min_v,
        msearch.min_v_word,
        msearch.m_certified,
        main1,
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
    # one walk answers both bounds
    found, _ = _bounded_class_search(B, (3, 4), budget)
    ft = _finite_type(B, theorem, found)
    if ft.witness is None:
        return ProbeResult("unknown", None, 0, budget)

    candidates: list[tuple[int, ...]] = []
    if _finite_mutation_type(B, found, theorem).status == "yes":
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

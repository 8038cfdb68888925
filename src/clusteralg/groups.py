"""Group machinery over mutation periodicity.

Enumeration of strict and direct automorphism groups, the
permutation-periodic groups L and P, and equivariant bijections of a
closed orbit together with its sign-fixing subgroup W.  SAut+, P and
Aut+ are all read off one mutation-only orbit, and L off the matrix
mutation class; only the equivariant bijections need the orbit closed
under relabeling too.  Each B^sigma is built once, into one table that
L, P and Aut+ read; Aut+ does not read L, so |Aut+| |P| = |SAut+| |L|
compares two sides computed apart.

Cardinalities are never guessed: every order is either an exact integer
from a closed enumeration (or, for L and P at rank 2, the rank-2 rules)
or an explicit unknown carrying the budget it failed at.

Every reported element and witness is a word replayed exactly on the
initial seed or matrix before it is returned, and every replay is the
package's one check of a reported word, exchange._require_replays: the
words are replayed along their prefix tree (exchange._replay), one
mutation per distinct nonempty prefix, and never read the orbit's memo
of exchange relations.  Group elements are keyed by value: L and P map
each member Permutation to its witness word.
"""

from __future__ import annotations

import json
from collections.abc import KeysView
from dataclasses import asdict, dataclass, field

from .errors import InvariantViolation
from .exchange import (
    ExchangeMatrix,
    MatrixClass,
    Permutation,
    _require_count,
    _require_indecomposable,
    _require_replays,
    all_permutations,
    matrix_mutation_class,
)
from .seeds import LabeledSeed, OrbitGraph, _reordered, orbit
from .symbolic import LaurentPoly


@dataclass(frozen=True)
class StrictAutomorphism:
    """A cluster self-map given on the initial cluster by a pure mutation path."""

    image_cluster: tuple[LaurentPoly, ...]
    witness: tuple[int, ...]


@dataclass(frozen=True)
class DirectAutomorphism:
    """Image of the initial cluster under sigma composed with a mutation path."""

    image_cluster: tuple[LaurentPoly, ...]
    witness_sigma: Permutation
    witness_sequence: tuple[int, ...]


@dataclass
class SautEnumeration:
    elements: list[StrictAutomorphism]
    complete: bool
    orbit_size: int
    budget: int

    @property
    def order(self) -> int | None:
        return len(self.elements) if self.complete else None


def enumerate_saut_plus(s: LabeledSeed, budget: int) -> SautEnumeration:
    """One strict automorphism per mutation-orbit seed carrying the initial matrix.

    An incomplete orbit yields a truncated, flagged enumeration; the
    elements found are still genuine.  Each element's word is replayed
    exactly on s by exchange._require_replays (one mutation per distinct
    nonempty prefix of the words) and must reach the element's cluster
    with the matrix B, or InvariantViolation is raised.
    """
    _require_count("budget", budget, 1)
    _require_indecomposable(s.matrix, "group enumeration")
    saut = _saut_from_orbit(s, orbit(s, max_seeds=budget, with_permutations=False), budget)
    _require_replays(
        s, {e.witness: LabeledSeed(e.image_cluster, s.matrix) for e in saut.elements}, "SAut+"
    )
    return saut


def _saut_from_orbit(s: LabeledSeed, graph: OrbitGraph, budget: int) -> SautEnumeration:
    """enumerate_saut_plus on an already built mutation-only orbit of s, before its replays."""
    elements = []
    for idx, t in enumerate(graph.seeds):
        if t.matrix == s.matrix:
            word, pi = graph.words[idx]
            if not pi.is_identity():
                raise InvariantViolation("mutation-only orbit produced a relabeling")
            elements.append(StrictAutomorphism(t.cluster, word))
    return SautEnumeration(elements, graph.complete, len(graph), budget)


@dataclass
class LPResult:
    """The permutation-periodic groups, with per-element certainty.

    L_witnesses and P_witnesses map each member, a Permutation, to a word
    replayed exactly before it is reported: an L word takes B to
    B^sigma, a P word takes s to s^sigma.  L_members and P_members are
    read-only views of their keys, in the order of all_permutations.
    P_certificates maps each permutation a rank-2 rule puts outside P to
    the reason.  The unknown lists hold permutations whose membership
    could not be settled within budget; exact means the group is fully
    determined (unknown list empty).
    """

    L_witnesses: dict[Permutation, tuple[int, ...]] = field(default_factory=dict)
    P_witnesses: dict[Permutation, tuple[int, ...]] = field(default_factory=dict)
    P_certificates: dict[Permutation, str] = field(default_factory=dict)
    L_unknown: list[Permutation] = field(default_factory=list)
    P_unknown: list[Permutation] = field(default_factory=list)
    budget: int = 0

    @property
    def L_members(self) -> KeysView[Permutation]:
        return self.L_witnesses.keys()

    @property
    def P_members(self) -> KeysView[Permutation]:
        return self.P_witnesses.keys()

    @property
    def L_exact(self) -> bool:
        return not self.L_unknown

    @property
    def P_exact(self) -> bool:
        return not self.P_unknown


_RANK2_L_WITNESS = (1,)
_A2_SWAP_WITNESS = (1, 2, 1, 2, 1)


def _rank2_swap_in_L(B: ExchangeMatrix, swapped: ExchangeMatrix) -> tuple[int, ...] | None:
    """A witness that B reaches its swapped matrix, or None when it cannot.

    The mutation class of a rank-2 matrix is {B, -B}, and the swapped
    matrix is -B exactly when b12 = -b21; the witness (1,) is replayed
    before it is returned.
    """
    if B.rows[0][1] != -B.rows[1][0]:
        return None
    _require_replays(B, {_RANK2_L_WITNESS: swapped}, "rank-2 L")
    return _RANK2_L_WITNESS


def _rank2_swap(s: LabeledSeed, swapped: LabeledSeed) -> tuple[int, ...] | str:
    """A witness that s reaches the swapped seed, or a certificate that it cannot.

    Read off bc = -b12 b21.  bc = 1 (type A2): the witness (1,2,1,2,1),
    replayed before it is returned.  Otherwise the swap is not in P: if
    b12 != -b21 it is not even in L, as the mutation class of a rank-2
    matrix is {B, -B}; if bc >= 4 the exchange graph is an infinite path
    with pairwise distinct cluster variables (Fomin-Zelevinsky, Cluster
    algebras I, section 6), so s is the only seed on it with its cluster.
    """
    b12, b21 = s.matrix.rows[0][1], s.matrix.rows[1][0]
    bc = -b12 * b21
    if bc == 1:
        _require_replays(s, {_A2_SWAP_WITNESS: swapped}, "rank-2 P")
        return _A2_SWAP_WITNESS
    if b12 != -b21:
        return f"rank 2, bc = {bc}: b12 != -b21, so the swap is not in L"
    return f"rank 2, bc = {bc} >= 4: the exchange graph is an infinite path"


def compute_L_P(s: LabeledSeed, budget: int) -> LPResult:
    """L = relabelings of B reachable by matrix mutation; P = same for the seed.

    Both are decided per permutation, in one pass over the matrix class
    and the mutation-only orbit (_lp_from_closures, whose table of B^sigma
    Aut+ reads too).  Closed searches give exact answers; a rank-2 search
    cut by the budget falls back to the rank-2 rules (_rank2_swap_in_L,
    _rank2_swap); anything else leaves the permutation unknown.  Every
    witness returned is replayed exactly once first, by
    exchange._require_replays: an L word on B must reach B^sigma, a P
    word on s must reach s^sigma.  The rank-2 rules replay their own
    witnesses; the reported witness of each closure target is replayed here.
    """
    _require_count("budget", budget, 1)
    _require_indecomposable(s.matrix, "group enumeration")
    mclass = matrix_mutation_class(s.matrix, max_matrices=budget)
    graph = orbit(s, max_seeds=budget, with_permutations=False)
    lp, _, l_targets, p_targets = _lp_from_closures(s, mclass, graph, budget)
    _require_replays(s.matrix, {lp.L_witnesses[g]: t for g, t in l_targets.items()}, "L")
    _require_replays(s, {lp.P_witnesses[g]: t for g, t in p_targets.items()}, "P")
    return lp


def _lp_from_closures(
    s: LabeledSeed, mclass: MatrixClass, graph: OrbitGraph, budget: int
) -> tuple[LPResult, dict, dict, dict]:
    """compute_L_P on an already built matrix class and mutation-only orbit.

    Returns the result, the relabeling table {sigma: B^sigma} over every
    permutation, one apply_permutation_matrix each, and the closure
    witnesses not yet replayed with the targets they must reach:
    {sigma: B^sigma} for L and {sigma: s^sigma} for P, read from the
    table.  The rank-2 rules replay their own witnesses.
    """
    n = s.rank
    out = LPResult(budget=budget)
    table = {sigma: s.matrix.permute(sigma) for sigma in all_permutations(n)}
    l_targets: dict[Permutation, ExchangeMatrix] = {}
    p_targets: dict[Permutation, LabeledSeed] = {}
    for sigma, target_m in table.items():
        found = mclass.find(target_m)
        if found is not None:
            out.L_witnesses[sigma] = mclass.words[found]
            l_targets[sigma] = target_m
        elif mclass.complete:
            pass
        elif n == 2:
            witness = _rank2_swap_in_L(s.matrix, target_m)
            if witness is not None:
                out.L_witnesses[sigma] = witness
        else:
            out.L_unknown.append(sigma)

        target_s = LabeledSeed(_reordered(s.cluster, sigma), target_m)
        sfound = graph.find(target_s)
        if sfound is not None:
            out.P_witnesses[sigma] = graph.words[sfound][0]
            p_targets[sigma] = target_s
        elif graph.complete:
            pass
        elif n == 2:
            answer = _rank2_swap(s, target_s)
            if isinstance(answer, str):
                out.P_certificates[sigma] = answer
            else:
                out.P_witnesses[sigma] = answer
        else:
            out.P_unknown.append(sigma)
    _verify_subgroups(out)
    return out, table, l_targets, p_targets


def _verify_subgroups(r: LPResult) -> None:
    """Closure, containment and normality checks on the exact parts."""
    pset, lset = r.P_members, r.L_members
    if r.P_exact and not pset <= lset and r.L_exact:
        raise InvariantViolation("P is not contained in L")
    for name, members, exact in (("L", lset, r.L_exact), ("P", pset, r.P_exact)):
        if exact and any(a.compose(b) not in members for a in members for b in members):
            raise InvariantViolation(f"{name} is not closed under composition")
    if r.L_exact and r.P_exact:
        for g in lset:
            ginv = g.inverse()
            for p in pset:
                if ginv.compose(p).compose(g) not in pset:
                    raise InvariantViolation("P is not normal in L")


def _order_field(value: int | None, budget: int) -> int | str:
    return value if value is not None else f"unknown(budget={budget})"


@dataclass
class GroupSummary:
    saut_order: int | str
    aut_plus_order: int | str
    L_order: int | str
    P_order: int | str
    exactness_verified: bool
    budget: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


@dataclass
class AutPlusEnumeration:
    """Aut+ with its summary; orbit_size counts the mutation-only orbit."""

    elements: list[DirectAutomorphism]
    complete: bool
    orbit_size: int
    summary: GroupSummary


def enumerate_aut_plus(s: LabeledSeed, budget: int) -> AutPlusEnumeration:
    """Direct automorphisms read off the mutation-only orbit and the relabeling table.

    A direct automorphism sends the initial seed to a seed t of the
    mutation-only orbit relabeled by some pi with t^pi carrying B, that
    is t.matrix == B^(pi^-1); pi is read from the inverted table
    {sigma: B^sigma} of _lp_from_closures, not from L (pi^-1 is in L, as
    t.matrix is in B's class).  One element per distinct image t^pi, t's
    cluster reordered by pi, witnessed by the orbit word of the first t
    reaching it.  Each distinct word is replayed exactly by
    exchange._require_replays and must reach the orbit seed t it was read
    from, one mutation per distinct nonempty prefix (on D4, 24 elements
    share 4 words and 13 prefixes).  The identity fixes B, so every orbit
    seed that carries B is an Aut+ image, and these replays check it: the
    SAut+ words are not replayed a second time, and neither are the L and
    P witnesses, of which only the orders are read.  The count is exact
    iff the orbit closes (the class of its matrices then closes too), and
    the summary cross-checks it against |SAut+| |L| / |P| when all four
    are exact.  The orbit is shared by SAut+, P and Aut+; the class by L.
    """
    _require_count("budget", budget, 1)
    _require_indecomposable(s.matrix, "group enumeration")
    plain = orbit(s, max_seeds=budget, with_permutations=False)
    mclass = matrix_mutation_class(s.matrix, max_matrices=budget)
    if plain.complete and not mclass.complete:
        raise InvariantViolation("the orbit closed but the matrix class did not")
    saut = _saut_from_orbit(s, plain, budget)
    lp, table, _, _ = _lp_from_closures(s, mclass, plain, budget)
    relabelings: dict[ExchangeMatrix, list[Permutation]] = {}
    for tau, m in table.items():
        relabelings.setdefault(m, []).append(tau.inverse())
    witnesses: dict[tuple[LaurentPoly, ...], tuple[tuple[int, ...], Permutation, LabeledSeed]] = {}
    for idx, t in enumerate(plain.seeds):
        for pi in relabelings.get(t.matrix, ()):
            witnesses.setdefault(_reordered(t.cluster, pi), (plain.words[idx][0], pi, t))
    # elements reached along one orbit word differ only in pi
    _require_replays(s, {word: t for word, _, t in witnesses.values()}, "Aut+")
    elements = [
        DirectAutomorphism(image, pi, word) for image, (word, pi, _) in witnesses.items()
    ]

    aut_order = len(elements) if plain.complete else None
    saut_order = saut.order
    l_order = len(lp.L_members) if lp.L_exact else None
    p_order = len(lp.P_members) if lp.P_exact else None

    exact = all(x is not None for x in (aut_order, saut_order, l_order, p_order))
    verified = False
    if exact:
        if aut_order * p_order != saut_order * l_order:
            raise InvariantViolation(
                "orders violate |Aut+| |P| = |SAut+| |L|: "
                f"{aut_order} * {p_order} != {saut_order} * {l_order}"
            )
        verified = True
    summary = GroupSummary(
        _order_field(saut_order, budget),
        _order_field(aut_order, budget),
        _order_field(l_order, budget),
        _order_field(p_order, budget),
        verified,
        budget,
    )
    return AutPlusEnumeration(elements, aut_order is not None, len(plain), summary)


@dataclass
class EquivariantResult:
    """Bijections of a closed orbit commuting with mutation and relabeling.

    Elements are stored as index maps over the orbit's seed list; W
    collects those whose value on the base seed carries the matrix B or
    -B.  aut_A_order counts orbit seeds with matrix B or -B, which is
    exactly the direct-plus-inverse automorphism count.
    """

    orbit_size: int
    elements: list[tuple[int, ...]]
    element_images: list[int]
    w_indices: list[int]
    aut_A_order: int
    kp_identity: bool

    @property
    def aut_order(self) -> int:
        return len(self.elements)

    @property
    def w_order(self) -> int:
        return len(self.w_indices)

    def verify_group(self) -> bool:
        """Closure under composition and inverses (finite sanity check)."""
        maps = {m for m in self.elements}
        for f in self.elements:
            g_inv = [0] * len(f)
            for i, v in enumerate(f):
                g_inv[v] = i
            if tuple(g_inv) not in maps:
                return False
            for g in self.elements:
                if tuple(f[v] for v in g) not in maps:
                    return False
        return True


def equivariant_automorphisms(S: OrbitGraph) -> EquivariantResult:
    """Enumerate the equivariant bijections of a closed orbit.

    A candidate is pinned down by the image of the base seed and
    propagated through the generator action tables, which are read off
    the orbit's recorded edges; it survives iff no generator edge
    disagrees and the result is a bijection.  Each of the N candidates
    costs at most one pass over the orbit's N*m edges (m generators),
    and no seed is mutated or relabeled.
    """
    if not S.with_permutations:
        raise ValueError("need an orbit closed under mutation and relabeling")
    if not S.complete:
        raise ValueError("refusing an orbit that was truncated by its budget")
    base = S.seeds[0]
    _require_indecomposable(base.matrix, "group enumeration")
    N = len(S)

    by_label: dict[str, list[int]] = {}
    for source, label, target in S.edges:
        by_label.setdefault(label, [-1] * N)[source] = target
    if len(by_label) != 2 * base.rank - 1 or any(-1 in T for T in by_label.values()):
        raise InvariantViolation("closed orbit is missing a generator image")
    edges = [(source, by_label[label], target) for source, label, target in S.edges]

    elements = []
    images = []
    for image0 in range(N):
        f = _propagate_candidate(edges, image0, N)
        if f is not None:
            elements.append(f)
            images.append(image0)

    B = base.matrix
    minus_B = -B
    w_indices = [
        i
        for i, image0 in enumerate(images)
        if S.seeds[image0].matrix in (B, minus_B)
    ]
    aut_A = sum(1 for t in S.seeds if t.matrix in (B, minus_B))
    return EquivariantResult(
        N, elements, images, w_indices, aut_A, len(w_indices) == aut_A
    )


def _propagate_candidate(
    edges: list[tuple[int, list[int], int]], image0: int, N: int
) -> tuple[int, ...] | None:
    """The equivariant map sending the base seed to image0, if there is one.

    One pass over the orbit's edges (source, T, target), T the
    generator's action table, in discovery order: the edge that
    discovers a seed sets its image to T[f(source)], and every other
    edge must agree with the images already set.  The candidate fails at
    the first edge that does not, or when the images are not a bijection.
    """
    f = [-1] * N
    f[0] = image0
    for source, T, target in edges:
        image = T[f[source]]
        if f[target] < 0:
            f[target] = image
        elif f[target] != image:
            return None
    if len(set(f)) != N:
        return None
    return tuple(f)

"""Periodicity of matrices and seeds under mutation sequences.

A sequence i is a sigma-period of a target T when relabeling the
mutated target by sigma gives T back: permute(apply(T, i), sigma) == T.
The same predicate drives period searches, the bipartite belt, the
restriction/extension harness, and the period-set distinguisher.

Every walk here (find_periods, is_sigma_period, the distinguisher)
runs on plain integer rows stepped by exchange._mutate_rows, the rule
of mutate_matrix, and builds no ExchangeMatrix; each step checks the
new B against the root's symmetrizer, as mutate_matrix does.  A matrix
walks the n rows of B, which are the matrix.  A seed walks the 2n rows
of its principal-coefficient key [B; C] (see exchange._principal_rows):
by synchronicity a seed returns along a sequence exactly when its key
does.  The type of the target is read only for the walk's start and
the report's kind.  So is_sigma_period answers "no" from the rows
alone, with nothing mutated, and every "yes" it gives and every period
a search reports is first replayed exactly on the target: Laurent
arithmetic for a seed, mutate_matrix for a matrix.  find_periods
replays its hits through exchange._replay, the package's one replay of
reported words.  A matrix replay repeats the walk's integer rule
through the validating constructor, so it checks the walk's goal and
bookkeeping, not the rule itself.

The key walks of seeds also carry H = C^-1, whose rows are the
g-vectors by tropical duality (Nakanishi-Zelevinsky, arXiv:1101.3736).
Mutation at k rewrites row k of H only, a step that rests on the sign
coherence of the c-vectors (Gross-Hacking-Keel-Kontsevich,
arXiv:1411.1394).  So a key whose H differs from the goal's in d rows
needs at least d more letters to return, and the walks skip every
subtree where no return fits in the letters left.  A skipped subtree holds no hit, so the
outputs and their order are those of the full walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne
from typing import Any, Callable, Iterator, Sequence, Union

from .errors import InvariantViolation, NotBipartite
from .exchange import (
    ExchangeMatrix,
    Permutation,
    _mutate_rows,
    _permute_rows,
    _principal_rows,
    _replay,
    _require_count,
    _require_permutation,
    validate_sequence,
)
from .seeds import LabeledSeed, apply_sequence, inverse_sequence

Target = Union[ExchangeMatrix, LabeledSeed]


@dataclass(frozen=True)
class PeriodReport:
    sequence: tuple[int, ...]
    sigma: Permutation
    kind: str  # "matrix-period" | "seed-period"
    holds: bool


def is_sigma_period(target: Target, seq: Sequence[int], sigma: Permutation) -> PeriodReport:
    """Does mutating along seq return target up to relabeling by sigma?

    The answer is read off the rows of the walk from the target (see
    _principal_side): a matrix's B, a seed's key [B; C].  When the rows
    do not reach the goal of find_periods the answer is no, and nothing
    is mutated.  For a seed that "no" is exact by synchronicity, and it
    holds for a subseed too, even one whose exchange relations are not
    Laurent.  When the rows do reach the goal, the answer is the exact
    replay target.apply(seq).permute(sigma) == target, and a replay that
    disagrees with the rows raises InvariantViolation.
    """
    seq = validate_sequence(seq, target.rank)
    _require_permutation(sigma, target.rank)
    kind = "seed-period" if isinstance(target, LabeledSeed) else "matrix-period"
    side = start = _principal_side(target)
    for k in seq:
        side = _side_step(side, k)
    if side[0] != _permute_rows(start[0], sigma.inverse()):
        return PeriodReport(seq, sigma, kind, False)
    if target.apply(seq).permute(sigma) != target:
        raise InvariantViolation(f"row period {seq} failed its exact replay")
    return PeriodReport(seq, sigma, kind, True)


def find_periods(
    target: Target,
    sigma: Permutation,
    max_len: int,
    essential_only: bool = True,
) -> list[tuple[int, ...]]:
    """All nonempty sigma-periods of length <= max_len, sorted by (length, lex).

    The empty sequence (a period of anything when sigma is the identity)
    is never listed.  The walk runs on plain integer rows with no
    ExchangeMatrix per node (see _principal_side): a matrix's B, a
    seed's key [B; C].  A sequence is a hit when its rows, relabeled by
    sigma, are the target's rows: when they are the target's rows
    relabeled by sigma^-1.  The walk shares mutation prefixes, so it
    costs one row step per visited sequence node.  Its hits are then
    replayed exactly on the target by exchange._replay before any is
    listed, one target.mutate per distinct nonempty prefix of the hits,
    and a hit whose replay does not return raises InvariantViolation.
    A seed's walk also carries the g-vector rows H = C^-1 and skips
    every subtree whose H differs from the goal's in more rows than it
    has letters left; a matrix's walk visits every sequence.
    """
    _require_count("max_len", max_len, 0)
    _require_permutation(sigma, target.rank)
    n = target.rank
    start = _principal_side(target)
    goal = _permute_rows(start[0], sigma.inverse())
    # a seed goal's C is a permutation matrix, so its inverse is its transpose
    goal_h = tuple(zip(*goal[n:]))
    bound = None if start[1] is None else lambda side: _rows_apart(side[1], goal_h)
    walk = _walk(start, n, max_len, _side_step, essential_only, bound=bound)
    found = [seq for seq, (rows, _, _) in walk if rows == goal]
    for seq, end in _replay(target, found):
        if end.permute(sigma) != target:
            raise InvariantViolation(f"row period {seq} failed its exact replay")
    return sorted(found, key=lambda t: (len(t), t))


def _walk(
    start: Any,
    n: int,
    max_len: int,
    step: Callable[[Any, int], Any],
    essential_only: bool = True,
    bound: Callable[[Any], int] | None = None,
) -> Iterator[tuple[tuple[int, ...], Any]]:
    """Yield (seq, state) for every sequence of length 1..max_len over [1,n].

    The package's one sequence walker: depth first in lexicographic
    order, each prefix before its extensions, with state =
    step(parent state, last letter), so a prefix is mutated once for all
    its extensions.  Iterative, because max_len may exceed the
    interpreter's recursion limit, and lazy: a sequence's state is
    computed only when the walk reaches it.

    bound(state), when given, is a lower bound on the further letters
    after which a state can be a hit.  A sequence (the empty one too) is
    not extended when fewer letters are left than its bound, so the
    walk yields every sequence except those the bound proves are no
    hits, in the same order.
    """
    if max_len < 1 or (bound is not None and bound(start) > max_len):
        return
    stack = [(start, (), iter(range(1, n + 1)))]
    while stack:
        state, prefix, letters = stack[-1]
        for k in letters:
            if essential_only and prefix and prefix[-1] == k:
                continue
            seq = prefix + (k,)
            nxt = step(state, k)
            yield seq, nxt
            left = max_len - len(seq)
            if left and (bound is None or bound(nxt) <= left):
                stack.append((nxt, seq, iter(range(1, n + 1))))
            break
        else:
            stack.pop()


def conjugate_period(
    s: LabeledSeed,
    i: Sequence[int],
    j: Sequence[int],
    sigma: Permutation | None = None,
) -> tuple[int, ...]:
    """Transport the sigma-period i of s to a sigma-period of apply(s, j).

    The transported sequence is reverse(j) ++ i ++ sigma(j).  It is
    re-verified on the mutated seed; failure means i was not actually a
    sigma-period of s.  Words that are not sequences of ints in range and
    a sigma that is not a Permutation of the seed's rank are refused
    first, as is_sigma_period refuses them.
    """
    i = validate_sequence(i, s.rank)
    j = validate_sequence(j, s.rank)
    if sigma is None:
        sigma = Permutation.identity(s.rank)
    _require_permutation(sigma, s.rank)
    out = inverse_sequence(j) + i + tuple(sigma(k) for k in j)
    moved = apply_sequence(s, j)
    if not is_sigma_period(moved, out, sigma).holds:
        raise ValueError("conjugation failed: the input was not a sigma-period")
    return out


def subseed(s: LabeledSeed, I: Sequence[int]) -> LabeledSeed:
    """The seed on the index subset I: restricted cluster, principal submatrix.

    Each index is checked as a mutation index is: one that is not an
    int raises ValueError, one out of range IndexError.
    """
    idx = sorted(set(validate_sequence(I, s.rank)))
    if not idx:
        raise ValueError("empty index subset")
    cluster = [s.cluster[p - 1] for p in idx]
    sub = [[s.matrix.rows[p - 1][q - 1] for q in idx] for p in idx]
    return LabeledSeed(cluster, ExchangeMatrix(sub))


@dataclass(frozen=True)
class RestrictionExtensionReport:
    subset: tuple[int, ...]
    full_seed_period: bool
    restricted_seed_period: bool
    full_matrix_period: bool
    restricted_matrix_period: bool


def restriction_extension_check(
    full_seed: LabeledSeed,
    I: Sequence[int],
    seq: Sequence[int],
    sigma: Permutation,
) -> RestrictionExtensionReport:
    """Evaluate the sigma-period predicate on a seed and on its subseed.

    seq must stay inside I, and sigma must permute I while fixing its
    complement.  Restriction (full period implies restricted period) is
    a theorem at both levels and enforced; the extension direction is
    only reported, since for matrices it genuinely fails.  The subseed
    is decided like any seed (see is_sigma_period): a "no" comes from
    its key, exact by synchronicity, even when an exchange relation of
    the subseed is not Laurent; a "yes" is replayed, and on such a
    subseed the replay raises ValueError.  A sigma that is not a
    Permutation of the seed's rank, and an index of I or seq that is not
    an int in range, are refused before anything is computed.
    """
    _require_permutation(sigma, full_seed.rank)
    seq = validate_sequence(seq, full_seed.rank)
    idx = sorted(set(validate_sequence(I, full_seed.rank)))
    sub = subseed(full_seed, idx)
    inside = set(idx)
    if any(k not in inside for k in seq):
        raise ValueError("sequence leaves the index subset")
    for p in range(1, full_seed.rank + 1):
        if p in inside:
            if sigma(p) not in inside:
                raise ValueError("sigma does not map the subset to itself")
        elif sigma(p) != p:
            raise ValueError("sigma moves an index outside the subset")

    local = {p: i + 1 for i, p in enumerate(idx)}
    seq_local = tuple(local[k] for k in seq)
    sigma_local = Permutation([local[sigma(p)] for p in idx])

    full_seed_p = is_sigma_period(full_seed, seq, sigma).holds
    rest_seed_p = is_sigma_period(sub, seq_local, sigma_local).holds
    full_mat_p = is_sigma_period(full_seed.matrix, seq, sigma).holds
    rest_mat_p = is_sigma_period(sub.matrix, seq_local, sigma_local).holds

    if full_seed_p and not rest_seed_p:
        raise InvariantViolation("seed period failed to restrict")
    if full_mat_p and not rest_mat_p:
        raise InvariantViolation("matrix period failed to restrict")
    return RestrictionExtensionReport(
        tuple(idx), full_seed_p, rest_seed_p, full_mat_p, rest_mat_p
    )


@dataclass
class BeltReport:
    epsilon: tuple[int, ...]
    seeds: list[LabeledSeed]  # positions 0..S of the belt
    return_period: int | None
    steps_requested: int
    mirror: bool
    dynkin_name: str | None = None
    coxeter_number: int | None = None


def bipartite_belt(seed: LabeledSeed, steps: int, mirror: bool = False) -> BeltReport:
    """Iterate the composite source/sink mutations of a bipartite seed.

    Forward belts apply the sink composite first, then alternate; the
    mirror direction starts on the source side.  Both composites negate
    the matrix, so position s carries (-1)^s B; the walk stops early at
    the first return to the starting seed.
    """
    _require_count("steps", steps, 0)
    eps = seed.matrix.bipartition()
    if eps is None:
        raise NotBipartite("the exchange matrix has a vertex with arrows both ways")
    minus = [k for k in range(1, seed.rank + 1) if eps[k - 1] == -1]
    plus = [k for k in range(1, seed.rank + 1) if eps[k - 1] == 1]
    first, second = (plus, minus) if mirror else (minus, plus)

    base = seed.matrix
    negated = -base
    seeds = [seed]
    cur = seed
    period = None
    for s in range(1, steps + 1):
        for k in first if s % 2 == 1 else second:
            cur = cur.mutate(k)
        expect = base if s % 2 == 0 else negated
        if cur.matrix != expect:
            raise InvariantViolation("belt composite did not negate the matrix")
        seeds.append(cur)
        if cur == seed:
            period = s
            break

    report = BeltReport(eps, seeds, period, steps, mirror)
    from .classify import dynkin_type  # cosmetic annotation; avoids an import cycle

    named = dynkin_type(seed.matrix)
    if named is not None:
        report.dynkin_name, report.coxeter_number = named
    return report


@dataclass(frozen=True)
class DistinguisherWitness:
    conjugator: tuple[int, ...]
    period: tuple[int, ...]
    period_holds_on: int  # 1 or 2: which mutated seed the period holds for


def period_set_distinguisher(
    s1: LabeledSeed,
    s2: LabeledSeed,
    depth: int,
    period_len: int,
) -> DistinguisherWitness | None:
    """Search for a period separating the two seeds' period sets.

    Tries conjugating sequences i up to the given depth and candidate
    periods j up to period_len: a witness is (i, j) with j a period of
    exactly one of apply(s1, i), apply(s2, i).  Identity relabeling
    only.  Returns None when the budget runs out; that does NOT certify
    the period sets are equal.

    Conjugators are tried in (length, lex) order, essential ones only,
    one length at a time, and candidate periods in lexicographic order.
    Both walks run on the principal-coefficient keys of the two roots:
    a side holds a candidate exactly when its key returns to the key it
    had after the conjugator.  Each side carries its g-vector rows
    H = C^-1 as well, and the period walk skips every subtree where
    neither side's H can return in the letters left: a separating
    period needs only one side to return, so the bound is the smaller
    of the two sides' counts of rows that differ from their start.  Only
    the side that holds the witness is replayed, exactly, before it is
    reported, so a search costs one Laurent replay when it finds a
    witness and none when it does not.
    """
    if s1.rank != s2.rank:
        raise ValueError("rank mismatch")
    _require_count("depth", depth, 0)
    _require_count("period_len", period_len, 0)
    n = s1.rank
    roots = (_principal_side(s1), _principal_side(s2))
    for length in range(depth + 1):
        walk = _walk(roots, n, length, _mutate_pair) if length else [((), roots)]
        for conj, sides in walk:
            if len(conj) == length:
                hit = _search_separating_period(sides, n, period_len)
                if hit is not None:
                    seq, side = hit
                    t = (s1, s2)[side - 1].apply(conj)
                    if not is_sigma_period(t, seq, Permutation.identity(n)).holds:
                        raise InvariantViolation(f"key period {seq} failed its exact replay")
                    return DistinguisherWitness(conj, seq, side)
    return None


def _principal_side(target: Target) -> tuple:
    """The walk state at target: its rows, H and d.

    A seed's rows are the 2n rows of its key [B; I], with H = I; a
    matrix's are the n rows of B, with no H (None).  d is the
    symmetrizer of B, which every mutation keeps.
    """
    if isinstance(target, LabeledSeed):
        rows = _principal_rows(target.matrix)
        return rows, rows[target.rank :], target.matrix.symmetrizer
    return target.rows, None, target.symmetrizer


def _mutate_pair(sides: tuple, k: int) -> tuple:
    return _side_step(sides[0], k), _side_step(sides[1], k)


def _side_step(side: tuple, k: int) -> tuple:
    """A walk state mutated at k, on plain integer rows.

    The rows, of B or of [B; C], follow exchange._mutate_rows, and H,
    when the state carries it, follows _mutate_h.  As in mutate_matrix,
    the new B must keep the root's symmetrizer, d_i b'_ij = -d_j b'_ji,
    or the step raises.
    """
    rows, H, d = side
    new = _mutate_rows(rows, k)
    for i, di in enumerate(d):
        row = new[i]
        for j in range(i + 1, len(d)):
            if di * row[j] != -d[j] * new[j][i]:
                raise InvariantViolation("mutation broke the skew-symmetrizer")
    return new, None if H is None else _mutate_h(rows, H, k), d


def _mutate_h(rows: tuple, H: tuple, k: int) -> tuple:
    """H = C^-1 after the mutation at k of the key rows [B; C]: row k changes, no other.

    With eps the sign of column k of C and m_j = [eps b_kj]_+, the
    mutation is C' = C M_k for the involution M_k that is the identity
    but in row k, which is (m_1, ..., -1, ..., m_n); so H' = M_k H, and
    h'_k = -h_k + sum_j m_j h_j.  That is the rule of exchange._mutate_rows
    exactly when column k of C is sign-coherent.
    """
    a = k - 1
    column = [row[a] for row in rows[len(H) :]]
    if min(column) < 0 < max(column):
        raise InvariantViolation(f"column {k} of C is not sign-coherent: {column}")
    eps = 1 if max(column) > 0 else -1
    new = [-x for x in H[a]]
    for b, h in zip(rows[a], H):
        m = eps * b
        if m > 0:
            new = [x + m * y for x, y in zip(new, h)]
    return H[:a] + (tuple(new),) + H[k:]


def _rows_apart(H: tuple, goal: tuple) -> int:
    """The rows where H and goal differ: each letter rewrites one."""
    return sum(map(ne, H, goal))


def _search_separating_period(
    start: tuple, n: int, period_len: int
) -> tuple[tuple[int, ...], int] | None:
    """The first sequence, in walk order, whose key returns on one side only."""
    (key1, h1, _), (key2, h2, _) = start

    def bound(sides: tuple) -> int:
        return min(_rows_apart(sides[0][1], h1), _rows_apart(sides[1][1], h2))

    for seq, ((end1, _, _), (end2, _, _)) in _walk(
        start, n, period_len, _mutate_pair, bound=bound
    ):
        p1 = end1 == key1
        if p1 != (end2 == key2):
            return seq, 1 if p1 else 2
    return None


def tropical_period_filter(t: LabeledSeed, seq: Sequence[int]) -> bool:
    """Whether the c-vectors of t return along seq: is_sigma_period's key half.

    The c-vectors are the tropical y-seed of t with principal
    coefficients: the key [B; C] walks from [t.matrix; I] along seq and
    its end is compared with its start.  This is the test that
    is_sigma_period(t, seq, identity) makes before it replays anything,
    so False certifies that seq is not an identity-relabeling seed
    period of t.  By synchronicity True is exact as well, though
    is_sigma_period still replays it.
    """
    return _return_power(t, seq, 1) == 1


def _return_power(t: LabeledSeed, word: Sequence[int], most: int) -> int | None:
    """The least p <= most at which the key of t is back after word^p, else None.

    By synchronicity this is the least power of word that returns t,
    read off integer keys with no Laurent arithmetic.
    """
    word = validate_sequence(word, t.rank)
    start = side = _principal_side(t)
    for p in range(1, most + 1):
        for k in word:
            side = _side_step(side, k)
        if side[0] == start[0]:
            return p
    return None

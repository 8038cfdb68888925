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
arithmetic for a seed, mutate_matrix for a matrix.  Both go through
exchange._require_replays, the package's one check of a reported word,
which compares each end with the one goal target^(sigma^-1).  A matrix
replay repeats the walk's integer rule through the validating
constructor, so it checks the walk's goal and bookkeeping, not the rule
itself.

The searches (find_periods, and the separating periods of the
distinguisher) meet in the middle.  Mutation at k is an involution, so
a word u x takes the start rows to the goal rows exactly when the
start's rows after u equal the goal's rows after reverse(x).  So
_returns walks every word of half the length from both ends, keys each
layer by its rows, and joins the two tables: about (n-1)^(L/2) steps
where a walk over every word takes (n-1)^L.  The tables hold every
state of the last half layer, so a search whose table would pass
_MAX_TABLE_STATES states, or _MAX_TABLE_LETTERS letters in its words,
is refused before its first step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence, Union

from .errors import InvariantViolation, NotBipartite
from .exchange import (
    ExchangeMatrix,
    Permutation,
    _mutate_rows,
    _permute_rows,
    _principal_rows,
    _require_count,
    _require_permutation,
    _require_replays,
    dynkin_type,
    validate_sequence,
)
from .seeds import LabeledSeed

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
    Laurent.  When the rows do reach the goal, seq is replayed exactly
    by exchange._require_replays and must reach target^(sigma^-1), the
    target relabeled by sigma^-1; a replay that disagrees with the rows
    raises InvariantViolation.
    """
    seq = validate_sequence(seq, target.rank)
    _require_permutation(sigma, target.rank)
    kind = "seed-period" if isinstance(target, LabeledSeed) else "matrix-period"
    side = start = _principal_side(target)
    for k in seq:
        side = _side_step(side, k)
    g = sigma.inverse()
    if side[0] != _permute_rows(start[0], g):
        return PeriodReport(seq, sigma, kind, False)
    _require_replays(target, {seq: target.permute(g)}, "period")
    return PeriodReport(seq, sigma, kind, True)


def find_periods(
    target: Target,
    sigma: Permutation,
    max_len: int,
    essential_only: bool = True,
) -> list[tuple[int, ...]]:
    """All nonempty sigma-periods of length <= max_len, sorted by (length, lex).

    The empty sequence (a period of anything when sigma is the identity)
    is never listed.  The search runs on plain integer rows with no
    ExchangeMatrix per node (see _principal_side): a matrix's B, a
    seed's key [B; C].  A sequence is a hit when its rows, relabeled by
    sigma, are the target's rows: when they are the target's rows
    relabeled by sigma^-1, the goal.  _returns meets in the middle: it
    walks the target, and the goal with the symmetrizer relabeled to
    match, to ceil(max_len/2) letters, so an essential search costs
    about n(n-1)^(ceil(max_len/2)-1) row steps, not n(n-1)^(max_len-1),
    and holds as many states at once.  A search whose table would pass
    _MAX_TABLE_STATES states or _MAX_TABLE_LETTERS letters raises
    ValueError before its first step.  The hits are then replayed
    exactly on the target by exchange._require_replays before any is
    listed, one target.mutate per distinct nonempty prefix of the hits,
    and each must reach the one goal target^(sigma^-1), or
    InvariantViolation is raised.
    """
    _require_count("max_len", max_len, 0)
    _require_permutation(sigma, target.rank)
    n = target.rank
    _require_table_size(n, max_len, essential_only)
    rows, d = start = _principal_side(target)
    g = sigma.inverse()
    goal = _permute_rows(rows, g), tuple(d[i - 1] for i in g.images)
    found = _returns(start, goal, n, max_len, essential_only)
    if found:
        _require_replays(target, dict.fromkeys(found, target.permute(g)), "period")
    return sorted(found, key=lambda t: (len(t), t))


# the most walk states one table of _returns may hold (see _require_table_size):
# a state of a dense rank-8 seed key takes about 1.6 KB, so a table about 210 MB
_MAX_TABLE_STATES = 1 << 17
# the most letters the words of one table and the walk's stack of prefixes may
# hold together: a letter is an 8-byte tuple slot, so about 134 MB per table.
# A search whose goal is not its start holds a second table, and the words it
# finds, neither counted: at rank 2 and length 6686, the longest admitted, peak
# RSS read 106 MB for Kronecker(2) and sigma = id, 196 MB for its swap (two
# tables), and 236 MB for the A2 seed and its swap (two tables, 1338 periods)
_MAX_TABLE_LETTERS = 1 << 24


def _require_table_size(n: int, max_len: int, essential_only: bool) -> None:
    """Refuse a search whose table of _returns would pass either cap.

    The table holds every word of length 1..d, d = ceil(max_len/2):
    n(n-1)^(k-1) essential words of length k, or n^k.  The size is
    computed from n, max_len and essential_only alone, so nothing is
    stepped before the refusal.  Past 2^64 states the exact count is
    moot and is given as a lower bound.  At rank 1 without
    essential_only, and at rank 2 with it, a layer holds n words, so the
    states stay few while the words grow: the table's n d(d+1)/2 letters
    and the d(d+1)/2 of _walk's stack of prefixes are held against
    _MAX_TABLE_LETTERS.  The bound is per table: the goal's table, when
    the goal is not the start, and the words found are not counted, so
    a search at the cap may hold about twice as much (see the cap's
    comment).  At any other rank a table within the state cap
    has words of at most 16 letters, at most 2^21 letters in all, so
    there only the state cap binds.
    """
    depth = (max_len + 1) // 2
    per = n - 1 if essential_only else n
    if per < 2:
        size = n * (depth if per else min(depth, 1))
    else:
        size = n * (per ** min(depth, 64) - 1) // (per - 1)
    if size > _MAX_TABLE_STATES:
        least = "more than " if per > 1 and depth > 64 else ""
        raise ValueError(
            f"a period search to length {max_len} at rank {n} would hold {least}{size} "
            f"walk states, past the cap of {_MAX_TABLE_STATES}"
        )
    letters = (n + 1) * depth * (depth + 1) // 2 if per == 1 else 0
    if letters > _MAX_TABLE_LETTERS:
        raise ValueError(
            f"a period search to length {max_len} at rank {n} would hold {letters} "
            f"letters in its words, past the cap of {_MAX_TABLE_LETTERS}"
        )


def _returns(
    start: tuple, goal: tuple, n: int, max_len: int, essential_only: bool
) -> list[tuple[int, ...]]:
    """Every word of length 1..max_len that takes the start rows to the goal rows.

    Each _side_step is an involution, so start.(u x) == goal exactly when
    start.u == goal.reverse(x).  The start, and the goal when it is not
    the start, are walked to ceil(max_len/2) and each layer is keyed by
    its rows; a word of length m is then a head u of length ceil(m/2)
    and a tail x of length floor(m/2) whose rows meet.  When
    essential_only is set, a join whose halves repeat a letter where
    they meet is skipped.  The words come in no particular order.
    """
    ahead = _layers(start, n, (max_len + 1) // 2, essential_only)
    back = ahead if goal == start else _layers(goal, n, max_len // 2, essential_only)
    found = []
    for m in range(1, max_len + 1):
        tails = back[m // 2]
        for rows, heads in ahead[(m + 1) // 2].items():
            for y in tails.get(rows, ()):
                for u in heads:
                    if not (essential_only and y and u[-1] == y[-1]):
                        found.append(u + y[::-1])
    return found


def _layers(side: tuple, n: int, depth: int, essential_only: bool) -> list[dict]:
    """[{rows: words}] for the words of each length 0..depth walked from side."""
    layers: list[dict] = [{side[0]: [()]}] + [{} for _ in range(depth)]
    for seq, (rows, _) in _walk(side, n, depth, _side_step, essential_only):
        layers[len(seq)].setdefault(rows, []).append(seq)
    return layers


def _walk(
    start: Any,
    n: int,
    max_len: int,
    step: Callable[[Any, int], Any],
    essential_only: bool = True,
) -> Iterator[tuple[tuple[int, ...], Any]]:
    """Yield (seq, state) for every sequence of length 1..max_len over [1,n].

    The package's one sequence walker, for the half walks of _returns,
    the distinguisher's conjugators and the tests' references: depth
    first in lexicographic order, each prefix before its extensions, so
    the sequences come in tuple order, with state = step(parent state,
    last letter), so a prefix is mutated once for all its extensions.
    Iterative, because max_len may exceed the interpreter's recursion
    limit, and lazy: a sequence's state is computed only when the walk
    reaches it.
    """
    if max_len < 1:
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
            if len(seq) < max_len:
                stack.append((nxt, seq, iter(range(1, n + 1))))
            break
        else:
            stack.pop()


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

    report = BeltReport(eps, seeds, period)
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
    one length at a time, and for each the witness is the least
    candidate period in tuple order (the order of _walk) that returns
    exactly one side.  Both searches run on the principal-coefficient
    keys of the two roots: a side holds a candidate exactly when its key
    returns to the key it had after the conjugator.  Each side's return
    set comes from _returns, which walks ceil(period_len/2) letters and
    holds about n(n-1)^(ceil(period_len/2)-1) keys.  It has no early
    exit, so a witness that comes early in a long search may cost more
    than a walk over every word that stops at it; a search whose table
    would pass _MAX_TABLE_STATES raises ValueError before its first
    step.  Only the side that holds the witness is replayed, exactly,
    before it is reported, so a search costs one Laurent replay when it
    finds a witness and none when it does not.
    """
    if s1.rank != s2.rank:
        raise ValueError("rank mismatch")
    _require_count("depth", depth, 0)
    _require_count("period_len", period_len, 0)
    n = s1.rank
    _require_table_size(n, period_len, True)
    one, two = _principal_side(s1), _principal_side(s2)
    for length in range(depth + 1):
        if length:
            walk = zip(_walk(one, n, length, _side_step), _walk(two, n, length, _side_step))
        else:
            walk = [(((), one), ((), two))]
        for (conj, side1), (_, side2) in walk:
            if len(conj) == length:
                hit = _search_separating_period((side1, side2), n, period_len)
                if hit is not None:
                    seq, side = hit
                    t = (s1, s2)[side - 1].apply(conj)
                    if not is_sigma_period(t, seq, Permutation.identity(n)).holds:
                        raise InvariantViolation(f"key period {seq} does not return its key")
                    return DistinguisherWitness(conj, seq, side)
    return None


def _principal_side(target: Target) -> tuple:
    """The walk state at target: its rows and d.

    A seed's rows are the 2n rows of its key [B; I]; a matrix's are the
    n rows of B.  d is the symmetrizer of B, which every mutation keeps.
    """
    if isinstance(target, LabeledSeed):
        return _principal_rows(target.matrix), target.matrix.symmetrizer
    return target.rows, target.symmetrizer


def _side_step(side: tuple, k: int) -> tuple:
    """A walk state mutated at k, on plain integer rows; an involution.

    The rows, of B or of [B; C], follow exchange._mutate_rows.  Column k
    of C must be sign-coherent, as every c-vector is (Gross-Hacking-
    Keel-Kontsevich, arXiv:1411.1394), and, as in mutate_matrix, the new
    B must keep the root's symmetrizer, d_i b'_ij = -d_j b'_ji; else the
    step raises.
    """
    rows, d = side
    n = len(d)
    column = [row[k - 1] for row in rows[n:]]
    if column and min(column) < 0 < max(column):
        raise InvariantViolation(f"column {k} of C is not sign-coherent: {column}")
    new = _mutate_rows(rows, k)
    for i, di in enumerate(d):
        row = new[i]
        for j in range(i + 1, n):
            if di * row[j] != -d[j] * new[j][i]:
                raise InvariantViolation("mutation broke the skew-symmetrizer")
    return new, d


def _search_separating_period(
    sides: tuple, n: int, period_len: int
) -> tuple[tuple[int, ...], int] | None:
    """The least sequence, in tuple order, whose key returns on one side only."""
    one, two = (set(_returns(side, side, n, period_len, True)) for side in sides)
    split = one ^ two
    if not split:
        return None
    seq = min(split)
    return seq, 1 if seq in one else 2


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

"""Exchange matrices, permutations, and matrix mutation.

Everything here is purely matrix-level: no cluster variables.  All
indices in the public API are 1-based.  Values are immutable and
hashable so they can serve directly as keys in orbit searches.  B's
diagram is read in one place, the neighbour and arrow bit masks of
_neighbours and _arrows; edges, triangles, components, acyclicity, the
bipartition and the Dynkin label here, and the diagram questions of
classify and realize, all read those masks.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import gcd, lcm
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import DecomposableMatrix, InvariantViolation, NotSkewSymmetrizable


class ExchangeMatrix:
    """A skew-symmetrizable integer matrix with its symmetrizer.

    Construction validates zero diagonal, sign coherence (b_ij > 0 iff
    b_ji < 0, zeros paired) and the existence of a positive integer
    diagonal D with D*B skew-symmetric.  The minimal such D is stored.
    Instances are immutable: they key every closure index by value.
    """

    __slots__ = ("n", "rows", "symmetrizer", "_hash")

    def __init__(self, rows: Sequence[Sequence[int]]):
        try:
            n = len(rows)
            grid = tuple(tuple(row) for row in rows)
        except TypeError:
            raise ValueError("a matrix and its rows must be sequences") from None
        if n == 0:
            raise ValueError("empty matrix")
        for row in grid:
            if len(row) != n:
                raise ValueError("matrix is not square")
            for x in row:
                # bool is an int subclass; floats and strings are not coerced
                if type(x) is not int:
                    raise ValueError(f"matrix entry {x!r} is not an integer")
        for i in range(n):
            if grid[i][i] != 0:
                raise NotSkewSymmetrizable(f"nonzero diagonal entry at ({i + 1},{i + 1})")
        for i in range(n):
            for j in range(i + 1, n):
                a, b = grid[i][j], grid[j][i]
                if (a == 0) != (b == 0) or (a > 0 and b > 0) or (a < 0 and b < 0):
                    raise NotSkewSymmetrizable(
                        f"sign incoherence at ({i + 1},{j + 1}): {a} vs {b}"
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", grid)
        object.__setattr__(self, "symmetrizer", _find_symmetrizer(grid))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"ExchangeMatrix is immutable; cannot set {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor
        return ExchangeMatrix, (self.rows,)

    @property
    def rank(self) -> int:
        return self.n

    # -- basic access (1-based) --------------------------------------

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExchangeMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.rows))
        return self._hash

    def __repr__(self) -> str:
        return f"ExchangeMatrix({[list(r) for r in self.rows]})"

    def __neg__(self) -> "ExchangeMatrix":
        return ExchangeMatrix([[-x for x in row] for row in self.rows])

    # -- structure ---------------------------------------------------

    def is_skew_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == -self.rows[j][i]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def v(self) -> int:
        """Largest |entry|, max |b_ij|; 0 for a zero matrix."""
        return max(abs(x) for row in self.rows for x in row)

    def underlying_edges(self) -> list[tuple[int, int]]:
        """Edges {i,j} (1-based, i<j) of the underlying undirected graph."""
        adj = _neighbours(self)
        return [(i + 1, j + 1) for i in range(self.n) for j in _bits(adj[i] & _above(i))]

    def is_indecomposable(self) -> bool:
        return len(_components(_neighbours(self), (1 << self.n) - 1)) == 1

    def is_acyclic(self) -> bool:
        """No directed cycle among the arrows i -> j (b_ij > 0).

        Sinks of what is left are removed until nothing is left, or until
        no vertex left is a sink, which only a directed cycle allows.
        """
        arrows = _arrows(self)
        left = (1 << self.n) - 1
        while left:
            sinks = sum(1 << i for i in _bits(left) if not arrows[i] & left)
            if not sinks:
                return False
            left ^= sinks
        return True

    def bipartition(self) -> tuple[int, ...] | None:
        """Signs eps with eps(i)+eps(j)=0 on every arrow, or None.

        Exists iff every vertex is a source or a sink; sources and
        isolated vertices get +1, sinks get -1 (canonical choice).
        """
        arrows = _arrows(self)
        heads = 0  # the vertices some arrow points to
        for out in arrows:
            heads |= out
        if any(out and heads >> i & 1 for i, out in enumerate(arrows)):
            return None
        return tuple(-1 if heads >> i & 1 else 1 for i in range(self.n))

    def underlying_triangles(self) -> list[tuple[int, int, int]]:
        """3-cycles {i<j<k} of the underlying undirected graph."""
        adj = _neighbours(self)
        return [
            (i + 1, j + 1, k + 1)
            for i in range(self.n)
            for j in _bits(adj[i] & _above(i))
            for k in _bits(adj[i] & adj[j] & _above(j))
        ]

    # -- mutation and permutation ------------------------------------

    def mutate(self, k: int) -> "ExchangeMatrix":
        return mutate_matrix(self, k)

    def apply(self, seq: Sequence[int]) -> "ExchangeMatrix":
        """Mutate at seq[0] first, then seq[1], and so on."""
        B = self
        for k in validate_sequence(seq, self.n):
            B = mutate_matrix(B, k)
        return B

    def permute(self, sigma: "Permutation") -> "ExchangeMatrix":
        return apply_permutation_matrix(self, sigma)

    # -- serialization -----------------------------------------------

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def _find_symmetrizer(grid: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Minimal positive integer diagonal with d_i b_ij = -d_j b_ji.

    Ratios propagate along edges of the underlying graph, component by
    component; a cycle with an inconsistent ratio product means no
    symmetrizer exists.  Each ratio d_i / d_root is kept as a reduced
    integer pair (num, den) with den > 0, so equal ratios compare equal
    as tuples; num 0 marks a vertex not reached yet.
    """
    n = len(grid)
    d = [(0, 1)] * n
    out = [0] * n
    for root in range(n):
        if d[root][0]:
            continue
        d[root] = (1, 1)
        queue = [root]
        component = [root]
        while queue:
            i = queue.pop()
            num, den = d[i]
            for j in range(n):
                if grid[i][j] == 0:
                    continue
                # d_j = d_i * (-b_ij / b_ji); b_ji nonzero by sign coherence
                p, q = -num * grid[i][j], den * grid[j][i]
                if q < 0:
                    p, q = -p, -q
                if p <= 0:
                    raise NotSkewSymmetrizable("ratio propagation forces nonpositive d")
                g = gcd(p, q)
                forced = (p // g, q // g)
                if not d[j][0]:
                    d[j] = forced
                    queue.append(j)
                    component.append(j)
                elif d[j] != forced:
                    raise NotSkewSymmetrizable("inconsistent symmetrizer ratios on a cycle")
        # no common factor is left to divide out: the root is 1/1 and every
        # ratio is reduced, so for each prime of scale the vertex whose
        # denominator holds its highest power scales to a number prime to it
        scale = lcm(*(d[i][1] for i in component))
        for i in component:
            out[i] = d[i][0] * (scale // d[i][1])
    # no final d_i b_ij = -d_j b_ji pass: every edge was checked against
    # its forced ratio above, and zero entries are paired by sign coherence
    return tuple(out)


# -- the diagram of B ------------------------------------------------
#
# Bit j of mask i stands for vertex j (0-based), so ascending bit order
# is ascending vertex order: the order of every list read from the
# masks, and of the realization routes.


def _neighbours(B: ExchangeMatrix) -> list[int]:
    """Neighbour masks of B's diagram: bit j of entry i is set when b_ij != 0."""
    return [sum(1 << j for j, x in enumerate(row) if x) for row in B.rows]


def _arrows(B: ExchangeMatrix) -> list[int]:
    """Arrow masks of B's diagram: bit j of entry i is set when b_ij > 0, i -> j."""
    return [sum(1 << j for j, x in enumerate(row) if x > 0) for row in B.rows]


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _above(v: int) -> int:
    """The mask of every vertex above v."""
    return -2 << v


def _components(adj: list[int], within: int) -> list[int]:
    """Components of the diagram induced on the vertex mask within, by least vertex."""
    out = []
    while within:
        component = frontier = within & -within
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= adj[v]
            frontier = reach & within & ~component
            component |= frontier
        out.append(component)
        within &= ~component
    return out


def dynkin_type(B: ExchangeMatrix) -> tuple[str, int] | None:
    """Best-effort Dynkin label and Coxeter number for a tree-shaped diagram.

    Purely cosmetic: classification decisions never consult this.
    """
    n = B.n
    if n == 1:
        return "A1", 2
    adj = _neighbours(B)
    everyone = (1 << n) - 1
    degree = [mask.bit_count() for mask in adj]
    if sum(degree) != 2 * (n - 1) or len(_components(adj, everyone)) != 1:
        return None
    weights = {e: abs(B.entry(*e) * B.entry(e[1], e[0])) for e in B.underlying_edges()}
    heavy = sorted(w for w in weights.values() if w > 1)
    is_path = max(degree) <= 2

    if not heavy:
        if is_path:
            return f"A{n}", n + 1
        branch = [v for v, d in enumerate(degree) if d >= 3]
        if len(branch) != 1 or max(degree) > 3:
            return None
        # the arms of a tree are its components once the branch vertex goes
        arms = sorted(c.bit_count() for c in _components(adj, everyone ^ 1 << branch[0]))
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
        if degree[a - 1] == 1 or degree[b - 1] == 1:
            return f"B/C{n}", 2 * n
        if n == 4:
            return "F4", 12
        return None
    if heavy == [3] and n == 2:
        return "G2", 6
    return None


def mutate_matrix(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation at direction k (1-based), by the rule of _mutate_rows.

    Mutation keeps each component of the underlying graph and its unique
    minimal symmetrizer, so the child's must be the parent's; else a bug.
    """
    _require_index(k, B.n)
    out = ExchangeMatrix(_mutate_rows(B.rows, k))
    if out.symmetrizer != B.symmetrizer:
        raise InvariantViolation("mutation broke the skew-symmetrizer")
    return out


def _require_index(k: Any, rank: int) -> None:
    """Reject a mutation index that is not an int in [1, rank].

    As for matrix entries, bool, float and str indices are not coerced
    (ValueError); an int out of range raises IndexError.
    """
    if type(k) is not int:
        raise ValueError(f"mutation index {k!r} is not an integer")
    if not 1 <= k <= rank:
        raise IndexError(f"mutation index {k} out of range [1,{rank}]")


def validate_sequence(seq: Sequence[int], rank: int) -> tuple[int, ...]:
    """seq as a tuple of mutation indices, each checked by _require_index.

    A word that is not a sequence raises ValueError before any index is
    read, so no caller mutates anything on a bad word.
    """
    try:
        word = tuple(seq)
    except TypeError:
        raise ValueError(f"mutation word {seq!r} is not a sequence") from None
    for k in word:
        _require_index(k, rank)
    return word


def _require_permutation(sigma: Any, n: int) -> None:
    """Reject a relabeling that is not a Permutation of degree n (ValueError)."""
    if not isinstance(sigma, Permutation):
        raise ValueError(f"relabeling {sigma!r} is not a Permutation")
    if sigma.n != n:
        raise ValueError(f"permutation degree does not match the rank: {sigma.n} vs {n}")


# -- principal-coefficient keys ---------------------------------------
#
# The key of a seed reached from a root is its extended matrix [B; C]
# as 2n plain integer rows: its exchange matrix B and below it the
# c-vector block C, with principal coefficients at the root (C = I
# there).  By synchronicity (Nakanishi, arXiv:1906.12036), which rests
# on sign coherence (Gross-Hacking-Keel-Kontsevich, arXiv:1411.1394),
# two seeds reached from one root are equal exactly when their keys
# are, provided the root's cluster entries are algebraically
# independent; every seed the package builds has that property (a
# subseed's entries are part of a cluster), though a subseed of a
# non-initial seed may not mutate at all (see seeds._exchanged).  Keys
# cost integers only.  The two rules below act on [B; C] and on B alone
# (no C rows) alike: _mutate_rows is the package's one mutation rule and
# _permute_rows its one relabeling of rows.


def _principal_rows(B: ExchangeMatrix) -> tuple:
    """The root's key [B; I]."""
    n = B.n
    return B.rows + tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _mutate_rows(rows: tuple, k: int) -> tuple:
    """Rows of an extended matrix [B; C] mutated at k (1-based, not checked).

    The pivot row k is negated, and every other row, of B or of C, takes
    c'_ij = -c_ij when j = k, else c_ij + sgn(c_ik) [c_ik b_kj]_+.
    """
    a = k - 1
    pivot = rows[a]
    out = list(rows)
    for i, row in enumerate(rows):
        c = row[a]
        if c:
            # sgn(c) [c b]_+ is |c| b when b has the sign of c, else 0
            new = [x + abs(c) * b if b * c > 0 else x for x, b in zip(row, pivot)]
            new[a] = -c
            out[i] = tuple(new)
    # b_kk = 0 left the pivot row as it was
    out[a] = tuple(-x for x in pivot)
    return tuple(out)


def _permute_rows(rows: tuple, g: Permutation) -> tuple:
    """Rows of [B; C] relabeled by g: B's rows and columns, only C's columns.

    Entry (i, j) of the new B is b_{g(i) g(j)}, and column j of the new C
    is column g(j) of C.
    """
    images = g.images
    n = len(images)
    return tuple(tuple(rows[i - 1][j - 1] for j in images) for i in images) + tuple(
        tuple(row[j - 1] for j in images) for row in rows[n:]
    )


# one cycle: ASCII-digit entries separated by spaces or by commas
_CYCLE = re.compile(r"\( *[0-9]+(?:(?: *, *| +)[0-9]+)* *\)")
_CYCLES = re.compile(f"(?:{_CYCLE.pattern})+")
_ENTRY = re.compile(r"[0-9]+")


class Permutation:
    """A bijection of [1,n]; images[i-1] = sigma(i).  Instances are immutable."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        try:
            imgs = tuple(images)
        except TypeError:
            raise ValueError(f"permutation images {images!r} are not a sequence") from None
        for x in imgs:
            # as for matrix entries: bool, float and str images are not coerced
            if type(x) is not int:
                raise ValueError(f"permutation image {x!r} is not an integer")
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of [1,{len(imgs)}]: {imgs}")
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"Permutation is immutable; cannot set {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor
        return Permutation, (self.images,)

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        imgs = list(range(1, n + 1))
        imgs[i - 1], imgs[j - 1] = j, i
        return cls(imgs)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def compose(self, other: "Permutation") -> "Permutation":
        """(self . other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.images[other.images[i] - 1] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for i, v in enumerate(self.images):
            out[v - 1] = i + 1
        return Permutation(out)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least element."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_notation(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)

    @classmethod
    def from_cycle_notation(cls, n: int, text: str) -> "Permutation":
        """Parse "(1 2)(3 4)"; "id", "e", "()" and "" all mean the identity.

        Entries are ASCII digits separated by spaces or commas, and cycles
        are disjoint and written next to each other with nothing between
        them.
        """
        s = text.strip()
        if s in ("", "id", "()", "e"):
            return cls.identity(n)
        if not _CYCLES.fullmatch(s):
            raise ValueError(f"bad cycle notation: {text!r}")
        imgs = list(range(1, n + 1))
        used: set[int] = set()
        for chunk in _CYCLE.findall(s):
            cyc = [int(x) for x in _ENTRY.findall(chunk)]
            if len(cyc) != len(set(cyc)) or any(not 1 <= x <= n for x in cyc):
                raise ValueError(f"bad cycle {chunk} for degree {n}")
            shared = [x for x in cyc if x in used]
            if shared:
                raise ValueError(f"cycles are not disjoint: {shared[0]} is in two of them")
            used.update(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                imgs[a - 1] = b
        return cls(imgs)


def all_permutations(n: int):
    """All degree-n permutations in lexicographic image order."""
    for imgs in itertools.permutations(range(1, n + 1)):
        yield Permutation(imgs)


def apply_permutation_matrix(B: ExchangeMatrix, sigma: Permutation) -> ExchangeMatrix:
    """B^sigma, entry (i,j) = b_{sigma(i) sigma(j)}, by the rule of _permute_rows.

    Composition law: (B^sigma)^tau = B^(sigma.compose(tau)).
    """
    _require_permutation(sigma, B.n)
    return ExchangeMatrix(_permute_rows(B.rows, sigma))


def is_inflexion(B: ExchangeMatrix, i: int, j: int, k: int) -> bool:
    """Within the triple {i,j,k}: arrows pass through i, i.e. b_ji b_ik > 0.

    Each index is checked as a mutation index is (_require_index).
    """
    for v in (i, j, k):
        _require_index(v, B.n)
    return B.entry(j, i) * B.entry(i, k) > 0


@dataclass
class MatrixClass:
    """BFS closure of a matrix under mutation in all directions."""

    matrices: list[ExchangeMatrix]
    words: list[tuple[int, ...]]  # mutation sequence reaching each matrix
    complete: bool
    index: dict

    def find(self, B: ExchangeMatrix) -> int | None:
        return self.index.get(B)

    def __len__(self) -> int:
        return len(self.matrices)


def _require_count(name: str, value: Any, least: int) -> None:
    """Reject a budget or length that is not an int at least `least`.

    As for matrix entries, bool, float and str values are not coerced.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'nonnegative'}")


def _require_indecomposable(B: ExchangeMatrix, what: str) -> None:
    if not B.is_indecomposable():
        raise DecomposableMatrix(f"{what} needs an indecomposable exchange matrix")


def matrix_mutation_class(B: ExchangeMatrix, max_matrices: int) -> MatrixClass:
    """All matrices mutation-equivalent to B, up to a size budget.

    Each mu_k is an involution, so the closure mutates once per pair of
    neighbours: a complete class of N rank-n matrices costs N*n/2 calls
    of mutate_matrix (144 matrices and 288 calls for A4), plus N/2 per
    zero column of B, since mu_k fixes a matrix whose column k is zero.
    """
    _require_count("max_matrices", max_matrices, 1)
    matrices, words, index, complete = _closure(B, (), _mutation_moves(B.n), max_matrices)
    return MatrixClass(matrices, words, complete, index)


def _mutation_moves(n: int) -> list[tuple[int, Callable, Callable]]:
    """Closure moves mu_1..mu_n on matrices, extending plain mutation words."""
    return [
        (k, lambda M, k=k: mutate_matrix(M, k), lambda word, k=k: word + (k,))
        for k in range(1, n + 1)
    ]


def _closure(
    root: Any,
    root_word: Any,
    moves: Sequence[tuple[Any, Callable, Callable]],
    budget: int,
    visit: Callable[[Any, Any], bool] | None = None,
    edges: list | None = None,
) -> tuple[list, list, dict, bool]:
    """Breadth-first closure of root under moves: the package's one search loop.

    moves lists (label, act, extend) triples: act maps an item to a
    neighbour and extend maps the item's word to the neighbour's word.
    Every act must be an involution: act(act(x)) == x.  Items are their
    own keys: deduplicated by value and numbered in discovery order,
    which is also the queue order.  visit(item, word), when given, sees
    the root and then every new candidate before the budget check; a
    true return stops the walk.  A new candidate that would make the
    closure exceed budget items stops the walk.  edges, when given,
    receives (source, label, target) for every move applied to an
    admitted item.

    A flat back table holds one slot per (item, move): when move m sends
    item i to a later item j, slot (j, m) records i, and j's turn reads
    that slot instead of calling act, since an involution sends j back
    to i.  A back edge never reaches a new item, so it changes nothing
    but the cost: a complete closure of N items under m moves calls act
    (N*m + F)/2 times, F the number of (item, move) pairs the move fixes,
    so N*m/2 times when no move fixes an item.

    Returns (items, words, index, complete); complete is False whenever
    the visitor or the budget cut the closure short.
    """
    items = [root]
    words = [root_word]
    index = {root: 0}
    if visit is not None and visit(root, root_word):
        return items, words, index, False
    m = len(moves)
    back = [-1] * m
    cur = 0
    while cur < len(items):
        item = items[cur]
        slots = cur * m
        for j, (label, act, extend) in enumerate(moves):
            found = back[slots + j]
            if found < 0:
                t = act(item)
                found = index.get(t)
                if found is None:
                    t_word = extend(words[cur])
                    if (visit is not None and visit(t, t_word)) or len(items) >= budget:
                        return items, words, index, False
                    found = len(items)
                    index[t] = found
                    items.append(t)
                    words.append(t_word)
                    back += [-1] * m
                back[found * m + j] = cur
            if edges is not None:
                edges.append((cur, label, found))
        cur += 1
    return items, words, index, True


def _replay(
    root: Any, words: Iterable[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], Any]]:
    """Yield (word, root.apply(word)) for each distinct word, in sorted order.

    The package's one exact replay of reported words, for matrices and
    seeds alike: it calls root.mutate and nothing else, so a seed is
    replayed by its exchange relations, never from an orbit's memo.
    Sorted words visit their prefix tree depth first, and a trail of the
    last word's prefixes is kept, so each distinct nonempty prefix is
    mutated exactly once and the empty word costs nothing.
    """
    trail = [root]
    last: tuple[int, ...] = ()
    for word in sorted(set(words)):
        keep = 0
        while keep < min(len(word), len(last)) and word[keep] == last[keep]:
            keep += 1
        del trail[keep + 1 :]
        for k in word[keep:]:
            trail.append(trail[-1].mutate(k))
        last = word
        yield word, trail[-1]


def _require_replays(root: Any, ends: dict, what: str) -> None:
    """Replay every word of ends on root; each must reach its value exactly.

    The package's one check of a reported word (a period, a group element,
    an L or P witness, a swap gadget): ends maps each word to the value it
    must reach, the words are replayed by _replay, and the first that
    misses raises InvariantViolation, its message naming what it was.
    """
    for word, moved in _replay(root, ends):
        if moved != ends[word]:
            raise InvariantViolation(f"{what} word {word} does not replay")

"""Canonical exchange matrices used across the test suite and verify runs.

All constructors return fresh ExchangeMatrix values; orientation always
reads arrow i -> j for a positive entry b_ij.
"""

from __future__ import annotations

from .exchange import ExchangeMatrix


def a2_matrix() -> ExchangeMatrix:
    return ExchangeMatrix([[0, 1], [-1, 0]])


def b2_matrix() -> ExchangeMatrix:
    return ExchangeMatrix([[0, 1], [-2, 0]])


def g2_matrix() -> ExchangeMatrix:
    return ExchangeMatrix([[0, 1], [-3, 0]])


def kronecker_matrix(b: int = 2) -> ExchangeMatrix:
    """Rank-2 matrix with a single weight-b*b double arrow."""
    return ExchangeMatrix([[0, b], [-b, 0]])


def rank1_matrix() -> ExchangeMatrix:
    return ExchangeMatrix([[0]])


def zero_matrix(n: int) -> ExchangeMatrix:
    return ExchangeMatrix([[0] * n for _ in range(n)])


def path3(a: int, b: int) -> ExchangeMatrix:
    """1 -> 2 -> 3 with weights a, b."""
    return ExchangeMatrix([[0, a, 0], [-a, 0, b], [0, -b, 0]])


def fork3(a: int, b: int) -> ExchangeMatrix:
    """1 -> 2 <- 3 with weights a, b."""
    return ExchangeMatrix([[0, a, 0], [-a, 0, -b], [0, b, 0]])


def a3_path_matrix() -> ExchangeMatrix:
    return path3(1, 1)


def a3_alternating_matrix() -> ExchangeMatrix:
    """Sink-at-2 orientation; bipartite, used by the belt fixtures."""
    return fork3(1, 1)


def a4_path_matrix() -> ExchangeMatrix:
    """1 -> 2 -> 3 -> 4, all weights 1."""
    return ExchangeMatrix(
        [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
    )


def acyclic_triangle(a: int, b: int, c: int) -> ExchangeMatrix:
    """1 -> 2 (a), 2 -> 3 (b), 1 -> 3 (c)."""
    return ExchangeMatrix([[0, a, c], [-a, 0, b], [-c, -b, 0]])


def cyclic_triangle(a: int, b: int, c: int) -> ExchangeMatrix:
    """1 -> 2 (a), 2 -> 3 (b), 3 -> 1 (c)."""
    return ExchangeMatrix([[0, a, -c], [-a, 0, b], [c, -b, 0]])


def fork_chord_triangle(x: int, y: int, z: int) -> ExchangeMatrix:
    """1 -> 2 (x), 3 -> 2 (y), 1 -> 3 (z): no arrows pass through vertex 2."""
    return ExchangeMatrix([[0, x, z], [-x, 0, -y], [-z, y, 0]])


def markov_matrix() -> ExchangeMatrix:
    """The all-weight-2 directed triangle."""
    return cyclic_triangle(2, 2, 2)


def rank4_v1_matrix() -> ExchangeMatrix:
    """4x4 with every entry in {-1,0,1} yet of infinite mutation type."""
    return ExchangeMatrix(
        [[0, 1, 1, 1], [-1, 0, 1, 0], [-1, -1, 0, -1], [-1, 0, 1, 0]]
    )


def weighted_path3_matrix() -> ExchangeMatrix:
    """Acyclic, largest entry 2, triangle-free, infinite mutation type."""
    return path3(2, 1)


# -- Dynkin and affine diagrams -------------------------------------------


def _diagram(n: int, arrows: list[tuple[int, int, int, int]]) -> ExchangeMatrix:
    """n vertices with b_ij = p and b_ji = -q for each arrow (i, j, p, q)."""
    rows = [[0] * n for _ in range(n)]
    for i, j, p, q in arrows:
        rows[i - 1][j - 1], rows[j - 1][i - 1] = p, -q
    return ExchangeMatrix(rows)


def _path_arrows(n: int) -> list[tuple[int, int, int, int]]:
    return [(i, i + 1, 1, 1) for i in range(1, n)]


def _star(arms: tuple[int, ...]) -> ExchangeMatrix:
    """Vertex 1 joined to paths of the given lengths, arrows pointing away from it."""
    arrows = []
    n = 1
    for length in arms:
        prev = 1
        for _ in range(length):
            n += 1
            arrows.append((prev, n, 1, 1))
            prev = n
    return _diagram(n, arrows)


def dynkin_a(n: int) -> ExchangeMatrix:
    """A_n: the path 1 -> 2 -> ... -> n."""
    return _diagram(n, _path_arrows(n))


def dynkin_b(n: int) -> ExchangeMatrix:
    """B_n: the A_n path whose last arrow has b_(n-1)n = 1, b_n(n-1) = -2."""
    return _diagram(n, _path_arrows(n - 1) + [(n - 1, n, 1, 2)])


def dynkin_c(n: int) -> ExchangeMatrix:
    """C_n: the A_n path whose last arrow has b_(n-1)n = 2, b_n(n-1) = -1."""
    return _diagram(n, _path_arrows(n - 1) + [(n - 1, n, 2, 1)])


def dynkin_d(n: int) -> ExchangeMatrix:
    """D_n (n >= 4): arms of lengths 1, 1 and n - 3 from vertex 1."""
    return _star((1, 1, n - 3))


def dynkin_e(n: int) -> ExchangeMatrix:
    """E_n (n = 6, 7, 8): arms of lengths 1, 2 and n - 4 from vertex 1."""
    return _star((1, 2, n - 4))


def dynkin_f4() -> ExchangeMatrix:
    """F4: 1 -> 2 -> 3 -> 4 with b_23 = 1, b_32 = -2."""
    return _diagram(4, [(1, 2, 1, 1), (2, 3, 1, 2), (3, 4, 1, 1)])


def affine_a(p: int, q: int) -> ExchangeMatrix:
    """Affine A(p, q): a cycle of p + q vertices, p arrows one way round and q the other."""
    n = p + q
    back = [(k + 1, k, 1, 1) for k in range(p + 1, n)] + [(1, n, 1, 1)]
    return _diagram(n, _path_arrows(p + 1) + back)


def affine_d(n: int) -> ExchangeMatrix:
    """Affine D_n (n >= 4, n + 1 vertices): a path of n - 3 vertices, two leaves at each end."""
    core = n - 3
    arrows = _path_arrows(core)
    arrows += [(1, core + 1, 1, 1), (1, core + 2, 1, 1)]
    arrows += [(core, core + 3, 1, 1), (core, core + 4, 1, 1)]
    return _diagram(n + 1, arrows)


def affine_e(n: int) -> ExchangeMatrix:
    """Affine E_n (n = 6, 7, 8, n + 1 vertices): arms (2, 2, 2), (1, 3, 3) or (1, 2, 5)."""
    return _star({6: (2, 2, 2), 7: (1, 3, 3), 8: (1, 2, 5)}[n])

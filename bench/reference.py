"""Plain-integer matrix code the benchmark uses to build inputs and check answers.

It shares no code with the package under test.  Matrices are tuples of
integer rows; indices in sequences are 1-based, as in the package.
"""

from __future__ import annotations

import random


def mutate(rows: tuple, k: int) -> tuple:
    """Mutation at k of a matrix with n columns and m >= n rows.

    b'_ij = -b_ij when i = k or j = k, else b_ij + sgn(b_ik) [b_ik b_kj]_+.
    Extra rows below the principal part (coefficient rows) follow the
    same rule, which is how principal coefficients mutate.
    """
    a = k - 1
    pivot = rows[a]
    out = []
    for i, row in enumerate(rows):
        if i == a:
            out.append(tuple(-x for x in row))
            continue
        bik = row[a]
        if bik == 0:
            out.append(row)
            continue
        new = list(row)
        for j, bkj in enumerate(pivot):
            if j == a:
                new[j] = -row[j]
            elif bik > 0 and bkj > 0:
                new[j] += bik * bkj
            elif bik < 0 and bkj < 0:
                new[j] -= bik * bkj
        out.append(tuple(new))
    return tuple(out)


def apply_word(rows: tuple, word) -> tuple:
    for k in word:
        rows = mutate(rows, k)
    return rows


def permute(rows: tuple, images) -> tuple:
    """Entry (i, j) of the result is b_{sigma(i) sigma(j)}; images[i-1] = sigma(i)."""
    return tuple(tuple(rows[p - 1][q - 1] for q in images) for p in images)


def negate(rows: tuple) -> tuple:
    return tuple(tuple(-x for x in row) for row in rows)


def bipartition(rows: tuple) -> tuple | None:
    """+1 for sources and isolated vertices, -1 for sinks, None if neither."""
    eps = []
    for row in rows:
        pos = any(x > 0 for x in row)
        neg = any(x < 0 for x in row)
        if pos and neg:
            return None
        eps.append(-1 if neg else 1)
    return tuple(eps)


def essential_word(rng: random.Random, n: int, length: int) -> tuple:
    """A random mutation word with no immediate repeat."""
    word: list[int] = []
    while len(word) < length:
        k = rng.randrange(1, n + 1)
        if not word or word[-1] != k:
            word.append(k)
    return tuple(word)


def random_images(rng: random.Random, n: int) -> tuple:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


def periods(rows: tuple, max_len: int, principal: bool) -> list[tuple[int, ...]]:
    """Nonempty essential sequences of length <= max_len returning the start.

    With principal=False the matrix itself must return.  With
    principal=True the matrix is extended by the identity below it; by
    synchronicity (Nakanishi, arXiv:1906.12036) a sequence returns the
    extended matrix exactly when it is a period of the labeled seed.
    Sorted by (length, lex) like the package's period search.
    """
    n = len(rows)
    start = rows
    if principal:
        start = rows + tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
    found = []
    stack = [(start, ())]
    while stack:
        state, prefix = stack.pop()
        for k in range(1, n + 1):
            if prefix and prefix[-1] == k:
                continue
            nxt = mutate(state, k)
            seq = prefix + (k,)
            if nxt == start:
                found.append(seq)
            if len(seq) < max_len:
                stack.append((nxt, seq))
    return sorted(found, key=lambda t: (len(t), t))

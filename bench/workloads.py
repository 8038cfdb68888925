"""The three query streams: seeded input generation, the queries, and their oracle.

A query is a plain dict of integers and tuples.  The package under test
only ever sees the matrices and parameters a query carries; every
random choice is made here from the workload seed.  Each workload
repeats a fixed cycle of (kind, family) slots: a generator seeded by the
workload seed and the cycle's index picks the conjugating word,
relabeling, sign, mirror flag and order of each cycle, while the mix of
kinds and families stays the same, so runs on different seeds do the
same amount of each kind of work.

The oracle (``check``) returns None for a correct answer and a short
reason otherwise.  Expected values are conjugation invariants taken
from the type tables below or recomputed with the plain-integer code in
``reference``; positive claims are replayed.
"""

from __future__ import annotations

import random

import reference as ref

# -- families (arrow i -> j for b_ij > 0) ---------------------------------

A2 = ((0, 1), (-1, 0))
A3 = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
B3 = ((0, 1, 0), (-1, 0, 1), (0, -2, 0))
A4 = ((0, 1, 0, 0), (-1, 0, 1, 0), (0, -1, 0, 1), (0, 0, -1, 0))
D4 = ((0, 1, 1, 1), (-1, 0, 0, 0), (-1, 0, 0, 0), (-1, 0, 0, 0))
KRONECKER = ((0, 2), (-2, 0))
AFFINE_D4 = (
    (0, 1, 1, 1, 1),
    (-1, 0, 0, 0, 0),
    (-1, 0, 0, 0, 0),
    (-1, 0, 0, 0, 0),
    (-1, 0, 0, 0, 0),
)
RANK4_V1 = ((0, 1, 1, 1), (-1, 0, 1, 0), (-1, -1, 0, -1), (-1, 0, 1, 0))
WEIGHTED_PATH = ((0, 2, 0), (-2, 0, 1), (0, -1, 0))
MARKOV = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))
CHORDAL_ACYCLIC = ((0, 1, 2), (-1, 0, 1), (-2, -1, 0))
CHORDAL_FORK = ((0, 1, 2), (-1, 0, -1), (-2, 1, 0))
CHORDAL_CYCLE = ((0, 1, -2), (-1, 0, 1), (2, -1, 0))

FAMILIES = {
    "A2": A2,
    "A3": A3,
    "B3": B3,
    "A4": A4,
    "D4": D4,
    "kronecker": KRONECKER,
    "affine_D4": AFFINE_D4,
    "rank4_v1": RANK4_V1,
    "weighted_path": WEIGHTED_PATH,
    "markov": MARKOV,
}
DISTINGUISHER_PAIRS = {
    "acyclic_vs_fork": (CHORDAL_ACYCLIC, CHORDAL_FORK),
    "acyclic_vs_cycle": (CHORDAL_ACYCLIC, CHORDAL_CYCLE),
}

# -- conjugation invariants --------------------------------------------

ORBIT_SIZE = {"A3": 84, "B3": 40, "A4": 1008, "D4": 1200}
ORBIT_SIZE_RELABELED = {"A3": 84, "B3": 120, "A4": 1008, "D4": 1200}
# (|SAut+|, |Aut+|, |L|, |P|)
AUT_PLUS_ORDERS = {"A3": (6, 6, 6, 6), "B3": (4, 4, 2, 2)}
EQUIVARIANT_ORDER = {"A3": 12, "B3": 8}
# (finite type, finite mutation type, mutation-acyclic)
STATUSES = {
    "A4": ("yes", "yes", "yes"),
    "D4": ("yes", "yes", "yes"),
    "B3": ("yes", "yes", "yes"),
    "rank4_v1": ("no", "no", "yes"),
    "weighted_path": ("no", "no", "yes"),
    "markov": ("no", "yes", "no"),
    "kronecker": ("no", "yes", "yes"),
}
# None: the class is infinite, so the search must stop at its budget
CLASS_SIZE = {
    "A4": 144,
    "D4": 50,
    "B3": 10,
    "rank4_v1": None,
    "weighted_path": None,
    "markov": 2,
    "kronecker": 2,
}
# (|L|, |P|) of compute_L_P
LP_ORDERS = {"kronecker": (2, 1), "A2": (2, 2)}

ORBIT_BUDGET = 2000
CLASS_BUDGET = 200
LP_BUDGET = 12
SEED_PERIOD_LEN = 4
MATRIX_PERIOD_LEN = 5
DISTINGUISH_DEPTH = 3
DISTINGUISH_PERIOD_LEN = 10


def conjugate(rng: random.Random, family: str, max_depth: int) -> tuple:
    """A seed-chosen mutation word, then relabeling, then sign, applied to a family."""
    rows = FAMILIES[family]
    n = len(rows)
    rows = ref.apply_word(rows, ref.essential_word(rng, n, rng.randint(0, max_depth)))
    rows = ref.permute(rows, ref.random_images(rng, n))
    return ref.negate(rows) if rng.random() < 0.5 else rows


def belt_word(rows: tuple, steps: int, mirror: bool) -> tuple:
    """The mutation word of a bipartite belt: sink composite first unless mirrored."""
    eps = ref.bipartition(rows)
    minus = tuple(k for k in range(1, len(rows) + 1) if eps[k - 1] == -1)
    plus = tuple(k for k in range(1, len(rows) + 1) if eps[k - 1] == 1)
    first, second = (plus, minus) if mirror else (minus, plus)
    word: tuple = ()
    for s in range(1, steps + 1):
        word += first if s % 2 == 1 else second
    return word


# -- finite-orbits -------------------------------------------------------

# Latency tiers per cycle, fastest first: 31 realization plans (under
# ~20 ms), 7 small orbits and seed periods (10-70 ms), 4 group queries
# and the B3 relabeling orbit (90-220 ms) and one A4 and one D4 orbit
# (about a second).  With 45 queries p50 falls inside the realize tier
# and p90 in the middle of the groups tier, so a change to either layer
# moves the quantile that watches it.
FINITE_SLOTS = (
    ("orbit", "A3"),
    ("orbit", "B3"),
    ("orbit", "A4"),
    ("orbit", "D4"),
    ("orbit_relabeled", "A3"),
    ("orbit_relabeled", "B3"),
    ("aut_plus", "A3"),
    ("aut_plus", "B3"),
    ("equivariant", "A3"),
    ("equivariant", "B3"),
    *(("realize", "A3"),) * 11,
    *(("realize", "A4"),) * 10,
    *(("realize", "D4"),) * 10,
    ("periods", "A3"),
    ("periods", "B3"),
    ("periods", "A4"),
    ("periods", "D4"),
)
FINITE_WARMUPS = (
    ("orbit", "A3"),
    ("orbit_relabeled", "A3"),
    ("aut_plus", "A3"),
    ("equivariant", "A3"),
    ("realize", "A3"),
    ("periods", "A3"),
)


def _finite_query(rng: random.Random, kind: str, family: str) -> dict:
    rows = conjugate(rng, family, max_depth=4)
    q = {"kind": kind, "family": family, "rows": rows}
    if kind == "realize":
        q["sigma"] = ref.random_images(rng, len(rows))
    return q


# -- affine-growth -------------------------------------------------------

# (kind, family, belt steps, palindrome).  Step bands keep every query
# under about a second: the Kronecker belt doubles in cost every two
# steps past 12.
_AFFINE_BELTS_AND_WORDS = (
    ("belt", "kronecker", 12, False),
    ("belt", "kronecker", 13, False),
    ("belt", "kronecker", 14, False),
    ("belt", "kronecker", 15, False),
    ("belt", "affine_D4", 7, False),
    ("belt", "affine_D4", 8, False),
    ("belt", "affine_D4", 9, False),
    ("belt", "affine_D4", 10, False),
    ("word", "kronecker", 10, False),
    ("word", "kronecker", 12, False),
    ("word", "kronecker", 6, True),
    ("word", "affine_D4", 6, False),
    ("word", "affine_D4", 8, False),
    ("word", "affine_D4", 4, True),
    ("distinguish", "acyclic_vs_cycle", 0, False),
)
# The belts and words count twice, so the two slowest queries (compute_L_P
# and the acyclic-vs-fork distinguisher) are 2 of 32 and p90 falls among
# the 14- and 15-step Kronecker belts rather than on the edge of L/P.
AFFINE_SLOTS = (
    *_AFFINE_BELTS_AND_WORDS * 2,
    ("lp", "kronecker", 0, False),
    ("distinguish", "acyclic_vs_fork", 0, False),
)
AFFINE_WARMUPS = (
    ("belt", "affine_D4", 4, False),
    ("word", "affine_D4", 2, True),
    ("lp", "A2", 0, False),
    ("distinguish", "acyclic_vs_cycle", 0, False),
)


def _affine_query(rng: random.Random, kind: str, family: str, steps: int, palindrome: bool) -> dict:
    if kind == "distinguish":
        a, b = DISTINGUISHER_PAIRS[family]
        images = ref.random_images(rng, len(a))
        return {
            "kind": kind,
            "family": family,
            "rows": ref.permute(a, images),
            "rows_b": ref.permute(b, images),
        }
    # relabeling and sign only: a mutation would leave the bipartite chamber
    rows = conjugate(rng, family, max_depth=0)
    q = {"kind": kind, "family": family, "rows": rows}
    if kind == "belt":
        q["steps"] = steps
        q["mirror"] = rng.random() < 0.5
    elif kind == "word":
        word = belt_word(rows, steps, rng.random() < 0.5)
        if palindrome:
            word += tuple(reversed(word))
        q["word"] = word
        q["holds"] = palindrome  # an affine belt never returns
    return q


# -- matrix-classes ------------------------------------------------------

MATRIX_KINDS = ("classify", "finite_type", "finite_mutation_type", "class", "matrix_periods")
# A4 and D4 count twice, so p50 falls among the ~20 ms D4 class searches
# instead of on the gap between the sub-3 ms answers and the ~13 ms ones.
MATRIX_FAMILIES = ("A4", "A4", "D4", "D4", "B3", "rank4_v1", "weighted_path", "markov", "kronecker")
MATRIX_SLOTS = tuple((k, f) for f in MATRIX_FAMILIES for k in MATRIX_KINDS)
MATRIX_WARMUPS = tuple((k, "B3") for k in MATRIX_KINDS)


def _matrix_query(rng: random.Random, kind: str, family: str) -> dict:
    return {"kind": kind, "family": family, "rows": conjugate(rng, family, max_depth=3)}


# -- generation ----------------------------------------------------------


WORKLOADS = {
    "finite-orbits": (_finite_query, FINITE_SLOTS, FINITE_WARMUPS),
    "affine-growth": (_affine_query, AFFINE_SLOTS, AFFINE_WARMUPS),
    "matrix-classes": (_matrix_query, MATRIX_SLOTS, MATRIX_WARMUPS),
}


def warmups(workload: str, seed: int) -> list[dict]:
    """One untimed query of each kind; the same seed gives the same list."""
    make, _, warm_slots = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/warm-up")
    return [make(rng, *slot) for slot in warm_slots]


def cycle(workload: str, seed: int, index: int) -> list[dict]:
    """Query cycle `index`, drawn from its own generator so that a run
    builds only the cycles it reaches; the same (seed, index) gives the
    same list."""
    make, slots, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{index}")
    out = [make(rng, *slot) for slot in slots]
    rng.shuffle(out)
    return out


# -- queries -------------------------------------------------------------


def _seed(lib, rows):
    return lib.LabeledSeed.initial(lib.ExchangeMatrix(rows))


def _identity(lib, n):
    return lib.Permutation.identity(n)


def run_query(lib, q: dict):
    """Answer one query with the package `lib`; this is the timed part."""
    kind = q["kind"]
    rows = q["rows"]
    if kind in ("orbit", "orbit_relabeled"):
        return lib.orbit(_seed(lib, rows), ORBIT_BUDGET, kind == "orbit_relabeled")
    if kind == "aut_plus":
        return lib.enumerate_aut_plus(_seed(lib, rows), ORBIT_BUDGET)
    if kind == "equivariant":
        graph = lib.orbit(_seed(lib, rows), ORBIT_BUDGET, True)
        return lib.equivariant_automorphisms(graph)
    if kind == "realize":
        return lib.realize_permutation(_seed(lib, rows), lib.Permutation(q["sigma"]))
    if kind == "periods":
        return lib.find_periods(_seed(lib, rows), _identity(lib, len(rows)), SEED_PERIOD_LEN)
    if kind == "belt":
        return lib.bipartite_belt(_seed(lib, rows), q["steps"], q["mirror"])
    if kind == "word":
        return lib.is_sigma_period(_seed(lib, rows), q["word"], _identity(lib, len(rows)))
    if kind == "lp":
        return lib.compute_L_P(_seed(lib, rows), LP_BUDGET)
    if kind == "distinguish":
        return lib.period_set_distinguisher(
            _seed(lib, rows), _seed(lib, q["rows_b"]), DISTINGUISH_DEPTH, DISTINGUISH_PERIOD_LEN
        )
    B = lib.ExchangeMatrix(rows)
    if kind == "classify":
        return lib.classify(B, CLASS_BUDGET)
    if kind == "finite_type":
        return lib.is_finite_type(B, CLASS_BUDGET)
    if kind == "finite_mutation_type":
        return lib.is_finite_mutation_type(B, CLASS_BUDGET)
    if kind == "class":
        return lib.matrix_mutation_class(B, CLASS_BUDGET)
    if kind == "matrix_periods":
        return lib.find_periods(B, _identity(lib, len(rows)), MATRIX_PERIOD_LEN)
    raise ValueError(f"unknown query kind {kind!r}")


# -- oracle --------------------------------------------------------------


def _decision_problem(lib, rows, decision, expected: str, bound: int) -> str | None:
    if decision.status != expected:
        return f"status {decision.status}, expected {expected}"
    if expected == "no":
        if decision.witness is None or not decision.witness.replay(lib.ExchangeMatrix(rows), bound):
            return f"bound-{bound} witness does not replay"
    elif decision.witness is not None:
        return "a yes answer carries a witness"
    return None


def _separates(lib, q: dict, w) -> bool:
    ident = _identity(lib, len(q["rows"]))
    holds = []
    for rows in (q["rows"], q["rows_b"]):
        t = lib.apply_sequence(_seed(lib, rows), w.conjugator)
        # a failed valuation return certifies non-periodicity without
        # replaying the exploding exact cluster
        holds.append(
            lib.tropical_period_filter(t, w.period)
            and lib.is_sigma_period(t, w.period, ident).holds
        )
    return holds[0] != holds[1] and (1 if holds[0] else 2) == w.period_holds_on


def check(lib, q: dict, result) -> str | None:
    """None when `result` is the right answer to `q`, else the reason it is not."""
    kind = q["kind"]
    family = q["family"]
    rows = q["rows"]
    if kind in ("orbit", "orbit_relabeled"):
        table = ORBIT_SIZE_RELABELED if kind == "orbit_relabeled" else ORBIT_SIZE
        if not result.complete or len(result) != table[family]:
            return f"orbit of {len(result)} seeds (complete={result.complete}), expected {table[family]}"
        return None
    if kind == "aut_plus":
        s = result.summary
        got = (s.saut_order, s.aut_plus_order, s.L_order, s.P_order)
        if got != AUT_PLUS_ORDERS[family]:
            return f"group orders {got}, expected {AUT_PLUS_ORDERS[family]}"
        if not s.exactness_verified:
            return "exactness identity not verified"
        return None
    if kind == "equivariant":
        want = EQUIVARIANT_ORDER[family]
        got = (result.aut_order, result.w_order, result.aut_A_order)
        if got != (want,) * 3 or not result.kp_identity or not result.verify_group():
            return f"equivariant orders {got}, expected {want}"
        return None
    if kind == "realize":
        s = _seed(lib, rows)
        target = lib.permute_seed(s, lib.Permutation(q["sigma"]))
        if not result.verified or lib.apply_sequence(s, result.full_sequence) != target:
            return "realization plan does not replay to the relabeled seed"
        return None
    if kind in ("periods", "matrix_periods"):
        principal = kind == "periods"
        max_len = SEED_PERIOD_LEN if principal else MATRIX_PERIOD_LEN
        want = ref.periods(rows, max_len, principal)
        if list(result) != want:
            return f"{len(result)} periods, reference finds {len(want)}"
        return None
    if kind == "belt":
        keys = {s.canonical_key() for s in result.seeds}
        if result.return_period is not None or len(keys) != q["steps"] + 1:
            return f"belt returned at {result.return_period} with {len(keys)} distinct seeds"
        return None
    if kind == "word":
        if result.holds != q["holds"]:
            return f"period predicate {result.holds}, expected {q['holds']}"
        return None
    if kind == "lp":
        want = LP_ORDERS[family]
        got = (len(result.L_members), len(result.P_members))
        if got != want or not (result.L_exact and result.P_exact):
            return f"|L|,|P| = {got}, expected {want} exactly"
        return None
    if kind == "distinguish":
        if result is None:
            return "no distinguishing witness"
        if not _separates(lib, q, result):
            return "witness does not separate the period sets"
        return None
    ft, fmt, acyclic = STATUSES[family]
    if kind == "classify":
        got = (result.finite_type, result.finite_mutation_type, result.mutation_acyclic)
        if got != (ft, fmt, acyclic):
            return f"statuses {got}, expected {(ft, fmt, acyclic)}"
        B = lib.ExchangeMatrix(rows)
        for w, bound in ((result.finite_type_witness, 3), (result.finite_mutation_type_witness, 4)):
            if w is not None and not w.replay(B, bound):
                return f"bound-{bound} witness does not replay"
        return None
    if kind == "finite_type":
        return _decision_problem(lib, rows, result, ft, 3)
    if kind == "finite_mutation_type":
        return _decision_problem(lib, rows, result, fmt, 4)
    if kind == "class":
        size = CLASS_SIZE[family]
        if size is None:
            ok = not result.complete and len(result) == CLASS_BUDGET
        else:
            ok = result.complete and len(result) == size
        return None if ok else f"class of {len(result)} (complete={result.complete})"
    raise ValueError(f"unknown query kind {kind!r}")

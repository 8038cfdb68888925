"""The acceptance check suite.

Eleven named checks, each an independent pass/fail unit over pinned
fixtures: orbit closure and figure clusters, period facts, belts, the
two counter-example matrices, realization, group-order exactness, the
equivariant-group comparison, the property battery, classification
statuses, and the finiteness probe.  The CLI runs them as a table; the
test suite runs them one per test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from .classify import (
    automorphism_finiteness_probe,
    classify,
    is_finite_mutation_type,
    is_finite_type,
    main1_conditions,
)
from .exchange import (
    ExchangeMatrix,
    Permutation,
    all_permutations,
)
from .fixtures import (
    a2_matrix,
    a3_alternating_matrix,
    a3_path_matrix,
    a4_path_matrix,
    acyclic_triangle,
    b2_matrix,
    cyclic_triangle,
    fork3,
    fork_chord_triangle,
    g2_matrix,
    kronecker_matrix,
    markov_matrix,
    path3,
    rank4_v1_matrix,
    weighted_path3_matrix,
    zero_matrix,
)
from .groups import compute_L_P, enumerate_aut_plus, equivariant_automorphisms
from .periodicity import (
    bipartite_belt,
    find_periods,
    is_sigma_period,
    period_set_distinguisher,
)
from .realize import realize_permutation
from .seeds import LabeledSeed, apply_sequence, orbit, permute_seed, seed_equivalence
from .symbolic import LaurentPoly


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float = 0.0  # wall time of the check, set by run_all


def _fails(failures: list[str], cond: bool, label: str) -> None:
    if not cond:
        failures.append(label)


def _result(number: int, name: str, failures: list[str]) -> CheckResult:
    return CheckResult(number, name, not failures, "; ".join(failures[:6]))


def _seed(B: ExchangeMatrix) -> LabeledSeed:
    return LabeledSeed.initial(B)


def check_rank2_orbit() -> CheckResult:
    """Mutation-only closure of the rank-2 simple seed and its figure values."""
    f: list[str] = []
    g = orbit(_seed(a2_matrix()), max_seeds=50)
    _fails(f, g.complete, "orbit did not close")
    _fails(f, len(g) == 10, f"expected 10 labeled seeds, got {len(g)}")

    x1 = LaurentPoly.generator(2, 1)
    x2 = LaurentPoly.generator(2, 2)
    v3 = LaurentPoly(2, {(-1, 0): 1, (-1, 1): 1})  # (1+x2)/x1
    v4 = LaurentPoly(2, {(0, -1): 1, (1, -1): 1})  # (1+x1)/x2
    v5 = LaurentPoly(2, {(-1, -1): 1, (0, -1): 1, (-1, 0): 1})  # (1+x1+x2)/(x1 x2)
    seen = {p for s in g.seeds for p in s.cluster}
    _fails(f, seen == {x1, x2, v3, v4, v5}, "variable set differs from the figure")
    _fails(
        f,
        any(s.cluster == (v5, v4) for s in g.seeds),
        "figure seed ((1+x1+x2)/(x1 x2), (1+x1)/x2) missing",
    )

    reps: list[LabeledSeed] = []
    for s in g.seeds:
        if all(seed_equivalence(s, r).kind == "distinct" for r in reps):
            reps.append(s)
    _fails(f, len(reps) == 5, f"expected 5 unlabeled classes, got {len(reps)}")
    return _result(1, "rank-2 orbit closure and figure clusters", f)


def check_rank2_periods() -> CheckResult:
    f: list[str] = []
    s = _seed(a2_matrix())
    swap = Permutation.transposition(2, 1, 2)
    ident = Permutation.identity(2)
    _fails(
        f,
        is_sigma_period(s, (1, 2, 1, 2, 1), swap).holds,
        "(1,2,1,2,1) is not a swap-period",
    )
    ten = tuple(1 if i % 2 == 0 else 2 for i in range(10))
    _fails(f, is_sigma_period(s, ten, ident).holds, "length-10 sequence is not a period")
    _fails(
        f,
        is_sigma_period(a2_matrix(), (1, 2), ident).holds,
        "(1,2) is not a matrix period",
    )
    found = find_periods(_seed(kronecker_matrix(2)), ident, max_len=12)
    _fails(f, found == [], f"double-arrow seed has unexpected periods: {found[:2]}")
    return _result(2, "rank-2 seed, relabeling and matrix periods", f)


def check_belts() -> CheckResult:
    f: list[str] = []
    r2 = bipartite_belt(_seed(a2_matrix()), steps=10)
    _fails(f, r2.return_period == 10, f"rank-2 belt returned at {r2.return_period}")
    _fails(f, (r2.dynkin_name, r2.coxeter_number) == ("A2", 3), "rank-2 labeling off")
    _fails(f, r2.return_period == 2 * (r2.coxeter_number + 2), "rank-2 2(h+2) mismatch")

    r3 = bipartite_belt(_seed(a3_alternating_matrix()), steps=12)
    _fails(f, r3.return_period == 12, f"rank-3 belt returned at {r3.return_period}")
    _fails(f, (r3.dynkin_name, r3.coxeter_number) == ("A3", 4), "rank-3 labeling off")
    _fails(f, r3.return_period == 2 * (r3.coxeter_number + 2), "rank-3 2(h+2) mismatch")

    rk = bipartite_belt(_seed(kronecker_matrix(2)), steps=40)
    _fails(f, rk.return_period is None, "double-arrow belt unexpectedly returned")
    distinct = len(set(rk.seeds))
    _fails(f, distinct == 41, f"belt seeds not pairwise distinct: {distinct}")
    variables = {p for s in rk.seeds for p in s.cluster}
    _fails(f, len(variables) == 42, f"expected 42 distinct variables, got {len(variables)}")
    return _result(3, "bipartite belt returns and divergence", f)


def check_counterexample_rank4() -> CheckResult:
    f: list[str] = []
    B = rank4_v1_matrix()
    _fails(f, B.v() == 1, f"v(B) = {B.v()}, expected 1")
    _fails(f, main1_conditions(B, budget=200).i, "condition (i) not established")
    for seq in ((4, 2), (2, 4)):
        M = B.apply(seq)
        _fails(f, M.v() == 3, f"max entry after {seq} is {M.v()}, expected 3")
    fmt = is_finite_mutation_type(B, budget=200)
    _fails(f, fmt.status == "no", f"finite_mutation_type = {fmt.status}")
    _fails(
        f,
        fmt.witness is not None and fmt.witness.replay(B, 4),
        "mutation-infinite witness failed replay",
    )
    return _result(4, "all-simple-arrow 4x4 counter-example", f)


def check_counterexample_weighted_path() -> CheckResult:
    f: list[str] = []
    B = weighted_path3_matrix()
    _fails(f, B.is_acyclic(), "matrix is not acyclic")
    _fails(f, B.v() == 2, f"v(B) = {B.v()}, expected 2")
    _fails(f, B.underlying_triangles() == [], "underlying graph has a 3-cycle")
    _fails(f, main1_conditions(B, budget=200).ii, "condition (ii) not established")
    M = B.apply((2, 1))
    _fails(f, M.v() == 3, f"max entry after (2,1) is {M.v()}, expected 3")
    fmt = is_finite_mutation_type(B, budget=200)
    _fails(f, fmt.status == "no", f"finite_mutation_type = {fmt.status}")
    _fails(
        f,
        fmt.witness is not None and fmt.witness.replay(B, 4),
        "mutation-infinite witness failed replay",
    )
    return _result(5, "weighted-path 3x3 counter-example", f)


def check_realization() -> CheckResult:
    f: list[str] = []
    s4 = _seed(a4_path_matrix())
    sigma = Permutation.from_cycle_notation(4, "(1 4)(2 3)")
    staged = (
        (1, 2, 1, 2, 1) + (1, 3, 1, 3, 1) + (1, 4, 1, 4, 1),
        (2, 3, 2, 3, 2) + (2, 4, 2, 4, 2),
        (3, 4, 3, 4, 3),
    )
    flat: tuple[int, ...] = ()
    for stage in staged:
        flat = flat + stage
    target = permute_seed(s4, sigma)
    moved = apply_sequence(s4, flat)
    _fails(f, moved == target, "published staged sequences do not reach the relabeling")
    _fails(
        f,
        moved.cluster == tuple(reversed(s4.cluster)),
        "cluster is not the reversal",
    )
    plan = realize_permutation(s4, sigma)
    _fails(f, plan.verified, "own plan for the rank-4 reversal failed")

    s3 = _seed(a3_path_matrix())
    for sig in all_permutations(3):
        plan3 = realize_permutation(s3, sig)
        _fails(f, plan3.verified, f"rank-3 plan failed for {sig.cycle_notation()}")

    rng = random.Random(413)
    pool = list(all_permutations(4))
    for _ in range(20):
        sig = rng.choice(pool)
        plan4 = realize_permutation(s4, sig)
        _fails(f, plan4.verified, f"rank-4 plan failed for {sig.cycle_notation()}")
    return _result(6, "permutation realization by swap gadgets", f)


def check_group_exactness() -> CheckResult:
    f: list[str] = []
    a2 = enumerate_aut_plus(_seed(a2_matrix()), budget=100)
    s = a2.summary
    _fails(
        f,
        (s.saut_order, s.aut_plus_order, s.L_order, s.P_order) == (5, 5, 2, 2),
        f"rank-2 orders {s.saut_order},{s.aut_plus_order},{s.L_order},{s.P_order}",
    )
    _fails(f, s.exactness_verified, "rank-2 exactness identity unverified")

    a3 = enumerate_aut_plus(_seed(a3_path_matrix()), budget=200)
    s3 = a3.summary
    _fails(
        f,
        (s3.saut_order, s3.aut_plus_order, s3.L_order, s3.P_order) == (6, 6, 6, 6),
        f"rank-3 orders {s3.saut_order},{s3.aut_plus_order},{s3.L_order},{s3.P_order}",
    )
    _fails(f, s3.exactness_verified, "rank-3 exactness identity unverified")

    lp = compute_L_P(_seed(kronecker_matrix(2)), budget=30)
    _fails(f, lp.L_exact and len(lp.L_members) == 2, "double arrow: L is not S_2")
    _fails(
        f,
        lp.P_exact and [p.cycle_notation() for p in lp.P_members] == ["id"],
        "double arrow: P is not the trivial group",
    )
    return _result(7, "group order exactness identity", f)


def check_equivariant_groups() -> CheckResult:
    f: list[str] = []
    for name, B, budget, expected in (
        ("rank-2", a2_matrix(), 50, 10),
        ("rank-3", a3_path_matrix(), 200, 12),
    ):
        g = orbit(_seed(B), max_seeds=budget, with_permutations=True)
        _fails(f, g.complete, f"{name} relabeling orbit did not close")
        eq = equivariant_automorphisms(g)
        _fails(f, eq.kp_identity, f"{name}: |W| != direct+inverse count")
        _fails(
            f,
            eq.w_order == eq.aut_order,
            f"{name}: W has {eq.w_order} of {eq.aut_order} elements",
        )
        _fails(
            f,
            eq.w_order == eq.aut_A_order == expected,
            f"{name}: orders {eq.w_order}, {eq.aut_A_order}, expected {expected}",
        )
        _fails(f, eq.verify_group(), f"{name}: equivariant set is not a group")
    return _result(8, "equivariant bijections equal their sign subgroup", f)


def _random_walk(rng: random.Random, B: ExchangeMatrix, depth: int) -> list[int]:
    seq: list[int] = []
    for _ in range(depth):
        k = rng.randrange(1, B.n + 1)
        while seq and seq[-1] == k:
            k = rng.randrange(1, B.n + 1)
        seq.append(k)
    return seq


def check_property_battery() -> CheckResult:
    f: list[str] = []
    rng = random.Random(271)
    pool = [
        a2_matrix(),
        b2_matrix(),
        g2_matrix(),
        a3_path_matrix(),
        markov_matrix(),
        kronecker_matrix(2),
        cyclic_triangle(1, 1, 1),
        acyclic_triangle(1, 1, 2),
        rank4_v1_matrix(),
        weighted_path3_matrix(),
    ]
    bad_involution = 0
    for _ in range(10_000):
        M = rng.choice(pool)
        for k in _random_walk(rng, M, rng.randrange(0, 4)):
            M = M.mutate(k)
        k = rng.randrange(1, M.n + 1)
        if M.mutate(k).mutate(k) != M:
            bad_involution += 1
    _fails(f, bad_involution == 0, f"{bad_involution} involution failures")

    bad_wk = 0
    for _ in range(300):
        M = rng.choice(pool)
        for k in _random_walk(rng, M, 2):
            M = M.mutate(k)
        sigma = rng.choice(list(all_permutations(M.n)))
        k = rng.randrange(1, M.n + 1)
        if M.permute(sigma).mutate(k) != M.mutate(sigma(k)).permute(sigma):
            bad_wk += 1
    _fails(f, bad_wk == 0, f"{bad_wk} matrix relabeling-identity failures")

    for B in (a2_matrix(), a3_path_matrix(), b2_matrix()):
        s = _seed(B)
        for _ in range(10):
            walk = _random_walk(rng, B, 2)
            t = apply_sequence(s, walk)
            sigma = rng.choice(list(all_permutations(B.n)))
            k = rng.randrange(1, B.n + 1)
            if permute_seed(t, sigma).mutate(k) != permute_seed(t.mutate(sigma(k)), sigma):
                _fails(f, False, "seed relabeling identity failed")
                break

    for B in (a3_path_matrix(), cyclic_triangle(1, 1, 2), rank4_v1_matrix()):
        s = _seed(B)
        for _ in range(6):
            t = apply_sequence(s, _random_walk(rng, B, 8))
            _fails(
                f,
                all(p.all_coefficients_positive() for p in t.cluster),
                "negative coefficient on a depth-8 walk",
            )

    for B, budget in ((a2_matrix(), 50), (a3_path_matrix(), 200)):
        g = orbit(_seed(B), max_seeds=budget)
        seeds = g.seeds
        for i in range(len(seeds)):
            for j in range(i + 1, len(seeds)):
                seed_equivalence(seeds[i], seeds[j])  # raises on inconsistency

    checks = [
        (_seed(zero_matrix(2)), (1, 2, 1, 2), Permutation.identity(2)),
        (_seed(a2_matrix()), tuple(1 if i % 2 == 0 else 2 for i in range(10)),
         Permutation.identity(2)),
        (_seed(a2_matrix()), (1, 2, 1, 2, 1), Permutation.transposition(2, 1, 2)),
    ]
    for s, seq, sigma in checks:
        if is_sigma_period(s, seq, sigma).holds:
            _fails(
                f,
                is_sigma_period(s.matrix, seq, sigma).holds,
                f"seed period {seq} is not a matrix period",
            )
        else:
            _fails(f, False, f"expected seed period {seq} does not hold")

    for B in (a2_matrix(), b2_matrix(), zero_matrix(2)):
        ident = Permutation.identity(B.n)
        p_plus = set(find_periods(_seed(B), ident, max_len=6))
        p_minus = set(find_periods(_seed(-B), ident, max_len=6))
        _fails(f, p_plus == p_minus, "negating the matrix changed the period set")
    _fails(
        f,
        set(find_periods(_seed(zero_matrix(2)), Permutation.identity(2), max_len=4))
        == {(1, 2, 1, 2), (2, 1, 2, 1)},
        "arrowless rank-2 period set differs",
    )

    le3_a, le3_b = _seed(path3(1, 1)), _seed(fork3(1, 1))
    m1 = path3(1, 1).apply((2,))
    m2 = fork3(1, 1).apply((2,))
    _fails(
        f,
        abs(m1.entry(1, 3) * m1.entry(3, 1)) == 1
        and abs(m2.entry(1, 3) * m2.entry(3, 1)) == 0,
        "post-mutation corner weights are not 1 vs 0",
    )
    le4_a, le4_b = _seed(acyclic_triangle(1, 1, 2)), _seed(fork_chord_triangle(1, 1, 2))
    m3 = acyclic_triangle(1, 1, 2).apply((3,))
    m4 = fork_chord_triangle(1, 1, 2).apply((3,))
    _fails(
        f,
        abs(m3.entry(1, 2)) == 1 and abs(m4.entry(1, 2)) == 3,
        "post-mutation side weights are not 1 vs 3",
    )
    pairs = [
        ("oriented path vs sink fork", le3_a, le3_b),
        ("chordal acyclic vs chordal fork", le4_a, le4_b),
        ("chordal acyclic vs directed cycle", le4_a, _seed(cyclic_triangle(1, 1, 2))),
    ]
    ident3 = Permutation.identity(3)
    for label, sa, sb in pairs:
        w = period_set_distinguisher(sa, sb, depth=3, period_len=10)
        if w is None:
            _fails(f, False, f"no distinguishing witness for {label}")
            continue
        ta = apply_sequence(sa, w.conjugator)
        tb = apply_sequence(sb, w.conjugator)
        # a seed's "no" comes from its key, without the exploding exact cluster
        pa = is_sigma_period(ta, w.period, ident3).holds
        pb = is_sigma_period(tb, w.period, ident3).holds
        _fails(f, pa != pb, f"witness for {label} does not separate")
        _fails(f, (1 if pa else 2) == w.period_holds_on, f"witness side wrong for {label}")
    return _result(9, "property battery", f)


def check_classification() -> CheckResult:
    f: list[str] = []
    for name, B in (
        ("rank-2 simple", a2_matrix()),
        ("rank-3 path", a3_path_matrix()),
        ("rank-2 weighted", b2_matrix()),
    ):
        d = is_finite_type(B, budget=100)
        _fails(f, d.status == "yes", f"{name}: finite_type = {d.status}")
    for name, B in (
        ("double arrow", kronecker_matrix(2)),
        ("4x4 counter-example", rank4_v1_matrix()),
        ("weighted path", weighted_path3_matrix()),
    ):
        d = is_finite_type(B, budget=200)
        _fails(f, d.status == "no", f"{name}: finite_type = {d.status}")
        _fails(
            f,
            d.witness is not None and d.witness.replay(B, 3),
            f"{name}: finite-type witness failed replay",
        )
    d = is_finite_mutation_type(markov_matrix(), budget=50)
    _fails(f, d.status == "yes", f"double triangle: finite_mutation_type = {d.status}")
    for name, B in (
        ("4x4 counter-example", rank4_v1_matrix()),
        ("weighted path", weighted_path3_matrix()),
    ):
        d = is_finite_mutation_type(B, budget=200)
        _fails(f, d.status == "no", f"{name}: finite_mutation_type = {d.status}")
        _fails(
            f,
            d.witness is not None and d.witness.replay(B, 4),
            f"{name}: mutation-type witness failed replay",
        )
    record = classify(a2_matrix(), budget=100)
    _fails(f, record.finite_type == "yes", "record finite_type wrong")
    _fails(f, record.dynkin == "A2", f"record dynkin = {record.dynkin}")
    return _result(10, "classification statuses with witnesses", f)


def check_finiteness_probe() -> CheckResult:
    f: list[str] = []
    for name, B in (("rank-2 simple", a2_matrix()), ("rank-3 path", a3_path_matrix())):
        p = automorphism_finiteness_probe(_seed(B), budget=100)
        _fails(f, p.status == "finite", f"{name}: probe says {p.status}")
    for name, B in (("double arrow", kronecker_matrix(2)), ("double triangle", markov_matrix())):
        s = _seed(B)
        p = automorphism_finiteness_probe(s, budget=100)
        _fails(f, p.status == "infinite", f"{name}: probe says {p.status}")
        _fails(f, p.witness == (1, 2), f"{name}: witness {p.witness}")
        _fails(f, p.replay(s), f"{name}: witness failed replay")
    return _result(11, "automorphism-finiteness probe", f)


CHECKS: list[Callable[[], CheckResult]] = [
    check_rank2_orbit,
    check_rank2_periods,
    check_belts,
    check_counterexample_rank4,
    check_counterexample_weighted_path,
    check_realization,
    check_group_exactness,
    check_equivariant_groups,
    check_property_battery,
    check_classification,
    check_finiteness_probe,
]


def run_all() -> list[CheckResult]:
    results = []
    for check in CHECKS:
        start = perf_counter()
        result = check()
        result.seconds = perf_counter() - start
        results.append(result)
    return results

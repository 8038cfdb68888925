"""Command line interface.

Subcommands cover mutation, orbit search, period search, the bipartite
belt, classification, automorphism groups, permutation realization,
period-set distinguishers, the acceptance check table, and a small
interactive loop.  Machine-readable subcommands print JSON; the rest
print plain text.  Exit codes: 0 on success (including reported
truncation), 1 on usage or input errors, 2 on an invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from .classify import classify
from .errors import InvariantViolation, NotDivisible
from .exchange import ExchangeMatrix, Permutation, is_inflexion, validate_sequence
from .groups import enumerate_aut_plus
from .periodicity import bipartite_belt, find_periods, period_set_distinguisher
from .realize import realize_permutation
from .seeds import (
    LabeledSeed,
    apply_sequence,
    format_sequence,
    orbit,
    parse_sequence,
    permute_seed,
    seed_from_json,
    seed_to_json,
)
from .verification import run_all


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(least: int, what: str) -> Callable[[str], int]:
    """An argparse type for ints >= least; argparse names the flag in its error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    return parse


_positive = _int_at_least(1, "positive")
_nonnegative = _int_at_least(0, "non-negative")


def _load_seed(path: str) -> tuple[LabeledSeed, list[str]]:
    """Read a seed file: a bare matrix, or an object with "n", "matrix" and optional "names"."""
    text = Path(path).read_text()
    try:
        return seed_from_json(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _print_seed(s: LabeledSeed, names: list[str]) -> None:
    for i, p in enumerate(s.cluster, start=1):
        print(f"x[{i}] = {p.pretty(names)}")
    print("matrix:")
    for row in s.matrix.rows:
        print("  [" + " ".join(f"{v:3d}" for v in row) + "]")


def _cmd_mutate(args: argparse.Namespace) -> int:
    s, names = _load_seed(args.seed)
    seq = parse_sequence(args.sequence)
    validate_sequence(seq, s.rank)
    _print_seed(apply_sequence(s, seq), names)
    return 0


def _cmd_orbit(args: argparse.Namespace) -> int:
    s, _ = _load_seed(args.seed)
    g = orbit(s, max_seeds=args.max_seeds, with_permutations=args.with_permutations)
    kind = "mutations and relabelings" if args.with_permutations else "mutations"
    if g.complete:
        print(f"orbit closed: {len(g)} labeled seeds under {kind}")
    else:
        print(f"orbit truncated at {len(g)} seeds (budget {args.max_seeds})")
    for line in g.dump_lines():
        print(line)
    return 0


def _cmd_periods(args: argparse.Namespace) -> int:
    s, _ = _load_seed(args.seed)
    sigma = Permutation.from_cycle_notation(s.rank, args.sigma)
    target = s.matrix if args.matrix_only else s
    found = find_periods(target, sigma, max_len=args.max_len,
                         essential_only=args.essential)
    kind = "matrix" if args.matrix_only else "seed"
    if not found:
        print(f"no {kind} periods for sigma={sigma.cycle_notation()} "
              f"up to length {args.max_len}")
        return 0
    print(f"{len(found)} {kind} period(s) for sigma={sigma.cycle_notation()}:")
    for seq in found:
        print("  " + format_sequence(seq))
    return 0


def _cmd_belt(args: argparse.Namespace) -> int:
    s, names = _load_seed(args.seed)
    report = bipartite_belt(s, steps=args.steps)
    eps = " ".join("+" if e > 0 else "-" for e in report.epsilon)
    print(f"sign pattern: {eps}")
    print(f"steps applied: {len(report.seeds) - 1} (requested {args.steps})")
    if report.return_period is not None:
        print(f"returns to the initial seed at step {report.return_period}")
    else:
        print("no return within the requested steps")
    if report.dynkin_name is not None:
        print(f"type {report.dynkin_name}, coxeter number {report.coxeter_number}")
    print("final seed:")
    _print_seed(report.seeds[-1], names)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    B = _load_seed(args.matrix)[0].matrix
    print(classify(B, budget=args.budget).to_json())
    return 0


def _cmd_groups(args: argparse.Namespace) -> int:
    s, _ = _load_seed(args.seed)
    print(enumerate_aut_plus(s, budget=args.budget).summary.to_json())
    return 0


def _cmd_realize(args: argparse.Namespace) -> int:
    s, _ = _load_seed(args.seed)
    sigma = Permutation.from_cycle_notation(s.rank, args.sigma)
    plan = realize_permutation(s, sigma)
    for line in plan.describe():
        print(line)
    print("verified: replay reaches the relabeled seed")
    return 0


def _cmd_distinguish(args: argparse.Namespace) -> int:
    sa, _ = _load_seed(args.seed_a)
    sb, _ = _load_seed(args.seed_b)
    w = period_set_distinguisher(sa, sb, depth=args.depth,
                                 period_len=args.period_len)
    if w is None:
        print(f"no separating period found (conjugators to depth {args.depth}, "
              f"periods to length {args.period_len})")
        return 0
    conj = format_sequence(w.conjugator) or "(empty)"
    per = format_sequence(w.period)
    print(f"conjugator: {conj}")
    print(f"period: {per}")
    print(f"holds for seed {w.period_holds_on} only")
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    results = run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        line = f"[{mark}] check {r.number:2d}  {r.name:<{width}}  {r.seconds:6.2f} s"
        if not r.passed and r.details:
            line += f"  ({r.details})"
        print(line)
    good = sum(1 for r in results if r.passed)
    print(f"{good}/{len(results)} checks passed")
    return 0 if good == len(results) else 2


def _repl_info(B: ExchangeMatrix) -> None:
    print(f"rank {B.n}, v(B) = {B.v()}, "
          f"{'skew-symmetric' if B.is_skew_symmetric() else 'skew-symmetrizable'}, "
          f"symmetrizer {list(B.symmetrizer)}")
    eps = B.bipartition()
    if eps is None:
        print("not bipartite")
    else:
        print("bipartite: " + " ".join("+" if e > 0 else "-" for e in eps))
    triples = [
        (j, i, k)
        for i in range(1, B.n + 1)
        for j in range(1, B.n + 1)
        for k in range(j + 1, B.n + 1)
        if i not in (j, k) and is_inflexion(B, i, j, k)
    ]
    if triples:
        print("inflexions (arrows pass through the middle vertex): "
              + " ".join(f"{j}-{i}-{k}" for j, i, k in triples))
    else:
        print("no inflexions")


def _cmd_repl(args: argparse.Namespace) -> int:
    current, names = _load_seed(args.seed)
    history: list[LabeledSeed] = []
    print("commands: m <k> | u | p <sigma> | info | save <file> | q")
    _print_seed(current, names)
    while True:
        try:
            line = input("clusteralg> ").strip()
        except EOFError:
            print()
            return 0
        if not line:
            continue
        op, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if op == "q" or op == "quit":
                return 0
            elif op == "m":
                k = int(rest)
                validate_sequence((k,), current.rank)
                history.append(current)
                current = current.mutate(k)
                _print_seed(current, names)
            elif op == "u":
                if history:
                    current = history.pop()
                    _print_seed(current, names)
                else:
                    print("nothing to undo")
            elif op == "p":
                sigma = Permutation.from_cycle_notation(current.rank, rest)
                history.append(current)
                current = permute_seed(current, sigma)
                _print_seed(current, names)
            elif op == "info":
                _repl_info(current.matrix)
            elif op == "save":
                if not rest:
                    print("usage: save <file>")
                    continue
                Path(rest).write_text(seed_to_json(current.matrix, names) + "\n")
                print(f"saved matrix to {rest}")
            else:
                print(f"unknown command: {op}")
        except (ValueError, IndexError, OSError) as exc:
            print(f"error: {exc}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="clusteralg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("mutate", help="apply a mutation sequence to a seed")
    p.add_argument("--seed", required=True, help="seed JSON file")
    p.add_argument("--sequence", required=True,
                   help="comma separated 1-based indices, applied left to right")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("orbit", help="breadth-first seed orbit")
    p.add_argument("--seed", required=True)
    p.add_argument("--max-seeds", type=_positive, required=True)
    p.add_argument("--with-permutations", action="store_true",
                   help="also close under relabelings")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("periods", help="search sigma-periods of a seed")
    p.add_argument("--seed", required=True)
    p.add_argument("--sigma", default="id", help='cycle notation, e.g. "(1 2)"')
    p.add_argument("--max-len", type=_nonnegative, required=True)
    p.add_argument("--matrix-only", action="store_true",
                   help="search matrix periods instead of seed periods")
    p.add_argument("--essential", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="restrict to sequences without immediate repeats")
    p.set_defaults(func=_cmd_periods)

    p = sub.add_parser("belt", help="walk the bipartite belt")
    p.add_argument("--seed", required=True)
    p.add_argument("--steps", type=_nonnegative, required=True)
    p.set_defaults(func=_cmd_belt)

    p = sub.add_parser("classify", help="type classification as JSON")
    p.add_argument("--matrix", required=True,
                   help="matrix JSON file (bare array or seed file)")
    p.add_argument("--budget", type=_positive, required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("groups", help="automorphism group orders as JSON")
    p.add_argument("--seed", required=True)
    p.add_argument("--budget", type=_positive, required=True)
    p.set_defaults(func=_cmd_groups)

    p = sub.add_parser("realize", help="realize a relabeling by mutations")
    p.add_argument("--seed", required=True)
    p.add_argument("--sigma", required=True, help='cycle notation, e.g. "(1 4)(2 3)"')
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("distinguish",
                       help="separate two seeds by a conjugated period")
    p.add_argument("--seed-a", required=True)
    p.add_argument("--seed-b", required=True)
    p.add_argument("--depth", type=_nonnegative, required=True)
    p.add_argument("--period-len", type=_nonnegative, required=True)
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("verify-paper", help="run the acceptance check table")
    p.set_defaults(func=_cmd_verify_paper)

    p = sub.add_parser("repl", help="interactive mutation loop")
    p.add_argument("--seed", required=True)
    p.set_defaults(func=_cmd_repl)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvariantViolation, NotDivisible) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

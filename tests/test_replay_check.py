"""One check for every reported word: exchange._require_replays.

Every caller that reports a word (a period, a group element, an L or P
witness, a swap gadget, a probe candidate) replays it through
_require_replays, and a replay that misses raises InvariantViolation
with the one message "<what> word <word> does not replay".  A structural
test keeps it so: nothing else in the package reads _replay, and no
cycle_notation() string keys a dict.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import clusteralg
from clusteralg import exchange
from clusteralg.classify import automorphism_finiteness_probe
from clusteralg.errors import InvariantViolation
from clusteralg.exchange import ExchangeMatrix, Permutation
from clusteralg.fixtures import a2_matrix, kronecker_matrix
from clusteralg.groups import compute_L_P, enumerate_aut_plus, enumerate_saut_plus
from clusteralg.periodicity import find_periods, is_sigma_period
from clusteralg.realize import swap_gadget
from clusteralg.seeds import LabeledSeed

PACKAGE = Path(clusteralg.__file__).parent
SWAP = Permutation.transposition(2, 1, 2)


def _a2() -> LabeledSeed:
    return LabeledSeed.initial(a2_matrix())


# (label in the message, the root type whose replays are corrupted, the call)
CALLERS = {
    "SAut+": ("SAut+", LabeledSeed, lambda: enumerate_saut_plus(_a2(), 100)),
    "Aut+": ("Aut+", LabeledSeed, lambda: enumerate_aut_plus(_a2(), 100)),
    "L": ("L", ExchangeMatrix, lambda: compute_L_P(_a2(), 100)),
    "P": ("P", LabeledSeed, lambda: compute_L_P(_a2(), 100)),
    # a budget of 1 cuts both closures, so the swap falls to the rank-2 rules
    "rank-2 L": ("rank-2 L", ExchangeMatrix, lambda: compute_L_P(_a2(), 1)),
    "rank-2 P": ("rank-2 P", LabeledSeed, lambda: compute_L_P(_a2(), 1)),
    "swap gadget": ("swap gadget", LabeledSeed, lambda: swap_gadget(_a2(), 1, 2)),
    "is_sigma_period": (
        "period", LabeledSeed, lambda: is_sigma_period(_a2(), (1, 2, 1, 2, 1), SWAP)
    ),
    "find_periods": ("period", ExchangeMatrix, lambda: find_periods(a2_matrix(), SWAP, 5)),
    "probe": (
        "probe candidate",
        ExchangeMatrix,
        lambda: automorphism_finiteness_probe(LabeledSeed.initial(kronecker_matrix(2)), 10),
    ),
}


@pytest.mark.parametrize("caller", CALLERS.values(), ids=CALLERS.keys())
def test_a_corrupted_replay_raises_the_one_message(monkeypatch, caller):
    what, kind, call = caller
    call()  # the uncorrupted call passes its check
    real = exchange._replay
    wrong = object()  # equal to no seed and no matrix

    def corrupted(root, words):
        for word, end in real(root, words):
            yield word, (wrong if isinstance(root, kind) else end)

    monkeypatch.setattr(exchange, "_replay", corrupted)
    message = rf"^{re.escape(what)} word \(.*\) does not replay$"
    with pytest.raises(InvariantViolation, match=message) as exc:
        call()
    # the message is that of _require_replays, raised from _require_replays
    assert exc.traceback[-1].name == "_require_replays"


def test_require_replays_names_the_first_word_that_misses():
    # each mutation of a rank-2 matrix negates it
    B = a2_matrix()
    exchange._require_replays(B, {(): B, (1,): -B, (1, 2): B, (2, 1, 2): -B}, "test")
    with pytest.raises(InvariantViolation, match=r"^test word \(1, 2\) does not replay$"):
        exchange._require_replays(B, {(): B, (1,): -B, (1, 2): -B, (2, 1, 2): B}, "test")


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _functions_reading(tree: ast.Module, name: str) -> list[str]:
    """The top-level definitions of tree (or "<module>") that load name."""
    out = []
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for sub in ast.walk(node):
            loads = (isinstance(sub, ast.Name) and sub.id == name and isinstance(sub.ctx, ast.Load))
            if loads or (isinstance(sub, ast.Attribute) and sub.attr == name):
                out.append(owner)
    return out


def test_only_require_replays_reads_replay():
    readers = [
        f"{module}:{owner}"
        for module, tree in _modules().items()
        for owner in _functions_reading(tree, "_replay")
    ]
    assert readers == ["exchange.py:_require_replays"]


def _is_cycle_notation(node: ast.AST | None) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "cycle_notation"
    )


def _own_nodes(scope: ast.AST):
    """The nodes of scope, without descending into the functions it defines."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _cycle_notation_keys(tree: ast.Module) -> list[int]:
    """Lines where a string label indexes, keys or looks up a dict.

    A label is a cycle_notation() result, a local name of the same scope
    bound to one, or an f-string.
    """
    lines = []
    scopes = [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]
    for scope in scopes:
        nodes = list(_own_nodes(scope))
        labels = {
            target.id
            for node in nodes
            if isinstance(node, ast.Assign) and _is_cycle_notation(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }

        def is_label(key: ast.AST | None) -> bool:
            return (
                _is_cycle_notation(key)
                or isinstance(key, ast.JoinedStr)
                or (isinstance(key, ast.Name) and key.id in labels)
            )

        for node in nodes:
            keys: list = []
            if isinstance(node, ast.Subscript):
                keys = [node.slice]
            elif isinstance(node, ast.Dict):
                keys = node.keys
            elif isinstance(node, ast.DictComp):
                keys = [node.key]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "setdefault", "pop", "fromkeys")
            ):
                keys = node.args[:1]
            lines.extend(node.lineno for key in keys if is_label(key))
    return sorted(lines)


def test_no_cycle_notation_string_keys_a_dict():
    found = {module: _cycle_notation_keys(tree) for module, tree in _modules().items()}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_the_key_check_sees_the_old_string_keys():
    # the keying compute_L_P used before its witnesses were keyed by Permutation
    old = ast.parse(
        "out.L_witnesses[sigma.cycle_notation()] = w\n"
        "d = {g.cycle_notation(): w}\n"
        "ends[lp.P_witnesses[g.cycle_notation()]] = t\n"
    )
    assert _cycle_notation_keys(old) == [1, 2, 3]
    # the keying orbit used before its closure moves were labeled by themselves
    old = ast.parse(
        "def orbit(n, edges):\n"
        "    gens = {f'mu{k}': k for k in range(1, n + 1)}\n"
        "    for i in range(1, n):\n"
        "        g = Permutation.transposition(n, i, i + 1)\n"
        "        label = g.cycle_notation()\n"
        "        gens[label] = g\n"
        "    for source, label, target in edges:\n"
        "        g = gens[label]\n"
        "    names = {k: f'mu{k}' for k in range(1, n + 1)}\n"
        "    return names[g]\n"
    )
    assert _cycle_notation_keys(old) == [2, 6, 8]

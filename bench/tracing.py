"""Span tracing of the package's layers from outside the package.

Each traced function is replaced, wherever a caller looks it up (a
module attribute or a class attribute), by a wrapper that records a
span: name, start, end, parent span and query id.  Spans stay in memory
in flat arrays and are written out once, at the end of a run.  Self
time is a span's duration minus the time its direct children's wrappers
took, from wrapper entry to after the post hook.  The part of a wrapper
that lies outside its span (the bookkeeping and the hooks) is counted as
tracing overhead, so it inflates neither the child nor the parent.  The
wrappers cost nothing but a flag test while tracing is off, which is how
the oracle's own replays stay out of the trace.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter_ns

# module -> (label, attribute); "Class.attr" names a class attribute
LAYERS = {
    "symbolic": (
        ("mul", "LaurentPoly.__mul__"),
        ("pow", "LaurentPoly.pow"),
        ("exact_div", "exact_div"),
        ("canonical_string", "LaurentPoly.canonical_string"),
    ),
    "exchange": (
        ("construct", "ExchangeMatrix.__init__"),
        ("mutate_matrix", "mutate_matrix"),
        ("permute", "apply_permutation_matrix"),
        ("matrix_mutation_class", "matrix_mutation_class"),
    ),
    "seeds": (
        ("mutate_seed", "mutate_seed"),
        ("canonical_key", "LabeledSeed.canonical_key"),
        ("orbit", "orbit"),
    ),
    "periodicity": (
        ("bipartite_belt", "bipartite_belt"),
        ("find_periods", "find_periods"),
        ("is_sigma_period", "is_sigma_period"),
        ("period_set_distinguisher", "period_set_distinguisher"),
    ),
    "groups": (
        ("enumerate_aut_plus", "enumerate_aut_plus"),
        ("compute_L_P", "compute_L_P"),
        ("equivariant_automorphisms", "equivariant_automorphisms"),
    ),
    "classify": (("classify", "classify"),),
    "realize": (
        ("realize_permutation", "realize_permutation"),
        ("swap_gadget", "swap_gadget"),
    ),
}
# counted, not spanned: one bounded class search is one class traversal
COUNTED = (("classify", "_bounded_class_search"),)

# (counter, called function, ancestor): the call counts while the ancestor is open
NESTED_COUNTS = (
    ("class_builds", "seeds.orbit", "groups.enumerate_aut_plus"),
    ("class_builds", "exchange.matrix_mutation_class", "groups.enumerate_aut_plus"),
    ("equivariant_mutations", "seeds.mutate_seed", "groups.equivariant_automorphisms"),
    ("classify_traversals", "exchange.matrix_mutation_class", "classify.classify"),
    ("classify_traversals", "classify._bounded_class_search", "classify.classify"),
    ("classify_mutations", "exchange.mutate_matrix", "classify.classify"),
    ("realize_mutations", "seeds.mutate_seed", "realize.realize_permutation"),
    ("distinguisher_replays", "periodicity.is_sigma_period", "periodicity.period_set_distinguisher"),
)

SPAN_NAMES = tuple(f"{m}.{label}" for m, fns in LAYERS.items() for label, _ in fns)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.active: list[int] = []
        self.counters: dict[str, int] = {}
        self.overhead_ns = 0
        self.max_terms = 0
        self.orbit_seeds = 0
        self.orbit_new = 0
        self.orbit_applications = 0
        self.query_id = -1
        self.s_name = array("l")
        self.s_query = array("l")
        self.s_parent = array("l")
        self.s_start = array("q")
        self.s_end = array("q")
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []
        for name in SPAN_NAMES:
            self.intern(name)

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.active.append(0)
        return nid

    # -- spans -----------------------------------------------------------

    def enter(self, nid: int, rules) -> int:
        for counter, ancestor in rules:
            if self.active[ancestor]:
                self.counters[counter] = self.counters.get(counter, 0) + 1
        self.active[nid] += 1
        idx = len(self.s_start)
        self.s_name.append(nid)
        self.s_query.append(self.query_id)
        self.s_parent.append(self._stack[-1][0] if self._stack else -1)
        self.s_end.append(0)
        self._stack.append([idx, 0])
        self.s_start.append(perf_counter_ns())
        return idx

    def exit(self, idx: int, nid: int) -> int:
        """Close span `idx` and return its duration."""
        t = perf_counter_ns()
        self.s_end[idx] = t
        _, child_ns = self._stack.pop()
        duration = t - self.s_start[idx]
        self.self_ns[nid] += duration - child_ns
        self.calls[nid] += 1
        self.active[nid] -= 1
        return duration

    def charge(self, t0: int, inner_ns: int, spanned: bool) -> None:
        """Account for a wrapper entered at `t0` whose wrapped call took
        `inner_ns`: the rest of the wrapper's time is overhead, and the
        enclosing span does not count it as its own.  The call itself is
        the enclosing span's child time when it has a span of its own."""
        outer_ns = perf_counter_ns() - t0
        self.overhead_ns += outer_ns - inner_ns
        if self._stack:
            self._stack[-1][1] += outer_ns if spanned else outer_ns - inner_ns

    def begin_query(self, kind: str) -> int:
        self.query_id += 1
        self.on = True
        return self.enter(self.intern(f"query.{kind}"), ())

    def end_query(self, idx: int) -> None:
        self.exit(idx, self.s_name[idx])
        self.on = False

    # -- installation ----------------------------------------------------

    def install(self, package: str) -> None:
        """Wrap every traced function of the imported package `package`."""
        rules: dict[str, list[tuple[str, int]]] = {}
        for counter, callee, ancestor in NESTED_COUNTS:
            rules.setdefault(callee, []).append((counter, self.intern(ancestor)))
        for module, fns in LAYERS.items():
            for label, attr in fns:
                name = f"{module}.{label}"
                self._wrap(package, module, attr, self._span_wrapper(name, rules.get(name, ())))
        for module, attr in COUNTED:
            name = f"{module}.{attr}"
            self._wrap(package, module, attr, self._count_wrapper(rules.get(name, ())))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, package: str, module: str, attr: str, make) -> None:
        mod = sys.modules[f"{package}.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for name, m in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patched.append((m, key, original))
                    setattr(m, key, wrapper)

    def _span_wrapper(self, name: str, rules):
        nid = self.intern(name)
        post = _POST_HOOKS.get(name)
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                if not tracer.on:
                    return fn(*args, **kwargs)
                t0 = perf_counter_ns()
                idx = tracer.enter(nid, rules)
                returned = False
                try:
                    result = fn(*args, **kwargs)
                    returned = True
                finally:
                    inner_ns = tracer.exit(idx, nid)
                    if returned and post is not None:
                        post(tracer, result)
                    tracer.charge(t0, inner_ns, True)
                return result

            return traced

        return make

    def _count_wrapper(self, rules):
        tracer = self

        def make(fn):
            def counted(*args, **kwargs):
                if not tracer.on:
                    return fn(*args, **kwargs)
                t0 = perf_counter_ns()
                for counter, ancestor in rules:
                    if tracer.active[ancestor]:
                        tracer.counters[counter] = tracer.counters.get(counter, 0) + 1
                t1 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.charge(t0, perf_counter_ns() - t1, False)

            return counted

        return make

    # -- results ---------------------------------------------------------

    def _query_ids(self) -> list[int]:
        return [nid for nid, name in enumerate(self.names) if name.startswith("query.")]

    def wall_ns(self) -> int:
        """Total duration of the query spans."""
        roots = set(self._query_ids())
        return sum(
            self.s_end[i] - self.s_start[i]
            for i in range(len(self.s_start))
            if self.s_parent[i] == -1 and self.s_name[i] in roots
        )

    def layer_self_ns(self) -> int:
        return sum(self.self_ns[self._ids[name]] for name in SPAN_NAMES)

    def metrics(self, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        calls = {name: self.calls[self._ids[name]] for name in SPAN_NAMES}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self.self_ns[self._ids[name]] / 1e9, "s")
        c = self.counters.get
        out["symbolic.max_terms"] = (self.max_terms, "terms")
        out["seeds.orbit.seeds"] = (_ratio(self.orbit_seeds, calls["seeds.orbit"]), "seeds/call")
        out["seeds.orbit.new_ratio"] = (_ratio(self.orbit_new, self.orbit_applications), "ratio")
        out["periodicity.period_set_distinguisher.replays"] = (
            _ratio(c("distinguisher_replays", 0), calls["periodicity.period_set_distinguisher"]),
            "count/call",
        )
        out["groups.class_builds_per_query"] = (
            _ratio(c("class_builds", 0), calls["groups.enumerate_aut_plus"]),
            "count/call",
        )
        out["groups.equivariant_automorphisms.mutations"] = (
            _ratio(c("equivariant_mutations", 0), calls["groups.equivariant_automorphisms"]),
            "count/call",
        )
        out["classify.class_traversals_per_query"] = (
            _ratio(c("classify_traversals", 0), calls["classify.classify"]),
            "count/call",
        )
        out["classify.mutations_per_query"] = (
            _ratio(c("classify_mutations", 0), calls["classify.classify"]),
            "count/call",
        )
        out["realize.mutations_per_plan"] = (
            _ratio(c("realize_mutations", 0), calls["realize.realize_permutation"]),
            "count/call",
        )
        wall = self.wall_ns() / 1e9
        out["trace.wall_s"] = (wall, "s")
        overhead = self.overhead_ns / 1e9
        out["trace.untraced_s"] = (wall - self.layer_self_ns() / 1e9 - overhead, "s")
        out["trace.overhead_s"] = (overhead, "s")
        out["trace.overhead_frac"] = (_ratio(wall, untraced_wall_s) - 1.0, "ratio")
        return out

    def dump(self, path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tquery\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.s_start)):
                fh.write(
                    f"{i}\t{self.s_query[i]}\t{self.s_parent[i]}\t{names[self.s_name[i]]}"
                    f"\t{self.s_start[i]}\t{self.s_end[i]}\n"
                )


def _note_terms(tracer: Tracer, result) -> None:
    n = len(result.terms)
    if n > tracer.max_terms:
        tracer.max_terms = n


def _note_orbit(tracer: Tracer, graph) -> None:
    tracer.orbit_seeds += len(graph.seeds)
    tracer.orbit_new += len(graph.seeds) - 1
    tracer.orbit_applications += len(graph.edges)


_POST_HOOKS = {
    "symbolic.mul": _note_terms,
    "symbolic.pow": _note_terms,
    "symbolic.exact_div": _note_terms,
    "seeds.orbit": _note_orbit,
}

"""Tests of the benchmark itself: inputs, oracle, tracing and metric names.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _first(workload: str, kind: str, family: str) -> dict:
    return next(q for q in workloads.cycle(workload, 1, 0) if q["kind"] == kind and q["family"] == family)


class OneSeedShort:
    """The package, except that every orbit comes back one seed short."""

    def __init__(self, lib):
        self._lib = lib

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def orbit(self, *args, **kwargs):
        graph = self._lib.orbit(*args, **kwargs)
        graph.seeds.pop()
        return graph


class Raising:
    """The package, except that the finite-type test raises."""

    def __init__(self, lib):
        self._lib = lib

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def is_finite_type(self, *args, **kwargs):
        raise RuntimeError("injected")


def test_same_seed_gives_identical_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.warmups(name, 7) == workloads.warmups(name, 7)
        for index in range(3):
            assert workloads.cycle(name, 7, index) == workloads.cycle(name, 7, index)


def test_another_seed_or_cycle_changes_inputs_but_not_the_mix():
    for name in workloads.WORKLOADS:
        a = [workloads.cycle(name, 7, index) for index in range(2)]
        b = [workloads.cycle(name, 8, index) for index in range(2)]
        assert a != b and a[0] != a[1]
        mix = [Counter((q["kind"], q["family"]) for q in cycle) for cycle in a + b]
        assert all(m == mix[0] for m in mix)


def test_warmups_cover_every_query_kind():
    for name in workloads.WORKLOADS:
        kinds = {q["kind"] for q in workloads.cycle(name, 1, 0)}
        assert {q["kind"] for q in workloads.warmups(name, 1)} == kinds


def test_reference_mutation_agrees_with_the_package():
    lib = run.import_package()
    for q in workloads.cycle("matrix-classes", 5, 0):
        rows = q["rows"]
        for k in range(1, len(rows) + 1):
            assert lib.mutate_matrix(lib.ExchangeMatrix(rows), k).rows == reference.mutate(rows, k)


def test_correct_answers_pass_the_oracle():
    lib = run.import_package()
    tally = run.Tally()
    tally.run(lib, [_first("finite-orbits", "orbit", "A3"), _first("matrix-classes", "classify", "B3")])
    assert tally.failures == [] and len(tally.samples) == 2


def test_orbit_one_seed_short_counts_as_failed():
    lib = OneSeedShort(run.import_package())
    tally = run.Tally()
    tally.run(lib, [_first("finite-orbits", "orbit", "A3"), _first("finite-orbits", "realize", "A3")])
    assert len(tally.samples) == 2
    assert len(tally.failures) == 1 and "orbit of 83 seeds" in tally.failures[0]


def test_exception_counts_as_failed_and_the_run_goes_on():
    lib = Raising(run.import_package())
    queries = [_first("matrix-classes", "finite_type", "B3"), _first("matrix-classes", "class", "B3")]
    tally = run.Tally()
    tally.run(lib, queries)
    assert len(tally.samples) == 2
    assert len(tally.failures) == 1 and "RuntimeError" in tally.failures[0]


def test_traced_self_times_fit_in_the_traced_wall_time():
    lib = run.import_package()
    original = lib.orbit
    warmups = workloads.warmups("finite-orbits", 3)
    tracer = tracing.Tracer()
    tracer.install(run.PACKAGE)
    tally = run.Tally()
    tally.run(lib, warmups, tracer)
    tracer.uninstall()
    assert tally.failures == []
    assert lib.orbit is original
    metrics = tracer.metrics(untraced_wall_s=1.0)
    wall = metrics["trace.wall_s"][0]
    layer_self = tracer.layer_self_ns() / 1e9
    assert 0 < layer_self <= wall
    assert metrics["trace.overhead_s"][0] > 0
    assert metrics["trace.untraced_s"][0] >= 0
    assert abs(layer_self + metrics["trace.overhead_s"][0] + metrics["trace.untraced_s"][0] - wall) < 1e-9
    assert metrics["groups.class_builds_per_query"][0] == 4
    assert {q for q in tracer.s_query} == set(range(len(warmups)))


def test_wrapper_cost_is_charged_to_neither_parent_nor_child(monkeypatch):
    """With a clock where every read costs a tick and the child's own work
    100 ticks, the child keeps its work, the parent keeps only the gaps
    between the calls it makes, and the wrappers' bookkeeping is overhead."""
    now = [0]

    def clock():
        now[0] += 1
        return now[0]

    monkeypatch.setattr(tracing, "perf_counter_ns", clock)
    tracer = tracing.Tracer()
    parent_id, child_id = tracer.intern("parent"), tracer.intern("child")
    calls = 2000

    def child():
        now[0] += 100

    def parent():
        for _ in range(calls):
            child_wrapper()

    child_wrapper = tracer._span_wrapper("child", ())(child)
    parent_wrapper = tracer._span_wrapper("parent", ())(parent)
    span = tracer.begin_query("probe")
    parent_wrapper()
    tracer.end_query(span)
    assert tracer.calls[child_id] == calls
    assert 100 * calls <= tracer.self_ns[child_id] <= 102 * calls
    assert tracer.self_ns[parent_id] <= 2 * calls
    assert tracer.overhead_ns >= calls
    assert sum(tracer.self_ns) + tracer.overhead_ns == tracer.wall_ns()


def test_latency_quantiles_are_means_of_each_cycles_quantiles():
    fast = [i / 1000 for i in range(1, 12)]  # 1..11 ms: p50 6, p90 10
    slow = [3 * s for s in fast]  # p50 18, p90 30
    p50, p90 = run.cycle_quantiles([fast, fast, slow])
    assert abs(p50 - (6 + 6 + 18) / 3) < 1e-9
    assert abs(p90 - (10 + 10 + 30) / 3) < 1e-9


def test_metric_names_match_the_spec_and_the_allowed_letters():
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert all(NAME.match(n) for n in end_to_end + per_layer)
    assert len(set(end_to_end + per_layer)) == len(end_to_end + per_layer)
    assert list(run.END_TO_END_UNITS) == end_to_end
    assert [m["unit"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    produced = tracing.Tracer().metrics(untraced_wall_s=1.0)
    assert list(produced) == per_layer
    assert [m["unit"] for m in SPEC["per_layer"]] == [u for _, u in produced.values()]

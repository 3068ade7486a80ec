"""Tests of the benchmark itself: tracer arithmetic, binding coverage,
input generation and the metric table.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_trace as bt  # noqa: E402
import bench_workloads as bw  # noqa: E402


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  HERE / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class FakeClock:
    """Each call advances time by one second."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_with_nested_wrapped_functions():
    tr = bt.Tracer(clock=FakeClock())
    inner = tr.wrap(lambda: None, "exact_numeric.rank")

    def outer_body():
        inner()
        inner()

    outer = tr.wrap(outer_body, "newton_poly.build_newton")
    with tr.span(bt.OP):
        outer()
    s = bt.summarize(tr.spans)
    # clock ticks: op 1, outer 2, inner 3-4, inner 5-6, outer end 7, op 8
    assert s["exact_numeric.rank"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert s["newton_poly.build_newton"] == {
        "calls": 1, "s": 5.0, "self_s": 3.0}
    assert s[bt.OP] == {"calls": 1, "s": 7.0, "self_s": 2.0}
    # helper self time is charged to the calling layer
    assert s["layer_self_s"] == {"newton_poly.build_newton": 5.0,
                                 bt.OP: 2.0}


def test_generator_resumes_are_spans_and_consumer_time_is_not():
    tr = bt.Tracer(clock=FakeClock())
    rank = tr.wrap(lambda: None, "engine.rank")

    def walk():
        rank()
        yield 1
        yield 2

    gen = tr.wrap_generator(walk, "engine.walk")
    parity = tr.wrap(lambda: None, "parity.is_even")
    with tr.span(bt.OP):
        for _ in gen():
            parity()
    s = bt.summarize(tr.spans)
    assert s["engine.walk"]["calls"] == 3          # two yields + exhaustion
    assert s["engine.walk"]["self_s"] == pytest.approx(
        s["engine.walk"]["s"] - s["engine.rank"]["s"])
    assert tr.spans[[sp[0] for sp in tr.spans].index("parity.is_even")][1] \
        == 0                                        # child of the op span
    assert tr.counts["engine.lo_tuples"] == 2


def test_hull_lp_is_solve_strict_under_build_newton():
    tr = bt.Tracer(clock=FakeClock())
    lp = tr.wrap(lambda: None, "exact_numeric.solve_strict")
    build = tr.wrap(lp, "newton_poly.build_newton")
    overlap = tr.wrap(lp, "engine.overlap_lp")
    build()
    overlap()
    s = bt.summarize(tr.spans)
    assert s["exact_numeric.solve_strict"]["calls"] == 2
    assert s["newton_poly.hull_lp"]["calls"] == 1


def test_installed_patches_every_binding_and_restores():
    import nh.engine
    import nh.exact_numeric
    import nh.newton_poly
    originals = (nh.engine.rank, nh.newton_poly.rank,
                 nh.exact_numeric.rank, nh.engine.build_newton)
    tr = bt.Tracer()
    with tr.installed():
        assert nh.engine.rank is not originals[0]
        assert nh.newton_poly.rank is not originals[1]
        assert nh.engine.build_newton.__wrapped__ is originals[3]
        nh.engine.rank([(1, 0)])
        nh.newton_poly.rank([(1, 0)])
    names = [sp[0] for sp in tr.spans]
    assert names == ["engine.rank", "exact_numeric.rank"]
    assert (nh.engine.rank, nh.newton_poly.rank, nh.exact_numeric.rank,
            nh.engine.build_newton) == originals


def test_tail_percentile():
    run = _load_run()
    times = [float(i) for i in range(1, 41)]
    assert run.tail(times) == (30.0, 10)         # ten ops beyond p75
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 0)


def test_scaling_to_reference_seconds():
    run = _load_run()
    ref = run.REF_SAMPLE_S
    # samples around op 0: ref and 3 ref (host at half speed on average);
    # around op 1: 3 ref and ref / 3
    factors = run.scale_factors([ref, 3 * ref, ref / 3])
    assert factors == pytest.approx([0.5, 0.6])
    # three passes over a pool of two instances
    times = [1.0, 5.0, 3.0, 4.0, 2.0, 9.0]
    assert run.by_instance_median(times, 2) == [2.0, 5.0] * 3


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_same_seed_same_inputs(workload):
    def as_bytes(seed):
        return json.dumps(bw.make_inputs(workload, seed)).encode()

    assert as_bytes(0) == as_bytes(0)
    assert as_bytes(0) != as_bytes(1)


def test_scan_inputs_have_an_even_coordinate():
    for item in bw.make_inputs("decide-scan", 1):
        pts = [m for block in item["input"]["lambda"] for m in block]
        assert any(all(m[c] % 2 == 0 for m in pts) for c in range(3))


def _run_ops(items, tracer=None):
    workdir = HERE.parent / ".perfbench" / "test-tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = bw.OpRunner(workdir)
        failures = []
        for item in items:
            runner.prepare(item)
            if tracer is None:
                results = runner.execute(item)
            else:
                with tracer.span(bt.OP):
                    results = runner.execute(item)
            failures += bw.check(item, results, None)
        return failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_second_seed_keeps_the_constructed_properties():
    from nh.newton_poly import DomainSpec, ExponentSet, build_newton
    lattice = bw.make_inputs("lattice-certify", 1)[:3]
    for item in lattice:
        inp = item["input"]
        poly = build_newton(
            ExponentSet.of(inp["lambda"][0], 4),
            DomainSpec.of(4, [j - 1 for j in inp["S"]]))
        assert tuple(item["planted"]) in poly.vertices
        assert 5 <= len(poly.facets_a) <= 11
    scan = bw.make_inputs("decide-scan", 1)[:2]       # decide, decide-general
    probe = bw.make_inputs("probe-sum", 1)[1:3]       # bounded, control
    assert [i["kind"] for i in scan + probe] == [
        "decide", "decide-general", "probe-bounded", "probe-control"]
    assert _run_ops(scan + lattice[:1] + probe) == []


# ops per workload for the coverage guard: one of each op kind
_COVERAGE_OPS = {"decide-scan": 2, "lattice-certify": 1, "probe-sum": 3}


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_layer_counters_nonzero_where_the_layer_works(workload):
    """A wrapper that misses a binding reports a silent zero."""
    tr = bt.Tracer()
    items = bw.make_inputs(workload, bw.DEFAULT_SEED)[
        :_COVERAGE_OPS[workload]]
    with tr.installed():
        assert _run_ops(items, tr) == []
    metrics = bt.layer_metrics(tr, [1.0] * len(items))
    zero = [name for name, _u, _b, _m, nonzero_on in bt.LAYER_METRICS
            if workload in nonzero_on and metrics[name]["value"] <= 0]
    assert zero == []


def test_benchmark_json_lists_the_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _m, _n in bt.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)

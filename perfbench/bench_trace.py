"""Layer tracing for the nh benchmark, done from outside the program.

`Tracer.installed()` wraps a fixed list of nh functions (`WRAPPED`) in every
nh module that holds them by name, so a call through any import binding
opens a span.  A span is (name, parent, start, end, op): spans of one
benchmark op share the op index, and the parent link gives the call tree.
Spans stay in memory until the run ends.  `summarize` turns them into
per-name calls, inclusive seconds and self seconds (duration minus the time
covered by child spans), plus the counters the wrappers record at the same
boundaries.

Leaf arithmetic (`dot`, `vsub`, ...) is not wrapped: a span would cost more
than the work it times.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

from bench_workloads import box_size

NH_MODULES = ("nh.cli", "nh.engine", "nh.newton_poly", "nh.exact_numeric",
              "nh.parity", "nh.oscillatory")

# exact_numeric helpers: their self time is charged to the calling layer
# when layer shares are computed.
HELPERS = ("exact_numeric.rank", "exact_numeric.nullspace",
           "exact_numeric.solve_strict", "engine.rank")
OP = "op"


def _on_build_newton(tr, args, kwargs, result):
    tr.counts["newton_poly.facets"] += len(result.facets_a)


def _on_enumerate_faces(tr, args, kwargs, result):
    # nh caches the face list per polyhedron; count each list once.
    if id(result) not in tr.seen_face_lists:
        tr.seen_face_lists[id(result)] = result
        tr.counts["newton_poly.faces_built"] += len(result)


def _on_support_classes(tr, args, kwargs, result):
    tr.counts["engine.support_classes"] += len(result[0])


def _on_odd_witness(tr, args, kwargs, result):
    omega = args[0] if args else kwargs["omega"]
    tr.maxima["parity.odd_witness.max_points"] = max(
        tr.maxima["parity.odd_witness.max_points"], len(list(omega)))


def _on_sum_probe(tr, args, kwargs, result):
    p, xi_samples, radius = args[:3]
    tr.counts["oscillatory.pieces.total"] += len(xi_samples) * box_size(
        p.spec.n, len(p.spec.S), int(radius))


def _on_fallback(tr, args, kwargs, result):
    tr.counts["oscillatory.fallback.panels"] += result.panels
    tr.counts["oscillatory.fallback.unconverged"] += not result.converged


# (module, attribute, span name, observer, is_generator).  An attribute
# "Class.method" wraps a method on the class.
WRAPPED = (
    ("nh.cli", "parse_input", "cli.parse_input", None, False),
    ("nh.cli", "emit_report", "cli.emit_report", None, False),
    ("nh.cli", "verify_certificate", "cli.verify_certificate", None, False),
    ("nh.engine", "decide_disjoint", "engine.decide_disjoint", None, False),
    ("nh.engine", "decide_general", "engine.decide_general", None, False),
    ("nh.engine", "enumerate_support_classes",
     "engine.enumerate_support_classes", _on_support_classes, False),
    ("nh.engine", "enumerate_lo_tuples", "engine.walk", None, True),
    ("nh.newton_poly", "build_newton", "newton_poly.build_newton",
     _on_build_newton, False),
    ("nh.newton_poly", "enumerate_faces", "newton_poly.enumerate_faces",
     _on_enumerate_faces, False),
    ("nh.newton_poly", "cones_interior_intersection", "engine.overlap_lp",
     None, False),
    ("nh.exact_numeric", "rank", "exact_numeric.rank", None, False),
    ("nh.exact_numeric", "nullspace", "exact_numeric.nullspace", None, False),
    ("nh.exact_numeric", "solve_strict", "exact_numeric.solve_strict", None,
     False),
    ("nh.parity", "is_even", "parity.is_even", None, False),
    ("nh.parity", "odd_witness", "parity.odd_witness", _on_odd_witness,
     False),
    ("nh.oscillatory", "multiplier_sum_probe",
     "oscillatory.multiplier_sum_probe", _on_sum_probe, False),
    ("nh.oscillatory", "PieceFamily.evaluate", "oscillatory.ladder", None,
     False),
    ("nh.oscillatory", "adaptive_box", "oscillatory.fallback", _on_fallback,
     False),
)

# A binding whose calls get their own span name: rank as called by the
# engine's tuple walk is kept apart from rank in hull and lattice code.
BINDING_NAMES = {("nh.engine", "rank"): "engine.rank"}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []          # [name, parent, start, end, op]
        self.counts: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self.seen_face_lists: dict = {}
        self.op = -1
        self._stack: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), None, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name: str):
        """Each resume of the generator is one span of `name`; what the
        consumer does between resumes belongs to the consumer's span."""
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.counts["engine.lo_tuples"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every WRAPPED function; undo on exit."""
        modules = [importlib.import_module(m) for m in NH_MODULES]
        undo = []
        try:
            for mod_name, attr, name, observe, is_gen in WRAPPED:
                owner = sys.modules[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    undo.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(original, name, observe))
                    continue
                original = getattr(owner, attr)
                for mod in modules:
                    for binding, value in list(vars(mod).items()):
                        if value is not original:
                            continue
                        span_name = BINDING_NAMES.get(
                            (mod.__name__, binding), name)
                        wrapper = (self.wrap_generator(original, span_name)
                                   if is_gen else
                                   self.wrap(original, span_name, observe))
                        undo.append((mod, binding, original))
                        setattr(mod, binding, wrapper)
            yield self
        finally:
            for target, binding, original in reversed(undo):
                setattr(target, binding, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, op) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, op, name, start, end]))
                fh.write("\n")


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds `s`, and `self_s`.

    Also derives `newton_poly.hull_lp` (solve_strict spans whose parent is
    build_newton), `oscillatory.ladder.hits` (ladder spans with no fallback
    child) and `layer_self_s`: self time per layer, where the self time of
    an exact_numeric helper is charged to the nearest non-helper ancestor.
    """
    child_s = [0.0] * len(spans)
    has_fallback = [False] * len(spans)
    for name, parent, start, end, _op in spans:
        if parent >= 0:
            child_s[parent] += end - start
            if name == "oscillatory.fallback":
                has_fallback[parent] = True

    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    layer_self: dict = defaultdict(float)
    for i, (name, parent, start, end, _op) in enumerate(spans):
        dur = end - start
        self_s = dur - child_s[i]
        rec = out[name]
        rec["calls"] += 1
        rec["s"] += dur
        rec["self_s"] += self_s
        if (name == "exact_numeric.solve_strict" and parent >= 0
                and spans[parent][0] == "newton_poly.build_newton"):
            hull = out["newton_poly.hull_lp"]
            hull["calls"] += 1
            hull["s"] += dur
            hull["self_s"] += self_s
        if name == "oscillatory.ladder" and not has_fallback[i]:
            out["oscillatory.ladder.hits"]["calls"] += 1
        owner = i
        while spans[owner][0] in HELPERS and spans[owner][1] >= 0:
            owner = spans[owner][1]
        layer_self[spans[owner][0]] += self_s
    result = dict(out)
    result["layer_self_s"] = dict(layer_self)
    return result


# Per-layer metrics: (name, unit, better, the end-to-end metric and workload
# it should move, workloads where it must be nonzero).
# Counts and seconds are per benchmark op, so a run that completes more ops
# in its fixed time does not inflate them.
LAYER_METRICS = (
    ("engine.overlap_lp.calls", "count/op", "lower",
     "op_s_p50, ops_per_s on decide-scan; no change elsewhere",
     ("decide-scan",)),
    ("engine.overlap_lp.s", "s/op", "lower",
     "op_s_p50, ops_per_s on decide-scan; no change elsewhere",
     ()),
    ("engine.overlap_lp.hit_ratio", "ratio", "higher",
     "op_s_p50, ops_per_s on decide-scan (lo_tuples per overlap LP)",
     ()),
    ("engine.overlap_lp.share", "ratio", "lower",
     "dominant self-time share on decide-scan",
     ()),
    ("exact_numeric.solve_strict.calls", "count/op", "lower",
     "op_s_p50, ops_per_s on decide-scan",
     ("decide-scan", "lattice-certify")),
    ("exact_numeric.solve_strict.s", "s/op", "lower",
     "op_s_p50, ops_per_s on decide-scan",
     ()),
    ("engine.rank.calls", "count/op", "lower",
     "op_s_p50, ops_per_s on decide-scan",
     ("decide-scan",)),
    ("engine.rank.s", "s/op", "lower",
     "op_s_p50, ops_per_s on decide-scan",
     ()),
    ("engine.walk.self_s", "s/op", "lower",
     "op_s_p50, ops_per_s on decide-scan",
     ()),
    ("engine.decide_general.s", "s/op", "lower",
     "op_s_tail on decide-scan (decide-general ops are the slowest)",
     ()),
    ("engine.enumerate_support_classes.s", "s/op", "lower",
     "op_s_tail on decide-scan",
     ()),
    ("engine.support_classes", "count/op", "lower",
     "op_s_tail on decide-scan",
     ("decide-scan",)),
    ("newton_poly.build_newton.calls", "count/op", "lower",
     "op_s_tail on decide-scan; op_s_p50, ops_per_s on lattice-certify",
     ("decide-scan", "lattice-certify")),
    ("newton_poly.build_newton.s", "s/op", "lower",
     "op_s_p50, ops_per_s on lattice-certify; <=5% of decide-scan",
     ()),
    ("newton_poly.build_newton.self_s", "s/op", "lower",
     "op_s_p50, ops_per_s on lattice-certify",
     ()),
    ("newton_poly.build_newton.share", "ratio", "lower",
     "dominant self-time share on lattice-certify (with enumerate_faces)",
     ()),
    ("newton_poly.hull_lp.calls", "count/op", "lower",
     "op_s_p50, ops_per_s on lattice-certify",
     ("decide-scan", "lattice-certify")),
    ("newton_poly.hull_lp.s", "s/op", "lower",
     "op_s_p50, ops_per_s on lattice-certify",
     ()),
    ("newton_poly.enumerate_faces.calls", "count/op", "lower",
     "op_s_p50, ops_per_s on lattice-certify",
     ("decide-scan", "lattice-certify")),
    ("newton_poly.enumerate_faces.s", "s/op", "lower",
     "op_s_p50, ops_per_s on lattice-certify; ~0 on probe-sum",
     ()),
    ("newton_poly.enumerate_faces.share", "ratio", "lower",
     "dominant self-time share on lattice-certify (with build_newton)",
     ()),
    ("newton_poly.faces_built", "count/op", "lower",
     "op_s_p50, ops_per_s on lattice-certify",
     ("decide-scan", "lattice-certify")),
    ("newton_poly.facets", "count/op", "lower",
     "op_s_p50, ops_per_s on lattice-certify",
     ("decide-scan", "lattice-certify")),
    ("exact_numeric.nullspace.calls", "count/op", "lower",
     "op_s_p50, ops_per_s on lattice-certify",
     ("decide-scan", "lattice-certify")),
    ("exact_numeric.nullspace.s", "s/op", "lower",
     "op_s_p50, ops_per_s on lattice-certify",
     ()),
    ("exact_numeric.rank.calls", "count/op", "lower",
     "op_s_p50, ops_per_s on lattice-certify",
     ("decide-scan", "lattice-certify")),
    ("exact_numeric.rank.s", "s/op", "lower",
     "op_s_p50, ops_per_s on lattice-certify",
     ()),
    ("cli.verify_certificate.calls", "count/op", "lower",
     "op_s_p50 on lattice-certify",
     ("lattice-certify",)),
    ("cli.verify_certificate.s", "s/op", "lower",
     "op_s_p50 on lattice-certify",
     ()),
    ("cli.parse_input.s", "s/op", "lower",
     "context, all workloads",
     ()),
    ("cli.emit_report.s", "s/op", "lower",
     "context, all workloads",
     ()),
    ("engine.decide_disjoint.calls", "count/op", "lower",
     "context, all workloads",
     ("decide-scan", "lattice-certify")),
    ("engine.decide_disjoint.s", "s/op", "lower",
     "context, all workloads",
     ()),
    ("engine.lo_tuples", "count/op", "lower",
     "context, all workloads",
     ("decide-scan", "lattice-certify")),
    ("parity.is_even.calls", "count/op", "lower",
     "none at this traffic; a parity change must show no move",
     ("decide-scan", "lattice-certify")),
    ("parity.is_even.s", "s/op", "lower",
     "none at this traffic; a parity change must show no move",
     ()),
    ("parity.odd_witness.calls", "count/op", "lower",
     "none at this traffic; a parity change must show no move",
     ("lattice-certify",)),
    ("parity.odd_witness.s", "s/op", "lower",
     "none at this traffic; a parity change must show no move",
     ()),
    ("parity.odd_witness.max_points", "count", "lower",
     "none at this traffic; a parity change must show no move",
     ()),
    ("oscillatory.multiplier_sum_probe.s", "s/op", "lower",
     "op_s_p50 (bounded-pair ops) on probe-sum",
     ()),
    ("oscillatory.pieces.evaluated", "count/op", "lower",
     "op_s_p50 (bounded-pair ops) on probe-sum",
     ("probe-sum",)),
    ("oscillatory.pieces.pruned", "count/op", "higher",
     "op_s_p50 (bounded-pair ops) on probe-sum",
     ("probe-sum",)),
    ("oscillatory.ladder.hits", "count/op", "higher",
     "op_s_p50 (bounded-pair ops) on probe-sum",
     ("probe-sum",)),
    ("oscillatory.ladder.hit_ratio", "ratio", "higher",
     "op_s_p50 (bounded-pair ops) on probe-sum",
     ()),
    ("oscillatory.ladder.self_s", "s/op", "lower",
     "op_s_p50 (bounded-pair ops) on probe-sum",
     ()),
    ("oscillatory.ladder.share", "ratio", "lower",
     "self-time share on probe-sum (with fallback)",
     ()),
    ("oscillatory.fallback.calls", "count/op", "lower",
     "op_s_tail (control ops) on probe-sum",
     ("probe-sum",)),
    ("oscillatory.fallback.s", "s/op", "lower",
     "op_s_tail (control ops) on probe-sum; batching may raise peak_rss_mb",
     ()),
    ("oscillatory.fallback.panels", "count/op", "lower",
     "op_s_tail (control ops) on probe-sum",
     ("probe-sum",)),
    ("oscillatory.fallback.unconverged", "count/op", "lower",
     "op_s_tail (control ops) on probe-sum",
     ()),
    ("oscillatory.fallback.share", "ratio", "lower",
     "dominant self-time share on probe-sum",
     ()),
    ("trace.op_s_p50", "s", "lower",
     "traced op median; minus untraced op_s_p50 = tracing overhead",
     ()),
)


def layer_metrics(tracer: Tracer, op_times: list, scale: float = 1.0) -> dict:
    """Every LAYER_METRICS value for one traced run of len(op_times) ops.
    Span seconds are multiplied by `scale`, the run's factor from wall
    seconds to reference seconds; `op_times` are already scaled."""
    summ = summarize(tracer.spans)
    n_ops = max(len(op_times), 1)
    op_total = summ.get(OP, {"s": 0.0})["s"] or 1.0

    def get(name, field):
        return summ.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    evaluated = get("oscillatory.ladder", "calls")
    hits = get("oscillatory.ladder.hits", "calls")
    derived = {
        "engine.overlap_lp.hit_ratio": ratio(
            tracer.counts["engine.lo_tuples"],
            get("engine.overlap_lp", "calls")),
        "parity.odd_witness.max_points":
            tracer.maxima["parity.odd_witness.max_points"],
        "oscillatory.pieces.evaluated": evaluated / n_ops,
        "oscillatory.pieces.pruned":
            (tracer.counts["oscillatory.pieces.total"] - evaluated) / n_ops,
        "oscillatory.ladder.hits": hits / n_ops,
        "oscillatory.ladder.hit_ratio": ratio(hits, evaluated),
        "trace.op_s_p50": statistics.median(op_times) if op_times else 0.0,
    }
    out = {}
    for name, unit, _better, _moves, _nonzero in LAYER_METRICS:
        if name in derived:
            value = derived[name]
        elif name.endswith(".share"):
            value = summ["layer_self_s"].get(name[:-len(".share")], 0.0) \
                / op_total
        elif name in tracer.counts:
            value = tracer.counts[name] / n_ops
        else:
            base, field = name.rsplit(".", 1)
            value = get(base, field) / n_ops
            if field in ("s", "self_s"):
                value *= scale
        out[name] = {"value": value, "unit": unit}
    return out

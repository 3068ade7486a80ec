"""Benchmark for the nh CLI: one closed-loop client per workload.

    python3 perfbench/run.py --workload decide-scan --seed 0 --seconds 30 \
        --trace 0

Runs from the root of a source checkout and imports nh from `src`.  It makes
the workload's inputs from the seed, then runs ops through click's test
runner in this process, one after another, in whole passes over the
workload's instance pool until `--seconds` have passed.  Every op's output is
checked.  The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the nh layer functions are wrapped from
outside and the metrics are per layer, and the spans are written to
`.perfbench/` when the run ends.

Times are reported in reference seconds.  The speed of a shared host drifts
by up to 2x within a minute, for the same work (a fixed kernel and a fixed op
alike), so raw wall times of two runs of the same code differ by more than
any regression worth catching.  Before every op, and once after the last, the
benchmark times a fixed calibration kernel (`speed_sample`); each op's wall
time is scaled by REF_SAMPLE_S over the mean of the samples on either side of
it, i.e. to the time the op would take on a host where the kernel takes
REF_SAMPLE_S.  Set-up times are scaled by a sample taken right after set-up.
For op_s_p50 and op_s_tail each op counts at the median scaled time of its
pool instance in the run.  The `#` line before the result shows the raw wall
figures.
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()
# One thread: numpy's BLAS would otherwise spread matmuls over the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5          # this process plus four fresh ones
# The tail is a fixed percentile: runs that complete different numbers of
# passes over the pool then report the same instance's time.  A run of 40 ops
# or more has at least ten ops beyond it.
TAIL_P = 0.75
OUT_DIR = ROOT / ".perfbench"
# speed_sample() on the reference host (Intel Xeon at 2.1 GHz, a 2-vCPU VM,
# median over its drift); scaled times are seconds on that host.
REF_SAMPLE_S = 0.003
KERNEL_STEPS = 20000


def _kernel() -> float:
    """Fixed interpreter-bound work.  The host's drift shows in bytecode
    dispatch: a pure-Python loop tracks the op times of both the exact and
    the quadrature workloads closer than a loop of Fraction arithmetic or of
    small numpy calls does."""
    acc = 0.0
    for i in range(KERNEL_STEPS):
        acc += (i * 0.5) % 3.0
    return acc


def speed_sample() -> float:
    """Seconds the calibration kernel takes now: median of three runs."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def by_instance_median(times: list, pool: int) -> list:
    """Each op's time replaced by the median time of its pool instance in
    this run.  Ops of one instance repeat the same work, so this drops the
    scatter of single repetitions, which would otherwise decide a percentile
    that falls between two instances' clusters."""
    medians = [statistics.median(times[k::pool]) for k in range(pool)]
    return [medians[i % pool] for i in range(len(times))]


def scale_factors(samples: list) -> list:
    """Per op i, REF_SAMPLE_S over the mean of samples i and i + 1 (taken
    just before and just after the op)."""
    return [2.0 * REF_SAMPLE_S / (a + b)
            for a, b in zip(samples, samples[1:])]


def tail(times: list) -> tuple:
    """(TAIL_P percentile by nearest rank, number of ops beyond it)."""
    ordered = sorted(times)
    rank = math.ceil(TAIL_P * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def setup(workload: str, seed: int):
    """Import nh.cli and make the inputs: the work counted as setup_s."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import nh.cli  # noqa: F401
    import bench_workloads as bw
    if workload not in bw.WORKLOADS:
        sys.exit(f"error: unknown workload {workload!r}")
    return bw, bw.make_inputs(workload, seed)


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Scaled set-up time of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_loop(runner, items, reference, check, seconds, tracer=None):
    """Closed loop: the next op starts when the previous one completes.
    Runs whole passes over `items`, so every run has the same mix of ops,
    until `seconds` have passed.  Returns per-op wall times, per-op loop
    times (op plus its input write and check), speed samples (one before
    each op and one after the last) and failures."""
    op_times, loop_times, samples, failures = [], [], [], {}
    start = time.perf_counter()
    i = 0
    while (not op_times or i % len(items)
           or time.perf_counter() - start < seconds):
        samples.append(speed_sample())
        t_loop = time.perf_counter()
        item = items[i % len(items)]
        runner.prepare(item)
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.op = i
            span = tracer.span("op")
        t = time.perf_counter()
        with span:
            results = runner.execute(item)
        op_times.append(time.perf_counter() - t)
        expected = reference[i % len(items)] if reference else None
        reasons = check(item, results, expected)
        if reasons:
            failures[i] = reasons
        loop_times.append(time.perf_counter() - t_loop)
        i += 1
    samples.append(speed_sample())
    return op_times, loop_times, samples, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time setup in this fresh process and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nh" / "cli.py").is_file():
        print(f"error: nh sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bw, items = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    setup_s *= REF_SAMPLE_S / speed_sample()
    if args.setup_only:
        print(repr(setup_s))
        return 0

    reference = bw.load_reference(HERE / "reference.json", args.workload,
                                  args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = bw.OpRunner(workdir)
        if args.trace:
            import bench_trace
            tracer = bench_trace.Tracer()
            with tracer.installed():
                op_times, loop_times, samples, failures = run_loop(
                    runner, items, reference, bw.check, args.seconds, tracer)
            tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
        else:
            op_times, loop_times, samples, failures = run_loop(
                runner, items, reference, bw.check, args.seconds)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    factors = scale_factors(samples)
    scaled = by_instance_median(
        [t * f for t, f in zip(op_times, factors)], len(items))
    attempted = len(op_times)
    failed = len(failures)
    for i, reasons in list(failures.items())[:20]:
        print(f"FAILED op {i}: {'; '.join(reasons)}", file=sys.stderr)
    if not args.trace:
        setups = [setup_s] + [fresh_setup_seconds(args.workload, args.seed)
                              for _ in range(SETUP_SAMPLES - 1)]
        tail_s, beyond = tail(scaled)
        busy = sum(t * f for t, f in zip(loop_times, factors))
        metrics = {
            "op_s_p50": {"value": statistics.median(scaled), "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": attempted / busy, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"# {args.workload} seed={args.seed} ops={attempted} "
              f"failed_frac={failed / attempted:.4f} "
              f"tail=p{100 * TAIL_P:.0f} ops_beyond_tail={beyond} "
              f"raw: op_s_p50={statistics.median(op_times):.4f} "
              f"ops_per_s={attempted / sum(loop_times):.4f} "
              f"speed_sample_s={statistics.median(samples):.5f}")
    else:
        metrics = bench_trace.layer_metrics(
            tracer, scaled, REF_SAMPLE_S / statistics.median(samples))
        print(f"# {args.workload} seed={args.seed} traced ops={attempted} "
              f"failed_frac={failed / attempted:.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

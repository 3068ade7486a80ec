"""Regenerate perfbench/reference.json: the outputs of every op of every
workload on the default seed.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter nh's outputs; the benchmark
compares default-seed runs against this file.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_workloads as bw  # noqa: E402


def main() -> int:
    workdir = HERE.parent / ".perfbench" / "reference-tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    out = {"seed": bw.DEFAULT_SEED}
    try:
        runner = bw.OpRunner(workdir)
        for workload in bw.WORKLOADS:
            items = bw.make_inputs(workload, bw.DEFAULT_SEED)
            entries = []
            for i, item in enumerate(items):
                runner.prepare(item)
                results = runner.execute(item)
                reasons = bw.check(item, results, None)
                if reasons:
                    print(f"{workload} op {i}: {reasons}", file=sys.stderr)
                    return 1
                entries.append(bw.summary_of(item, results))
            out[workload] = entries
            print(f"{workload}: {len(entries)} ops", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload inputs, op execution and correctness checks for the nh benchmark.

Each workload cycles through POOL_SIZE instances.  Their combinatorial
types come from a fixed base draw; the seed draws, per instance, a
relabelling that is a symmetry of the problem: a permutation of the
variables carried together with S, a sign flip of xi (|I_J| is
unchanged), and the order of the points.  So two seeds give different
inputs with the same verdicts and the same work, and run-to-run spread
stays at machine noise instead of the cost spread of ~50 random
instances.  Inputs are made with the standard library alone: no engine
call, so set-up time does not move with engine speed.

Every input's expected verdict follows from its construction:

* decide-scan: one coordinate is even in every exponent, so every subset
  sum has an even component in every GL support class: bounded.
* lattice-certify: a planted all-odd point is the unique minimiser of a
  strictly positive functional over Λ + R_+^S, hence a vertex whose union is
  odd and of rank 1 <= n-1: unbounded.  With one ray direction and five
  points in R^4 the polyhedron has 5 to 11 facets (at most the simplex
  facets plus the triangles of a 5-point shadow), which caps the face
  lattice's 2^k subset loop; the pool has 6 to 9.
* probe-sum: the criterion-9 pair is certified bounded (partial sums
  plateau); the control Λ = {(1,1)} is unbounded (no plateau).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SEED = 0
POOL_SIZE = 12            # instances per workload; a run cycles through them

EXIT_BOUNDED = 0
EXIT_UNBOUNDED = 3

# criterion-9 inputs
WORKED_L1 = [[0, 0, 2], [3, 3, 0]]
WORKED_L2 = [[0, 0, 3], [3, 2, 1]]
BOUNDED_RADIUS = 7
BOUNDED_XI = 1.0 / 256.0    # xi ~ U(-BOUNDED_XI, BOUNDED_XI)^2
CONTROL_RADIUS = 3
CONTROL_K = (0, 1, 2)       # control xi = 2^(2k)
PLATEAU_BOUNDED = 1e-3      # bounded increment R-5 -> R stays below this
PLATEAU_CONTROL = 0.1       # control increment R-5 -> R stays above this


def _rational(rng: random.Random) -> str:
    return f"{rng.choice([-3, -2, -1, 1, 2, 3])}/{rng.choice([1, 2, 3])}"


def _scan_point(rng: random.Random, even: int) -> list:
    m = [rng.randint(0, 4) for _ in range(3)]
    m[even] = 2 * rng.randint(0, 2)
    return m


def _distinct_points(rng, count, even, used) -> list:
    out = []
    while len(out) < count:
        m = _scan_point(rng, even)
        if any(m) and tuple(m) not in used:
            used.add(tuple(m))
            out.append(m)
    return out


def _scan_item(rng: random.Random, index: int) -> dict:
    """n = 3.  A cycle of six ops: decide with d=2 and one random ray
    direction (three ops), decide with d=3 and no rays, and decide-general
    with d=2, no rays and 1-2 shared monomials (two ops).  The kinds cost
    about the same, so the median and the tail are not the edge between
    two cost clusters."""
    even = rng.randrange(3)
    ray = [rng.randrange(3) + 1]
    used: set = set()
    slot = index % 6
    if slot in (1, 4):
        shared = _distinct_points(rng, rng.choice([1, 2]), even, used)
        blocks = [shared + _distinct_points(rng, 3 - len(shared), even, used)
                  for _ in range(2)]
        coef = {f"{nu + 1}:({','.join(map(str, m))})": _rational(rng)
                for nu, block in enumerate(blocks) for m in block}
        return {"kind": "decide-general",
                "input": {"n": 3, "S": [], "lambda": blocks,
                          "coefficients": coef}}
    if slot == 3:
        blocks = [_distinct_points(rng, 3, even, used) for _ in range(3)]
        return {"kind": "decide", "input": {"n": 3, "S": [], "lambda": blocks}}
    blocks = [_distinct_points(rng, 3, even, used) for _ in range(2)]
    return {"kind": "decide", "input": {"n": 3, "S": ray, "lambda": blocks}}


def _lattice_item(rng: random.Random, index: int) -> dict:
    n = 4
    s = [rng.randrange(n) + 1]
    w = [rng.randint(1, 3) for _ in range(n)]
    odd = [rng.choice([1, 3]) for _ in range(n)]
    level = sum(a * b for a, b in zip(w, odd))
    pts = [odd]
    while len(pts) < 5:
        m = [rng.randint(0, 6) for _ in range(n)]
        if sum(a * b for a, b in zip(w, m)) > level and m not in pts:
            pts.append(m)
    rng.shuffle(pts)
    return {"kind": "decide+verify",
            "input": {"n": n, "S": s, "lambda": [pts]}, "planted": odd}


def _probe_item(rng: random.Random, index: int) -> dict:
    """Ops cycle bounded, bounded, control."""
    if index % 3 == 2:
        k = rng.choice(CONTROL_K)
        return {"kind": "probe-control",
                "input": {"n": 2, "S": [1, 2], "lambda": [[[1, 1]]],
                          "radius": CONTROL_RADIUS,
                          "xi": [[float(2 ** (2 * k))]]}}
    xi = [rng.uniform(-BOUNDED_XI, BOUNDED_XI) for _ in range(2)]
    return {"kind": "probe-bounded",
            "input": {"n": 3, "S": [1, 2, 3],
                      "lambda": [WORKED_L1, WORKED_L2],
                      "radius": BOUNDED_RADIUS, "xi": [xi]}}


_MAKERS = {"decide-scan": _scan_item, "lattice-certify": _lattice_item,
           "probe-sum": _probe_item}
WORKLOADS = tuple(_MAKERS)


def _permute(m: list, perm: list) -> list:
    out = [0] * len(m)
    for i, c in enumerate(m):
        out[perm[i]] = c
    return out


def _relabel(rng: random.Random, item: dict) -> dict:
    """A copy of `item` under a random symmetry of its problem."""
    inp = item["input"]
    perm = list(range(inp["n"]))
    rng.shuffle(perm)
    blocks = [[_permute(m, perm) for m in block] for block in inp["lambda"]]
    out = dict(inp, S=sorted(perm[j - 1] + 1 for j in inp["S"]))
    if "coefficients" in inp:
        # decide-general: component order is part of the GL cascade
        coef = {}
        for key, value in inp["coefficients"].items():
            nu, mono = key.split(":")
            m = _permute([int(c) for c in mono.strip("()").split(",")], perm)
            coef[f"{nu}:({','.join(map(str, m))})"] = value
        out["coefficients"] = coef
    for block in blocks:
        rng.shuffle(block)
    out["lambda"] = blocks
    if "xi" in inp:
        sign = rng.choice([1.0, -1.0])
        out["xi"] = [[sign * x for x in row] for row in inp["xi"]]
    relabelled = dict(item, input=out)
    if "planted" in item:
        relabelled["planted"] = _permute(item["planted"], perm)
    return relabelled


def make_inputs(workload: str, seed: int) -> list:
    base_rng = random.Random(f"{workload}/base")
    base = [_MAKERS[workload](base_rng, i) for i in range(POOL_SIZE)]
    rng = random.Random(f"{workload}/{seed}")
    return [_relabel(rng, item) for item in base]


# ---------------------------------------------------------------------------
# running an op
# ---------------------------------------------------------------------------

SUBCOMMAND = {"decide": "decide", "decide-general": "decide-general",
              "probe-bounded": "probe-sum", "probe-control": "probe-sum"}


class OpRunner:
    """Runs ops in-process through click's test runner, one at a time."""

    def __init__(self, workdir: Path):
        from click.testing import CliRunner
        from nh.cli import main
        self.main = main
        self.runner = CliRunner()
        self.in_path = workdir / "input.json"
        self.report_path = workdir / "report.json"

    def prepare(self, item: dict) -> None:
        self.in_path.write_text(json.dumps(item["input"]))

    def invoke(self, *args):
        return self.runner.invoke(self.main, list(args))

    def execute(self, item: dict) -> list:
        """The timed part of an op: the CLI calls a user would make."""
        if item["kind"] == "decide+verify":
            decided = self.invoke("decide", "--input", str(self.in_path))
            self.report_path.write_text(decided.stdout)
            verified = self.invoke("verify", "--input",
                                   str(self.report_path))
            return [decided, verified]
        return [self.invoke(SUBCOMMAND[item["kind"]], "--input",
                            str(self.in_path))]


# ---------------------------------------------------------------------------
# checking an op
# ---------------------------------------------------------------------------

def summary_of(item: dict, results: list) -> dict:
    """The parts of an op's output that the reference pins down."""
    report = json.loads(results[0].stdout)
    if item["kind"].startswith("probe"):
        return {"partial_sums": report["partial_sums"][0]}
    out = {"verdict": report["verdict"]}
    if report["verdict"] == "bounded":
        out["lo_tuples"] = report["lo_tuples"]
        if "gl_class_count" in report:
            out["gl_class_count"] = report["gl_class_count"]
    return out


def box_size(n: int, s_count: int, radius: int) -> int:
    """Number of J in Z(S) with |J|_inf <= radius: the probe's pieces."""
    return (radius + 1) ** s_count * (2 * radius + 1) ** (n - s_count)


def probe_tolerance(inp: dict, radius: int) -> float:
    """Allowed deviation of a partial sum from its reference: every piece
    in the J box is converged to CELL_TOL, so the two sums differ by at
    most 2 * CELL_TOL per piece."""
    from nh.oscillatory import CELL_TOL
    return 2.0 * CELL_TOL * box_size(inp["n"], len(inp["S"]), radius)


def check(item: dict, results: list, expected) -> list:
    """Failure reasons for one op (empty list = correct).  `expected` is the
    reference entry for this op on the default seed, else None."""
    kind = item["kind"]
    want_exit = EXIT_UNBOUNDED if kind == "decide+verify" else EXIT_BOUNDED
    first = results[0]
    if first.exit_code != want_exit:
        return [f"{kind}: exit {first.exit_code} (want {want_exit}): "
                f"{first.stderr.strip() or first.exception!r}"]
    try:
        got = summary_of(item, results)
        fails = _check_claims(item, got, results)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{kind}: unreadable report: {exc!r}"]
    if expected is not None:
        fails += _check_reference(item, got, expected)
    return fails


def _check_claims(item: dict, got: dict, results: list) -> list:
    """The verdict each input has by construction, certificate acceptance
    and the criterion-9 plateau property."""
    kind = item["kind"]
    if kind == "decide+verify":
        fails = [] if got["verdict"] == "unbounded" else [
            "lattice input not unbounded"]
        verify = results[1]
        if verify.exit_code != 0 or not json.loads(verify.stdout)["valid"]:
            fails.append(f"verify rejected the certificate: {verify.stdout}")
        return fails
    if kind.startswith("decide"):
        return [] if got["verdict"] == "bounded" else [
            "scan input not bounded"]
    return _check_plateau(item, got["partial_sums"])


def _check_plateau(item: dict, sums: dict) -> list:
    radius = item["input"]["radius"]
    inc = sums[str(radius)] - sums[str(max(radius - 5, 0))]
    if item["kind"] == "probe-bounded" and not inc < PLATEAU_BOUNDED:
        return [f"bounded pair has no plateau: increment {inc}"]
    if item["kind"] == "probe-control" and not inc > PLATEAU_CONTROL:
        return [f"control shows a plateau: increment {inc}"]
    return []


def _check_reference(item: dict, got: dict, expected: dict) -> list:
    if "partial_sums" not in expected:
        return [] if got == expected else [
            f"{item['kind']}: got {got}, reference {expected}"]
    fails = []
    for radius, ref in expected["partial_sums"].items():
        value = got["partial_sums"].get(radius)
        tol = probe_tolerance(item["input"], int(radius))
        if value is None or abs(value - ref) > tol:
            fails.append(f"partial sum at R={radius}: {value} vs {ref} "
                         f"(tolerance {tol})")
    return fails


def load_reference(path: Path, workload: str, seed: int) -> list:
    if seed != DEFAULT_SEED:
        return []
    data = json.loads(path.read_text())
    return data[workload]


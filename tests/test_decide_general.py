"""`decide_general` builds each polyhedron and each Minkowski-sum lattice
once per call, shared by every support class that uses it.

Oracle: `general_oracle.decide_general_per_class`, which rebuilds the
geometry of every class.  The two give byte-identical `decide-general`
reports, the timing field masked, and `nh verify` accepts every unbounded
one.  Counting wrappers on the engine's bindings show one `build_newton`
per distinct support and one `minkowski_faces` per distinct tuple of
summand supports, and that no memo outlives a call.
"""

import itertools
import json
import random
import re
from collections import Counter

import pytest
from click.testing import CliRunner

from general_oracle import decide_general_per_class
from nh import cli, engine
from nh.cli import EXIT_BOUNDED, EXIT_UNBOUNDED, ProblemInput, main
from nh.engine import decide_general, enumerate_support_classes

TIMING = re.compile(r'"timing_seconds": [-0-9.e]+')


def _random_input(rng, d: int, bounded: bool) -> dict:
    """d rows drawn from one small pool of exponents, so that rows share
    monomials.  With `bounded`, one coordinate is even in every exponent,
    so no union has an odd subset sum and the verdict is bounded."""
    n = 2 if d == 4 else rng.choice([2, 3])
    even = rng.randrange(n)
    pool = set()
    while len(pool) < (4 if d == 4 else 5):
        m = [rng.randint(0, 3) for _ in range(n)]
        if bounded:
            m[even] = 2 * rng.randint(0, 1)
        if any(m):
            pool.add(tuple(m))
    pool = sorted(pool)
    rows = [sorted(rng.sample(pool, rng.randint(1, 2 if d == 4 else 3)))
            for _ in range(d)]
    coef = {f"{nu + 1}:({','.join(map(str, m))})":
            rng.choice(["-2", "-1", "1", "2", "3/2"])
            for nu, row in enumerate(rows) for m in row}
    return {"n": n, "S": [j + 1 for j in range(n) if rng.random() < 0.5],
            "lambda": [[list(m) for m in row] for row in rows],
            "coefficients": coef}


def _hidden_odd_input(rng, d: int) -> dict:
    """n = 2.  Row 1 is {a}, row 2 is {a, b, c} with the odd b the midpoint
    of the edge [a, c] and the other points with an even first coordinate.
    [a, c] has rank 2, so the identity class is even; cancelling a from
    row 2 makes b a vertex, so the verdict is unbounded in another class."""
    j, k = rng.choice([1, 3]), rng.choice([1, 3])
    a, b, c = (0, 2 * k), (j, k), (2 * j, 0)
    rows = [[a], [a, b, c]] + [
        sorted({(2 * rng.randint(0, 2), rng.randint(0, 3))
                for _ in range(2)} - {(0, 0)}) or [(2, 1)]
        for _ in range(d - 2)]
    coef = {f"{nu + 1}:({m[0]},{m[1]})": rng.choice(["-2", "1", "3/2"])
            for nu, row in enumerate(rows) for m in row}
    return {"n": 2, "S": [j + 1 for j in range(2) if rng.random() < 0.5],
            "lambda": [[list(m) for m in sorted(set(row))] for row in rows],
            "coefficients": coef}


def _write(tmp_path, payload) -> str:
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _run(runner, *args):
    res = runner.invoke(main, list(args))
    return res.exit_code, TIMING.sub('"timing_seconds": 0', res.stdout)


@pytest.fixture
def counts(monkeypatch):
    """Calls of the engine's `build_newton` and `minkowski_faces`."""
    seen = Counter()
    for name in ("build_newton", "minkowski_faces"):
        def counted(*args, _fn=getattr(engine, name), _name=name):
            seen[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(engine, name, counted)
    return seen


def test_reports_match_the_per_class_oracle(tmp_path, monkeypatch):
    runner = CliRunner()
    rng = random.Random(1906)
    seen = Counter()
    moved = 0
    inputs = [_hidden_odd_input(rng, d) for d in (2, 3, 4)] + [
        _random_input(rng, d, rng.random() < 0.5)
        for d in rng.choices([2, 3, 4], k=60)]
    for payload in inputs:
        d = len(payload["lambda"])
        path = _write(tmp_path, payload)
        code, report = _run(runner, "decide-general", "--input", path)
        with monkeypatch.context() as m:
            m.setattr(cli, "decide_general", decide_general_per_class)
            assert _run(runner, "decide-general", "--input", path) == (
                code, report)
        kind = json.loads(report)["verdict"]
        assert code == (EXIT_BOUNDED if kind == "bounded" else
                        EXIT_UNBOUNDED), report
        if kind == "unbounded":
            matrix = json.loads(report)["certificate"]["gl_matrix"]
            moved += any(x != ("1/1" if i == j else "0/1")
                         for i, row in enumerate(matrix)
                         for j, x in enumerate(row))
            (tmp_path / "report.json").write_text(report)
            code, checked = _run(runner, "verify", "--input",
                                 str(tmp_path / "report.json"))
            assert code == 0 and json.loads(checked)["valid"], checked
        seen[d, kind] += 1
    assert min(seen[d, kind] for d in (2, 3, 4)
               for kind in ("bounded", "unbounded")) >= 4, seen
    assert moved >= 3, moved


def test_each_support_and_each_sum_is_built_once(counts):
    rng = random.Random(1907)
    shared = 0
    for _ in range(40):
        d = rng.choice([2, 3, 4])
        p = ProblemInput(_random_input(rng, d, True)).polynomial()
        classes, _ = enumerate_support_classes(p)
        lives = [[s for s in cls.supports if s] for cls in classes]
        supports = {s for live in lives for s in live}
        sums = {tuple(live[nu] for nu in subset) for live in lives
                for size in range(1, len(live) + 1)
                for subset in itertools.combinations(range(len(live)),
                                                     size)}
        counts.clear()
        assert decide_general(p).bounded
        assert (counts["build_newton"], counts["minkowski_faces"]) == (
            len(supports), len(sums)), p.coefficients
        shared += sum(map(len, lives)) > len(supports)
    assert shared >= 10, shared


def test_no_memo_outlives_a_call(counts, tmp_path):
    """Two in-process runs of one input build the same polyhedra: the
    second finds nothing left over from the first."""
    runner = CliRunner()
    rng = random.Random(1908)
    payload = _random_input(rng, 3, True)
    while len(enumerate_support_classes(
            ProblemInput(payload).polynomial())[0]) < 3:
        payload = _random_input(rng, 3, True)
    path = _write(tmp_path, payload)
    runs = []
    for _ in range(2):
        counts.clear()
        code, report = _run(runner, "decide-general", "--input", path)
        assert code == EXIT_BOUNDED, report
        runs.append(counts["build_newton"])
    assert runs[0] == runs[1] > 0

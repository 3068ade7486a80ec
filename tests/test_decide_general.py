"""`decide_general` builds each polyhedron and each Minkowski-sum
lattice, and walks the tuples of each set T of rows, once per call,
shared by every support class that uses them.

Oracle: `general_oracle.decide_general_per_class`, which rebuilds and
rewalks every class.  The two give byte-identical `decide-general`
reports, the timing field masked, and `nh verify` accepts every unbounded
one.  Each class is scanned by its sets T of rows, by size, then
lexicographically, and the verdict's tuple is the first odd tuple of the
first T that has one.  Among the unbounded inputs are ones whose odd T
comes after T's with lo tuples in its class, which `lo_tuples` must
count, also when such a T reads its walk from a twin (a T of the same
rows' supports, `_twin_odd_input`), and among the bounded ones are inputs
whose exponents are not globally even (`general_inputs.frustum_input`).
Counting wrappers on the engine's bindings show, on bounded inputs, one
`build_newton` per distinct support, one `minkowski_faces` per distinct
tuple of summand supports, one walk per distinct T-support tuple and one
all-empty LP per call; no all-empty LP on an unbounded `decide`; and
that no memo outlives a call of `decide-general` or `decide`.
"""

import itertools
import json
import random
import re
from collections import Counter

import pytest
from click.testing import CliRunner

from general_inputs import d4_general_input, frustum_input
from general_oracle import decide_general_per_class
from nh import cli, engine, newton_poly
from nh.cli import EXIT_BOUNDED, EXIT_UNBOUNDED, ProblemInput, main
from nh.engine import (
    LambdaTuple,
    component_subsets,
    decide_disjoint,
    decide_general,
    enumerate_lo_tuples,
    enumerate_support_classes,
)
from nh.newton_poly import ExponentSet
from test_golden_reports import INPUTS as GOLDEN_INPUTS

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


def _pair_odd_input(rng, d: int) -> dict:
    """n = 3.  Row 1 is {a, u}, row 2 is λ·{a, u} plus {b, c}, with b the
    midpoint of the edge [a, c], a and c even, and u ≡ (1, 0, 0),
    b ≡ (0, 1, 1) mod 2, so that only a union holding both u and b is
    odd.  In the identity class every face of row 2 through b holds a and
    c, so such a union has rank 3 when u, a, c are independent.
    Cancelling a from row 2 cancels u with it and makes b a vertex; the
    pair sum then has the rank-2 face ({u}, {b}), which is odd and is
    scanned after the lo tuples of every single row."""
    a = (0, 2, 0)
    b = (2 * rng.randint(1, 2), 2 * rng.randint(0, 1) + 1,
         2 * rng.randint(0, 1) + 1)
    c = tuple(2 * x - y for x, y in zip(b, a))
    u = (2 * rng.randint(0, 1) + 1, 2 * rng.randint(0, 1),
         2 * rng.randint(0, 1))
    row1 = {a: rng.choice([-2, 1, 3]), u: rng.choice([-2, 1, 3])}
    lam = rng.choice([-2, 1, 3])
    rows = [row1, {**{m: lam * x for m, x in row1.items()},
                   b: rng.choice([-2, 1, 3]), c: rng.choice([-2, 1, 3])}]
    for _ in range(d - 2):
        pts = {(2 * rng.randint(0, 1), rng.randint(0, 2), rng.randint(0, 2))
               for _ in range(2)} - {(0, 0, 0)}
        rows.append({m: rng.choice([-2, 1, 3]) for m in pts or [(2, 1, 0)]})
    return {"n": 3, "S": [j + 1 for j in range(3) if rng.random() < 0.3],
            "lambda": [[list(m) for m in sorted(row)] for row in rows],
            "coefficients": {f"{nu + 1}:({','.join(map(str, m))})": str(x)
                             for nu, row in enumerate(rows)
                             for m, x in row.items()}}


def _twin_odd_input(rng, d: int) -> dict:
    """n = 2, d ≥ 3.  Rows 1 and 2 share one support A, so in the identity
    class every T holding row 2 but not row 1 reads its walk from the T
    with row 1 in row 2's place; row 3 holds an all-odd point, and when
    that point is a vertex its tuple is odd, on row 3 alone, so it is
    scanned after the tuples of row 2 alone, read from row 1's walk.  A
    fourth row, if any, is drawn from the same pool as A."""
    pool = [(a, b) for a in range(4) for b in range(4) if a or b]
    a = rng.sample(pool, rng.randint(1, 2))
    b = {rng.choice([(1, 1), (1, 3), (3, 1)])} | set(
        rng.sample(pool, rng.randint(0, 2)))
    rows = [a, a, sorted(b)] + [rng.sample(pool, rng.randint(1, 2))
                                for _ in range(d - 3)]
    return {"n": 2, "S": [j + 1 for j in range(2) if rng.random() < 0.5],
            "lambda": [[list(m) for m in sorted(row)] for row in rows],
            "coefficients": {f"{nu + 1}:({m[0]},{m[1]})":
                             rng.choice(["-2", "-1", "1", "2", "3/2"])
                             for nu, row in enumerate(rows) for m in row}}


def _nonempty(faces) -> tuple:
    """T: the components where a face tuple is not empty."""
    return tuple(nu for nu, f in enumerate(faces) if not f.is_empty)


def _odd_tuple_place(p, verdict) -> tuple:
    """(|T|, the number of lo tuples of the T's scanned before T, the
    number of those whose T has a twin: an earlier T of the same rows'
    supports, whose walk it reads) for the first odd tuple of an
    unbounded `decide_general` verdict, T its set of nonempty components
    in the odd class; the nonempty T's are scanned in `component_subsets`
    order."""
    live = [s for s in p.transformed(verdict.gl_matrix).supports() if s]
    lam = LambdaTuple([ExponentSet.of(s, p.spec.n) for s in live], p.spec)
    t = _nonempty(verdict.face_tuple.faces)
    first = {}
    before = twin = 0
    for u in itertools.islice(component_subsets(len(live)), 1, None):
        key = tuple(live[nu] for nu in u)
        first.setdefault(key, u)
        walked = [ft.faces for ft in enumerate_lo_tuples(lam, u)]
        if u == t:
            assert verdict.face_tuple.faces in walked, \
                "the odd tuple is not in its T's walk"
            return len(t), before, twin
        before += len(walked)
        twin += len(walked) * (first[key] != u)
    raise AssertionError("the odd tuple's T is not scanned")


def _odd_class_sharing(p, verdict) -> set:
    """How the odd class of an unbounded `decide_general` verdict shares
    T walks: "twin rows" if two of its rows have one support, so that two
    of its T's share a walk, and "earlier class" if one of its nonempty
    T's has the rows' supports of a nonempty T of an earlier class."""
    classes, _ = enumerate_support_classes(p)
    keys = []
    for cls in classes:
        live = [s for s in cls.supports if s]
        keys.append({tuple(live[nu] for nu in t)
                     for t in component_subsets(len(live)) if t})
        if cls.matrix == verdict.gl_matrix:
            break
    return ({"twin rows"} if len(set(live)) < len(live) else set()) | (
        {"earlier class"} if keys[-1] & set().union(*keys[:-1]) else set())


def _write(tmp_path, payload) -> str:
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _run(runner, *args):
    res = runner.invoke(main, list(args))
    return res.exit_code, TIMING.sub('"timing_seconds": 0', res.stdout)


@pytest.fixture
def counts(monkeypatch):
    """Calls of the engine's `build_newton`, `minkowski_faces` and
    `cones_interior_intersection`; its full walks ("walk"); and its walks
    of one T, keyed by ("walk", T's supports)."""
    seen = Counter()
    for name in ("build_newton", "minkowski_faces",
                 "cones_interior_intersection"):
        def counted(*args, _fn=getattr(engine, name), _name=name):
            seen[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(engine, name, counted)

    def walk(lam, t=None, _fn=engine.enumerate_lo_tuples):
        if t is None:
            seen["walk"] += 1
        else:
            seen["walk", tuple(lam.lambdas[nu].points for nu in t)] += 1
        return _fn(lam, t)
    monkeypatch.setattr(engine, "enumerate_lo_tuples", walk)
    return seen


def _t_walks(counts) -> dict:
    """Walks of one T, by T's supports."""
    return {key[1]: c for key, c in counts.items()
            if isinstance(key, tuple) and key[0] == "walk"}


def test_reports_match_the_per_class_oracle(tmp_path, monkeypatch):
    runner = CliRunner()
    rng = random.Random(1906)
    seen = Counter()
    late = Counter()    # odd tuples after other T's, by (|T| > 1, d = 4)
    odd_class = Counter()   # odd classes, by how they share T walks
    moved = twin_late = 0
    inputs = [_hidden_odd_input(rng, d) for d in (2, 3, 4)] + [
        _random_input(rng, d, rng.random() < 0.5)
        for d in rng.choices([2, 3, 4], k=60)] + [
        _pair_odd_input(rng, d) for d in (2, 2, 3, 3, 4, 4, 4, 4)]
    # bounded, with exponents that are not globally even
    frustums = [frustum_input(rng, d) for d in (2, 2, 3, 3, 4)]
    inputs += [_twin_odd_input(rng, d) for d in (3, 4) * 5]
    for i, payload in enumerate(inputs + frustums):
        d = len(payload["lambda"])
        path = _write(tmp_path, payload)
        code, report = _run(runner, "decide-general", "--input", path)
        with monkeypatch.context() as m:
            m.setattr(cli, "decide_general", decide_general_per_class)
            assert _run(runner, "decide-general", "--input", path) == (
                code, report)
        kind = json.loads(report)["verdict"]
        assert i < len(inputs) or kind == "bounded", report
        assert code == (EXIT_BOUNDED if kind == "bounded" else
                        EXIT_UNBOUNDED), report
        if kind == "unbounded":
            p = ProblemInput(payload).polynomial()
            verdict = decide_general(p)
            odd_class.update(_odd_class_sharing(p, verdict))
            size, before, twin = _odd_tuple_place(p, verdict)
            late[size > 1, d == 4] += before > 0
            twin_late += twin > 0
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
    assert min(late.values()) >= 2 and len(late) == 4, late
    assert min(odd_class.values()) >= 2 and len(odd_class) == 2, odd_class
    assert twin_late >= 4, twin_late


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


def test_each_t_support_tuple_is_walked_once(counts):
    """Over all classes of a bounded call, one walk per distinct tuple of
    the supports of a set T of rows (the empty T included), no full walk,
    and one all-empty LP."""
    rng = random.Random(1909)
    shared = Counter()
    for d in [2, 3, 4] * 10:
        p = ProblemInput(_random_input(rng, d, True)).polynomial()
        classes, _ = enumerate_support_classes(p)
        lives = [[s for s in cls.supports if s] for cls in classes]
        keys = [tuple(live[nu] for nu in t) for live in lives
                for t in component_subsets(len(live))]
        counts.clear()
        assert decide_general(p).bounded
        assert _t_walks(counts) == dict.fromkeys(keys, 1), p.coefficients
        assert (counts["walk"], counts["cones_interior_intersection"]) == (
            0, 1)
        shared[d] += len(keys) > len(set(keys))
    assert min(shared[d] for d in (2, 3, 4)) >= 3, shared


def test_d4_family_seed_8_is_pinned():
    """`general_inputs.d4_general_input(8)`: the class count and lo-tuple
    count `decide_general` gave before the T walks were shared."""
    verdict = decide_general(ProblemInput(d4_general_input(8)).polynomial())
    assert (verdict.kind, verdict.gl_class_count, verdict.lo_tuples) == (
        "bounded", 394, 31156)


# n = 3, d = 3, disjoint rows; every first coordinate is even, so the
# verdict is bounded and `decide` walks every tuple
_DECIDE_D3 = {"n": 3, "S": [1],
              "lambda": [[[2, 0, 1], [0, 2, 0], [4, 1, 3]],
                         [[0, 0, 2], [2, 3, 0], [0, 1, 1]],
                         [[2, 2, 0], [0, 3, 2], [4, 0, 2]]]}


def test_all_empty_lp_runs_only_when_no_tuple_is_odd(counts):
    """The all-empty tuple is scanned last, so `decide` solves its LP
    only on a bounded input: not on the planted odd vertex (d = 1), nor
    on a d = 2 input whose row 2 alone is odd, while the walk's first odd
    tuple is on the pair sum; once on a bounded input."""
    d2_odd = {"n": 2, "S": [1],
              "lambda": [[[0, 1], [2, 0], [2, 2]], [[3, 3]]]}
    cases = [(GOLDEN_INPUTS["planted-odd"], "unbounded", 0),
             (d2_odd, "unbounded", 0), (_DECIDE_D3, "bounded", 1)]
    for payload, kind, calls in cases:
        counts.clear()
        verdict = decide_disjoint(ProblemInput(payload).lambda_tuple())
        assert (verdict.kind, counts["cones_interior_intersection"]) == (
            kind, calls), payload


def test_no_memo_outlives_a_call(counts, monkeypatch, tmp_path):
    """Two in-process runs of one input build the same polyhedra and walk
    the same T's: the second finds nothing left over from the first.  So
    do two runs of one d = 3 `decide` input, by the candidate facet
    normals they compute and the Minkowski sums they build."""
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
        runs.append((counts["build_newton"], sum(_t_walks(counts).values())))
    assert runs[0] == runs[1] and min(runs[0]) > 0, runs

    for name in ("null_line", "_sum_faces"):
        def counted(*args, _fn=getattr(newton_poly, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(newton_poly, name, counted)
    path = _write(tmp_path, _DECIDE_D3)
    runs = []
    for _ in range(2):
        counts.clear()
        code, report = _run(runner, "decide", "--input", path)
        assert code == EXIT_BOUNDED, report
        runs.append((counts["null_line"], counts["_sum_faces"]))
    assert runs[0] == runs[1] and min(runs[0]) > 0, runs

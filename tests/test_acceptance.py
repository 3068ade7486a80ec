"""Acceptance gate: ten criteria, one test (and one pass/fail line) each.

Each test prints ``CRITERION k (<name>): PASS/FAIL (runtime)`` and enforces
the stated tolerances and runtime budgets.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from geom_checks import (
    cap_cone_generators,
    closure_contains,
    cones_closed_intersection_ray,
    graph_vertex_criterion,
    random_instance,
    rho_cones_interior_intersection,
    run_all_checks,
)
from nh.cli import ProblemInput, _certificate, _vec_out, verify_certificate
from nh.engine import (
    FaceTuple,
    LambdaTuple,
    VectorPolynomial,
    build_face_chain,
    decide_disjoint,
    decide_graph,
    enumerate_lo_tuples,
    graph_tuple,
    union_point_rank,
)
from nh.exact_numeric import dot
from nh.newton_poly import (
    DomainSpec,
    ExponentSet,
    build_newton,
    interior_contains,
    minkowski_faces,
)
from nh.oscillatory import divergence_probe, multiplier_sum_probe
from nh.parity import is_even
from quadrature_oracle import dyadic_piece, face_polynomial

WORKED_L1 = [(0, 0, 2), (3, 3, 0)]
WORKED_L2 = [(0, 0, 3), (3, 2, 1)]


def _lam(sets, n, S):
    return LambdaTuple([ExponentSet.of(s, n) for s in sets],
                       DomainSpec.of(n, S))


def _unit_poly(points, n, S):
    return VectorPolynomial({(0, tuple(m)): 1 for m in points},
                            d=1, spec=DomainSpec.of(n, S))


class _Criterion:
    """Context manager printing the acceptance line and enforcing budget."""

    def __init__(self, k, name, budget=None):
        self.k, self.name, self.budget = k, name, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and (
            self.budget is None or elapsed < self.budget)
        print(f"CRITERION {self.k} ({self.name}): "
              f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
        if ok and exc_type is None and self.budget is not None:
            assert elapsed < self.budget
        if exc_type is None and not ok:
            raise AssertionError(
                f"criterion {self.k} runtime {elapsed:.1f}s exceeds "
                f"{self.budget}s")
        return False


def _graph_instances(count=200, seed=421):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(1, 6)
        pts = set()
        while len(pts) < size:
            pts.add((rng.randint(0, 6), rng.randint(0, 6)))
        out.append(sorted(pts))
    return out


# ---------------------------------------------------------------------------

def test_criterion_01_worked_example_fidelity():
    with _Criterion(1, "worked example fidelity", budget=5.0):
        lam = _lam([WORKED_L1, WORKED_L2], 3, [0, 1, 2])
        p1, p2 = lam.polyhedra
        assert sorted(q for q, _ in p1.facets_a) == [
            (0, 0, 1), (0, 1, 0), (0, 2, 3), (1, 0, 0), (2, 0, 3)]
        assert sorted(q for q, _ in p2.facets_a) == [
            (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (2, 0, 3)]

        # exactly the two odd unions among rank-≤2 face pairs
        odd_unions = set()
        odd_tuples = []
        for f1, f2 in itertools.product(p1.faces, p2.faces):
            if union_point_rank((f1, f2)) > 2:
                continue
            union = sorted(set(f1.lambda_points) | set(f2.lambda_points))
            if not is_even(union):
                odd_unions.add(frozenset(union))
                odd_tuples.append((f1, f2))
        n1, m1, m2 = (3, 3, 0), (0, 0, 2), (0, 0, 3)
        assert odd_unions == {frozenset({n1, m2}), frozenset({m1, n1, m2})}

        # every odd rank-≤2 pair has empty open-cone intersection (that is
        # why the verdict stays Bounded)
        for f1, f2 in odd_tuples:
            assert rho_cones_interior_intersection([f1, f2]) is None
        # the two canonical odd pairs meet, closed, exactly on the ray
        # through (2,0,3)
        vertex_n1 = p1.face_by_key([n1], [])
        edge_m1n1 = p1.face_by_key([m1, n1], [])
        vertex_m2 = p2.face_by_key([m2], [])
        for f1 in (vertex_n1, edge_m1n1):
            assert f1 is not None and vertex_m2 is not None
            ray = cones_closed_intersection_ray([f1, vertex_m2])
            assert ray is not None
            t = ray[0] / 2
            assert t > 0 and tuple(ray) == (2 * t, 0, 3 * t)

        verdict = decide_disjoint(lam)
        assert verdict.bounded
        assert verdict.lo_tuples > 0


def test_criterion_02_introductory_trio():
    with _Criterion(2, "introductory trio", budget=4.0):
        t0 = time.perf_counter()
        v = decide_disjoint(_lam([[(1, 1)]], 2, [0, 1]))
        assert not v.bounded and v.odd_subset == [(1, 1)]
        assert time.perf_counter() - t0 < 1.0

        t0 = time.perf_counter()
        v = decide_disjoint(_lam([[(2, 1)]], 2, [0, 1]))
        assert v.bounded
        assert time.perf_counter() - t0 < 1.0

        t0 = time.perf_counter()
        v = decide_disjoint(_lam([[(2, 2), (3, 3)]], 2, [0, 1]))
        assert v.bounded
        v = decide_disjoint(_lam([[(2, 2), (3, 3)]], 2, []))
        assert not v.bounded and v.odd_subset == [(3, 3)]
        assert time.perf_counter() - t0 < 1.0


def test_criterion_03_graph_case_equivalence():
    with _Criterion(3, "graph-case equivalence", budget=30.0):
        spec = DomainSpec.of(2, [0, 1])
        for pts in _graph_instances():
            lam3 = ExponentSet.of(pts, 2)
            got = decide_graph(lam3, spec).bounded
            expect = graph_vertex_criterion(lam3, spec)
            assert got == expect, pts


def test_criterion_04_geometry_property_suite():
    with _Criterion(4, "geometry property suite"):
        rng = random.Random(2024)
        for i in range(100):
            omega, spec = random_instance(rng, n_max=3, max_points=6)
            p = build_newton(omega, spec)
            try:
                run_all_checks(p, rng, covering_radius=15)
            except AssertionError as exc:
                raise AssertionError(
                    f"instance {i}: Ω={omega.sorted_points()} "
                    f"S={sorted(spec.S)}: {exc}")


def test_criterion_05_parity_oracle_equivalence():
    with _Criterion(5, "parity oracle equivalence"):
        rng = random.Random(777)
        for i in range(500):
            n = rng.randint(1, 6)
            k = rng.randint(1, 12)
            omega = {tuple(rng.randint(0, 9) for _ in range(n))
                     for _ in range(k)}
            pts = np.array(sorted(omega), dtype=np.int64)
            # brute-force subset-sum scan over all 2^|Ω| subsets
            masks = np.array(
                list(itertools.product((0, 1), repeat=len(pts))),
                dtype=np.int64)
            sums = masks @ pts
            all_odd = np.all(sums % 2 == 1, axis=1)
            oracle_even = not bool(np.any(all_odd))
            assert is_even(omega) == oracle_even, (i, sorted(omega))


def _chain_instances(target=50, seed=909):
    rng = random.Random(seed)
    out = []
    while len(out) < target:
        n = rng.randint(2, 3)
        d = rng.randint(1, 2)
        used: set = set()
        sets = []
        for _ in range(d):
            pts = {tuple(rng.randint(0, 4) for _ in range(n))
                   for _ in range(rng.randint(1, 3))} - used
            if not pts:
                continue
            used |= pts
            sets.append(sorted(pts))
        if not sets:
            continue
        S = [j for j in range(n) if rng.random() < 0.5]
        lam = _lam(sets, n, S)
        taken = 0
        for ft in enumerate_lo_tuples(lam):
            out.append((lam, ft))
            taken += 1
            if taken >= 2 or len(out) >= target:
                break
    return out


def _dual_cone_vectors(face):
    """Extreme rays plus ±lineality of the closed dual cone."""
    rays, lin = cap_cone_generators([face])
    out = list(rays)
    for l in lin:
        out.append(tuple(l))
        out.append(tuple(-x for x in l))
    return out


def test_criterion_06_chain_suite():
    with _Criterion(6, "face-chain suite"):
        from fractions import Fraction
        for lam, ft in _chain_instances():
            n = lam.spec.n
            gens, lin, chains = build_face_chain(ft)
            assert len(chains) == len(gens) + 1
            assert all(f.is_improper for f in chains[0])
            acc = tuple(Fraction(0) for _ in range(n))
            for s in range(1, len(chains)):
                acc = tuple(a + Fraction(b)
                            for a, b in zip(acc, gens[s - 1]))
                for nu in range(len(ft.faces)):
                    cur, prev = chains[s][nu], chains[s - 1][nu]
                    # descent of faces
                    assert cur <= prev
                    # cone ascent: dual of the previous face sits inside
                    # the dual of the current one
                    for v in _dual_cone_vectors(prev):
                        assert closure_contains(cur, v)
                    # the partial sum is a joint interior point
                    assert interior_contains(cur, acc)
                    # sign/zero size control on the exponent set
                    lam_pts = lam.lambdas[nu].sorted_points()
                    face_pts = [m for m in cur.lambda_points
                                if m in lam.lambdas[nu].points]
                    for m in face_pts:
                        for w in lam_pts:
                            gap = dot(acc, w) - dot(acc, m)
                            if w in face_pts:
                                assert gap == 0
                            else:
                                assert gap > 0


def _even_face_tuples():
    """Even face tuples from the criterion-1 pair and criterion-3 graphs,
    paired with unit-coefficient polynomials."""
    out = []
    lam = _lam([WORKED_L1, WORKED_L2], 3, [0, 1, 2])
    p2 = VectorPolynomial(
        {(nu, m): 1 for nu, s in enumerate([WORKED_L1, WORKED_L2])
         for m in s}, d=2, spec=lam.spec)
    for ft in enumerate_lo_tuples(lam):
        assert is_even(ft.union_lambda())
        out.append((p2, ft))
        if len(out) >= 20:
            break
    spec2 = DomainSpec.of(2, [0, 1])
    for pts in _graph_instances():
        poly = build_newton(ExponentSet.of(pts, 2), spec2)
        for f in poly.faces:
            union = f.lambda_points
            if union and is_even(union):
                out.append((_unit_poly(pts, 2, [0, 1]),
                            FaceTuple((f,), 0, None)))
                break
        if len(out) >= 30:
            break
    assert len(out) >= 30
    return out[:30]


def test_criterion_07_vanishing_numerics():
    with _Criterion(7, "vanishing numerics", budget=120.0):
        rng = random.Random(55)
        for p, ft in _even_face_tuples():
            n = p.spec.n
            for _ in range(50):
                j = tuple(rng.randint(0, 8) for _ in range(n))
                xi = [rng.uniform(-4.0, 4.0) for _ in range(p.d)]
                r = dyadic_piece(face_polynomial(p, ft), j, xi)
                assert abs(r.values[0]) < 1e-8 * 2.0, (j, xi)


def test_criterion_08_divergence_numerics():
    with _Criterion(8, "divergence numerics", budget=120.0):
        # odd witness Λ={(1,1)}
        p = _unit_poly([(1, 1)], 2, [0, 1])
        poly = p.lambda_tuple().polyhedra[0]
        vertex = poly.face_by_key([(1, 1)], [])
        ft = FaceTuple((vertex,), 1, (1, 1))
        ks = list(range(4, 15))
        seq = [((2.0 ** -k, 2.0 ** -k), (1.0, 1.0)) for k in ks]
        res = divergence_probe(p, ft, [1.0], seq)
        # regression against k itself (free log volume = k·log2)
        ys = np.array([v for _x, v, _f in res.rows])
        slope, _ = np.polyfit(np.array(ks, dtype=float), ys, 1)
        fit = np.polyval(np.polyfit(np.array(ks, dtype=float), ys, 1),
                         np.array(ks, dtype=float))
        r2 = 1.0 - float(np.sum((ys - fit) ** 2)) / \
            float(np.sum((ys - np.mean(ys)) ** 2))
        assert slope > 0.1
        assert r2 > 0.99
        assert not res.inconclusive

        # even negative control: vertex of Λ={(2,1)}
        pe = _unit_poly([(2, 1)], 2, [0, 1])
        pv = pe.lambda_tuple().polyhedra[0]
        ve = pv.face_by_key([(2, 1)], [])
        fte = FaceTuple((ve,), 1, (1, 1))
        rese = divergence_probe(pe, fte, [1.0], seq)
        ye = np.array([v for _x, v, _f in rese.rows])
        slope_e, _ = np.polyfit(np.array(ks, dtype=float), ye, 1)
        assert abs(slope_e) < 0.01


def test_criterion_09_multiplier_sum_plateau():
    with _Criterion(9, "multiplier-sum plateau", budget=300.0):
        lam_spec = DomainSpec.of(3, [0, 1, 2])
        p = VectorPolynomial(
            {(nu, m): 1 for nu, s in enumerate([WORKED_L1, WORKED_L2])
             for m in s}, d=2, spec=lam_spec)
        assert decide_disjoint(p.lambda_tuple()).bounded
        rng = np.random.default_rng(7)
        xis = [list(rng.uniform(-0.25, 0.25, size=2)) for _ in range(20)]
        res = multiplier_sum_probe(p, xis, radius=15,
                                   report_radii=[10, 15])
        increments = [s[15] - s[10] for s in res.partial_sums]
        assert max(increments) < 1e-3, increments
        assert res.max_sum > 0.0

        # unbounded control: no plateau along ξ = 2^{2k}
        pc = _unit_poly([(1, 1)], 2, [0, 1])
        assert not decide_disjoint(pc.lambda_tuple()).bounded
        xic = [[float(2 ** (2 * k))] for k in (3, 4, 5)]
        resc = multiplier_sum_probe(pc, xic, radius=15,
                                    report_radii=[10, 15])
        inc = [s[15] - s[10] for s in resc.partial_sums]
        assert min(inc) > 0.1, inc


def _collect_certificates():
    """Unbounded certificates across all decision paths."""
    certs = []
    # plain decide
    for payload in (
            {"n": 2, "S": [1, 2], "lambda": [[[1, 1]]]},
            {"n": 2, "S": [], "lambda": [[[2, 2], [3, 3]]]},
            {"n": 3, "S": [1, 2, 3], "lambda": [[[1, 1, 1], [4, 0, 0]]]},
            {"n": 2, "S": [1], "lambda": [[[1, 1]], [[0, 3]]]}):
        problem = ProblemInput(payload)
        verdict = decide_disjoint(problem.lambda_tuple())
        if not verdict.bounded:
            certs.append(_certificate(problem, verdict))
    # graph certificates from the criterion-3 pool, on the unit-augmented
    # tuple
    spec = DomainSpec.of(2, [0, 1])
    taken = 0
    for pts in _graph_instances():
        lam = graph_tuple(ExponentSet.of(pts, 2), spec)
        problem = ProblemInput({"n": 2, "S": [1, 2], "lambda": [
            [list(m) for m in block] for block in lam.lambdas]})
        verdict = decide_disjoint(problem.lambda_tuple())
        if verdict.bounded:
            continue
        certs.append(_certificate(problem, verdict))
        taken += 1
        if taken >= 10:
            break
    # GL-cascade certificate
    problem = ProblemInput({
        "n": 2, "S": [1, 2], "lambda": [[[1, 1]], [[1, 1], [2, 2]]],
        "coefficients": {"1:(1,1)": "1/1", "2:(1,1)": "1/1",
                         "2:(2,2)": "1/1"}})
    from nh.engine import decide_general
    verdict = decide_general(problem.polynomial())
    assert not verdict.bounded
    certs.append(_certificate(problem, verdict))
    return certs


def _cert_lambdas(cert):
    """The Λ a certificate's witness faces belong to: `class_lambda` for a
    GL class, else `lambda`."""
    if "class_lambda" in cert:
        return cert["class_lambda"]
    return cert["lambda"]


def _neighbour_witness(cert, nu, fdesc):
    """A point of the open dual cone of a face next to the listed one (a
    face of it, or a face it is a face of, one dimension apart when there
    is one), or None."""
    p = build_newton(ExponentSet.of(_cert_lambdas(cert)[nu], cert["n"]),
                     DomainSpec.of(cert["n"], [j - 1 for j in cert["S"]]))
    f = p.face_by_key(fdesc["vertices"], fdesc["rays"])
    cone_point = {faces[0]: w for faces, w, *_ in minkowski_faces([p])}
    near = [g for g in cone_point if g != f and (g <= f or f <= g)]
    near.sort(key=lambda g: abs(g.dim - f.dim) != 1)
    return _vec_out(cone_point[near[0]]) if near else None


def _perturbations(cert):
    """Single-field corruptions, each of which must be rejected."""
    muts = []
    n = cert["n"]
    units = [[int(i == j) for i in range(n)] for j in range(n)]

    def clone():
        return json.loads(json.dumps(cert))

    c = clone()
    c["union_rank"] += 1
    muts.append(("union_rank", c))

    c = clone()
    pt = list(c["odd_subset"][0])
    pt[0] += 1
    c["odd_subset"][0] = pt
    muts.append(("odd_subset", c))

    if cert.get("overlap_witness") is not None:
        c = clone()
        c["overlap_witness"] = [0] * cert["n"]
        muts.append(("overlap_witness", c))

    if "gl_matrix" in cert:
        c = clone()
        # duplicate the first row: the matrix becomes singular, which the
        # verifier must reject regardless of the claimed support class
        c["gl_matrix"][-1] = list(c["gl_matrix"][0])
        muts.append(("gl_matrix", c))

    # the first nonempty witness face, against the overlap witness x
    k, fdesc = next((k, f) for k, f in enumerate(cert["witness_faces"])
                    if not f["is_empty"])
    nu = fdesc["nu"] - 1
    x = [Fraction(str(c)) for c in cert["overlap_witness"]]
    moved = _neighbour_witness(cert, nu, fdesc)
    if moved is not None:
        c = clone()
        c["overlap_witness"] = moved
        muts.append(("witness_to_neighbour_face", c))

    levels = {tuple(m): dot(x, m) for m in _cert_lambdas(cert)[nu]}
    low = min(levels.values())
    above = sorted(m for m, lv in levels.items() if lv > low)
    if not above:
        # no point of Λ_ν off the face: step off it along x
        j = next(j for j in range(n) if x[j])
        above = [list(fdesc["vertices"][0])]
        above[0][j] += 1 if x[j] > 0 else -1
    c = clone()
    c["witness_faces"][k]["vertices"].append(list(above[0]))
    muts.append(("vertex_not_minimal", c))

    spare = sorted(units, key=lambda e: e.index(1) + 1 not in cert["S"])
    spare = [e for e in spare if e not in fdesc["rays"]]
    if spare:
        c = clone()
        c["witness_faces"][k]["rays"].append(spare[0])
        muts.append(("ray_added", c))
    if fdesc["rays"]:
        c = clone()
        c["witness_faces"][k]["rays"].pop()
        muts.append(("ray_removed", c))

    if cert["S"]:
        c = clone()
        c["overlap_witness"][cert["S"][0] - 1] = -1
        muts.append(("witness_negative_on_S", c))
    return muts


def test_criterion_10_certificate_round_trip(tmp_path):
    with _Criterion(10, "certificate round-trip"):
        certs = _collect_certificates()
        assert len(certs) >= 10
        for i, cert in enumerate(certs):
            failures = verify_certificate(cert)
            assert failures == [], (i, failures)
            for field, bad in _perturbations(cert):
                assert verify_certificate(bad), (i, field)

        # end-to-end through the installed CLI
        payload = {"n": 2, "S": [1, 2], "lambda": [[[1, 1]]],
                   "mode": "decide"}
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(payload))
        run = subprocess.run(
            [sys.executable, "-m", "nh.cli", "decide", "--input", str(inp)],
            capture_output=True, text=True)
        assert run.returncode == 3, run.stderr
        rep = tmp_path / "report.json"
        rep.write_text(run.stdout)
        ver = subprocess.run(
            [sys.executable, "-m", "nh.cli", "verify", "--input", str(rep)],
            capture_output=True, text=True)
        assert ver.returncode == 0, ver.stderr

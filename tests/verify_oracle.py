"""Oracle for `nh.cli.verify_certificate`: the face-lookup check.

Builds each N(Λ_ν, S) with the engine's hull code, looks every listed face
up by its (vertex set, ray set) in the face list, and tests the overlap
witness against each face's open dual cone (`interior_contains`).  The
rank and the odd subset are checked on the faces' vertices, rays and
points.  For well-formed certificates; the structural `E_*` coding is
`verify_certificate`'s alone.

The two checks agree wherever a certificate lists each face by its true
vertex set.  The kernel also accepts any nonempty subset of the face's
points as its vertices, and it rejects a `dim` that is not the face's
dimension, which this oracle never reads.
"""

from fractions import Fraction

from nh.cli import ProblemInput
from nh.engine import LambdaTuple
from nh.exact_numeric import rank
from nh.newton_poly import ExponentSet, interior_contains


def verify_by_face_lookup(cert: dict) -> list:
    """Failure strings (empty = accepted), as the face-lookup check finds."""
    problem = ProblemInput(cert)
    n, spec, lambdas = problem.n, problem.spec, problem.lambdas
    witness = cert.get("overlap_witness")
    if witness is not None:
        witness = tuple(Fraction(str(x)) for x in witness)

    failures = []
    if "gl_matrix" in cert:
        matrix = [[Fraction(x) for x in row] for row in cert["gl_matrix"]]
        if rank(matrix) != len(lambdas):
            failures.append("gl_matrix is singular")
        claimed = [frozenset(tuple(m) for m in block)
                   for block in cert["class_lambda"]]
        got = [s for s in problem.polynomial().transformed(matrix).supports()
               if s]
        if sorted(map(sorted, claimed)) != sorted(map(sorted, got)):
            failures.append("gl_matrix does not produce class_lambda")
        lambdas = [ExponentSet.of(block, n) for block in claimed]

    polys = LambdaTuple(lambdas, spec).polyhedra
    faces = []
    for fdesc in cert["witness_faces"]:
        p = polys[fdesc["nu"] - 1]
        f = p.empty_face() if fdesc["is_empty"] else p.face_by_key(
            fdesc["vertices"], fdesc["rays"])
        if f is None:
            failures.append(f"no face of N(lambda_{fdesc['nu']}) has the "
                            "claimed vertex/ray sets")
        faces.append(f)
    if failures:
        return failures

    pts, allowed = [], set()
    for f in faces:
        if not f.is_empty:
            pts.extend(sorted(f.vertex_set) + sorted(f.ray_set))
            allowed.update(f.lambda_points())
    r = rank(pts)
    if r != cert["union_rank"]:
        failures.append("union_rank mismatch")
    if r > n - 1:
        failures.append("union rank is not low")
    odd = [tuple(m) for m in cert["odd_subset"]]
    if not odd or not set(odd) <= allowed:
        failures.append("odd subset is empty or not in the face points")
    if not all(sum(c) % 2 for c in zip(*odd)):
        failures.append("odd subset does not sum to an all-odd vector")
    if witness is None:
        failures.append("missing overlap witness")
    else:
        failures += [f"overlap witness outside the component-{fdesc['nu']} "
                     "open cone"
                     for fdesc, f in zip(cert["witness_faces"], faces)
                     if not interior_contains(f, witness)]
    return failures

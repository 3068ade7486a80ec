"""The certificate kernel of `nh verify` against the face-lookup oracle.

`verify_certificate` reads everything off the overlap witness x;
`verify_oracle.verify_by_face_lookup` builds the Newton polyhedra and looks
the listed faces up.  On random unbounded certificates of every kind
(disjoint `decide`, graph, GL class) and on the criterion-10 perturbations
of each, the two must accept and reject the same certificates.
"""

import random

from nh.cli import ProblemInput, _certificate, verify_certificate
from nh.engine import decide_disjoint, decide_general, graph_tuple
from nh.newton_poly import DomainSpec, ExponentSet
from test_acceptance import _perturbations
from verify_oracle import verify_by_face_lookup


def _points(rng, n, count, coord_max=3):
    return sorted({tuple(rng.randint(0, coord_max) for _ in range(n))
                   for _ in range(count)})


def _random_certificates(rng):
    """Unbounded certificates: 150 from `decide` (n ≤ 4, d ≤ 3, random S),
    40 from `decide-graph` (n ≤ 3, on the unit-augmented tuple) and 20
    from `decide-general` (n = 2, d = 2, shared exponents)."""
    certs = []
    while len(certs) < 150:
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        seen, blocks = set(), []
        for _ in range(d):
            block = [m for m in _points(rng, n, rng.randint(1, 3))
                     if m not in seen]
            seen.update(block)
            if block:
                blocks.append(block)
        problem = ProblemInput({
            "n": n, "S": [j + 1 for j in range(n) if rng.random() < 0.5],
            "lambda": [[list(m) for m in b] for b in blocks]})
        verdict = decide_disjoint(problem.lambda_tuple())
        if not verdict.bounded:
            certs.append(_certificate(problem, verdict))
    graphs = 0
    while graphs < 40:
        n = rng.randint(2, 3)
        S = [j for j in range(n) if rng.random() < 0.5]
        lam = graph_tuple(ExponentSet.of(_points(rng, n, 3), n),
                          DomainSpec.of(n, S))
        problem = ProblemInput({
            "n": n, "S": [j + 1 for j in S],
            "lambda": [[list(m) for m in block] for block in lam.lambdas]})
        verdict = decide_disjoint(problem.lambda_tuple())
        if not verdict.bounded:
            certs.append(_certificate(problem, verdict))
            graphs += 1
    general = 0
    while general < 20:
        shared = _points(rng, 2, 1)
        blocks = [shared + _points(rng, 2, 1), shared + _points(rng, 2, 2)]
        coef = {f"{nu + 1}:({m[0]},{m[1]})": str(rng.choice([-2, -1, 1, 3]))
                for nu, b in enumerate(blocks) for m in b}
        problem = ProblemInput({"n": 2, "S": [1, 2], "coefficients": coef,
                                "lambda": [[list(m) for m in sorted(set(b))]
                                           for b in blocks]})
        verdict = decide_general(problem.polynomial())
        if not verdict.bounded and verdict.gl_matrix is not None:
            certs.append(_certificate(problem, verdict))
            general += 1
    return certs


def test_kernel_agrees_with_face_lookup():
    certs = _random_certificates(random.Random(1011))
    checked = rejected = 0
    for i, cert in enumerate(certs):
        assert verify_certificate(cert) == [], i
        assert verify_by_face_lookup(cert) == [], i
        for field, bad in _perturbations(cert):
            kernel = bool(verify_certificate(bad))
            assert kernel == bool(verify_by_face_lookup(bad)), (i, field)
            rejected += kernel
            checked += 1
    assert len(certs) + checked >= 1000
    assert rejected == checked

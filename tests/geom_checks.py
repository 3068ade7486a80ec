"""Shared randomized-instance generators, geometric oracles and invariant
checkers.

Used by both the unit tests and the acceptance gate, so that the acceptance
runs exercise exactly the checks documented here.  The oracles are the
H-rows of a face's dual cone in x alone (`dual_cone_rows`; the engine
reads a face off a functional's cut instead) and the joint-interior LP
over them, the closed-cone membership test, a nonzero point of a closed
cone intersection, the open-cone membership test, the joint-interior LP
and S₀ written against the supporting levels ρ (the form
`dual_cone_rows` eliminates), the extreme rays of a cone by search over
tight row subsets (the generators of Cap(F*) that the engine reads off
the Minkowski-sum lattice), and the published double-Hilbert vertex
criterion.
"""

import itertools
import random
from fractions import Fraction

import numpy as np

from nh.exact_numeric import (
    StrictSystem,
    dot,
    is_zero,
    nullspace,
    orthogonal_basis,
    primitive,
    rank,
    reduce_mod,
    solve_strict,
    unit,
    vsub,
)
from nh.newton_poly import (
    DomainSpec,
    ExponentSet,
    build_newton,
    face_by_cone_interior,
)


def random_instance(rng: random.Random, n_max: int = 3, max_points: int = 6,
                    coord_max: int = 6):
    """A random (Ω, S) pair with n ≤ n_max and 1 ≤ |Ω| ≤ max_points."""
    n = rng.randint(1, n_max)
    npts = rng.randint(1, max_points)
    pts = {tuple(rng.randint(0, coord_max) for _ in range(n))
           for _ in range(npts)}
    S = [j for j in range(n) if rng.random() < 0.5]
    return ExponentSet.of(pts, n), DomainSpec.of(n, S)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def dual_cone_rows(f) -> tuple:
    """H-description (eq, ge) of the closed dual cone
    F* = {x : a·x = 0 for a ∈ eq, a·x ≥ 0 for a ∈ ge}, in x alone (the
    supporting level is eliminated at the face's least vertex v₀).

    eq: v − v₀ for the face's other vertices, and the face's rays.
    ge: w − v₀ for P's other vertices and P's other rays; e_j for j ∈ S
    on the empty face, whose dual is Z(S).  The open cone (F*)° holds
    the x ≠ 0 with every eq row 0 and every ge row > 0 (≥ 0 on the empty
    face; the improper face has no ge rows)."""
    p = f.parent
    if f.is_empty:
        return (), tuple(unit(p.spec.n, j) for j in sorted(p.spec.S))
    vs = sorted(f.vertex_set)
    return (tuple([vsub(v, vs[0]) for v in vs[1:]] + sorted(f.ray_set)),
            tuple([vsub(w, vs[0]) for w in sorted(p.vertices - f.vertex_set)]
                  + sorted(p.rays - f.ray_set)))


def x_cones_interior_intersection(faces):
    """A point of ⋂(F_ν*)° from one LP over x on `dual_cone_rows`, or
    None: each face's eq rows as equalities and its ge rows strict (weak
    on the empty face); with no strict row, the signed coordinate
    directions are swept."""
    n = faces[0].parent.spec.n
    eqs, weak, strict = [], [], []
    for f in faces:
        eq, ge = dual_cone_rows(f)
        eqs += [(a, 0) for a in eq]
        (weak if f.is_empty else strict).extend((a, 0) for a in ge)
    extras = [()] if strict else [
        ((tuple(sign * c for c in unit(n, j)), 0),)
        for j in range(n) for sign in (1, -1)]
    for extra in extras:
        x = solve_strict(StrictSystem(
            dim=n, equalities=tuple(eqs), weak=tuple(weak),
            strict=tuple(strict) + extra))
        if x is not None:
            return x
    return None


def closure_contains(f, x) -> bool:
    """x ∈ F*, the closed dual cone (weak-inequality variant)."""
    p = f.parent
    x = tuple(Fraction(c) for c in x)
    if f.is_empty:
        return p.spec.in_zs(x)
    vs = sorted(f.vertex_set)
    rho = dot(x, vs[0])
    if any(dot(x, v) != rho for v in vs[1:]):
        return False
    if any(dot(x, r) != 0 for r in f.ray_set):
        return False
    if any(dot(x, w) < rho for w in p.vertices - f.vertex_set):
        return False
    if any(dot(x, r) < 0 for r in p.rays - f.ray_set):
        return False
    return True


def cones_closed_intersection_ray(faces):
    """A nonzero point of ⋂ F_ν* (closed cones), if one exists."""
    n = faces[0].parent.spec.n
    eqs, weak = [], []
    for f in faces:
        eq, ge = dual_cone_rows(f)
        eqs += [(a, Fraction(0)) for a in eq]
        weak += [(a, Fraction(0)) for a in ge]
    for j in range(n):
        for sign in (1, -1):
            srow = [Fraction(0)] * n
            srow[j] = Fraction(sign)
            sys = StrictSystem(dim=n, equalities=tuple(eqs),
                               weak=tuple(weak),
                               strict=((tuple(srow), Fraction(0)),))
            sol = solve_strict(sys)
            if sol is not None:
                return tuple(sol)
    return None


def rho_interior_contains(f, x) -> bool:
    """x ∈ (F*)°, written against the supporting level ρ = x·v₀: the face's
    vertices at level ρ, its rays at 0, P's other vertices above ρ and
    P's other rays above 0; x ∈ Z(S), x ≠ 0, on the empty face."""
    p = f.parent
    x = tuple(Fraction(c) for c in x)
    if f.is_empty:
        return any(c != 0 for c in x) and p.spec.in_zs(x)
    vs = sorted(f.vertex_set)
    rho = dot(x, vs[0])
    if any(dot(x, v) != rho for v in vs[1:]):
        return False
    if any(dot(x, r) != 0 for r in f.ray_set):
        return False
    if f.is_improper:
        return any(c != 0 for c in x)
    if any(dot(x, w) <= rho for w in p.vertices - f.vertex_set):
        return False
    if any(dot(x, r) <= 0 for r in p.rays - f.ray_set):
        return False
    return True


def rho_interior_system(faces, n):
    """The joint-interior LP over (x, ρ_1..ρ_K), one level ρ_ν per nonempty
    face: (dim, equalities, weak, strict), each row a (vector, 0) pair."""
    proper = [f for f in faces if not f.is_empty]
    K = len(proper)
    eqs, weak, strict = [], [], []

    def ext(v, rho_idx=None, rho_coef=0):
        row = [Fraction(c) for c in v] + [Fraction(0)] * K
        if rho_idx is not None:
            row[n + rho_idx] = Fraction(rho_coef)
        return tuple(row)

    for f in faces:
        if f.is_empty:
            for j in sorted(f.parent.spec.S):
                weak.append((ext(unit(n, j)), Fraction(0)))
            continue
        k = proper.index(f)
        for v in sorted(f.vertex_set):
            eqs.append((ext(v, k, -1), Fraction(0)))       # x·v − ρ = 0
        for r in sorted(f.ray_set):
            eqs.append((ext(r), Fraction(0)))              # x·r = 0
        if not f.is_improper:
            for w in sorted(f.parent.vertices - f.vertex_set):
                strict.append((ext(w, k, -1), Fraction(0)))  # x·w − ρ > 0
            for r in sorted(f.parent.rays - f.ray_set):
                strict.append((ext(r), Fraction(0)))         # x·r > 0
    return n + K, eqs, weak, strict


def rho_cones_interior_intersection(faces):
    """A point of ⋂(F_ν*)° from the level-form LP, or None; with no strict
    row, the signed coordinate directions are swept."""
    n = faces[0].parent.spec.n
    dim, eqs, weak, strict = rho_interior_system(faces, n)
    extras = [()] if strict else [
        ((tuple(Fraction(sign if i == j else 0) for i in range(dim)),
          Fraction(0)),)
        for j in range(n) for sign in (1, -1)]
    for extra in extras:
        sol = solve_strict(StrictSystem(
            dim=dim, equalities=tuple(eqs), weak=tuple(weak),
            strict=tuple(strict) + tuple(extra)))
        if sol is not None:
            return tuple(sol[:n])
    return None


def lp_closure_s0(f) -> frozenset:
    """S₀ read off a level-form witness q of (F*)° as {j ∈ S : q_j = 0}."""
    S = f.parent.spec.S
    if f.is_improper:
        return frozenset(S)
    q = rho_cones_interior_intersection([f])
    return frozenset(j for j in S if q[j] == 0)


def cone_extreme_generators(eqs: list, ineqs: list, n: int):
    """Extreme rays + lineality basis of {x : Ex = 0, Ax ≥ 0} (exact
    double-description at desk scale: tight subsets of the right rank).
    Each ray is reduced mod the lineality, primitive."""
    lin = nullspace(eqs + ineqs, n=n)
    dim_l = len(lin)
    r_e = rank(eqs)
    s0 = n - dim_l - 1 - r_e
    if s0 < 0:
        return [], lin
    orth = orthogonal_basis(lin)

    rays: list = []
    seen: set = set()
    for sub in itertools.combinations(range(len(ineqs)), s0):
        ns = nullspace(eqs + [ineqs[i] for i in sub], n=n)
        if len(ns) != dim_l + 1:
            continue
        w = next((v for v in ns if rank(lin + [v]) == dim_l + 1), None)
        if w is None:
            continue
        for cand in (w, tuple(-x for x in w)):
            if all(dot(a, cand) >= 0 for a in ineqs):
                key = primitive(reduce_mod(cand, orth))
                if not is_zero(key) and key not in seen:
                    seen.add(key)
                    rays.append(key)
                break
    return rays, lin


def cap_cone_generators(faces):
    """Generators (extreme rays) and lineality of Cap(F*) = ⋂ F_ν*."""
    eqs, ineqs = [], []
    for f in faces:
        eq, ge = dual_cone_rows(f)
        eqs += eq
        ineqs += ge
    return cone_extreme_generators(eqs, ineqs, faces[0].parent.spec.n)


def graph_vertex_criterion(lambda_last, spec) -> bool:
    """Published double-Hilbert criterion (n = 2): bounded iff every vertex
    of N(Λ₃,S) has at least one even component.  Unit monomials of Λ₃ fold
    into the linear components, so they are dropped first; nothing left
    means bounded."""
    rest = [m for m in lambda_last.points if sum(m) != 1]
    if not rest:
        return True
    p = build_newton(ExponentSet.of(rest, spec.n), spec)
    return all(any(c % 2 == 0 for c in v) for v in p.vertices)


# ---------------------------------------------------------------------------
# invariant checkers (raise AssertionError with context on failure)
# ---------------------------------------------------------------------------

def check_duality_order_reversal(p):
    """F ⪯ G  ⟺  G* ⊆ F*, over all ordered face pairs.

    Cone containment is decided exactly via the extreme generators and
    lineality basis of the smaller cone.
    """
    faces = p.faces
    gens = {}
    for f in faces:
        rays, lin = cap_cone_generators([f])
        vecs = list(rays)
        for l in lin:
            vecs.append(tuple(Fraction(x) for x in l))
            vecs.append(tuple(-Fraction(x) for x in l))
        gens[f] = vecs

    for f in faces:
        for g in faces:
            contained = all(closure_contains(f, v) for v in gens[g])
            if f.is_empty or g.is_empty:
                # the empty face's dual is all of Z(S), which can coincide
                # with a maximal cone of the fan; only the forward
                # implication is a lattice fact there
                assert not (f <= g) or contained, (
                    "duality reversal (empty case) failed",
                    f.is_empty, g.is_empty)
            else:
                assert (f <= g) == contained, (
                    "duality order reversal failed",
                    sorted(f.vertex_set), sorted(g.vertex_set),
                    f <= g, contained)


def check_dim_formula(p):
    """dim(F) + dim(span F*) = n for every nonempty face."""
    n = p.spec.n
    for f in p.faces:
        if f.is_empty:
            continue
        dual_dim = n - rank(dual_cone_rows(f)[0])
        assert f.dim + dual_dim == n, (
            "dimension formula failed", sorted(f.vertex_set), f.dim, dual_dim)


def check_dominating(p, rng: random.Random, samples: int = 50):
    """Random J ∈ F* satisfy J·m ≤ J·w for m ∈ F∩Ω, w ∈ Ω."""
    n = p.spec.n
    omega = p.omega.sorted_points()
    for f in p.faces:
        if f.is_empty:
            continue
        rays, lin = cap_cone_generators([f])
        flam = f.lambda_points
        for _ in range(samples):
            j = [Fraction(0)] * n
            for r in rays:
                c = rng.randint(0, 5)
                j = [a + c * b for a, b in zip(j, r)]
            for l in lin:
                c = rng.randint(-5, 5)
                j = [a + c * b for a, b in zip(j, l)]
            j = tuple(j)
            assert closure_contains(f, j)
            for m in flam:
                for w in omega:
                    assert dot(j, m) <= dot(j, w), (
                        "dominating property failed",
                        sorted(f.vertex_set), j, m, w)


def _face_masks(p, X: np.ndarray):
    """Boolean open-cone membership masks per nonempty face, vectorized.

    X is an (N, n) int64 array of lattice points; entries must be small
    enough that dot products stay within int64 (true for |x| ≤ 15 and
    exponents ≤ 6).
    """
    masks = []
    for f in p.faces:
        if f.is_empty:
            continue
        verts = np.array(sorted(f.vertex_set), dtype=np.int64)
        xv = X @ verts.T
        mask = np.all(xv == xv[:, :1], axis=1)
        rho = xv[:, 0]
        rays = sorted(f.ray_set)
        if rays:
            mask &= np.all(X @ np.array(rays, np.int64).T == 0, axis=1)
        if f.is_improper:
            mask &= np.any(X != 0, axis=1)
        else:
            other_v = sorted(p.vertices - f.vertex_set)
            if other_v:
                mask &= np.all(
                    X @ np.array(other_v, np.int64).T > rho[:, None], axis=1)
            other_r = sorted(p.rays - f.ray_set)
            if other_r:
                mask &= np.all(X @ np.array(other_r, np.int64).T > 0, axis=1)
        masks.append(mask)
    return masks


def check_covering(p, radius: int = 15, spot_rng: random.Random = None):
    """Open dual cones of the nonempty faces tile Z(S) ∖ {0} together with
    the empty-face cone: on the lattice box [-radius, radius]^n ∩ Z(S),
    every nonzero point lies in at most one open cone, every open cone stays
    inside Z(S), and the vectorized masks agree with the exact
    face_by_cone_interior resolution on a random spot sample.
    """
    n = p.spec.n
    axes = [np.arange(0, radius + 1) if j in p.spec.S
            else np.arange(-radius, radius + 1) for j in range(n)]
    grids = np.meshgrid(*axes, indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    masks = _face_masks(p, X)
    counts = sum(m.astype(np.int64) for m in masks)
    assert int(counts.max(initial=0)) <= 1, "open cones overlap"
    in_zs = np.ones(len(X), dtype=bool)
    for j in p.spec.S:
        in_zs &= X[:, j] >= 0
    assert bool(np.all(in_zs[counts >= 1])), "open cone escapes Z(S)"
    nonzero = np.any(X != 0, axis=1)
    # covering: every nonzero point of Z(S) is picked up either by a
    # nonempty face's open cone or by the empty face (whose open cone is
    # all of Z(S) ∖ {0}); cross-check resolution on a sample
    if spot_rng is not None:
        faces = [f for f in p.faces if not f.is_empty]
        idx = [i for i in range(len(X)) if in_zs[i]]
        for i in spot_rng.sample(idx, min(25, len(idx))):
            x = tuple(int(v) for v in X[i])
            f = face_by_cone_interior(p, x)
            if all(v == 0 for v in x):
                assert f.is_improper
            elif f.is_empty:
                assert counts[i] == 0
            else:
                k = faces.index(f)
                assert masks[k][i] and counts[i] == 1
    return int(counts.sum()), int((in_zs & nonzero).sum())


def check_vh_consistency(p, rng: random.Random):
    """V-representation and H-representation describe the same set:
    vertices/rays satisfy the facet system, random conic/convex combinations
    stay inside, facet-tight vertex sets have the right affine dimension,
    and stepping outside any facet leaves the polyhedron.
    """
    for v in p.vertices:
        assert p.contains(v)
        assert not any(c < 0 for c in v)
    for r in p.rays:
        assert all(dot(q, r) >= 0 for q, _ in p.facets_a)
        assert all(dot(q, r) == 0 for q, _ in p.basis_b)
    verts = sorted(p.vertices)
    rays = sorted(p.rays)
    for _ in range(20):
        weights = [Fraction(rng.randint(0, 4)) for _ in verts]
        if sum(weights) == 0:
            weights[0] = Fraction(1)
        total = sum(weights)
        x = [sum(w * Fraction(v[i]) for w, v in zip(weights, verts)) / total
             for i in range(p.spec.n)]
        for r in rays:
            c = rng.randint(0, 3)
            x = [a + c * b for a, b in zip(x, r)]
        assert p.contains(x), ("convex+conic combination escaped", x)
    for q, rho in p.facets_a:
        tight = [v for v in verts if dot(q, v) == rho]
        assert tight, "facet with no tight vertex"
        # stepping below the facet leaves P
        probe = tuple(Fraction(c) - Fraction(q[i], sum(x * x for x in q))
                      for i, c in enumerate(tight[0]))
        assert not p.contains(probe)
    # every Ω point is inside
    for m in p.omega:
        assert p.contains(m)
    # the polyhedron dimension matches the affine span of verts+rays
    span = [vsub(v, verts[0]) for v in verts[1:]] + \
        [tuple(map(Fraction, r)) for r in rays]
    assert p.dim == rank(span)


def run_all_checks(p, rng: random.Random, covering_radius: int = 15):
    check_duality_order_reversal(p)
    check_dim_formula(p)
    check_dominating(p, rng)
    check_covering(p, covering_radius, spot_rng=rng)
    check_vh_consistency(p, rng)

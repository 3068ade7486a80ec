"""Unit tests for Newton polyhedra: construction, faces, dual cones.

Oracles: the pairwise-direction hull, the 2^k facet-subset lattice, the
split-variable vertex LP and the frozenset closure in `hull_oracle`; the split strict-feasibility LP
in `simplex_oracle`; the open-cone test, the joint-interior LP and S₀ written
against the supporting levels ρ in `geom_checks`.
"""

import gc
import itertools
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from geom_checks import (
    cones_closed_intersection_ray,
    dual_cone_rows,
    lp_closure_s0,
    random_instance,
    rho_cones_interior_intersection,
    rho_interior_contains,
    run_all_checks,
    x_cones_interior_intersection,
)
from hull_oracle import (
    build_newton_pairwise,
    closure_frozensets,
    enumerate_faces_subsets,
    vertices_split,
)
from nh import newton_poly
from nh.engine import VectorPolynomial, union_point_rank
from nh.exact_numeric import StrictSystem, dot, rank, unit, vsub
from nh.newton_poly import (
    DomainSpec,
    ExponentSet,
    Face,
    build_newton,
    cones_interior_intersection,
    enumerate_faces,
    face_by_cone_interior,
    face_closure_structure,
    interior_contains,
    minimal_points,
    minkowski_faces,
    _closure,
)
from simplex_oracle import split_solve_strict


def _poly(points, n, S):
    return build_newton(ExponentSet.of(points, n), DomainSpec.of(n, S))


def _normals(p):
    return sorted(q for q, _ in p.facets_a)


# ---------------------------------------------------------------------------
# worked three-dimensional pair (the running example throughout the suite)
# ---------------------------------------------------------------------------

LAM1 = [(0, 0, 2), (3, 3, 0)]
LAM2 = [(0, 0, 3), (3, 2, 1)]
FULL_S = [0, 1, 2]


def test_worked_example_facets():
    p1 = _poly(LAM1, 3, FULL_S)
    p2 = _poly(LAM2, 3, FULL_S)
    assert _normals(p1) == [(0, 0, 1), (0, 1, 0), (0, 2, 3),
                            (1, 0, 0), (2, 0, 3)]
    assert _normals(p2) == [(0, 0, 1), (0, 1, 0), (0, 1, 1),
                            (1, 0, 0), (2, 0, 3)]
    assert p1.vertices == frozenset({(3, 3, 0), (0, 0, 2)})
    assert p2.vertices == frozenset({(0, 0, 3), (3, 2, 1)})
    assert p1.dim == 3 and p2.dim == 3


def test_worked_example_face_counts():
    p1 = _poly(LAM1, 3, FULL_S)
    p2 = _poly(LAM2, 3, FULL_S)
    for p in (p1, p2):
        faces = enumerate_faces(p)
        assert len(faces) == 15
        by_dim = {d: sum(1 for f in faces if f.dim == d)
                  for d in (-1, 0, 1, 2, 3)}
        # 5 two-faces, 6 edges, 2 vertices, the improper face, the empty face
        assert by_dim == {-1: 1, 0: 2, 1: 6, 2: 5, 3: 1}


def test_face_list_lives_and_dies_with_its_polyhedron():
    p = _poly(LAM1, 3, FULL_S)
    faces = p.faces()
    assert enumerate_faces(p) is faces
    ref = weakref.ref(p)
    del p, faces
    gc.collect()
    assert ref() is None


def test_worked_example_closed_ray():
    p1 = _poly(LAM1, 3, FULL_S)
    p2 = _poly(LAM2, 3, FULL_S)
    f1 = p1.face_by_key([(3, 3, 0)], [])
    f2 = p2.face_by_key([(0, 0, 3)], [])
    assert f1 is not None and f2 is not None
    # open cones do not meet, closed ones meet along the ray (2,0,3)
    assert rho_cones_interior_intersection([f1, f2]) is None
    ray = cones_closed_intersection_ray([f1, f2])
    assert ray is not None
    t = Fraction(ray[0], 2)
    assert t > 0 and ray == (2 * t, 0, 3 * t)


# ---------------------------------------------------------------------------
# small fixed cases
# ---------------------------------------------------------------------------

def test_single_point_global():
    p = _poly([(1, 1)], 2, [])
    assert p.vertices == frozenset({(1, 1)})
    assert p.rays == frozenset()
    assert p.dim == 0
    faces = enumerate_faces(p)
    assert len(faces) == 2   # the point (improper) + empty
    imp = p.improper_face()
    assert imp.is_improper and imp.dim == 0
    # its cone interior is the punctured plane except nothing: x·(1,1)
    # constant holds trivially, x ≠ 0
    assert interior_contains(imp, (1, -1))
    assert not interior_contains(imp, (0, 0))


def test_quadrant_closure():
    p = _poly([(2, 1)], 2, [0, 1])
    assert p.vertices == frozenset({(2, 1)})
    assert p.rays == frozenset({(1, 0), (0, 1)})
    assert p.contains((3, 5)) and not p.contains((1, 1))
    vertex = p.face_by_key([(2, 1)], [])
    assert vertex is not None and vertex.dim == 0
    assert interior_contains(vertex, (1, 1))
    assert not interior_contains(vertex, (1, 0))
    assert face_closure_structure(vertex) == frozenset()
    edge = p.face_by_key([(2, 1)], [(1, 0)])
    assert edge is not None
    assert face_closure_structure(edge) == frozenset({0})


def test_closure_structure_rebuilds_every_face():
    """F = N(Λ∩F, S₀), checked against `build_newton` on random polyhedra
    (`face_closure_structure` checks it without a hull); Λ∩F is the set of
    points of Ω at the minimum of a point of (F*)°, sorted, and computed
    once per face."""
    rng = random.Random(41)
    faces_seen = 0
    for _ in range(60):
        p = build_newton(*random_instance(rng, n_max=4, max_points=6))
        omega = p.omega.sorted_points()
        for f in p.faces()[:-1]:
            x = rho_cones_interior_intersection([f])
            if x is None:   # the improper face of a full-dimensional P
                want = omega
            else:
                low = min(dot(x, m) for m in omega)
                want = [m for m in omega if dot(x, m) == low]
            got = f.lambda_points()
            assert got == want
            got.clear()
            assert f.lambda_points() == want
            rebuilt = build_newton(ExponentSet.of(want, p.spec.n),
                                   DomainSpec(p.spec.n,
                                              face_closure_structure(f)))
            assert (rebuilt.vertices, rebuilt.rays) == (f.vertex_set,
                                                        f.ray_set)
            faces_seen += 1
    assert faces_seen >= 300


def test_mixed_local_global():
    # S = {1}: recession only in the second coordinate
    p = _poly([(1, 0), (0, 2)], 2, [1])
    assert p.rays == frozenset({(0, 1)})
    assert p.contains((Fraction(1, 2), 1))
    assert not p.contains((2, 0))
    # a point of the wrong length is an error, not cut short or padded
    for x in ((1,), (1, 1, 0)):
        with pytest.raises(ValueError):
            p.contains(x)


def test_lower_dimensional_polyhedron():
    p = _poly([(1, 1, 0), (3, 3, 0)], 3, [])
    assert p.dim == 1
    assert len(p.basis_b) == 2
    imp = p.improper_face()
    # V⊥ is 2-dimensional: a nonzero annihilator is interior
    assert interior_contains(imp, (1, -1, 0))
    assert interior_contains(imp, (0, 0, 1))
    assert not interior_contains(imp, (1, 1, 0))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        ExponentSet.of([(1, -1)], 2)
    with pytest.raises(ValueError):
        DomainSpec.of(2, [2])


@pytest.mark.parametrize("make", [
    lambda e: ExponentSet.of([(e, 2)], 2).points,
    lambda e: ExponentSet.of([], e).ambient_dim,
    lambda e: DomainSpec.of(3, [e]).S,
    lambda e: DomainSpec.of(e, [0]).n,
    lambda e: VectorPolynomial({(0, (e, 2)): 1}, 1,
                               DomainSpec.of(2, [])).support(0),
], ids=["ExponentSet.of", "ExponentSet.of-n", "DomainSpec.of",
        "DomainSpec.of-n", "VectorPolynomial"])
def test_non_integral_entry_rejected(make):
    """A non-integral exponent, S entry or ambient dimension n is an error,
    not truncated; ints and numpy integers pass."""
    for bad in (1.9, Fraction(3, 2), "1"):
        with pytest.raises(ValueError, match="non-integral"):
            make(bad)
    np = pytest.importorskip("numpy")
    assert make(np.int64(1)) == make(1) != make(2)


def test_float_coefficient_rejected():
    """A float coefficient is an error, not its binary Fraction; exact
    rationals, ints and decimal strings pass as their exact values."""
    spec = DomainSpec.of(2, [])
    for bad in (0.1, 2.0):
        with pytest.raises(ValueError, match="float coefficient"):
            VectorPolynomial({(0, (1, 2)): bad}, 1, spec)
    for good in (Fraction(1, 10), "0.1", "1/10"):
        p = VectorPolynomial({(0, (1, 2)): good}, 1, spec)
        assert p.coefficients == {(0, (1, 2)): Fraction(1, 10)}
    assert VectorPolynomial({(0, (1, 2)): 2}, 1, spec).coefficients == {
        (0, (1, 2)): 2}


# ---------------------------------------------------------------------------
# cone resolution
# ---------------------------------------------------------------------------

def test_face_by_cone_interior_unique():
    p = _poly(LAM1, 3, FULL_S)
    rng = random.Random(5)
    for _ in range(40):
        x = tuple(rng.randint(0, 9) for _ in range(3))
        f = face_by_cone_interior(p, x)
        if all(c == 0 for c in x):
            assert f.is_improper
            continue
        assert interior_contains(f, x)
        others = [g for g in enumerate_faces(p)
                  if not g.is_empty and g != f]
        assert not any(interior_contains(g, x) for g in others)


def test_face_by_cone_interior_matches_scan():
    """The argmin face is the one nonempty face whose open cone holds x."""
    rng = random.Random(6)
    for _ in range(60):
        omega, spec = random_instance(rng, n_max=4, max_points=6)
        p = build_newton(omega, spec)
        for _ in range(8):
            x = tuple(rng.randint(0 if j in spec.S else -4, 4)
                      for j in range(spec.n))
            if all(c == 0 for c in x):
                continue
            scan = [f for f in p.faces()
                    if not f.is_empty and interior_contains(f, x)]
            assert [face_by_cone_interior(p, x)] == scan, (
                omega.sorted_points(), sorted(spec.S), x)


def test_face_lookups_by_key():
    rng = random.Random(7)
    for _ in range(40):
        p = build_newton(*random_instance(rng, n_max=4, max_points=5))
        faces = p.faces()
        for f in faces[:-1]:
            assert p.face_by_key(sorted(f.vertex_set),
                                 sorted(f.ray_set)) is f
        assert p.face_by_key([], []) is None
        assert [p.improper_face()] == [f for f in faces if f.is_improper]
        assert [p.empty_face()] == [f for f in faces if f.is_empty]


def test_minkowski_faces_are_the_faces_of_the_built_sum(monkeypatch):
    """Against N(Λ₁+⋯+Λ_k, S), built as a hull of the point sums: each
    (summand faces, w, normals, dim, levels) is the w-minimal face of every
    summand, w picks a different face of the sum each time, `normals` are
    exactly the built sum's facet normals through that face, `dim` is its
    dimension, dim + rank(levels) is the rank of the summand faces' points
    (`union_point_rank`), and every face of the sum whose open cone is not
    {0} is picked.  The sum's facet test
    (`_spans_facet`) agrees with the rank of the summand faces'
    directions, and the draws reach each of its branches: a face of
    dimension m−1, dimensions adding up to less, and the stacked rank."""
    branches = Counter()

    def spans(faces, m, _fn=newton_poly._spans_facet):
        dims = [f.dim for f in faces]
        branches["face" if max(dims) == m - 1 else
                 "below" if sum(dims) < m - 1 else "stacked"] += 1
        got = _fn(faces, m)
        assert got == (rank([d for f in faces
                             for d in dual_cone_rows(f)[0]]) == m - 1)
        return got
    monkeypatch.setattr(newton_poly, "_spans_facet", spans)
    rng = random.Random(8)
    kinds = set()
    for _ in range(60):
        n = rng.randint(1, 4)
        # a third of the sums lie in the hyperplane t_n = 0
        top = n - 1 if rng.random() < 1 / 3 else n
        spec = DomainSpec.of(n, [j for j in range(top)
                                 if rng.random() < 0.5])
        polys = [build_newton(ExponentSet.of(
            {tuple(rng.randint(0, 4) if j < top else 0 for j in range(n))
             for _ in range(rng.randint(1, 3))}, n), spec)
            for _ in range(rng.randint(1, 3))]
        sums = {tuple(map(sum, zip(*combo)))
                for combo in itertools.product(
                    *[p.omega.points for p in polys])}
        total = build_newton(ExponentSet.of(sums, spec.n), spec)
        picked = []
        for faces, w, normals, dim, levels in minkowski_faces(polys):
            assert list(faces) == [face_by_cone_interior(p, w)
                                   for p in polys]
            assert all(interior_contains(f, w) for f in faces)
            g = face_by_cone_interior(total, w)
            assert interior_contains(g, w)
            assert normals == [total.facets_a[i][0]
                               for i in sorted(g.generator_idx)]
            assert g.dim == dim == rank([d for f in faces
                                         for d in dual_cone_rows(f)[0]])
            assert dim + rank(levels) == union_point_rank(faces)
            picked.append(g)
        want = [f for f in total.faces() if not f.is_empty
                and not (f.is_improper and total.dim == spec.n)]
        assert sorted(picked, key=Face.sort_key) == want, (
            [p.omega.sorted_points() for p in polys], sorted(spec.S))
        kinds.add((len(polys), total.dim == spec.n))
    assert kinds == {(k, full) for k in (1, 2, 3) for full in (True, False)}
    assert set(branches) == {"face", "below", "stacked"} and min(
        branches.values()) >= 10, branches


# ---------------------------------------------------------------------------
# randomized invariants (small sample here; the acceptance gate runs 100)
# ---------------------------------------------------------------------------

def test_random_instances_invariants():
    rng = random.Random(99)
    for _ in range(8):
        omega, spec = random_instance(rng)
        p = build_newton(omega, spec)
        run_all_checks(p, rng, covering_radius=8)


def test_pairwise_facet_regression():
    # facets whose tangent directions miss the lexicographically first
    # vertex must still be found
    p = _poly([(6, 3), (3, 6), (5, 1), (4, 3)], 2, [0, 1])
    assert (2, 1) in {q for q, _ in p.facets_a}
    assert (5, 1) in p.vertices and (4, 3) in p.vertices


def test_hull_facet_test_ranks_only_faces_off_the_subset(monkeypatch):
    """A candidate normal whose q-minimal face holds the candidate's own
    generators is a facet with no rank; a face off them is ranked.  On the
    square [0, 2]², the first subsets of ±e₁ and ±e₂ are the edges x₁ = 0
    and x₂ = 0, and the parallel facets x₁ = 2 and x₂ = 2, whose normals
    `_facets` does not try again, are kept by a rank of their directions.
    On the orthant N({0}, {1, 2}) each subset (0, e_j) is its facet, read
    in layout order, where e₂ comes before e₁ as it does not in
    `spec.rays()`: no rank."""
    ranked = []

    def counted(rows, _fn=newton_poly.rank):
        ranked.append(sorted(rows))
        return _fn(rows)
    monkeypatch.setattr(newton_poly, "rank", counted)
    p = _poly([(0, 0), (0, 2), (2, 0), (2, 2)], 2, [])
    assert sorted(p.facets_a) == [((-1, 0), -2), ((0, -1), -2),
                                  ((0, 1), 0), ((1, 0), 0)]
    # the first call ranks the hull's directions, for its dimension
    assert sorted(ranked[1:]) == [[(0, 2)], [(2, 0)]], ranked
    ranked.clear()
    p = _poly([(0, 0)], 2, [0, 1])
    assert sorted(p.facets_a) == [((0, 1), 0), ((1, 0), 0)]
    assert len(ranked) == 1, ranked


# ---------------------------------------------------------------------------
# nullspace-normal hull and incidence-closure lattice against the oracle
# ---------------------------------------------------------------------------

def _random_input(rng):
    """n ≤ 4 and up to 5 points, a third of them drawn from a lattice
    sub-cone of rank < n, so lower-dimensional polyhedra occur."""
    n = rng.randint(1, 4)
    if n > 1 and rng.random() < 1 / 3:
        base = [rng.randint(0, 3) for _ in range(n)]
        dirs = [[rng.randint(0, 2) for _ in range(n)]
                for _ in range(rng.randint(0, n - 1))]
        pts = {tuple(b + sum(c * d[j] for c, d in zip(coefs, dirs))
                     for j, b in enumerate(base))
               for coefs in ([rng.randint(0, 2) for _ in dirs]
                             for _ in range(rng.randint(1, 5)))}
    else:
        pts = {tuple(rng.randint(0, 4) for _ in range(n))
               for _ in range(rng.randint(1, 5))}
    S = [j for j in range(n) if rng.random() < 0.4]
    return ExponentSet.of(pts, n), DomainSpec.of(n, S)


def _face_data(faces):
    return [(f.vertex_set, f.ray_set, f.dim, f.generator_idx, f.is_empty,
             f.is_improper) for f in faces]


def test_hull_and_lattice_match_the_subset_oracle():
    rng = random.Random(2013)
    seen_dims = set()
    for _ in range(200):
        omega, spec = _random_input(rng)
        p = build_newton(omega, spec)
        ref = build_newton_pairwise(omega, spec)
        assert (p.vertices, p.rays, p.facets_a, p.basis_b, p.dim) == (
            ref.vertices, ref.rays, ref.facets_a, ref.basis_b, ref.dim), \
            (omega, spec)
        assert _face_data(enumerate_faces(p)) == _face_data(
            enumerate_faces_subsets(ref)), (omega, spec)
        assert [f.index for f in p.faces()] == list(range(len(p.faces())))
        # each face's cut, from `enumerate_faces` or (the oracle's faces)
        # computed on first use, is its vertices and rays in layout order
        for f in p.faces() + enumerate_faces_subsets(ref):
            assert f.cut == (sorted(f.vertex_set), sorted(f.ray_set)), f
        seen_dims.add((spec.n, p.dim))
    # every dimension 0..n occurs for n = 2, 3, 4
    assert {(n, m) for n in (2, 3, 4) for m in range(n + 1)} <= seen_dims
    # the vertex LP alone on many more draws; up to 3 points in a 3-box
    # keep the oracle's rational split LPs to a few seconds
    dropped = 0
    for _ in range(1000):
        omega, spec = random_instance(rng, n_max=4, max_points=3,
                                      coord_max=3)
        want = vertices_split(omega, spec)
        assert build_newton(omega, spec).vertices == frozenset(want), (
            omega.sorted_points(), sorted(spec.S))
        dropped += len(omega) - len(want)
    assert dropped >= 200


def test_all_empty_sweep_witness_matches_the_split_oracle():
    """The all-empty tuple's sweep (e_j ≥ 0 for j ∈ S, then a signed
    e_k > 0) is the one production LP with both sign bounds and strict
    rows, and `decompose` prints its witness: it is the split
    formulation's with d copies of each bound, for every n ≤ 4, every S
    and d ≤ 3.  The sweep takes empty faces only."""
    for n in range(1, 5):
        for S in itertools.chain.from_iterable(
                itertools.combinations(range(n), k) for k in range(n + 1)):
            spec = DomainSpec.of(n, S)
            for d in range(1, 4):
                faces = [build_newton(ExponentSet.of([unit(n, nu % n)], n),
                                      spec).empty_face() for nu in range(d)]
                weak = tuple((unit(n, j), 0) for _ in faces for j in S)
                sweep = (split_solve_strict(StrictSystem(n, weak=weak, strict=(
                    (tuple(sign * c for c in unit(n, k)), 0),)))
                    for k in range(n) for sign in (1, -1))
                want = next((x for x in sweep if x is not None), None)
                assert cones_interior_intersection(faces) == want, (n, S, d)
                with pytest.raises(ValueError):
                    cones_interior_intersection(
                        faces + [faces[0].parent.improper_face()])


def test_minimal_points_matches_dot():
    """The plain sums give the sets `dot` gives, for an integer x, the same
    x as Fractions and a Fraction x."""
    rng = random.Random(17)
    for _ in range(300):
        omega, spec = random_instance(rng, n_max=4, max_points=6)
        pts, rays = omega.sorted_points(), spec.rays()
        x = tuple(rng.randint(-5, 5) for _ in range(spec.n))
        xf = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(spec.n))
        for y in (x, tuple(map(Fraction, x)), xf):
            levels = [dot(y, m) for m in pts]
            want = ([m for m, lv in zip(pts, levels) if lv == min(levels)],
                    [r for r in rays if dot(y, r) == 0])
            assert minimal_points(y, pts, rays) == want, (pts, y)
            low, zero = minimal_points(y, omega.points, rays)
            assert (set(low), zero) == (set(want[0]), want[1]), (pts, y)


def test_cyclic_polytope_f_vector():
    # 2^20 facet subsets would be out of reach for a subset lattice
    p = _poly([(t, t ** 2, t ** 3, t ** 4) for t in range(1, 9)], 4, [])
    assert len(p.facets_a) == 20
    faces = enumerate_faces(p)
    f_vector = [sum(1 for f in faces if f.dim == d) for d in range(4)]
    assert f_vector == [8, 28, 40, 20]


def _span_rank(keys) -> int:
    """Dimension of the sum of the faces with these (vertex set, ray set)
    keys: the rank of their directions, each vertex set read from its least
    vertex."""
    rows = []
    for vs, rs in keys:
        vs = sorted(vs)
        rows += [vsub(v, vs[0]) for v in vs[1:]] + sorted(rs)
    return rank(rows)


def test_face_dims_from_the_lattice_match_rank():
    """`enumerate_faces` grades the lattice (a vertex has dimension 0, any
    other face 1 + the largest among its proper subfaces) instead of taking
    a rank per face; on random polyhedra up to n = 5, with and without
    rays, full- and lower-dimensional, the grades are the ranks."""
    rng = random.Random(2019)
    kinds, faces_seen = set(), 0
    for _ in range(150):
        p = build_newton(*random_instance(rng, n_max=5, max_points=8))
        for f in p.faces()[:-1]:
            assert f.dim == _span_rank([(f.vertex_set, f.ray_set)]), (
                p.omega.sorted_points(), sorted(p.spec.S))
            faces_seen += 1
        kinds.add((p.spec.n, bool(p.rays), p.dim < p.spec.n))
    assert {(5, rays, low) for rays in (False, True)
            for low in (False, True)} <= kinds
    assert faces_seen >= 1000


def _closure_input(polys):
    """The improper face of P₁+⋯+P_k and the facets of the sum, from the
    hull of the point sums, each with its summand faces as keys."""
    spec = polys[0].spec
    sums = {tuple(map(sum, zip(*combo))) for combo in itertools.product(
        *[p.omega.points for p in polys])}
    total = build_newton(ExponentSet.of(sums, spec.n), spec)
    facets = [(q, tuple((frozenset(vs), frozenset(rs)) for vs, rs in (
        minimal_points(q, p.vertices, p.rays) for p in polys)))
        for q, _ in total.facets_a]
    return tuple((p.vertices, p.rays) for p in polys), facets


def _key_mask(layout, key) -> int:
    """A (vertex set, ray set) key as a mask over `layout` (sorted
    vertices, then sorted rays)."""
    verts, rays = layout
    return (sum(1 << i for i, v in enumerate(verts) if v in key[0])
            | sum(1 << len(verts) + j for j, r in enumerate(rays)
                  if r in key[1]))


def _mask_keys(layouts, mask) -> tuple:
    """A mask of a sum, the summands' masks side by side, as one (vertex
    set, ray set) key per summand."""
    keys = []
    for verts, rays in layouts:
        keys.append((
            frozenset(v for i, v in enumerate(verts) if mask >> i & 1),
            frozenset(r for j, r in enumerate(rays, len(verts))
                      if mask >> j & 1)))
        mask >>= len(verts) + len(rays)
    return tuple(keys)


def test_bitmask_closure_matches_the_frozenset_closure():
    """`_closure` on the summands' layouts and facet masks against the
    frozenset closure: the same keys in the same order, the same facets
    through each, and dimensions equal to the ranks.  Some summands have a
    vertex that is also a ray (e_j with j ∈ S), which needs bits of its
    own."""
    rng = random.Random(2020)
    cases = [
        (2, [0], [[(1, 0), (0, 2)]]),
        (2, [0], [[(1, 0), (0, 2)], [(1, 0), (2, 1)]]),
        (3, [0, 2], [[(1, 0, 0), (0, 2, 1)], [(0, 0, 1), (1, 1, 0)],
                     [(2, 0, 0), (0, 1, 2)]]),
    ]
    for _ in range(50):
        n = rng.randint(1, 4)
        S = [j for j in range(n) if rng.random() < 0.5]
        units = [unit(n, j) for j in S]
        cases.append((n, S, [
            list({tuple(rng.randint(0, 3) for _ in range(n))
                  for _ in range(rng.randint(1, 3))}
                 | set(rng.sample(units, min(len(units), 1))))
            for _ in range(rng.randint(1, 3))]))
    shared = set()
    for n, S, sets in cases:
        spec = DomainSpec.of(n, S)
        polys = [build_newton(ExponentSet.of(pts, n), spec) for pts in sets]
        top, facets = _closure_input(polys)
        layouts = [p.layout() for p in polys]
        got = _closure(layouts, [
            tuple(map(_key_mask, layouts, fkey)) for _, fkey in facets])
        want = closure_frozensets(top, facets)
        keys = [_mask_keys(layouts, mask) for mask in got]
        assert keys == list(want), (sets, S)
        assert [idx for idx, _ in got.values()] == list(want.values())
        for key, (_, dim) in zip(keys, got.values()):
            assert dim == _span_rank(key), (sets, S, key)
        if any(p.vertices & p.rays for p in polys):
            shared.add(len(polys))
    assert shared == {1, 2, 3}


def test_facet_masks_and_the_face_index(monkeypatch):
    """Faces as masks of each polyhedron's layout: every facet mask that
    `_facets` returns, for hulls and for 2- and 3-sums (some lying in
    t_n = 0, some with a vertex equal to a ray), decodes to the points
    `minimal_points` cuts out of each summand, its level there is the
    least level of q on the summand, and the mask index of
    `enumerate_faces` maps each face's mask back to that face.  A
    polyhedron built by the pairwise oracle, whose layout is made on first
    use, enumerates the oracle's faces."""
    calls = []

    def facets(candidates, layouts, n, spans, _fn=newton_poly._facets):
        got = _fn(candidates, layouts, n, spans)
        calls.append((layouts, got))
        return got
    monkeypatch.setattr(newton_poly, "_facets", facets)
    rng = random.Random(2025)
    kinds = Counter()
    for _ in range(120):
        n = rng.randint(1, 4)
        top = n - 1 if rng.random() < 1 / 3 else n
        S = [j for j in range(top) if rng.random() < 0.5]
        spec = DomainSpec.of(n, S)
        units = [unit(n, j) for j in S if rng.random() < 0.5]
        polys = [build_newton(ExponentSet.of(
            {tuple(rng.randint(0, 3) if j < top else 0 for j in range(n))
             for _ in range(rng.randint(1, 4))} | set(units[:1]), n), spec)
            for _ in range(rng.randint(1, 3))]
        for (layout,), _ in calls:
            assert layout in [p.layout() for p in polys]
        if len(polys) > 1:
            minkowski_faces(polys)
            assert calls[-1][0] == [p.layout() for p in polys]
        for layouts, got in calls:
            for q, (masks, lows) in got:
                for layout, mask, level in zip(layouts, masks, lows):
                    low, zero = minimal_points(q, *layout)
                    assert _mask_keys([layout], mask) == (
                        (set(low), set(zero)),), (layout, q)
                    assert level == dot(q, low[0]), (layout, q)
                    kinds["facet"] += 1
        calls.clear()
        for p in polys:
            faces = p.faces()
            assert len(p._face_index) == len(faces) - 1
            for f in faces[:-1]:
                assert p._face_index[_key_mask(
                    p.layout(), (f.vertex_set, f.ray_set))] is f
            kinds["shared"] += bool(p.vertices & p.rays)
        kinds[len(polys), top < n] += 1
        ref = build_newton_pairwise(polys[0].omega, spec)
        assert _face_data(enumerate_faces(ref)) == _face_data(
            enumerate_faces_subsets(ref))
    assert all(kinds[k, low] >= 5 for k in (1, 2, 3) for low in (False, True)
               ), kinds
    assert kinds["shared"] >= 10 and kinds["facet"] >= 500, kinds


# ---------------------------------------------------------------------------
# the open-cone test by the cut, against the level-form oracles
# ---------------------------------------------------------------------------

def _random_points(rng: random.Random, n: int) -> set:
    """Exponents of one polyhedron: in general position, on a line, or on
    a coordinate hyperplane (lower-dimensional unless S holds its axis)."""
    kind = rng.choice(("general", "general", "line", "flat"))
    if kind == "line":
        base = [rng.randint(0, 3) for _ in range(n)]
        step = [rng.randint(0, 2) for _ in range(n)]
        return {tuple(b + k * s for b, s in zip(base, step))
                for k in range(rng.randint(1, 3))}
    if kind == "flat":
        axis, level = rng.randrange(n), rng.randint(0, 3)
        return {tuple(level if i == axis else rng.randint(0, 4)
                      for i in range(n))
                for _ in range(rng.randint(1, 5))}
    return {tuple(rng.randint(0, 4) for _ in range(n))
            for _ in range(rng.randint(1, 6))}


def _probe_points(rng: random.Random, p, f, witness) -> list:
    """0, random points, the witness, points on the boundary of F* (the
    open-cone points of the faces above F), and copies of them pushed
    outside Z(S)."""
    n = p.spec.n
    pts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(4)]
    if witness is not None:
        pts.append(witness)
    pts += [rho_cones_interior_intersection([g]) for g in p.faces()
            if f <= g and g != f]
    pts = [x for x in pts if x is not None]
    outside = []
    for x in pts:
        for j in p.spec.S:
            if x[j] >= 0:
                outside.append(tuple(-1 - c if i == j else c
                                     for i, c in enumerate(x)))
    return [(0,) * n] + pts + outside


def test_interior_contains_is_the_level_form_test():
    """The cut test `interior_contains` (x ≠ 0 in Z(S) whose minimal
    vertices and zero rays are F's) equals the level-form open-cone test
    on random faces, improper and empty included, at 0, at points outside
    Z(S), at random points, at joint witnesses and on the boundary of F*;
    the joint-interior LP over the dual-cone rows in x alone agrees with
    the level-form LP; and S₀ read off the face equals S₀ read off an LP
    witness."""
    rng = random.Random(2024)
    seen = dict(none=0, witness=0, empty=0, improper=0, low_dim=0,
                points=0, inside=0, zero=0, outside=0)
    for _ in range(300):
        n = rng.randint(1, 4)
        spec = DomainSpec.of(n, [j for j in range(n) if rng.random() < 0.4])
        polys = [build_newton(ExponentSet.of(_random_points(rng, n), n),
                              spec) for _ in range(rng.randint(1, 3))]
        faces = []
        for p in polys:
            pick = rng.random()
            f = (p.empty_face() if pick < 0.2 else p.improper_face()
                 if pick < 0.4 else rng.choice(p.faces()))
            faces.append(f)
            seen["empty"] += f.is_empty
            seen["improper"] += f.is_improper
            seen["low_dim"] += p.dim < n
            for g in p.faces():
                if not g.is_empty:
                    assert face_closure_structure(g) == lp_closure_s0(g)
        x = x_cones_interior_intersection(faces)
        oracle = rho_cones_interior_intersection(faces)
        assert (x is None) == (oracle is None), (faces, x, oracle)
        if x is None:
            seen["none"] += 1
        else:
            seen["witness"] += 1
            assert all(rho_interior_contains(f, x) for f in faces)
        for p, f in zip(polys, faces):
            for y in _probe_points(rng, p, f, x):
                inside = rho_interior_contains(f, y)
                assert interior_contains(f, y) == inside, (f, y)
                seen["points"] += 1
                seen["inside"] += inside
                seen["zero"] += not any(y)
                seen["outside"] += not spec.in_zs(y)
    # every kind of input was reached, and both answers of each test
    assert min(seen.values()) >= 30, seen
    assert seen["points"] - seen["inside"] >= 30, seen

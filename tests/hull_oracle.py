"""Reference hull and face lattice for `nh.newton_poly`, used by the tests.

`build_newton_pairwise` draws candidate facet normals from exact nullspaces
of (m−1)-subsets of all pairwise vertex differences and rays;
`enumerate_faces_subsets` intersects the tight sets of every one of the 2^k
facet subsets.  Both are exponential and slow.  `incidence_masks` gives
the facets' vertex/ray masks of such a record, so that the engine's closure
can run on the oracle's hull.  The vertex test is `is_extreme_split`: the
convex-combination LP with every variable split into u − v and λ, μ ≥ 0 as
rows, solved by the rational-tableau simplex of `simplex_oracle`.  The
oracle shares nothing with the production hull, lattice and LP except the
exact linear algebra and the data classes.  `closure_frozensets` is the
Kaibel–Pfetsch closure on (vertex set, ray set) keys, the reference for
the bitmask closure of `nh.newton_poly`.
"""

import itertools
from fractions import Fraction

from nh.exact_numeric import (
    StrictSystem, dot, is_zero, nullspace, primitive, rank, unit, vsub)
from nh.newton_poly import Face, NewtonPolyhedron
from simplex_oracle import split_solve_strict


def is_extreme_split(p, others, rays) -> bool:
    """p not a convex combination of `others` plus nonnegative ray moves."""
    gens = [tuple(map(Fraction, g)) for g in list(others) + list(rays)]
    nvars = len(gens)
    eqs = [(tuple(g[coord] for g in gens), Fraction(x))
           for coord, x in enumerate(p)]
    eqs.append((tuple(Fraction(int(i < len(others))) for i in range(nvars)),
                Fraction(1)))
    weak = tuple((unit(nvars, j), Fraction(0)) for j in range(nvars))
    return split_solve_strict(StrictSystem(
        dim=nvars, equalities=tuple(eqs), weak=weak)) is None


def vertices_split(omega, spec) -> list:
    """The points of Ω that `is_extreme_split` keeps, sorted."""
    pts = omega.sorted_points()
    return [p for p in pts
            if is_extreme_split(p, [q for q in pts if q != p], spec.rays())]


def build_newton_pairwise(omega, spec) -> NewtonPolyhedron:
    n = spec.n
    rays = spec.rays()
    verts = vertices_split(omega, spec)
    v0 = verts[0]
    directions = [vsub(v, v0) for v in verts[1:]] + [tuple(map(Fraction, r))
                                                    for r in rays]
    m = rank(directions)

    perp = nullspace(directions, n=n) if directions else \
        nullspace([], n=n)
    basis_b = []
    for w in perp:
        w = tuple(map(Fraction, w))
        for u, _s in basis_b:
            coef = dot(w, u) / dot(u, u)
            w = tuple(a - coef * Fraction(b) for a, b in zip(w, u))
        if not is_zero(w):
            basis_b.append((primitive(w), None))
    basis_b = tuple((q, dot(q, v0)) for q, _ in basis_b)

    facets: dict = {}
    if m >= 1:
        pair_dirs = [vsub(v, w)
                     for v, w in itertools.combinations(verts, 2)]
        dedup_dirs = []
        seen = set()
        for d in pair_dirs + directions:
            c = primitive(d)
            if c not in seen and not is_zero(c):
                seen.add(c)
                dedup_dirs.append(c)
        perp_rows = [q for q, _ in basis_b]
        for sub in itertools.combinations(dedup_dirs, m - 1):
            ns = nullspace(list(sub) + perp_rows, n=n)
            if len(ns) != 1:
                continue
            for q in (ns[0], tuple(-x for x in ns[0])):
                if any(dot(q, r) < 0 for r in rays):
                    continue
                levels = [dot(q, v) for v in verts]
                level = min(levels)
                tight_v = [v for v, lv in zip(verts, levels) if lv == level]
                tight_r = [r for r in rays if dot(q, r) == 0]
                fdirs = [vsub(v, tight_v[0]) for v in tight_v[1:]] + tight_r
                if rank(fdirs) == m - 1:
                    facets.setdefault(q, level)

    return NewtonPolyhedron(
        omega=omega, spec=spec,
        vertices=frozenset(verts), rays=frozenset(rays),
        facets_a=tuple(sorted(facets.items())), basis_b=basis_b, dim=m,
        layout=(tuple(verts), tuple(sorted(rays))))


def incidence_masks(p: NewtonPolyhedron) -> list:
    """Each facet's vertices and rays as a 1-tuple holding its mask over
    `p.layout`, in `facets_a` order: the form `_facets` hands on."""
    verts, rays = p.layout
    return [(sum(1 << i for i, v in enumerate(verts) if dot(q, v) == level)
             | sum(1 << len(verts) + j for j, r in enumerate(rays)
                   if dot(q, r) == 0),)
            for q, level in p.facets_a]


def enumerate_faces_subsets(p: NewtonPolyhedron) -> list:
    verts = sorted(p.vertices)
    rays = sorted(p.rays)
    k = len(p.facets_a)
    seen: dict = {}
    for size in range(k + 1):
        for idx in itertools.combinations(range(k), size):
            vs = [v for v in verts
                  if all(dot(p.facets_a[i][0], v) == p.facets_a[i][1]
                         for i in idx)]
            if not vs:
                continue
            rs = [r for r in rays
                  if all(dot(p.facets_a[i][0], r) == 0 for i in idx)]
            fkey = (frozenset(vs), frozenset(rs))
            if fkey in seen:
                continue
            gen = frozenset(
                i for i in range(k)
                if all(dot(p.facets_a[i][0], v) == p.facets_a[i][1]
                       for v in vs)
                and all(dot(p.facets_a[i][0], r) == 0 for r in rs))
            dims = rank([vsub(v, vs[0]) for v in vs[1:]] +
                        [tuple(map(Fraction, r)) for r in rs])
            seen[fkey] = (-dims, vs, rs, gen)
    # by descending dimension, then vertices and rays, the empty face last
    faces = [Face(parent=p, generator_idx=gen, vertex_set=frozenset(vs),
                  ray_set=frozenset(rs), dim=-neg, cut=(vs, rs), index=i,
                  is_improper=(set(vs), set(rs)) == (p.vertices, p.rays))
             for i, (neg, vs, rs, gen) in enumerate(sorted(seen.values()))]
    faces.append(Face(parent=p, generator_idx=frozenset(range(k)),
                      vertex_set=frozenset(), ray_set=frozenset(),
                      dim=-1, cut=([], []), index=len(faces), is_empty=True))
    return faces


def closure_frozensets(top: tuple, facets) -> dict:
    """The closure of the improper face `top` (one (vertex set, ray set)
    pair per summand) under intersection with the facets, given as
    (normal, key) pairs: {key: indices of the facets through it}, in the
    order the depth-first search finds the keys."""
    through = {top: []}
    stack = [top]
    while stack:
        key = stack.pop()
        for i, (_, fkey) in enumerate(facets):
            meet = tuple((vs & fv, rs & fr)
                         for (vs, rs), (fv, fr) in zip(key, fkey))
            if meet == key:
                through[key].append(i)
            elif all(vs for vs, _ in meet) and meet not in through:
                through[meet] = []
                stack.append(meet)
    return through

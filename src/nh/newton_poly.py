"""Generalized Newton polyhedra N(Ω,S) = Ch(Ω + ℝ₊^S).

Exact V- and H-representations, the full face lattice (including the
improper face and the empty face of dimension −1), the face a functional
cuts out, the faces of a Minkowski sum of polyhedra as tuples of summand
faces with the sum's facet normals through each (`minkowski_faces`), and
the F = N(Λ∩F, S₀) closure structure.  A
face F is read off its dual cone by one cut (`minimal_points`): x lies in
the open cone (F*)° exactly when x cuts F out of P (the normal fan), which
compares the cut of P's `layout` with the one F keeps (`Face.cut`), and
F ∩ Ω is the cut of Ω by the sum of F's facet normals.

One facet test serves a polyhedron and a Minkowski sum alike (`_facets`):
a candidate normal ±q is the null line (`null_line`) of n−1 rows —
directions to m−1 more generators from a vertex, or m−1 summand edge
directions, and the Πb rows — and is kept when the faces it cuts out span
m−1 directions (a sum reads that off its summands' faces).  One closure
gives both face lattices (`_closure`): the improper face closed under
intersection with the facets' vertex/ray incidences (Kaibel and Pfetsch,
Comput. Geom. 2002), graded from the meets it reaches.  From `_facets` on,
a face is an int mask over each polyhedron's `layout`, indexed by mask.
The hull stays on ints: integer directions, Πb levels and the exact V/H
check (`NewtonPolyhedron.contains`).  Exponents and S entries must be
integral (`exact_numeric.as_int`); nothing is truncated.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Collection, Iterable, Optional, Sequence

from .exact_numeric import (
    StrictSystem,
    as_int,
    int_vector,
    is_zero,
    null_line,
    nullspace,
    orthogonal_basis,
    primitive,
    rank,
    row_basis,
    solve_strict,
    unit,
    vsub,
)

@dataclass(frozen=True)
class ExponentSet:
    points: frozenset
    ambient_dim: int

    @staticmethod
    def of(points: Iterable[Sequence[int]], n: int) -> "ExponentSet":
        n = as_int(n)
        pts = frozenset(int_vector(p) for p in points)
        for p in pts:
            if len(p) != n:
                raise ValueError("exponent dimension mismatch")
            if any(c < 0 for c in p):
                raise ValueError(f"negative exponent in {p}")
        return ExponentSet(pts, n)

    def sorted_points(self) -> list:
        return sorted(self.points)

    def __iter__(self):
        return iter(sorted(self.points))

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class DomainSpec:
    """Ambient dimension n and the set S of local (bounded) directions,
    0-based internally."""

    n: int
    S: frozenset

    @staticmethod
    def of(n: int, S: Iterable[int]) -> "DomainSpec":
        n = as_int(n)
        s = frozenset(map(as_int, S))
        if not all(0 <= j < n for j in s):
            raise ValueError("S must be a subset of {0,..,n-1}")
        return DomainSpec(n, s)

    def rays(self) -> list:
        return [unit(self.n, j) for j in sorted(self.S)]

    def in_zs(self, x: Sequence) -> bool:
        """x ∈ Z(S): nonnegative in local directions, free otherwise."""
        return all(x[j] >= 0 for j in self.S)


@dataclass(frozen=True)
class Face:
    parent: "NewtonPolyhedron" = field(compare=False, repr=False)
    generator_idx: frozenset        # maximal set of tight facets_a indices
    vertex_set: frozenset
    ray_set: frozenset
    dim: int
    is_empty: bool = False
    is_improper: bool = False
    # the position in its polyhedron's `faces()`, set by `enumerate_faces`
    index: Optional[int] = field(default=None, init=False, compare=False,
                                 repr=False)
    # the cut (`cut`), given by `enumerate_faces` or filled by its first
    # use; F ∩ Ω and the echelon rows of F's directions, filled by the
    # first `lambda_points()` and `direction_basis()`
    _cut: Optional[tuple] = field(default=None, compare=False, repr=False)
    _lambda: Optional[tuple] = field(default=None, init=False, compare=False,
                                     repr=False)
    _span: Optional[tuple] = field(default=None, init=False, compare=False,
                                   repr=False)

    def __eq__(self, other):
        if not isinstance(other, Face):
            return NotImplemented
        return (self.is_empty, self.vertex_set, self.ray_set) == (
            other.is_empty, other.vertex_set, other.ray_set)

    def __hash__(self):
        return hash((self.is_empty, self.vertex_set, self.ray_set))

    def __le__(self, other: "Face") -> bool:
        """Face order: self ⪯ other (self is a face of other)."""
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        return (self.vertex_set <= other.vertex_set
                and self.ray_set <= other.ray_set)

    @property
    def cut(self) -> tuple:
        """(the vertices, the rays) as lists in the parent's `layout()`
        order, sorted: what `minimal_points` returns for a functional that
        cuts the face out of the layout."""
        if self._cut is None:
            # frozen dataclass: the cache is set once, here
            object.__setattr__(self, "_cut", (sorted(self.vertex_set),
                                              sorted(self.ray_set)))
        return self._cut

    def sort_key(self):
        return (-self.dim, *self.cut)

    def lambda_points(self) -> list:
        """Points of the underlying exponent set lying on this face (F ∩ Ω),
        sorted; computed once per face.  The sum of F's facet normals lies
        in (F*)°, so it cuts F ∩ Ω out of Ω; on the improper face it is 0,
        which cuts out all of Ω."""
        if self._lambda is None:
            p = self.parent
            normals = [p.facets_a[i][0] for i in self.generator_idx]
            x = tuple(map(sum, zip(*normals))) if normals else (0,) * p.spec.n
            # frozen dataclass: the cache is set once, here
            object.__setattr__(self, "_lambda", () if self.is_empty else tuple(
                minimal_points(x, p.omega.sorted_points(), ())[0]))
        return list(self._lambda)

    def direction_basis(self) -> tuple:
        """Echelon rows spanning the face's directions (`_directions`);
        computed once per face."""
        if self._span is None:
            object.__setattr__(self, "_span", row_basis(
                _directions(*self.cut)))
        return self._span


@dataclass(frozen=True)
class NewtonPolyhedron:
    omega: ExponentSet
    spec: DomainSpec
    vertices: frozenset
    rays: frozenset
    facets_a: tuple     # ((normal, level), ...), oriented with P on the ≥ side
    basis_b: tuple      # ((normal, level), ...) spanning V⊥(P), pairwise ⊥
    dim: int
    # the face list and its nonempty faces by mask (`layout`), filled by
    # the first `enumerate_faces(self)`, the layout and the edge directions
    _faces: Optional[list] = field(default=None, init=False, compare=False,
                                   repr=False)
    _face_index: Optional[dict] = field(default=None, init=False,
                                        compare=False, repr=False)
    _layout: Optional[tuple] = field(default=None, init=False,
                                     compare=False, repr=False)
    _edges: Optional[frozenset] = field(default=None, init=False,
                                        compare=False, repr=False)

    # -- basic queries ----------------------------------------------------

    def contains(self, x: Sequence) -> bool:
        """x satisfies the H-data; exact for ints and Fractions."""
        if len(x) != self.spec.n:
            raise ValueError(f"point of length {len(x)} in {self.spec.n} "
                             "dimensions")
        return (all(sum(map(operator.mul, q, x)) >= r
                    for q, r in self.facets_a)
                and all(sum(map(operator.mul, q, x)) == s
                        for q, s in self.basis_b))

    def faces(self) -> list:
        return self._faces or enumerate_faces(self)

    def improper_face(self) -> Face:
        return self.faces()[0]      # the one face of dimension dim(P)

    def empty_face(self) -> Face:
        return self.faces()[-1]

    def face_by_key(self, vertex_set, ray_set) -> Optional[Face]:
        """The nonempty face with these vertices and rays, or None."""
        vs = {int_vector(v) for v in vertex_set}
        rs = {int_vector(r) for r in ray_set}
        verts, rays = self.layout()
        mask = sum(1 << i for i, g in enumerate(verts + rays)
                   if g in (vs if i < len(verts) else rs))
        self.faces()
        return (self._face_index.get(mask)
                if mask.bit_count() == len(vs) + len(rs) else None)

    def layout(self) -> tuple:
        """(sorted vertices, sorted rays): a face is an int mask with bit i
        for the i-th vertex and bit len(vertices) + j for the j-th ray (a
        vertex equal to a ray keeps both bits); computed once."""
        if self._layout is None:
            object.__setattr__(self, "_layout", (
                tuple(sorted(self.vertices)), tuple(sorted(self.rays))))
        return self._layout

    def edge_directions(self) -> frozenset:
        """The primitive directions of the edges, each as the larger of
        ±d; computed once per polyhedron."""
        if self._edges is None:
            # frozen dataclass: the cache is set once, here
            object.__setattr__(self, "_edges", frozenset(
                max(d, tuple(-x for x in d))
                for f in self.faces() if f.dim == 1
                for d in map(primitive, _directions(*f.cut))))
        return self._edges


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _is_extreme(p, others, rays) -> bool:
    """p not a convex combination of `others` plus nonnegative ray moves:
    no λ, μ ≥ 0 with Σλ_i o_i + Σμ_j r_j = p and Σλ_i = 1.  The equality
    rows are the integer exponents themselves; λ, μ ≥ 0 are sign bounds,
    which `solve_strict` takes as nonnegative columns, so the tableau has
    n + 1 rows."""
    gens = list(others) + list(rays)
    nvars = len(gens)
    eqs = [(tuple(g[coord] for g in gens), x) for coord, x in enumerate(p)]
    eqs.append(((1,) * len(others) + (0,) * len(rays), 1))
    weak = tuple((unit(nvars, j), 0) for j in range(nvars))
    sys = StrictSystem(dim=nvars, equalities=tuple(eqs), weak=weak)
    return solve_strict(sys) is None


def build_newton(omega: ExponentSet, spec: DomainSpec) -> NewtonPolyhedron:
    if not omega.points:
        raise ValueError("empty exponent set")
    if omega.ambient_dim != spec.n:
        raise ValueError("dimension mismatch between omega and spec")
    n = spec.n
    rays = spec.rays()
    pts = omega.sorted_points()

    verts = [p for p in pts
             if _is_extreme(p, [q for q in pts if q != p], rays)]
    v0 = verts[0]
    directions = [vsub(v, v0) for v in verts[1:]] + rays
    m = rank(directions)

    # Πb: orthogonal integer basis of V⊥(P)
    basis_b = tuple((q, sum(map(operator.mul, q, v0)))
                    for q in orthogonal_basis(nullspace(directions, n=n)))

    # Each facet holds a vertex and m−1 more generators (vertices or rays)
    # that span its affine hull with it, so it has m bits or more and its
    # normal is orthogonal to their directions and to Πb.  Generators are
    # the vertices, then the rays, in layout order, so generator i has bit
    # i of a face mask: an m-subset led by a ray holds no vertex, and all
    # later subsets are led by rays too.  A point has no facets.
    layout = (tuple(verts), tuple(sorted(rays)))     # as p.layout()
    gens = layout[0] + layout[1]
    perp_rows = [q for q, _ in basis_b]
    subsets = itertools.takewhile(
        lambda sub: sub[0] < len(verts),
        itertools.combinations(range(len(gens)), m)) if m else ()
    # A subset's m generators span m−1 directions when its rows have a
    # null line, so a face holding them all is a facet.  A face off them
    # is ranked: it may be a facet parallel to the subset, which `_facets`
    # does not try again from a later subset.
    facets = _facets(
        (([vsub(gens[i], gens[sub[0]]) if i < len(verts) else gens[i]
           for i in sub[1:]] + perp_rows, sum(1 << i for i in sub))
         for sub in subsets),
        [layout], n,
        lambda masks, own: not own & ~masks[0] or (
            masks[0].bit_count() >= m and rank(
                _directions(*_decode(layout, masks[0]))) == m - 1))
    facets_a = tuple((q, level) for q, (_, (level,)) in facets)

    p = NewtonPolyhedron(
        omega=omega, spec=spec,
        vertices=frozenset(verts), rays=frozenset(rays),
        facets_a=facets_a, basis_b=basis_b, dim=m)

    # V/H consistency: every point of Ω satisfies the H-data, every facet is
    # tight on its defining vertices.
    for x in pts:
        assert p.contains(x), "H-representation rejects an input point"
    return p


def _facets(candidates: Iterable, layouts: Sequence, n: int,
            spans) -> list:
    """The facets of the m-dimensional sum of the polyhedra with these
    layouts (`NewtonPolyhedron.layout`; all have the same rays), as sorted
    pairs (normal q, (the q-minimal face of each summand as a mask, the
    least level of q on each summand)).  A candidate is a pair (n−1
    integer rows whose null line (`null_line`) gives the normal ±q, a tag
    passed on to `spans`).  One pass of levels per summand gives both
    orientations: the vertices at the least level of q are q-minimal,
    those at the greatest (−q)-minimal, at level −max, and the rays with
    q·r = 0 lie on both faces.  q is kept when it is ≥ 0 on the rays and
    `spans(masks, tag)` says that the q-minimal faces span m−1
    directions."""
    rays = layouts[0][1]
    facets = {}
    tried = set()
    for rows, tag in candidates:
        normal = null_line(rows, n)
        if normal is None or normal in tried:
            continue
        flipped = tuple(-x for x in normal)
        tried.update((normal, flipped))
        signs = [sum(map(operator.mul, normal, r)) for r in rays]
        flat = sum(1 << j for j, x in enumerate(signs) if not x)
        levels = [[sum(map(operator.mul, normal, v)) for v in vs]
                  for vs, _ in layouts]
        for q, ok, pick, sign in (
                (normal, min(signs, default=0) >= 0, min, 1),
                (flipped, max(signs, default=0) <= 0, max, -1)):
            if not ok:
                continue
            masks, lows = [], []
            for lv in levels:
                at = pick(lv)
                masks.append(sum(1 << i for i, x in enumerate(lv) if x == at)
                             | flat << len(lv))
                lows.append(sign * at)
            masks = tuple(masks)
            if spans(masks, tag):
                facets[q] = masks, tuple(lows)
    return sorted(facets.items())


def _spans_facet(faces: Sequence, m: int) -> bool:
    """Whether summand faces orthogonal to a candidate normal q (and so,
    with the sum's Πb rows, to at most m−1 directions) span m−1: yes when
    one has dimension m−1, no when their dimensions add up to less, else
    by the rank of their stacked direction bases."""
    dims = [f.dim for f in faces]
    if max(dims) == m - 1:
        return True
    if sum(dims) < m - 1:
        return False
    return rank([row for f in faces for row in f.direction_basis()]) == m - 1


# ---------------------------------------------------------------------------
# face lattice
# ---------------------------------------------------------------------------

def _directions(verts: Sequence, rays: Sequence) -> list:
    """v − v₀ for the other vertices (v₀ the first) and the rays, in the
    order given: they span the directions of the face with these vertices
    and rays."""
    return [vsub(v, verts[0]) for v in verts[1:]] + list(rays)


def _decode(layout: tuple, mask: int) -> tuple:
    """The sorted vertices and rays of the face with this mask."""
    verts, rays = layout
    return ([v for i, v in enumerate(verts) if mask >> i & 1],
            [r for j, r in enumerate(rays, len(verts)) if mask >> j & 1])


def _shifts(layouts: Sequence) -> list:
    """(shift, ones) per summand: its mask is `key >> shift & ones`."""
    widths = [len(verts) + len(rays) for verts, rays in layouts]
    return [(sum(widths[:nu]), (1 << w) - 1) for nu, w in enumerate(widths)]


def _closure(layouts: Sequence, facets: Sequence) -> dict:
    """Kaibel–Pfetsch: the nonempty faces of a sum of polyhedra with these
    layouts are the closure of the improper face under intersection with
    the facets, given as one mask per summand (`_facets`).  A face is one
    int, the summands' masks side by side (`_shifts`); G ∩ G′ is nonempty
    iff each pair of summand faces shares a vertex, and a facet passes
    through G iff the intersection is G itself, so G's list is complete
    once G is popped.  Returns {mask: (indices of the facets through it,
    ascending, its dimension)}.

    Popping a face, the closure records the nonempty proper meets it
    reaches, and grades each face from them: the sum is pointed, so a
    face with no such meet is a vertex, of dimension 0, and any other face
    has dimension 1 + the largest among its meets, which include its
    facets."""
    shifts = _shifts(layouts)
    vertex_masks = [((1 << len(verts)) - 1) << shift
                    for (verts, _), (shift, _) in zip(layouts, shifts)]
    facet_masks = [sum(m << shift for m, (shift, _) in zip(masks, shifts))
                   for masks in facets]
    full = sum(ones << shift for shift, ones in shifts)
    through = {full: []}
    below = {}      # each face's nonempty proper meets with the facets
    nonempty = {}   # each meet reached: is it a face?
    stack = [full]
    while stack:
        key = stack.pop()
        meets = below[key] = []
        here = through[key]
        for i, fm in enumerate(facet_masks):
            meet = key & fm
            if meet == key:
                here.append(i)
                continue
            face = nonempty.get(meet)
            if face is None:
                face = True
                for vm in vertex_masks:
                    if not meet & vm:
                        face = False
                        break
                nonempty[meet] = face
                if face:
                    through[meet] = []
                    stack.append(meet)
            if face:
                meets.append(meet)
    # a proper subface has fewer bits, so it is graded first
    dims: dict = {}
    for key in sorted(through, key=int.bit_count):
        dims[key] = 1 + max([dims[meet] for meet in below[key]], default=-1)
    return {key: (idx, dims[key]) for key, idx in through.items()}


def enumerate_faces(p: NewtonPolyhedron) -> list:
    if p._faces is not None:
        return p._faces

    verts, rays = layout = p.layout()
    # each facet's vertices and rays, from one level pass over the layout
    incidence = [(sum(1 << i for i, g in enumerate(verts + rays)
                      if sum(map(operator.mul, q, g)) == (
                          level if i < len(verts) else 0)),)
                 for q, level in p.facets_a]
    index = {}
    # a facet passes through every face but the improper one
    for mask, (idx, dim) in _closure([layout], incidence).items():
        vs, rs = _decode(layout, mask)
        index[mask] = Face(parent=p, generator_idx=frozenset(idx),
                           vertex_set=frozenset(vs), ray_set=frozenset(rs),
                           dim=dim, is_improper=not idx, _cut=(vs, rs))
    faces = sorted(index.values(), key=Face.sort_key)
    faces.append(Face(parent=p,
                      generator_idx=frozenset(range(len(incidence))),
                      vertex_set=frozenset(), ray_set=frozenset(),
                      dim=-1, is_empty=True, _cut=([], [])))
    # frozen dataclass: the indices and caches are set once, here
    for i, f in enumerate(faces):
        object.__setattr__(f, "index", i)
    object.__setattr__(p, "_face_index", index)
    object.__setattr__(p, "_faces", faces)
    return faces


def minkowski_faces(polys: Sequence[NewtonPolyhedron]) -> list:
    """The faces of P₁+⋯+P_k whose open dual cone holds a point, as tuples
    (summand faces, w, normals, dim, levels): `normals` are the sum's
    facet normals through the face, sorted; they generate its closed dual
    cone Cap(F*) modulo the lineality V⊥(P₁+⋯+P_k), to which they are
    orthogonal.  The summands of the face are the w-minimal faces of the
    P_ν, and w lies in the open dual cone of each: w is the sum of the
    normals, or a Πb vector on the improper face, which has such a point
    only when the sum has dimension < n.  The sum's hull is never built.

    `dim` is the face's dimension, and `levels` holds one row per summand:
    the level on P_ν of each normal, then of each of the sum's Πb rows.
    Those rows span the orthogonal complement of the face's directions,
    so the rank of the union of the summand faces' points is dim plus the
    rank of `levels` (`engine.enumerate_lo_tuples`).

    One summand: its own faces and facets.  Several: each facet of the sum
    is a sum of summand faces, whose edges span its directions, so its
    normal is the null line of m−1 summand edge directions and the sum's
    Πb rows (`_facets`), kept by the summand faces it cuts out
    (`_spans_facet`).  The other faces are the Kaibel–Pfetsch closure of
    the improper face under intersection with the facets, done summand by
    summand (`_closure`), which also lists the facets through each and
    grades it."""
    if len(polys) == 1:
        p = polys[0]
        basis_b = [q for q, _ in p.basis_b]
        flat = [s for _, s in p.basis_b]
        found = []
        for f in p.faces():
            if not f.is_empty:
                idx = sorted(f.generator_idx)
                found.append(((f,), [p.facets_a[i][0] for i in idx], f.dim,
                              ([p.facets_a[i][1] for i in idx] + flat,)))
    else:
        basis_b, found = _sum_faces(polys)
    return [(faces, tuple(map(sum, zip(*normals))) if normals else basis_b[0],
             normals, dim, levels)
            for faces, normals, dim, levels in found if normals or basis_b]


def _sum_faces(polys: Sequence[NewtonPolyhedron]) -> tuple:
    """(Πb rows of P₁+⋯+P_k, [(summand faces, facet normals through the
    face, its dimension, its level rows)] for every nonempty face), for
    k ≥ 2: see `minkowski_faces`."""
    n = polys[0].spec.n
    basis_b = orthogonal_basis(nullspace(
        [d for p in polys for d in _directions(*p.layout())], n=n))
    m = n - len(basis_b)
    # edge_directions() builds each summand's face index
    edges = sorted(frozenset().union(*(p.edge_directions() for p in polys)))
    layouts = [p.layout() for p in polys]
    # a point (m = 0) has no facets
    facets = _facets(
        ((list(sub) + basis_b, None)
         for sub in (itertools.combinations(edges, m - 1) if m else ())),
        layouts, n,
        lambda masks, _: _spans_facet(
            [p._face_index[mask] for p, mask in zip(polys, masks)], m))
    # Πb is orthogonal to each summand's directions: one level a summand
    flat = [[sum(map(operator.mul, b, verts[0])) for b in basis_b]
            for verts, _ in layouts]
    lows = [low for _, (_, low) in facets]
    parts = [(p._face_index, shift, ones)
             for p, (shift, ones) in zip(polys, _shifts(layouts))]
    return basis_b, [
        (tuple(index[key >> shift & ones] for index, shift, ones in parts),
         [facets[i][0] for i in idx], dim,
         tuple([lows[i][nu] for i in idx] + flat[nu]
               for nu in range(len(polys))))
        for key, (idx, dim) in _closure(
            layouts, [masks for _, (masks, _) in facets]).items()]


# ---------------------------------------------------------------------------
# the face a functional cuts out, its open dual cone, and closure structure
# ---------------------------------------------------------------------------

def minimal_points(x: Sequence, points: Collection, rays: Iterable) -> tuple:
    """The face x ∈ Z(S) cuts out of N(points, S), rays = the e_j (j ∈ S),
    without a hull: (the x-minimal points, the rays with x·r = 0), each a
    list in the order given.  x holds ints or Fractions, so the plain sums
    of products are exact; an integer x, such as a facet normal, sums in
    ints over the integer exponents."""
    levels = [sum(map(operator.mul, x, m)) for m in points]
    low = min(levels)
    return ([m for m, lv in zip(points, levels) if lv == low],
            [r for r in rays if sum(map(operator.mul, x, r)) == 0])


def interior_contains(f: Face, x: Sequence) -> bool:
    """x ∈ (F*)°, the open dual cone of the face, in the full-space sense:
    an x ≠ 0 in Z(S) that cuts F out of P (`minimal_points` on P's
    `layout()` gives F's `cut`), or any such x on the empty face, whose
    dual cone is Z(S).  Exact: x holds ints or Fractions."""
    p = f.parent
    if len(x) != p.spec.n:
        raise ValueError("ambient dimension mismatch")
    if is_zero(x) or not p.spec.in_zs(x):
        return False
    if f.is_empty:
        return True
    return minimal_points(x, *p.layout()) == f.cut


def cones_interior_intersection(faces: Sequence[Face]) -> Optional[tuple]:
    """Exact rational witness x ∈ ⋂(F_ν*)° for empty faces F_ν, whose open
    dual cones are all Z(S) ∖ {0}, or None: one LP over x with the rows
    e_j ≥ 0 for j ∈ S and a signed coordinate direction ±e_k > 0, for each
    k and sign in turn until one is feasible."""
    if not faces or not all(f.is_empty for f in faces):
        raise ValueError("the sweep takes empty faces only")
    spec = faces[0].parent.spec
    n = spec.n
    weak = tuple((unit(n, j), 0) for j in sorted(spec.S))
    for k in range(n):
        for sign in (1, -1):
            x = solve_strict(StrictSystem(dim=n, weak=weak, strict=(
                (tuple(sign * c for c in unit(n, k)), 0),)))
            if x is not None:
                assert all(interior_contains(f, x) for f in faces), \
                    "interior witness failed exact re-check"
                return x
    return None


def face_by_cone_interior(p: NewtonPolyhedron, x: Sequence) -> Face:
    """The unique face F with x ∈ (F*)°: `minimal_points` on P's vertices,
    looked up.  x = 0 maps to the improper face (its closed cone V⊥(P) is
    the only one containing a neighborhood of 0 inside ⋂, matching the
    F(0)=P convention of the chain construction); else x must be in Z(S)."""
    if is_zero(x):
        return p.improper_face()
    assert p.spec.in_zs(x), "point not covered by any face cone"
    return p.face_by_key(*minimal_points(x, *p.layout()))


def face_closure_structure(f: Face) -> frozenset:
    """S₀ ⊆ S with F = F + ℝ₊^{S₀} = N(Λ∩F, S₀): the j ∈ S whose ray e_j
    lies on F (every q ∈ (F*)° has q_j = 0 there and q_j > 0 elsewhere).
    F is the hull of its vertices plus the cone of its rays, so the
    identity holds once F's vertices lie in Λ∩F and its rays are the e_j,
    j ∈ S₀; that is checked here without a hull."""
    if f.is_empty:
        raise ValueError("empty face has no closure structure")
    p = f.parent
    s0 = frozenset(j for j in p.spec.S if unit(p.spec.n, j) in f.ray_set)
    assert f.vertex_set <= set(f.lambda_points()) and f.ray_set == {
        unit(p.spec.n, j) for j in s0}, \
        "N(Λ∩F, S0) does not reproduce the face"
    return s0

"""Decision procedures on tuples of Newton polyhedra.

Lists the d-tuples of faces satisfying the low-rank condition
rank(⋃F_ν) ≤ n−1 and the overlapping-cone condition ⋂(F_ν*)° ≠ ∅ — the
summand decompositions of the faces of the Minkowski sums of the polyhedra
— applies the evenness criterion to ⋃(F_ν ∩ Λ_ν), and emits re-checkable
verdicts.  Each such tuple carries the generators of Cap(F*) = ⋂F_ν*: the
sum's facet normals through its face, so no cone is searched for its
extreme rays; its lineality is read off the polyhedra's edge directions.
Also: the graph case as that criterion on the unit-augmented tuple, the
GL(d) elimination cascade with support-class closure (each row operation
applied once to the coefficient rows of U·P, and to U only for a new
class), dyadic cone classification, and the descending face / ascending
cone chains.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .exact_numeric import int_vector, nullspace, rank, unit
from .newton_poly import (
    DomainSpec,
    ExponentSet,
    Face,
    build_newton,
    cones_interior_intersection,
    face_by_cone_interior,
    interior_contains,
    minkowski_faces,
)
from .parity import is_even, odd_witness


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

class NotDisjoint(ValueError):
    """Exponent sets that must be mutually disjoint share a point."""


class DepthCapHit(RuntimeError):
    """A support-class search cut at its depth cap found no odd class."""


class LambdaTuple:
    """Λ = (Λ₁,…,Λ_d) over a common ambient spec, with built polyhedra.

    `memo` holds N(Λ_ν, S) by support (a frozenset), `minkowski_faces`
    of a sum by the tuple of its summands' supports, and the walk of a
    set T of components (`_t_walk`) under ("lo", *its rows' supports);
    tuples over one spec may share it, so that each is built or walked
    once."""

    def __init__(self, lambdas: Sequence[ExponentSet], spec: DomainSpec,
                 memo: Optional[dict] = None):
        if not lambdas:
            raise ValueError("need at least one exponent set")
        for lam in lambdas:
            if lam.ambient_dim != spec.n:
                raise ValueError("ambient dimension mismatch")
        self.lambdas = tuple(lambdas)
        self.spec = spec
        self._memo = {} if memo is None else memo
        self._polyhedra: Optional[tuple] = None

    @property
    def d(self) -> int:
        return len(self.lambdas)

    @property
    def disjoint(self) -> bool:
        seen: set = set()
        for lam in self.lambdas:
            if seen & lam.points:
                return False
            seen |= lam.points
        return True

    def require_disjoint(self) -> "LambdaTuple":
        if not self.disjoint:
            raise NotDisjoint("exponent sets are not disjoint: use "
                              "decide_general (nh decide-general)")
        return self

    @property
    def polyhedra(self) -> tuple:
        if self._polyhedra is None:
            for lam in self.lambdas:
                if lam.points not in self._memo:
                    self._memo[lam.points] = build_newton(lam, self.spec)
            self._polyhedra = tuple(self._memo[lam.points]
                                    for lam in self.lambdas)
        return self._polyhedra

    def sum_faces(self, subset: Sequence[int]) -> list:
        """`minkowski_faces` of ∑_{ν ∈ subset} N(Λ_ν, S)."""
        key = tuple(self.lambdas[nu].points for nu in subset)
        if key not in self._memo:
            self._memo[key] = minkowski_faces(
                [self.polyhedra[nu] for nu in subset])
        return self._memo[key]


@dataclass(frozen=True)
class FaceTuple:
    faces: tuple
    union_rank: int
    overlap_witness: Optional[tuple] = None
    # generators of Cap(F*) = ⋂F_ν* modulo its lineality, set by
    # `enumerate_lo_tuples`
    cap_generators: Optional[tuple] = None

    def union_lambda(self) -> list:
        pts: set = set()
        for f in self.faces:
            pts.update(f.lambda_points)
        return sorted(pts)


@dataclass
class Verdict:
    kind: str                              # "bounded" | "unbounded"
    lo_tuples: int = 0                     # tuples scanned
    face_tuple: Optional[FaceTuple] = None
    odd_subset: Optional[list] = None
    gl_matrix: Optional[tuple] = None      # general case: reaching matrix
    gl_class_count: Optional[int] = None   # general case: support classes

    @property
    def bounded(self) -> bool:
        return self.kind == "bounded"


class VectorPolynomial:
    """P(t) = (Σ_m c_m^ν t^m)_ν with exact nonzero rational coefficients;
    a float coefficient is a ValueError, never read as its binary value."""

    def __init__(self, coefficients: dict, d: int, spec: DomainSpec):
        self.d = d
        self.spec = spec
        self.coefficients = {}
        for (nu, m), c in coefficients.items():
            if isinstance(c, float):
                raise ValueError(f"float coefficient {c!r} at ({nu}, {m})")
            c = Fraction(c)
            if c == 0:
                raise ValueError(f"zero coefficient at ({nu}, {m})")
            if not (0 <= nu < d):
                raise ValueError(f"component index {nu} out of range")
            m = int_vector(m)
            if len(m) != spec.n or any(x < 0 for x in m):
                raise ValueError(f"bad exponent {m}")
            self.coefficients[(nu, m)] = c

    def support(self, nu: int) -> frozenset:
        return frozenset(m for (j, m) in self.coefficients if j == nu)

    def supports(self) -> tuple:
        return tuple(self.support(nu) for nu in range(self.d))

    def lambda_tuple(self) -> LambdaTuple:
        return LambdaTuple(
            [ExponentSet.of(self.support(nu), self.spec.n)
             for nu in range(self.d)], self.spec)

    def transformed(self, matrix) -> "VectorPolynomial":
        """U·P for a d×d rational matrix U, exactly; monomials whose
        coefficients cancel are dropped."""
        coef: dict = {}
        for (nu, m), c in self.coefficients.items():
            for i in range(self.d):
                if matrix[i][nu]:
                    coef[(i, m)] = coef.get((i, m), 0) + matrix[i][nu] * c
        return VectorPolynomial({k: c for k, c in coef.items() if c},
                                self.d, self.spec)


@dataclass(frozen=True)
class GLClass:
    matrix: tuple                 # d×d rows of Fractions, invertible
    rows: tuple                   # matrix · P: one {exponent: coefficient}
    supports: tuple               # rows' supports, one frozenset per row


# ---------------------------------------------------------------------------
# low-rank / overlapping tuples
# ---------------------------------------------------------------------------

def union_point_rank(faces: Sequence[Face]) -> int:
    """rank of the faces' vertices and rays."""
    return rank([x for f in faces for part in f.cut for x in part])


def _union_rank(dim: int, levels: tuple, n: int) -> int:
    """rank(⋃F_ν) of a sum face G = ΣF_ν of dimension `dim` with these
    level rows (`minkowski_faces`): span(⋃F_ν) = dir(G) + span{v_ν} for
    vertices v_ν ∈ F_ν, and the rows' columns span dir(G)⊥, so the rank is
    dim + rank(levels).  With one row, or dim ≥ n−1, where dir(G)⊥ is at
    most a line, that rank is 1 when a level is nonzero, else 0."""
    if dim >= n - 1 or len(levels) == 1:
        return dim + any(x for row in levels for x in row)
    return dim + rank(levels)


def component_subsets(d: int) -> Iterator[tuple]:
    """Every T ⊆ {0,…,d−1} as a sorted tuple, by size, the empty T first."""
    for size in range(d + 1):
        yield from itertools.combinations(range(d), size)


def _placed(empties: tuple, subset: Sequence[int], faces) -> tuple:
    """The d-tuple with `faces` at the components in `subset`, `empties`
    elsewhere."""
    chosen = list(empties)
    for nu, f in zip(subset, faces):
        chosen[nu] = f
    return tuple(chosen)


def enumerate_lo_tuples(lam: LambdaTuple, t: Optional[tuple] = None
                        ) -> Iterator[FaceTuple]:
    """All d-tuples (F_ν), F_ν a face of N(Λ_ν,S) or empty, with
    rank(⋃F_ν) ≤ n−1 and a joint cone-interior witness attached; with
    `t`, only those whose nonempty components are the set T = t (the
    empty T: the all-empty tuple).

    A tuple whose nonempty components are ν ∈ T has a joint open-cone
    point exactly when it is the summand decomposition of a face of the
    T-sum ∑_{ν∈T} N(Λ_ν,S), so T's tuples are streamed straight off
    `minkowski_faces` of T, with no LP.  The rank of the union is read off
    the sum face's dimension and level rows (`_union_rank`), and the
    tuples of rank n are dropped as they come.  Cap(F*) is that sum face's
    normal cone (Z(S) holds it), so its generators are the sum's facet
    normals through the face.  The all-empty tuple, of rank 0, takes any
    x ≠ 0 in Z(S), found by one LP; its cap is Z(S),
    generated by the e_j, j ∈ S.  The tuples are yielded in the
    lexicographic order of the face indices (faces by descending
    dimension, then vertex/ray sets, the empty face last): a T-sum's
    faces come in the order of their summands' indices, and the walk of
    every T (`t` None) merges the T's streams.  The exact re-check of
    each witness runs as a tuple is yielded, on T's own faces: a nonempty
    face's check implies an empty one's (w ≠ 0, w ∈ Z(S)).
    """
    if t is None:
        yield from heapq.merge(
            *(enumerate_lo_tuples(lam, u) for u in component_subsets(lam.d)),
            key=lambda ft: [f.index for f in ft.faces])
        return
    n = lam.spec.n
    empties = tuple(p.empty_face() for p in lam.polyhedra)
    if not t:
        yield FaceTuple(empties, 0, cones_interior_intersection(empties),
                        tuple(lam.spec.rays()))
        return
    for part, w, normals, dim, levels in lam.sum_faces(t):
        r = _union_rank(dim, levels, n)
        if r <= n - 1:
            assert all(interior_contains(f, w) for f in part), \
                "Minkowski-sum witness failed exact re-check"
            yield FaceTuple(_placed(empties, t, part), r, w, tuple(normals))


def _t_walk(lam: LambdaTuple, t: tuple):
    """The walk of one set T = t of components (`enumerate_lo_tuples`) up
    to its first odd tuple: (the T walked, the tuples walked, the odd
    one's index or None).  A T's tuples depend only on its rows'
    supports, so the walk is kept in `lam`'s memo under
    ("lo", *those supports) and serves every T of those supports, in
    this tuple or another sharing the memo: its tuples are the walked
    ones with their faces moved to its own components, and `_lo_scan`
    counts them as its own.  Evenness is monotone under subsets, and each
    tuple's union lies in the points of T's rows, so those points are
    tested once: if they are even, every tuple is walked and counted with
    no test of its own; if not, each is tested until the first odd one."""
    key = ("lo", *(lam.lambdas[nu].points for nu in t))
    if key not in lam._memo:
        walked, odd = [], None
        even = is_even(itertools.chain(*key[1:]))
        for ft in enumerate_lo_tuples(lam, t):
            walked.append(ft)
            if not even and not is_even(ft.union_lambda()):
                odd = len(walked) - 1
                break
        lam._memo[key] = (t, walked, odd)
    return lam._memo[key]


def _lo_scan(lam: LambdaTuple):
    """First odd low-rank overlapping tuple, its odd subset, and the number
    of tuples scanned up to it.  The nonempty T's are walked in
    `component_subsets` order (`_t_walk`: T's tuples streamed off its
    sum's lattice, with one parity test of T's points, and a test per
    tuple only when those are odd), and the scan stops at the first T
    whose walk holds an odd tuple: the certificate is that tuple, its
    faces placed on T's components, and the count is the earlier T's
    walks plus its own position.  If none is odd, the count is every
    tuple's: the walks' lengths plus the all-empty tuple, walked last so
    that its LP runs only then."""
    count = 0
    for t in component_subsets(lam.d):
        if not t:
            continue
        walker, walked, odd = _t_walk(lam, t)
        if odd is not None:
            empties = tuple(p.empty_face() for p in lam.polyhedra)
            ft = dataclasses.replace(walked[odd], faces=_placed(
                empties, t, [walked[odd].faces[nu] for nu in walker]))
            return ft, odd_witness(ft.union_lambda()), count + odd + 1
        count += len(walked)
    return None, None, count + len(_t_walk(lam, ())[1])


def decide_disjoint(lam: LambdaTuple) -> Verdict:
    """Main criterion for mutually disjoint Λ_ν (or d = 1): bounded iff
    ⋃(F_ν ∩ Λ_ν) is even for every low-rank overlapping face tuple."""
    lam.require_disjoint()
    ft, odd, count = _lo_scan(lam)
    if ft is not None:
        return Verdict(kind="unbounded", face_tuple=ft, odd_subset=odd,
                       lo_tuples=count)
    return Verdict(kind="bounded", lo_tuples=count)


# ---------------------------------------------------------------------------
# graph case
# ---------------------------------------------------------------------------

def graph_tuple(lambda_last: ExponentSet, spec: DomainSpec) -> LambdaTuple:
    """({e₁},…,{e_n}, R), R = Λ_{n+1} without its unit monomials; just the
    n unit blocks when R is empty.  A unit monomial c·t_j of Λ_{n+1} folds
    into ξ_j t_j by a GL row operation, so dropping it keeps the operator's
    boundedness, and the blocks are disjoint."""
    n = spec.n
    rest = [m for m in lambda_last.points if sum(m) != 1]
    blocks = [ExponentSet.of([unit(n, j)], n) for j in range(n)]
    if rest:
        blocks.append(ExponentSet.of(rest, n))
    return LambdaTuple(blocks, spec)


def decide_graph(lambda_last: ExponentSet, spec: DomainSpec) -> Verdict:
    """Graph case Λ = ({e₁},…,{e_n},Λ_{n+1}): the disjoint criterion on
    `graph_tuple`.  For n = 2 it is the vertex criterion of Carbery,
    Wainger and Wright."""
    return decide_disjoint(graph_tuple(lambda_last, spec))


# ---------------------------------------------------------------------------
# GL(d) cascade and the general criterion
# ---------------------------------------------------------------------------

DEPTH_CAP_BASE = 2          # the class search goes 2^d eliminations deep


def enumerate_support_classes(p: VectorPolynomial):
    """Support patterns Λ(UP) reachable by downward single-pivot
    eliminations (breadth-first, at most DEPTH_CAP_BASE^d steps deep),
    deduplicated by support pattern.  Each step cancels a monomial m of
    row j > k by adding a multiple a of row k: it computes row j + a·row k
    once, on U·P's coefficient rows, reads the new support off it, and
    only for a support pattern not seen before applies the same step to
    U's row j.  So U is lower unitriangular and U·P has the recorded
    coefficients.

    Returns (classes, cap_hit) where classes is a list of GLClass.
    """
    d = p.d
    depth_cap = DEPTH_CAP_BASE ** d
    rows = tuple({} for _ in range(d))
    for (nu, m), c in p.coefficients.items():
        rows[nu][m] = c
    start = GLClass(tuple(tuple(Fraction(int(i == j)) for j in range(d))
                          for i in range(d)), rows, p.supports())
    classes: dict = {start.supports: start}
    queue = deque([(start, 0)])
    cap_hit = False
    while queue:
        cls, depth = queue.popleft()
        if depth >= depth_cap:
            cap_hit = True
            continue
        for k in range(d):
            row_k = cls.rows[k]
            for m in sorted(row_k):
                for j in range(k + 1, d):
                    if m not in cls.rows[j]:
                        continue
                    a = -cls.rows[j][m] / row_k[m]
                    row_j = dict(cls.rows[j])
                    for x, c in row_k.items():
                        row_j[x] = row_j.get(x, 0) + a * c
                        if not row_j[x]:
                            del row_j[x]
                    supports = (cls.supports[:j] + (frozenset(row_j),)
                                + cls.supports[j + 1:])
                    if supports in classes:
                        continue
                    u_j = tuple(x + a * y for x, y in zip(cls.matrix[j],
                                                          cls.matrix[k]))
                    nxt = GLClass(
                        cls.matrix[:j] + (u_j,) + cls.matrix[j + 1:],
                        cls.rows[:j] + (row_j,) + cls.rows[j + 1:],
                        supports)
                    classes[supports] = nxt
                    queue.append((nxt, depth + 1))
    return list(classes.values()), cap_hit


def decide_general(p: VectorPolynomial) -> Verdict:
    """General (possibly non-disjoint) criterion for the given P: the
    evenness condition on low-rank overlapping tuples must hold for every
    support class Λ(AP), A lower unitriangular (row j of AP is
    P_j + Σ_{k<j} a_k P_k).  The classes are those the single-pivot
    eliminations of `enumerate_support_classes` reach, a subset of all
    such Λ(AP); tests/test_engine.py pins that the verdict equals the one
    over every lower unitriangular A.  Components whose support becomes
    empty under elimination are dropped (they contribute the constant 0
    to the phase).  An odd class is a verdict even if the class search
    hit its depth cap; a capped search with every class bounded raises
    DepthCapHit.

    The classes share one memo (`LambdaTuple`), which lives for this call
    only: their polyhedra and Minkowski sums, and the walk of each
    T-support tuple (the supports of the rows in a set T of rows), on
    which alone a T's tuples and their unions depend (`_t_walk`).  Each
    class is scanned by `_lo_scan`, its T's by size, and adds its count;
    the first class with an odd T is the verdict, with that T's first odd
    tuple.  So each T-support tuple is walked once and the all-empty
    tuple's LP runs once, and the counts are those of a scan of every
    class on its own."""
    classes, cap_hit = enumerate_support_classes(p)
    count = 0
    memo: dict = {}     # the classes' polyhedra, sums and T walks
    for cls in classes:
        live = [s for s in cls.supports if s]
        if not live:
            continue
        ft, odd, scanned = _lo_scan(LambdaTuple(
            [ExponentSet.of(s, p.spec.n) for s in live], p.spec, memo))
        count += scanned
        if ft is not None:
            return Verdict(kind="unbounded", face_tuple=ft, odd_subset=odd,
                           gl_matrix=cls.matrix,
                           gl_class_count=len(classes), lo_tuples=count)
    if cap_hit:
        raise DepthCapHit(f"class search cut {DEPTH_CAP_BASE ** p.d} steps "
                          f"deep with all {len(classes)} classes bounded")
    return Verdict(kind="bounded", lo_tuples=count,
                   gl_class_count=len(classes))


# ---------------------------------------------------------------------------
# dyadic classification and chains
# ---------------------------------------------------------------------------

def classify_dyadic(lam: LambdaTuple, j: Sequence[int]) -> list:
    """All face tuples whose closed cone intersection Cap(F*) contains j.

    j ∈ F* exactly when F is a face of the j-minimal face of its
    polyhedron, so the answer is the product of those down-sets."""
    j = tuple(Fraction(x) for x in j)
    if len(j) != lam.spec.n:
        raise ValueError("dyadic index dimension mismatch")
    if not lam.spec.in_zs(j):
        raise ValueError(f"index {j} outside Z(S)")
    down_sets = []
    for p in lam.polyhedra:
        top = face_by_cone_interior(p, j)
        down_sets.append([f for f in p.faces if f <= top])
    return [FaceTuple(combo, union_point_rank(combo), None)
            for combo in itertools.product(*down_sets)]


def build_face_chain(tuple_: FaceTuple):
    """Descending face chains F_ν(0) ⪰ F_ν(1) ⪰ … ⪰ F_ν(N) from the
    generators p₁,…,p_N of Cap(F*) that `enumerate_lo_tuples` attached
    (the sum face's incident facet normals), taken in sorted order: F_ν(s)
    is the face whose open dual cone contains p₁+⋯+p_s (the
    relative-interior point of the essential cone C_ν(s)); s = 0 gives the
    whole polyhedron.  Any order of the generators gives a valid chain.

    Returns (generators, lineality, chains), the lineality a nullspace
    basis of S's unit rays and the edge directions of the nonempty faces'
    polyhedra (the row space of their dual cones: a nonempty face's
    spans its polyhedron's directions, the empty face's the e_j, j ∈ S)
    and chains a list of length N+1 of d-tuples of faces.
    """
    if tuple_.cap_generators is None:
        raise ValueError("face tuple carries no Cap(F*) generators; take it "
                         "from enumerate_lo_tuples")
    faces = tuple_.faces
    spec = faces[0].parent.spec
    n = spec.n
    gens = sorted(tuple_.cap_generators)
    lin = nullspace(spec.rays() + sorted(
        set().union(*(f.parent.edge_directions for f in faces
                      if not f.is_empty))), n=n)
    chains = []
    acc = tuple(Fraction(0) for _ in range(n))
    chains.append(tuple(f.parent.improper_face() for f in faces))
    for g in gens:
        acc = tuple(a + b for a, b in zip(acc, g))
        step = []
        for f in faces:
            if f.is_empty:
                # the dual of the empty face is all of Z(S); its faces are
                # not normal-fan cones, so the chain component stays empty
                # (descent, endpoint and the overlap property all hold)
                step.append(f)
            else:
                step.append(face_by_cone_interior(f.parent, acc))
        chains.append(tuple(step))
    return gens, lin, chains

"""Unit tests for the decision procedures (face tuples, verdicts, cascade,
dyadic classification, face chains), and verdict invariance under the
problem's symmetries."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from class_oracle import class_is_even, lower_unitriangular_classes
from geom_checks import (
    cap_cone_generators,
    closure_contains,
    graph_vertex_criterion,
)
from general_inputs import frustum_input
from graph_oracle import graph_is_bounded
from nh.engine import (
    FaceTuple,
    LambdaTuple,
    VectorPolynomial,
    _union_rank,
    build_face_chain,
    classify_dyadic,
    component_subsets,
    decide_disjoint,
    decide_general,
    decide_graph,
    enumerate_lo_tuples,
    enumerate_support_classes,
    union_point_rank,
)
from nh.exact_numeric import unit
from nh.newton_poly import (
    DomainSpec,
    ExponentSet,
    build_newton,
    interior_contains,
    minkowski_faces,
)
from nh.parity import is_even
from rref_oracle import fraction_rank
from walk_oracle import walk_lo_tuples


def _lam(sets, n, S):
    return LambdaTuple([ExponentSet.of(s, n) for s in sets],
                       DomainSpec.of(n, S))


# ---------------------------------------------------------------------------
# single-set verdicts (the introductory trio)
# ---------------------------------------------------------------------------

def test_trio_local_odd_point():
    v = decide_disjoint(_lam([[(1, 1)]], 2, [0, 1]))
    assert not v.bounded
    assert v.odd_subset == [(1, 1)]
    assert v.face_tuple.union_rank <= 1


def test_trio_local_even_point():
    v = decide_disjoint(_lam([[(2, 1)]], 2, [0, 1]))
    assert v.bounded
    assert v.lo_tuples > 0


def test_trio_two_points_local_vs_global():
    v = decide_disjoint(_lam([[(2, 2), (3, 3)]], 2, [0, 1]))
    assert v.bounded
    v = decide_disjoint(_lam([[(2, 2), (3, 3)]], 2, []))
    assert not v.bounded
    assert v.odd_subset == [(3, 3)]


def test_worked_pair_bounded_despite_odd_sets():
    lam = _lam([[(0, 0, 2), (3, 3, 0)], [(0, 0, 3), (3, 2, 1)]],
               3, [0, 1, 2])
    v = decide_disjoint(lam)
    assert v.bounded
    assert v.lo_tuples > 0


def test_lo_tuples_exclude_closed_only_overlaps():
    """The two odd tuples of the worked pair must not be yielded: their open
    cones are disjoint (they meet only along a closed ray)."""
    lam = _lam([[(0, 0, 2), (3, 3, 0)], [(0, 0, 3), (3, 2, 1)]],
               3, [0, 1, 2])
    for ft in enumerate_lo_tuples(lam):
        assert is_even(ft.union_lambda())
        # re-check the attached witness and rank from scratch
        assert ft.union_rank <= 2
        for f in ft.faces:
            assert interior_contains(f, ft.overlap_witness)
        pts = []
        for f in ft.faces:
            if not f.is_empty:
                pts.extend(sorted(f.vertex_set) + sorted(f.ray_set))
        assert fraction_rank(pts) == ft.union_rank


def _sum_lattice_instance(rng):
    """n ≤ 4, d ≤ 3, at most 4 points a set (2 at n = 4, d = 3, which keeps
    the walk oracle fast): single points, collinear sets, sets in a
    coordinate hyperplane and random sets; S empty, full or partial."""
    n, d = rng.randint(1, 4), rng.randint(1, 3)
    sets = []
    for _ in range(d):
        k = rng.randint(1, 2 if (n, d) == (4, 3) else 4)
        shape = rng.random()
        if shape < 0.15:
            pts = {tuple(rng.randint(0, 4) for _ in range(n))}
        elif shape < 0.35:
            a = [rng.randint(0, 3) for _ in range(n)]
            b = [rng.randint(0, 2) for _ in range(n)]
            pts = {tuple(x + t * y for x, y in zip(a, b)) for t in range(k)}
        elif shape < 0.5:
            c = rng.randint(0, 3)
            pts = {tuple([rng.randint(0, 4) for _ in range(n - 1)] + [c])
                   for _ in range(k)}
        else:
            pts = {tuple(rng.randint(0, 4) for _ in range(n))
                   for _ in range(k)}
        sets.append(sorted(pts))
    pick = rng.random()
    S = ([] if pick < 0.3 else list(range(n)) if pick < 0.6 else
         [j for j in range(n) if rng.random() < 0.5])
    return sets, n, S


def test_sum_lattice_tuples_equal_the_walk():
    """Same tuples, in the same order and with the same union ranks, as the
    product walk with one LP per leaf; every witness is in every open
    cone.  Besides random draws, bounded inputs whose exponents are not
    globally even (`general_inputs.frustum_input`): every tuple the walk
    keeps is even, while all the points together are odd, so a tuple of
    rank n kept by mistake can be odd."""
    rng = random.Random(2030)
    total = 0
    for _ in range(160):
        sets, n, S = _sum_lattice_instance(rng)
        got = list(enumerate_lo_tuples(_lam(sets, n, S)))
        want = list(walk_lo_tuples(_lam(sets, n, S)))
        assert [(ft.faces, ft.union_rank) for ft in got] == \
            [(ft.faces, ft.union_rank) for ft in want], (sets, S)
        for ft in got:
            assert all(interior_contains(f, ft.overlap_witness)
                       for f in ft.faces), (sets, S, ft.faces)
        total += len(got)
    assert total > 1000
    rng = random.Random(2031)
    shapes = set()
    for d in [1, 2, 3] * 4:
        payload = frustum_input(rng, d)
        while payload["n"] == 3 and d == 3:     # keeps the walk fast
            payload = frustum_input(rng, d)
        n, S = payload["n"], [j - 1 for j in payload["S"]]
        sets = payload["lambda"]
        assert not is_even({tuple(m) for row in sets for m in row}), sets
        got = [(ft.faces, ft.union_rank)
               for ft in enumerate_lo_tuples(_lam(sets, n, S))]
        want = list(walk_lo_tuples(_lam(sets, n, S)))
        assert got == [(ft.faces, ft.union_rank) for ft in want], (sets, S)
        assert all(is_even(ft.union_lambda()) for ft in want), (sets, S)
        shapes.add((n, d))
    assert shapes == {(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)}, shapes


# disjoint (sets, n, S): two unbounded inputs whose lexicographically
# first odd tuple lies on a pair sum while a single row is odd too, and
# the bounded worked pair
_SCAN_CASES = {
    "n4-pair-first": ([[(0, 1, 2, 0), (4, 4, 0, 0)],
                       [(0, 4, 2, 3), (1, 1, 4, 3)],
                       [(2, 1, 1, 4), (3, 1, 3, 3)]], 4, []),
    "n2-pair-first": ([[(0, 1), (2, 0), (2, 2)], [(3, 3)]], 2, [0]),
    "worked-pair": ([[(0, 0, 2), (3, 3, 0)], [(0, 0, 3), (3, 2, 1)]],
                    3, [0, 1, 2]),
}


@pytest.mark.parametrize("case", sorted(_SCAN_CASES))
def test_scan_stops_at_the_first_odd_t(case):
    """`decide_disjoint` against the product walk (`walk_oracle`), its
    tuples taken by their nonempty components T in `component_subsets`
    order, the all-empty tuple last: the certificate is the first odd
    tuple of the first T that has one, and `lo_tuples` counts the tuples
    up to it, or all of them on a bounded verdict.  On the unbounded
    cases the walk's first odd tuple has |T| = 2, so a scan that returns
    it instead of a single row's odd tuple fails here."""
    sets, n, S = _SCAN_CASES[case]
    walk = list(walk_lo_tuples(_lam(sets, n, S)))
    order = {t: i for i, t in enumerate(component_subsets(len(sets)))}
    order[()] = len(order)
    scan = sorted(walk, key=lambda ft: order[tuple(
        nu for nu, f in enumerate(ft.faces) if not f.is_empty)])
    odd = [i for i, ft in enumerate(scan) if not is_even(ft.union_lambda())]
    v = decide_disjoint(_lam(sets, n, S))
    if not odd:
        assert (v.kind, v.lo_tuples) == ("bounded", len(scan))
        return
    first = next(ft for ft in walk if not is_even(ft.union_lambda()))
    assert sum(not f.is_empty for f in first.faces) == 2
    assert sum(not f.is_empty for f in scan[odd[0]].faces) == 1
    assert (v.kind, v.face_tuple.faces, v.lo_tuples) == (
        "unbounded", scan[odd[0]].faces, odd[0] + 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_union_rank_is_read_off_the_sum_lattice(k):
    """`_union_rank` takes rank(⋃F_ν) from a sum face's dimension and level
    rows (`minkowski_faces`).  On every face of k-sums, full-dimensional
    and lying in t_n = 0, it equals the Fraction RREF rank of the summand
    faces' vertices and rays, and the draws reach each branch it has for
    k: dim ≥ n−1, one summand, and the stacked rank."""
    rng = random.Random(40 + k)
    branches = Counter()
    full = set()
    for _ in range(40):
        n = rng.randint(1, 4)
        top = n - 1 if rng.random() < 1 / 3 else n
        spec = DomainSpec.of(n, [j for j in range(top)
                                 if rng.random() < 0.5])
        polys = [build_newton(ExponentSet.of(
            {tuple(rng.randint(0, 4) if j < top else 0 for j in range(n))
             for _ in range(rng.randint(1, 4))}, n), spec)
            for _ in range(k)]
        for faces, _, _, dim, levels in minkowski_faces(polys):
            want = fraction_rank([x for f in faces for x in sorted(
                f.vertex_set) + sorted(f.ray_set)])
            assert _union_rank(dim, levels, n) == want, (
                [p.omega.sorted_points() for p in polys], sorted(spec.S),
                faces)
            branches["dim" if dim >= n - 1 else
                     "one" if k == 1 else "stacked"] += 1
        full.add(fraction_rank([tuple(a - b for a, b in zip(v, min(
            p.vertices))) for p in polys for v in p.vertices]
            + [r for p in polys for r in p.rays]) == n)
    assert full == {True, False}
    assert set(branches) == {"dim", "one" if k == 1 else "stacked"} and min(
        branches.values()) >= 20, branches


def test_all_empty_tuple_yielded():
    lam = _lam([[(2, 1)], [(1, 2)]], 2, [0, 1])
    tuples = list(enumerate_lo_tuples(lam))
    assert any(all(f.is_empty for f in ft.faces) for ft in tuples)


def test_segment_vertex_tuples_yielded():
    lam = _lam([[(2, 2), (3, 3)]], 2, [])
    keys = {tuple(sorted(ft.faces[0].vertex_set))
            for ft in enumerate_lo_tuples(lam)
            if not ft.faces[0].is_empty and ft.faces[0].dim == 0}
    assert ((2, 2),) in keys and ((3, 3),) in keys


def test_empty_face_contributes_nothing():
    lam = _lam([[(2, 1)], [(1, 2)]], 2, [0, 1])
    for ft in enumerate_lo_tuples(lam):
        live = [f for f in ft.faces if not f.is_empty]
        union_live = sorted(set(
            pt for f in live for pt in f.lambda_points))
        assert union_live == ft.union_lambda()


def test_non_disjoint_guard():
    lam = _lam([[(1, 1)], [(1, 1), (2, 2)]], 2, [0, 1])
    with pytest.raises(ValueError, match="decide_general"):
        decide_disjoint(lam)


def test_n2_overlap_condition_redundant():
    """For n = 2 the verdict is unchanged if the overlap filter is dropped:
    evenness over rank-≤1 tuples alone decides."""
    rng = random.Random(77)
    for _ in range(40):
        sets, used = [], set()
        for _ in range(rng.randint(1, 2)):
            pts = {tuple(rng.randint(0, 4) for _ in range(2))
                   for _ in range(rng.randint(1, 3))}
            pts -= used
            if not pts:
                continue
            used |= pts
            sets.append(sorted(pts))
        if not sets:
            continue
        S = [j for j in range(2) if rng.random() < 0.5]
        lam = _lam(sets, 2, S)
        verdict = decide_disjoint(lam).bounded
        # overlap-free variant: every rank-≤1 face tuple must be even
        no_overlap = True
        for combo in itertools.product(*[p.faces
                                         for p in lam.polyhedra]):
            if union_point_rank(combo) <= 1:
                u = sorted(set(pt for f in combo
                               for pt in f.lambda_points))
                if not is_even(u):
                    no_overlap = False
                    break
        assert verdict == no_overlap, (sets, S)


# ---------------------------------------------------------------------------
# graph case
# ---------------------------------------------------------------------------

def test_graph_odd_vertex():
    v = decide_graph(ExponentSet.of([(1, 1)], 2), DomainSpec.of(2, [0, 1]))
    assert not v.bounded
    assert not graph_vertex_criterion(ExponentSet.of([(1, 1)], 2),
                                      DomainSpec.of(2, [0, 1]))


def test_graph_even_vertices_odd_edge_not_tested():
    lam3 = ExponentSet.of([(2, 1), (1, 2)], 2)
    spec = DomainSpec.of(2, [0, 1])
    v = decide_graph(lam3, spec)
    assert v.bounded
    assert graph_vertex_criterion(lam3, spec)


def test_graph_triple_odd_vertex():
    lam4 = ExponentSet.of([(1, 1, 1), (4, 0, 0)], 3)
    v = decide_graph(lam4, DomainSpec.of(3, [0, 1, 2]))
    assert not v.bounded


def test_graph_drops_unit_monomials():
    """A unit monomial of Λ_{n+1} folds into ξ_j t_j: Λ₃ = {(1,0),(5,3),
    (6,2)} and {(5,3),(6,2)} are linearly equivalent."""
    spec = DomainSpec.of(2, [0, 1])
    with_unit = ExponentSet.of([(1, 0), (5, 3), (6, 2)], 2)
    assert not decide_graph(with_unit, spec).bounded
    assert not decide_graph(ExponentSet.of([(5, 3), (6, 2)], 2),
                            spec).bounded
    assert not graph_vertex_criterion(with_unit, spec)
    only_units = ExponentSet.of([(1, 0), (0, 1)], 2)
    assert decide_graph(only_units, spec).bounded
    assert graph_vertex_criterion(only_units, spec)


def test_graph_is_disjoint_on_the_unit_augmented_tuple():
    """decide_graph(Λ_{n+1}), the disjoint criterion on ({e₁},…,{e_n}, R)
    with R = Λ_{n+1} without its unit monomials, agrees with the face ×
    axes loop of `graph_oracle`: for x in (F*)° the x-minimal face of
    e_j + ℝ₊^S has no rays beyond F's, so rank(F ∪ A) and the parity of
    (F ∩ Λ) ∪ A are the disjoint tuple's.  200 draws with n ≤ 3, then 40
    with n = 4."""
    rng = random.Random(2032)
    for count, n_range in ((200, (1, 3)), (40, (4, 4))):
        checked = 0
        while checked < count:
            n = rng.randint(*n_range)
            units = [unit(n, j) for j in range(n)]
            last = {tuple(rng.randint(0, 3) for _ in range(n))
                    for _ in range(rng.randint(1, 4))}
            if last <= set(units):
                continue
            spec = DomainSpec.of(n, [j for j in range(n)
                                     if rng.random() < 0.5])
            lam = ExponentSet.of(last, n)
            assert decide_graph(lam, spec).bounded == \
                graph_is_bounded(lam, spec), (sorted(last), sorted(spec.S))
            checked += 1


def test_graph_axes_participate():
    # Λ₃ = {(2,0)}: vertex even alone, but adding axis e₂ gives
    # (2,0)+(0,1) = (2,1)… even; adding e₁: (2,0)+(1,0)=(3,0)… not all-odd.
    # rank constraints keep this bounded
    v = decide_graph(ExponentSet.of([(2, 0)], 2), DomainSpec.of(2, [0, 1]))
    assert v.bounded


# ---------------------------------------------------------------------------
# GL(d) cascade and the general criterion
# ---------------------------------------------------------------------------

def test_cascade_single_elimination():
    p = VectorPolynomial({(0, (1, 1)): 1, (0, (3, 0)): 1, (1, (1, 1)): 1},
                         d=2, spec=DomainSpec.of(2, [0, 1]))
    # row 2 minus row 1 eliminates t^(1,1) from the second component
    u = ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1)))
    q = p.transformed(u)
    assert q.coefficients == {(0, (1, 1)): 1, (0, (3, 0)): 1,
                              (1, (3, 0)): -1}
    classes, cap_hit = enumerate_support_classes(p)
    assert not cap_hit
    assert {cls.supports: cls.matrix for cls in classes} == {
        p.supports(): ((1, 0), (0, 1)), q.supports(): u}


def test_cascade_d1_trivial():
    p = VectorPolynomial({(0, (1, 1)): 1}, d=1,
                         spec=DomainSpec.of(2, [0, 1]))
    classes, _ = enumerate_support_classes(p)
    assert [cls.matrix for cls in classes] == [((1,),)]
    assert p.transformed(((Fraction(-3, 2),),)).coefficients == {
        (0, (1, 1)): Fraction(-3, 2)}


def test_support_classes_two_for_shared_monomial():
    p = VectorPolynomial(
        {(0, (1, 1)): 1, (1, (1, 1)): 1, (1, (2, 2)): 1},
        d=2, spec=DomainSpec.of(2, [0, 1]))
    classes, cap_hit = enumerate_support_classes(p)
    assert not cap_hit
    supports = {cls.supports for cls in classes}
    assert supports == {
        (frozenset({(1, 1)}), frozenset({(1, 1), (2, 2)})),
        (frozenset({(1, 1)}), frozenset({(2, 2)})),
    }
    v = decide_general(p)
    assert not v.bounded    # the identity class already has odd Λ₁


def test_general_matches_disjoint_when_disjoint():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(1, 2)
        used: set = set()
        sets = []
        for _ in range(rng.randint(1, 2)):
            pts = {tuple(rng.randint(0, 3) for _ in range(n))
                   for _ in range(rng.randint(1, 3))} - used
            if not pts:
                continue
            used |= pts
            sets.append(sorted(pts))
        if not sets:
            continue
        S = [j for j in range(n) if rng.random() < 0.5]
        lam = _lam(sets, n, S)
        coeffs = {(nu, m): rng.randint(1, 5)
                  for nu, s in enumerate(sets) for m in s}
        p = VectorPolynomial(coeffs, d=len(sets), spec=lam.spec)
        assert decide_general(p).bounded == decide_disjoint(lam).bounded


def _pooled_poly(rng):
    """n, d ∈ {2, 3}; every row draws 1–3 monomials from one pool of 5
    draws, so rows share monomials and eliminations have work to do."""
    n, d = rng.choice([2, 3]), rng.choice([2, 3])
    pool = sorted({tuple(rng.randint(0, 3) for _ in range(n))
                   for _ in range(5)})
    coef = {(nu, m): Fraction(rng.choice([-2, -1, 1, 2, 3]))
            for nu in range(d)
            for m in rng.sample(pool, rng.randint(1, min(3, len(pool))))}
    S = [j for j in range(n) if rng.random() < 0.5]
    return VectorPolynomial(coef, d, DomainSpec.of(n, S))


def test_support_classes_realised_by_their_matrix():
    """Every class's matrix turns P into exactly the class's coefficient
    rows, and so into its supports."""
    rng = random.Random(2030)
    for _ in range(300):
        p = _pooled_poly(rng)
        classes, cap_hit = enumerate_support_classes(p)
        assert not cap_hit
        for cls in classes:
            q = p.transformed(cls.matrix)
            assert [{m: c for (i, m), c in q.coefficients.items() if i == nu}
                    for nu in range(p.d)] == list(cls.rows), \
                (p.coefficients, cls.matrix)
            assert q.supports() == cls.supports, (p.coefficients, cls.matrix)


def test_support_classes_within_lower_unitriangular_oracle():
    """The single-pivot BFS reaches a subset of {Λ(AP) : A lower
    unitriangular} (`class_oracle`), and `decide_general` gives the
    verdict taken over all of them."""
    rng = random.Random(2031)
    for _ in range(200):
        p = _pooled_poly(rng)
        classes, _ = enumerate_support_classes(p)
        every = lower_unitriangular_classes(p)
        assert {cls.supports for cls in classes} <= every, p.coefficients
        assert decide_general(p).bounded == all(
            class_is_even(s, p.spec) for s in every), p.coefficients


# ---------------------------------------------------------------------------
# dyadic classification
# ---------------------------------------------------------------------------

def test_classify_dyadic_zero_everywhere():
    lam = _lam([[(2, 2), (3, 3)]], 2, [])
    tuples = classify_dyadic(lam, (0, 0))
    # all cones are closed under scaling, so 0 belongs to every tuple
    n_faces = len(lam.polyhedra[0].faces)
    assert len(tuples) == n_faces


def test_classify_dyadic_dominating_vertex():
    lam = _lam([[(2, 2), (3, 3)]], 2, [])
    tuples = classify_dyadic(lam, (1, 1))
    nonempty = [t for t in tuples if not t.faces[0].is_empty]
    for t in nonempty:
        assert (2, 2) in t.faces[0].vertex_set
    assert nonempty


def test_classify_dyadic_rejects_outside_zs():
    lam = _lam([[(2, 2)]], 2, [0, 1])
    with pytest.raises(ValueError):
        classify_dyadic(lam, (-1, 0))


def test_classify_dyadic_respects_membership():
    rng = random.Random(17)
    lam = _lam([[(0, 0, 2), (3, 3, 0)], [(0, 0, 3), (3, 2, 1)]],
               3, [0, 1, 2])
    for _ in range(10):
        j = tuple(rng.randint(0, 6) for _ in range(3))
        tuples = classify_dyadic(lam, j)
        assert tuples
        for t in tuples:
            for f in t.faces:
                assert closure_contains(f, j)


def test_classify_dyadic_matches_product_filter():
    """The down-set product equals filtering the full face product by
    closed-cone membership, tuple for tuple and in the same order."""
    rng = random.Random(18)
    for _ in range(12):
        n = rng.randint(2, 3)
        sets = [sorted({tuple(rng.randint(0, 4) for _ in range(n))
                        for _ in range(rng.randint(1, 3))})
                for _ in range(rng.randint(1, 2))]
        S = [j for j in range(n) if rng.random() < 0.5]
        lam = _lam(sets, n, S)
        for _ in range(5):
            j = tuple(rng.randint(0 if i in S else -3, 3) for i in range(n))
            expect = [combo for combo in itertools.product(
                *[p.faces for p in lam.polyhedra])
                if all(closure_contains(f, j) for f in combo)]
            assert [t.faces for t in classify_dyadic(lam, j)] == expect


# ---------------------------------------------------------------------------
# face chains
# ---------------------------------------------------------------------------

def test_chain_trivial_cap():
    # single point, S=∅: improper face tuple has Cap = V⊥ (lineality only,
    # no generators) → chain of length 1, all improper
    lam = _lam([[(2, 2)]], 2, [])
    ft = next(iter(enumerate_lo_tuples(lam)))
    gens, lin, chains = build_face_chain(ft)
    assert gens == []
    assert len(chains) == len(gens) + 1
    assert all(f.is_improper for f in chains[0])


def _lo_tuple(lam, faces):
    return next(ft for ft in enumerate_lo_tuples(lam) if ft.faces == faces)


def test_chain_descends_to_vertex():
    lam = _lam([[(2, 1)]], 2, [0, 1])
    p = lam.polyhedra[0]
    vertex = p.face_by_key([(2, 1)], [])
    ft = _lo_tuple(lam, (vertex,))
    gens, lin, chains = build_face_chain(ft)
    assert chains[0][0].is_improper
    assert chains[-1][0] == vertex
    for s in range(1, len(chains)):
        assert chains[s][0] <= chains[s - 1][0]


def test_chain_generators_span_cap():
    # the vertex (2,1) of N({(2,1)}, {1,2}) has the closed cone R²₊
    lam = _lam([[(2, 1)]], 2, [0, 1])
    vertex = lam.polyhedra[0].face_by_key([(2, 1)], [])
    gens, lin, chains = build_face_chain(_lo_tuple(lam, (vertex,)))
    assert sorted(gens) == [(0, 1), (1, 0)] and lin == []
    assert all(closure_contains(vertex, g) for g in gens)
    assert not closure_contains(vertex, (-1, 0))
    assert len(chains) == 3


def test_chain_needs_the_attached_generators():
    lam = _lam([[(2, 1)]], 2, [0, 1])
    vertex = lam.polyhedra[0].face_by_key([(2, 1)], [])
    with pytest.raises(ValueError):
        build_face_chain(FaceTuple((vertex,), 1, (1, 1)))


def test_cap_generators_are_the_extreme_rays():
    """Every lo tuple's attached Cap(F*) generators (the incident facet
    normals of its sum face; e_j, j ∈ S, on the all-empty tuple) are the
    extreme rays that the tight-subset search finds, as a set, and the
    chain's lineality (read off S's unit rays and the polyhedra's edge
    directions) is the search's: the nullspace of the faces' dual-cone
    rows (`geom_checks.dual_cone_rows`)."""
    rng = random.Random(2031)
    seen = dict(all_empty=0, improper_low_dim=0, proper=0, s_empty=0,
                s_full=0, s_partial=0, lineality=0)
    for _ in range(150):
        sets, n, S = _sum_lattice_instance(rng)
        seen["s_empty" if not S else "s_full" if len(S) == n
             else "s_partial"] += 1
        for ft in enumerate_lo_tuples(_lam(sets, n, S)):
            rays, lin = cap_cone_generators(ft.faces)
            gens, chain_lin, _ = build_face_chain(ft)
            assert len(set(gens)) == len(gens), (sets, S, ft.faces)
            assert set(gens) == set(rays), (sets, S, ft.faces)
            assert chain_lin == lin, (sets, S, ft.faces)
            seen["lineality"] += bool(lin)
            live = [f for f in ft.faces if not f.is_empty]
            if not live:
                seen["all_empty"] += 1
            elif all(f.is_improper for f in live):
                assert ft.cap_generators == ()
                seen["improper_low_dim"] += 1
            else:
                seen["proper"] += 1
    assert min(seen.values()) >= 10, seen


def test_chain_partial_sums_interior():
    lam = _lam([[(0, 0, 2), (3, 3, 0)], [(0, 0, 3), (3, 2, 1)]],
               3, [0, 1, 2])
    count = 0
    for ft in enumerate_lo_tuples(lam):
        gens, lin, chains = build_face_chain(ft)
        acc = tuple(Fraction(0) for _ in range(3))
        for s, g in enumerate(gens, start=1):
            acc = tuple(a + Fraction(b) for a, b in zip(acc, g))
            for f in chains[s]:
                assert interior_contains(f, acc)
        count += 1
        if count >= 6:
            break
    assert count


# ---------------------------------------------------------------------------
# symmetries: a verdict does not depend on how the operator is written
# ---------------------------------------------------------------------------

def _random_poly(rng, n, d, disjoint):
    used: set = set()
    coef = {}
    for nu in range(d):
        pts = {tuple(rng.randint(0, 4) for _ in range(n))
               for _ in range(rng.randint(1, 3))}
        if disjoint:
            pts = (pts - used) or {tuple(5 + nu for _ in range(n))}
            used |= pts
        for m in pts:
            coef[(nu, m)] = Fraction(rng.choice([-3, -1, 1, 2]),
                                     rng.choice([1, 2]))
    S = [j for j in range(n) if rng.random() < 0.5]
    return VectorPolynomial(coef, d, DomainSpec.of(n, S))


def _relabelled(p, var_perm, comp_perm):
    """Variable j becomes var_perm[j] (S with it); component ν becomes
    comp_perm[ν]."""
    coef = {(comp_perm[nu], tuple(m[var_perm.index(i)]
                                  for i in range(len(m)))): c
            for (nu, m), c in p.coefficients.items()}
    spec = DomainSpec.of(p.spec.n, [var_perm[j] for j in p.spec.S])
    return VectorPolynomial(coef, p.d, spec)


def test_verdicts_invariant_under_relabelling():
    rng = random.Random(2026)
    for _ in range(50):
        n, d = rng.randint(1, 3), rng.randint(1, 3)
        disjoint = rng.random() < 0.5
        p = _random_poly(rng, n, d, disjoint)
        q = _relabelled(p, rng.sample(range(n), n), rng.sample(range(d), d))
        assert decide_general(q).bounded == decide_general(p).bounded, \
            p.coefficients
        if disjoint:
            assert decide_disjoint(q.lambda_tuple()).bounded == \
                decide_disjoint(p.lambda_tuple()).bounded, p.coefficients


def test_general_verdict_invariant_under_row_operation():
    rng = random.Random(2027)
    for _ in range(50):
        n, d = rng.randint(1, 3), rng.randint(2, 3)
        p = _random_poly(rng, n, d, rng.random() < 0.5)
        i, j = rng.sample(range(d), 2)
        u = [[Fraction(int(a == b)) for b in range(d)] for a in range(d)]
        u[i][j] = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
        q = p.transformed(u)
        assert decide_general(q).bounded == decide_general(p).bounded, \
            (p.coefficients, u)


def _graph_pair_agrees(rng, n):
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    last = set(rng.sample(units, rng.randint(1, n)))
    last |= {tuple(rng.randint(0, 5) for _ in range(n))
             for _ in range(rng.randint(0, 3))}
    S = [j for j in range(n) if rng.random() < 0.5]
    spec = DomainSpec.of(n, S)
    coef = {(j, units[j]): Fraction(1) for j in range(n)}
    coef.update({(n, m): Fraction(rng.choice([-2, 1, 3]))
                 for m in last})
    general = decide_general(VectorPolynomial(coef, n + 1, spec))
    graph = decide_graph(ExponentSet.of(last, n), spec)
    assert graph.bounded == general.bounded, (sorted(last), S)


def test_graph_agrees_with_general_on_unit_monomials():
    rng = random.Random(2028)
    for _ in range(50):
        _graph_pair_agrees(rng, rng.randint(1, 2))      # d = n + 1 ≤ 3
    rng = random.Random(2029)
    for _ in range(6):
        _graph_pair_agrees(rng, 3)                      # d = 4

"""Unit tests for the exact rational/GF(2) kernel.

Oracles: rank against minor enumeration (minors by the Leibniz formula),
the fraction-free nullspace against the `Fraction` Gauss–Jordan one in
`rref_oracle`, the Bareiss elimination under both against both (and its
pivots against the minors they must equal), the null line of n−1 rows
against the nullspace, strict-system feasibility against a dense rational
grid scan, the fraction-free simplex against the rational tableau simplex
in `simplex_oracle`, sign bounds as nonnegative columns against the split
formulation of `simplex_oracle`, GF(2) solution sets against explicit
enumeration of all 2^k combinations.
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nh import exact_numeric
from nh.exact_numeric import (
    StrictSystem,
    _echelon,
    _simplex_max,
    _Unbounded,
    dot,
    gf2_eliminate,
    null_line,
    nullspace,
    orthogonal_basis,
    primitive,
    rank,
    reduce_mod,
    row_basis,
    solve_strict,
    unit,
    vsub,
)
from nh.parity import parity_masks
from rref_oracle import fraction_nullspace, fraction_rank
from simplex_oracle import fraction_simplex_max, split_solve_strict


# ---------------------------------------------------------------------------
# rank vs. minor enumeration
# ---------------------------------------------------------------------------

def _det(mat):
    n = len(mat)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(mat[i][perm[i]])
        total += sign * term
    return total


def _rank_by_minors(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    for size in range(min(len(rows), ncols), 0, -1):
        for ri in itertools.combinations(range(len(rows)), size):
            for ci in itertools.combinations(range(ncols), size):
                minor = [[rows[i][j] for j in ci] for i in ri]
                if _det(minor) != 0:
                    return size
    return 0


def test_rank_matches_minor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        nrows = rng.randint(0, 4)
        ncols = rng.randint(1, 4)
        rows = [tuple(rng.randint(-3, 3) for _ in range(ncols))
                for _ in range(nrows)]
        assert rank(rows) == _rank_by_minors(rows), rows


def test_rank_edge_cases():
    assert rank([]) == 0
    assert rank([(0, 0, 0)]) == 0
    assert rank([(2, 0, 3)]) == 1
    assert rank([(1, 0), (0, 1), (1, 1)]) == 2


def test_stacked_row_bases_keep_the_rank():
    """rank(A ∪ B) = rank(row_basis(A) ∪ row_basis(B)), and a basis has
    rank(A) independent integer rows."""
    rng = random.Random(8)
    for _ in range(200):
        ncols = rng.randint(1, 5)
        a, b = ([tuple(rng.choice([-2, 0, 0, 1, Fraction(3, 2)])
                       for _ in range(ncols))
                 for _ in range(rng.randint(0, 4))] for _ in range(2))
        ba, bb = row_basis(a), row_basis(b)
        assert len(ba) == rank(ba) == rank(a), a
        assert all(type(x) is int for row in ba for x in row)
        assert rank(list(ba) + list(bb)) == rank(a + b), (a, b)


_SMALL = st.integers(-3, 3)
_LARGE = st.integers(-10 ** 6, 10 ** 6)
_INT = st.one_of(st.just(0), _SMALL, _LARGE)
_MIXED = st.one_of(_INT, st.builds(Fraction, st.one_of(_SMALL, _LARGE),
                                   st.integers(1, 12)))


@st.composite
def _kernel_matrices(draw, entries):
    """(rows, ncols), up to 6×5: zero rows and columns, a zero leading
    entry (the first pivot needs a swap), a row combining two others."""
    ncols, nrows = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for r in rows:
            r[j] = 0
    if rows and draw(st.booleans()):
        rows[0][0] = 0
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.sampled_from([(-2, 1), (1, 1), (3, -1), (0, 0)]))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    return [tuple(r) for r in rows], ncols


@given(st.one_of(_kernel_matrices(_INT), _kernel_matrices(_MIXED)))
@example(([(0, 1, 2), (0, 0, 3), (5, 1, 1)], 3))     # swaps at two steps
@example(([(-2, 3, 1), (4, -1, 5), (1, 1, -7)], 3))  # negative pivots
@example(([(0, 0), (0, 0)], 2))
@settings(max_examples=200, deadline=None)
def test_bareiss_kernel_matches_the_oracles(drawn):
    """rank against the minors and the Fraction RREF, nullspace equal to
    the RREF's, stacked row bases keep the rank and the row space, and the
    last pivot of a matrix of full row rank is ± the determinant on the
    pivot columns (of the rows scaled to integers): Bareiss's exact
    division keeps every pivot a minor."""
    rows, ncols = drawn
    r = fraction_rank(rows)
    assert rank(rows) == r == _rank_by_minors(rows)
    assert nullspace(rows, n=ncols) == fraction_nullspace(rows, ncols)
    a, b = rows[:len(rows) // 2], rows[len(rows) // 2:]
    ba, bb = row_basis(a), row_basis(b)
    assert all(type(x) is int for row in ba + bb for x in row)
    assert len(ba) == fraction_rank(ba) == fraction_rank(list(ba) + a) \
        == fraction_rank(a)
    assert fraction_rank(list(ba) + list(bb)) == r
    mat, pivots = _echelon(rows)
    if rows and r == len(rows):
        scaled = [exact_numeric._clear_denominators(row) for row in rows]
        assert abs(mat[-1][pivots[-1]]) == abs(
            _det([[row[c] for c in pivots] for row in scaled]))


def test_vsub_is_exact_on_every_input_kind():
    """The all-int path, Fraction and mixed inputs, and a float read at its
    exact value give the Fraction-wrapped difference; an entry is an int
    exactly when both operands are."""
    rng = random.Random(9)
    kinds = (lambda: rng.randint(-5, 5),
             lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
             lambda: rng.randint(-8, 8) / 4)
    for _ in range(300):
        n = rng.randint(0, 4)
        pick = rng.sample(kinds, rng.randint(1, 3))
        a = tuple(rng.choice(pick)() for _ in range(n))
        b = [rng.choice(pick)() for _ in range(n)]
        got = vsub(a, b)
        assert type(got) is tuple
        assert got == tuple(Fraction(x) - Fraction(y) for x, y in zip(a, b))
        assert [type(z) for z in got] == [
            int if type(x) is int and type(y) is int else Fraction
            for x, y in zip(a, b)], (a, b)
    assert vsub((3, 1), (1, 4)) == (2, -3)
    with pytest.raises(ValueError):
        vsub((1, 2), (1,))


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def test_primitive_keeps_orientation():
    assert primitive((Fraction(-2), Fraction(4))) == (-1, 2)
    assert primitive((Fraction(3, 2), Fraction(9, 4))) == (2, 3)


# ---------------------------------------------------------------------------
# nullspace / Gram–Schmidt
# ---------------------------------------------------------------------------

@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_nullspace_properties(ncols, nrows, seed):
    rng = random.Random(seed)
    rows = [tuple(rng.randint(-4, 4) for _ in range(ncols))
            for _ in range(nrows)]
    ns = nullspace(rows, n=ncols)
    assert len(ns) == ncols - rank(rows)
    for v in ns:
        assert any(x != 0 for x in v)
        for r in rows:
            assert dot(r, v) == 0
    assert rank(ns) == len(ns)


def _special_matrix(rng: random.Random, ncols: int) -> list:
    """A random integer matrix, often with zero rows, duplicate rows,
    rows that are combinations of others, or rational entries."""
    rows = [[rng.randint(-5, 5) for _ in range(ncols)]
            for _ in range(rng.randint(0, 5))]
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("zero", "dup", "comb", "frac"))
        if kind == "zero":
            rows.append([0] * ncols)
        elif rows and kind == "dup":
            rows.append(list(rng.choice(rows)))
        elif rows and kind == "comb":
            a, b = rng.choice(rows), rng.choice(rows)
            c, d = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([c * x + d * y for x, y in zip(a, b)])
        elif rows:
            rows.append([Fraction(x, rng.randint(1, 4))
                         for x in rng.choice(rows)])
    rng.shuffle(rows)
    return [tuple(r) for r in rows]


def test_nullspace_equals_the_fraction_rref_oracle():
    rng = random.Random(8)
    deficient = 0
    for _ in range(300):
        ncols = rng.randint(1, 6)
        rows = _special_matrix(rng, ncols)
        deficient += rank(rows) < min(len(rows), ncols)
        assert nullspace(rows, n=ncols) == fraction_nullspace(rows, ncols), \
            rows
    assert deficient >= 50      # rank-deficient inputs are well covered


def test_null_line_is_the_nullspace_line():
    """n−1 random integer rows, n = 1..5: the signed maximal minors give
    ± the one nullspace vector when the rows have rank n−1 (n = 1: no
    rows, the line (1,)), and None below that.  Three draws in ten replace
    a row by a small combination of the rows, which often lowers the
    rank.  The orientation is pinned too: x_j = (−1)^j det(A without
    column j) over the gcd of those minors, with the Leibniz `_det` as the
    oracle (n = 3 is the written-out cross product, every other n the
    minor expansion)."""
    rng = random.Random(24)
    assert null_line([], 1) == (1,) and nullspace([], n=1) == [(1,)]
    seen = {"line": set(), "none": set()}
    for _ in range(600):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(n - 1)]
        if n > 1 and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            c, d = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[rng.randrange(n - 1)] = tuple(
                c * x + d * y for x, y in zip(a, b))
        line = null_line(rows, n)
        minors = [int((-1) ** j * _det([r[:j] + r[j + 1:] for r in rows]))
                  for j in range(n)]
        g = math.gcd(*minors)
        assert line == (tuple(x // g for x in minors) if g else None), rows
        null = nullspace(rows, n=n)
        if len(null) == 1:
            assert line in (null[0], tuple(-x for x in null[0])), rows
            seen["line"].add(n)
        else:
            assert rank(rows) < n - 1 and line is None, rows
            seen["none"].add(n)
    assert seen == {"line": {1, 2, 3, 4, 5}, "none": {2, 3, 4, 5}}, seen
    with pytest.raises(ValueError):
        null_line([(1, 0, 0)], 3)


def test_orthogonal_basis_and_reduce_mod():
    rng = random.Random(9)
    for _ in range(100):
        ncols = rng.randint(1, 5)
        vecs = _special_matrix(rng, ncols)
        basis = orthogonal_basis(vecs)
        assert len(basis) == rank(vecs)
        assert rank(basis + vecs) == len(basis)
        for u, v in itertools.combinations(basis, 2):
            assert dot(u, v) == 0
        assert all(primitive(u) == u for u in basis)
        w = tuple(rng.randint(-5, 5) for _ in range(ncols))
        r = reduce_mod(w, basis)
        assert all(dot(r, u) == 0 for u in basis)
        assert rank(basis + [vsub(w, r)]) == len(basis)
        # the projection ignores how the basis vectors are scaled
        scales = [rng.choice((-3, 2, Fraction(5, 7))) for _ in basis]
        scaled = [tuple(c * x for x in u) for c, u in zip(scales, basis)]
        assert reduce_mod(w, scaled) == r


# ---------------------------------------------------------------------------
# strict feasibility vs. grid oracle
# ---------------------------------------------------------------------------

def _grid_feasible(sys: StrictSystem):
    """Dense scan over p/q with |p| <= 8, q <= 4 in each coordinate."""
    values = sorted({Fraction(p, q)
                     for q in range(1, 5) for p in range(-8, 9)})
    for point in itertools.product(values, repeat=sys.dim):
        if sys.satisfied_by(point):
            return point
    return None


def test_solve_strict_matches_grid_oracle():
    rng = random.Random(11)
    for trial in range(40):
        dim = rng.randint(1, 2)

        def rows(k):
            return tuple(
                (tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim)),
                 Fraction(rng.randint(-2, 2)))
                for _ in range(k))
        sys = StrictSystem(dim=dim,
                           equalities=rows(rng.randint(0, 1)),
                           weak=rows(rng.randint(0, 2)),
                           strict=rows(rng.randint(0, 2)))
        got = solve_strict(sys)
        expect = _grid_feasible(sys)
        if got is None:
            # the oracle grid is finite; feasible sets that dodge it would
            # be a false alarm, so check the stronger direction only
            assert expect is None, (trial, sys, expect)
        else:
            assert sys.satisfied_by(got)


def test_solve_strict_known_cases():
    # open positive quadrant
    sys = StrictSystem(dim=2, strict=(
        ((Fraction(1), Fraction(0)), Fraction(0)),
        ((Fraction(0), Fraction(1)), Fraction(0))))
    w = solve_strict(sys)
    assert w is not None and w[0] > 0 and w[1] > 0
    # contradictory strict pair
    sys = StrictSystem(dim=1, strict=(
        ((Fraction(1),), Fraction(0)), ((Fraction(-1),), Fraction(0))))
    assert solve_strict(sys) is None
    # equality-only system
    sys = StrictSystem(dim=2, equalities=(
        ((Fraction(1), Fraction(1)), Fraction(2)),))
    w = solve_strict(sys)
    assert w is not None and sum(w) == 2
    # infeasible weak pair
    sys = StrictSystem(dim=1, weak=(
        ((Fraction(1),), Fraction(1)), ((Fraction(-1),), Fraction(0))))
    assert solve_strict(sys) is None
    # empty system
    assert solve_strict(StrictSystem(dim=2)) is not None


# ---------------------------------------------------------------------------
# fraction-free simplex vs. the rational tableau: same pivots, same numbers
# ---------------------------------------------------------------------------

def _outcome(simplex, A, b, c):
    try:
        return simplex(A, b, c)
    except _Unbounded:
        return "unbounded"


def _assert_same_as_oracle(A, b, c):
    got = _outcome(_simplex_max, A, b, c)
    want = _outcome(fraction_simplex_max, A, b, c)
    assert got == want, (A, b, c)
    if got != "unbounded":
        assert all(type(x) is Fraction for x in got[1])
        assert type(got[2]) is type(want[2])


def _random_entry(rng):
    k = rng.random()
    if k < 0.3:
        return 0
    if k < 0.65:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def _random_rows(rng, nrows, ncols):
    """Rows with mixed denominators, many zero right-hand sides (degenerate
    ratio ties) and, sometimes, a rescaled copy of an earlier row (a
    redundant equality)."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.25:
            k = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
            a, r = rng.choice(rows)
            rows.append((tuple(k * x for x in a), k * r))
        else:
            rows.append((tuple(_random_entry(rng) for _ in range(ncols)),
                         _random_entry(rng) if rng.random() < 0.5 else 0))
    return rows


SIMPLEX_CASES = [
    # rational entries with different denominators
    ([[Fraction(1, 2), Fraction(1, 3), 0],
      [0, Fraction(2, 5), Fraction(1, 7)]],
     [Fraction(1, 6), Fraction(3, 4)], [1, Fraction(-1, 2), Fraction(1, 3)]),
    # phase-1 ratio tie at 1, broken by the smaller basic index
    ([[1, 0, 1], [1, 1, 0]], [1, 1], [0, 1, 1]),
    # degenerate: every ratio is 0
    ([[1, 1, -1], [1, -1, 1], [2, 0, 0]], [0, 0, 0], [1, 1, 1]),
    # redundant equality: an artificial stays basic at 0
    ([[1, 1], [2, 2]], [1, 2], [1, 0]),
    # negative drive-out pivot, then a redundant row
    ([[-1, 1], [1, -1]], [0, 0], [-1, 0]),
    ([[0, -2, 1], [0, 2, -1]], [0, 0], [0, -1, 0]),
    # infeasible
    ([[1, 1]], [-1], [1, 0]),
    ([[1, -1], [1, -1]], [1, 2], [0, 0]),
    # unbounded phase 2
    ([[1, -1]], [1], [1, 1]),
    # no constraints at all
    ([], [], [0, -1]),
    ([], [], [1]),
]


@pytest.mark.parametrize("A, b, c", SIMPLEX_CASES)
def test_simplex_same_as_rational_tableau_cases(A, b, c):
    _assert_same_as_oracle(A, b, c)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_simplex_same_as_rational_tableau(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 6)
    rows = _random_rows(rng, rng.randint(0, 5), ncols)
    A = [list(a) for a, _ in rows]
    b = [r for _, r in rows]
    c = [_random_entry(rng) for _ in range(ncols)]
    _assert_same_as_oracle(A, b, c)


def _assert_same_witness(sys):
    got = solve_strict(sys)
    with mock.patch.object(exact_numeric, "_simplex_max",
                           fraction_simplex_max):
        want = solve_strict(sys)
    assert got == want, sys
    if got is not None:
        assert all(type(x) is Fraction for x in got)


def test_solve_strict_same_witness_cases():
    one, half = Fraction(1), Fraction(1, 2)
    _assert_same_witness(StrictSystem(dim=2))
    _assert_same_witness(StrictSystem(dim=2, equalities=(
        ((one, one), 2), ((half, half), 1))))                  # redundant
    _assert_same_witness(StrictSystem(dim=1, equalities=(
        ((one,), 1), ((one,), 2))))                            # infeasible
    _assert_same_witness(StrictSystem(dim=2, strict=(
        ((Fraction(1, 3), 0), Fraction(1, 5)),
        ((0, Fraction(-2, 7)), 0))))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_solve_strict_same_witness(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 4)
    groups = [_random_rows(rng, rng.randint(0, k), dim) for k in (2, 3, 3)]
    _assert_same_witness(StrictSystem(dim, *map(tuple, groups)))


# ---------------------------------------------------------------------------
# sign bounds as nonnegative columns vs. the split formulation
# ---------------------------------------------------------------------------

def _assert_same_feasibility_as_split(sys):
    got = solve_strict(sys)
    want = split_solve_strict(sys)
    assert (got is None) == (want is None), (sys, got, want)
    if got is not None:
        assert sys.satisfied_by(got) and all(type(x) is Fraction
                                             for x in got), sys
    return got


def _random_sign_bound(rng, dim):
    """c·x_j ≥ 0 with c > 0, as an int or a Fraction row."""
    j = rng.randrange(dim)
    c = rng.choice((1, 2, Fraction(3, 4), Fraction(5)))
    return tuple(c if i == j else 0 for i in range(dim)), rng.choice(
        (0, Fraction(0)))


def _near_miss(rng, dim):
    """A weak row that is not a sign bound: a negative c, a nonzero rhs or
    a second nonzero entry."""
    j = rng.randrange(dim)
    kind = rng.randrange(3 if dim > 1 else 2)
    a = [0] * dim
    a[j] = rng.choice((-1, Fraction(-2, 3))) if kind == 0 else 1
    if kind == 2:
        a[(j + 1) % dim] = rng.choice((-1, 1))
    return tuple(a), rng.choice((-1, 1, Fraction(1, 2))) if kind == 1 else 0


SIGN_BOUND_CASES = [
    # sign bounds only, with a duplicate: no tableau row, x = 0
    StrictSystem(dim=2, weak=(((1, 0), 0), ((Fraction(1, 2), 0), 0),
                              ((0, 3), Fraction(0)))),
    # a sign bound against an equality: infeasible
    StrictSystem(dim=2, equalities=(((1, 1), -1),),
                 weak=(((1, 0), 0), ((0, 1), 0))),
    # one bounded and one free coordinate meet a strict row
    StrictSystem(dim=2, equalities=(((1, 1), 0),), weak=(((1, 0), 0),),
                 strict=(((1, 0), 0),)),
    # the strict row asks for the bounded coordinate to be negative
    StrictSystem(dim=2, weak=(((2, 0), 0), ((2, 0), 0)),
                 strict=(((-1, 0), 0),)),
    # near misses keep their rows: c < 0, a nonzero rhs, two entries
    StrictSystem(dim=2, weak=(((-1, 0), 0), ((0, 1), 1), ((1, -1), 0)),
                 strict=(((1, 1), Fraction(-7, 2)),)),
    # the all-empty tuple's sweep: e_j ≥ 0 per face, then a signed e_k > 0
    StrictSystem(dim=3, weak=(((1, 0, 0), 0), ((0, 0, 1), 0)) * 3,
                 strict=(((-1, 0, 0), 0),)),
]


@pytest.mark.parametrize("sys", SIGN_BOUND_CASES)
def test_sign_bound_columns_cases(sys):
    _assert_same_feasibility_as_split(sys)


def test_sign_bound_columns_known_witnesses():
    assert solve_strict(SIGN_BOUND_CASES[0]) == (0, 0)
    assert solve_strict(SIGN_BOUND_CASES[1]) is None
    assert solve_strict(SIGN_BOUND_CASES[3]) is None
    x = solve_strict(SIGN_BOUND_CASES[2])
    assert x[0] > 0 and x[1] == -x[0]


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_sign_bound_columns_match_the_split_oracle(seed):
    """Random systems (dim ≤ 4) in which at least half the weak rows are
    sign bounds c·x_j ≥ 0, c > 0, with duplicates; a fifth hold sign
    bounds only.  The rest add near misses, random weak rows, equalities
    and strict rows."""
    rng = random.Random(seed)
    dim = rng.randint(1, 4)
    # up to 2·dim draws of j among dim coordinates, so duplicates occur
    weak = [_random_sign_bound(rng, dim)
            for _ in range(rng.randint(1, 2 * dim))]
    if rng.random() < 0.2:
        sys = StrictSystem(dim, weak=tuple(weak))
        assert _assert_same_feasibility_as_split(sys) == (0,) * dim
        return
    others = [_near_miss(rng, dim) if rng.random() < 0.5 else row
              for row in _random_rows(rng, rng.randint(0, len(weak)), dim)]
    weak += others
    rng.shuffle(weak)
    eqs, strict = (_random_rows(rng, rng.randint(0, k), dim) for k in (2, 2))
    _assert_same_feasibility_as_split(
        StrictSystem(dim, tuple(eqs), tuple(weak), tuple(strict)))


# ---------------------------------------------------------------------------
# GF(2)
# ---------------------------------------------------------------------------

def _gf2_oracle(span, target):
    for mask in itertools.product((0, 1), repeat=len(span)):
        acc = [0] * len(target)
        for take, v in zip(mask, span):
            if take:
                acc = [(a + b) % 2 for a, b in zip(acc, v)]
        if acc == [t % 2 for t in target]:
            return [i for i, take in enumerate(mask) if take]
    return None


def _gf2_solve(rows, target):
    """`gf2_eliminate` on the parity masks of `rows` and `target`."""
    return gf2_eliminate(parity_masks(rows), parity_masks([target])[0])


def test_gf2_matches_enumeration():
    rng = random.Random(13)
    for _ in range(120):
        k = rng.randint(0, 8)
        n = rng.randint(1, 5)
        span = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(k)]
        target = tuple(rng.randint(0, 1) for _ in range(n))
        oracle = _gf2_oracle(span, target)
        solution, kernel = _gf2_solve(span, target)
        assert (solution is None) == (oracle is None)
        if solution is not None:
            assert _gf2_sum(span, solution, n) == [t % 2 for t in target]
        # a basis of the subsets summing to 0: independent, and as many
        # as k − rank, with 2^rank distinct subset sums
        assert all(_gf2_sum(span, z, n) == [0] * n for z in kernel)
        assert len({_xor_all(c) for r in range(len(kernel) + 1)
                    for c in itertools.combinations(kernel, r)}) \
            == 2 ** len(kernel)
        sums = {tuple(_gf2_sum(span, mask, n)) for mask in range(2 ** k)}
        assert len(sums) == 2 ** (k - len(kernel))


def _gf2_sum(span, mask, n):
    acc = [0] * n
    for i, v in enumerate(span):
        if mask >> i & 1:
            acc = [(a + b) % 2 for a, b in zip(acc, v)]
    return acc


def _xor_all(masks):
    out = 0
    for m in masks:
        out ^= m
    return out


def test_gf2_known_cases():
    assert _gf2_solve([(1, 0), (0, 1)], (1, 1)) == (0b11, [])
    assert _gf2_solve([(1, 1, 0), (0, 1, 1)], (1, 0, 1)) == (0b11, [])
    assert _gf2_solve([(1, 1)], (1, 0))[0] is None
    assert _gf2_solve([(1, 0), (1, 0), (0, 1)], (1, 1)) == (0b101, [0b11])
    # rows of other parities than 0/1, and a mask bit per coordinate
    assert _gf2_solve([(3, 0), (2, 5)], (1, 1)) == (0b11, [])
    assert gf2_eliminate([0b01, 0b10], 0b10) == (0b10, [])


def test_unit_vectors():
    assert unit(3, 1) == (0, 1, 0)
    assert all(type(x) is int for x in unit(3, 1))
    with pytest.raises(IndexError):
        _ = unit(2, 5)[5]

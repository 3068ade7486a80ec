"""Unit tests for the oscillatory-multiplier harness."""

import importlib
import itertools
import json
import math
import random

import numpy as np
import pytest
from click.testing import CliRunner

from nh import oscillatory as osc
from nh.cli import EXIT_BOUNDED, main
from nh.engine import FaceTuple, VectorPolynomial
from nh.exact_numeric import rank
from nh.newton_poly import DomainSpec
from nh.parity import is_even, odd_subsets
from nh.oscillatory import (
    _CHUNK_NODES,
    _MAX_MOMENT,
    CELL_TOL,
    ETA_BREAKS,
    LOG_QUARTER,
    LOG_TWO,
    MOMENT_REL_ERR,
    PRUNE_TOL,
    SERIES_TERMS,
    CutoffSpec,
    PieceFamily,
    _Phase,
    _SignSum,
    _amplitudes,
    _box_indices,
    _cell_values,
    _eta_of_log,
    _j_dot_m,
    _lattice_phase,
    _moment,
    _monomial_list,
    _prune_bounds,
    _row_hermite,
    _lattice_coords,
    _series_table,
    adaptive_box,
    decay_check,
    divergence_probe,
    multiplier_sum_probe,
    sigma_groups,
)
from quadrature_oracle import (
    adaptive_box_depth_first,
    amplitudes_per_j,
    cell_values_pointwise,
    complex_exp_integrand,
    cutoff_h,
    dyadic_piece,
    odd_subsets_by_scan,
    partition_deviation,
    phase_integrand,
    prune_bound,
    pv_integral,
    series_piece,
    series_terms_by_scan,
    sum_probe_by_row,
    tensor_rule,
)
from test_acceptance import WORKED_L1, WORKED_L2


def _vp(monomials, n, S, d=1, coeffs=None):
    cmap = {}
    for idx, m in enumerate(sorted(monomials)):
        cmap[(0, m)] = coeffs[idx] if coeffs else 1
    return VectorPolynomial(cmap, d=d, spec=DomainSpec.of(n, S))


def _improper_tuple(p):
    faces = tuple(poly.improper_face()
                  for poly in p.lambda_tuple().polyhedra)
    return FaceTuple(faces, 0, None)


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

def test_cutoff_shape():
    assert CutoffSpec.psi([0.0, 0.3, 0.5]).tolist() == [1.0, 1.0, 1.0]
    assert CutoffSpec.psi([2.0, 2.5, -3.0]).tolist() == [0.0, 0.0, 0.0]
    mid = CutoffSpec.psi(np.linspace(0.6, 1.9, 50))
    assert np.all((mid > 0) & (mid < 1))
    assert np.all(np.diff(mid) < 0)     # decreasing on the glue interval
    u = np.linspace(0.01, 3.0, 200)
    assert np.allclose(cutoff_h(-u), -cutoff_h(u))


def test_cutoff_partition_of_unity():
    rng = random.Random(3)
    samples = [2.0 ** rng.uniform(-25, 25) for _ in range(200)]
    samples += [2.0 ** k for k in range(-25, 26)]
    assert partition_deviation(samples) < 1e-12


# ---------------------------------------------------------------------------
# sign folding
# ---------------------------------------------------------------------------

def test_sigma_groups_cancel_even_sets():
    assert sigma_groups([(2, 1)], 2) == []
    assert sigma_groups([(1, 2)], 2) == []
    assert sigma_groups([(2, 1), (2, 3)], 2) == []


def test_sigma_groups_odd_sets():
    groups = sigma_groups([(1, 1)], 2)
    # all four σ fold onto patterns ±1 with weights ±2
    assert sorted((w, tuple(s)) for w, s in groups) == [
        (-2, (-1.0,)), (2, (1.0,))]
    total = sum(w for w, _ in sigma_groups([(1, 1), (2, 1)], 2))
    assert total == 0   # weights always sum to Σ_σ(−1)^{|σ|} = 0


# ---------------------------------------------------------------------------
# pv integral
# ---------------------------------------------------------------------------

def test_pv_even_monomial_vanishes():
    p = _vp([(2, 1)], 2, [0, 1])
    r = pv_integral(p, [5.0], (1e-4, 1e-4), (1.0, 1.0))
    assert abs(r.value) < 1e-8
    assert r.panels == 0        # cancellation is exact, before quadrature


def test_pv_zero_frequency():
    p = _vp([(1, 1)], 2, [0, 1])
    r = pv_integral(p, [0.0], (0.01, 0.01), (1.0, 1.0))
    assert abs(r.value) < 1e-12


def test_pv_rejects_bad_interval():
    p = _vp([(1, 1)], 2, [0, 1])
    with pytest.raises(ValueError):
        pv_integral(p, [1.0], (0.5, 0.5), (0.25, 1.0))


def test_pv_sign_split_matches_naive_1d():
    """1-d identity: ∫_{a<|t|<b} e^{iξt³} dt/t = 2i ∫_a^b sin(ξt³) dt/t."""
    p = _vp([(3,)], 1, [0])
    xi = 2.0
    a, b = 1e-5, 2.0
    got = pv_integral(p, [xi], (a,), (b,))

    def naive(u):
        return 2j * np.sin(xi * np.exp(3.0 * u[:, 0]))

    ref = adaptive_box_depth_first(naive, [math.log(a)], [math.log(b)])
    assert abs(got.value - ref.value) <= \
        1e-7 + got.abs_error_estimate + ref.abs_error_estimate


def test_pv_log_growth_for_odd_monomial():
    p = _vp([(1, 1)], 2, [0, 1])
    vals = []
    for k in (2, 4, 6):
        r = pv_integral(p, [float(2 ** k)], (1e-3, 1e-3), (1.0, 1.0))
        vals.append(abs(r.value))
    assert vals[0] < vals[1] < vals[2]
    # roughly linear in log ξ: second difference small relative to step
    d1, d2 = vals[1] - vals[0], vals[2] - vals[1]
    assert abs(d2 - d1) < 0.5 * max(d1, d2)


# ---------------------------------------------------------------------------
# adaptive quadrature against the depth-first oracle
# ---------------------------------------------------------------------------

def _eta_product(u):
    """The oracle's pointwise weight ∏_ℓ η(e^{u_ℓ})."""
    return np.prod(CutoffSpec.eta(np.exp(u)), axis=1)


def _random_phase(rng, n):
    k = rng.randint(1, 3)
    monos = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(k)}
    monos = [m for m in monos if any(m)] or [(1,) * n]
    groups = sigma_groups(monos, n)
    if not groups:      # even set: force an odd monomial in
        monos.append((1,) * n)
        groups = sigma_groups(monos, n)
    amps = np.array([rng.choice((-1, 1)) * rng.uniform(1.0, 6.0)
                     / 4.0 ** (n - 1) for _ in monos])
    return _Phase(np.array(monos, dtype=float), amps,
                  _SignSum(monos, n)), groups


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("order", [16, 32])
@pytest.mark.parametrize("weighted", [False, True])
def test_adaptive_box_matches_depth_first(monkeypatch, n, order, weighted):
    """Breadth-first batches accept exactly the cells the depth-first
    oracle accepts; only the summation order differs.  The η-weighted
    cases run on the shell cut at ETA_BREAKS, as the fallback does."""
    monkeypatch.setattr(osc, "_ORDER", order)
    rng = random.Random(100 * n + order + weighted)
    tol = 1e-6 if n == 3 else CELL_TOL      # keeps the 3-d oracle quick
    cuts = ETA_BREAKS if weighted else ()
    if weighted:
        lo, hi = [LOG_QUARTER] * n, [LOG_TWO] * n
    for _ in range(3 if n < 3 else 1):
        if not weighted:
            lo = [rng.uniform(-3.0, 0.0) for _ in range(n)]
            hi = [x + rng.uniform(0.5, 2.5) for x in lo]
        phase, groups = _random_phase(rng, n)
        got = adaptive_box(phase, lo, hi, tol, eta=weighted)
        ref = adaptive_box_depth_first(
            complex_exp_integrand(phase.exponents, phase.amplitudes,
                                  groups),
            lo, hi, tol, order=order,
            weight=_eta_product if weighted else None, cuts=cuts)
        assert got.panels == ref.panels
        assert got.converged == ref.converged
        assert abs(got.value - ref.value) <= 1e-12
        assert abs(got.abs_error_estimate - ref.abs_error_estimate) <= 1e-12
        if weighted:        # the shell was rejected and cut
            assert got.panels >= 1 + 3 ** n


def test_adaptive_box_cell_cap_flags_result(monkeypatch):
    phase = _Phase(np.array([[1.0, 1.0]]), np.array([2000.0]),
                   _SignSum([(1, 1)], 2))
    monkeypatch.setattr(osc, "MAX_CELLS", 7)
    r = adaptive_box(phase, [LOG_QUARTER] * 2, [LOG_TWO] * 2)
    assert not r.converged
    assert 1 <= r.panels <= 7
    assert math.isfinite(r.value.real) and math.isfinite(r.value.imag)
    assert math.isfinite(r.abs_error_estimate)


@pytest.mark.parametrize("n", [2, 3])
def test_cut_cells_count_toward_the_cell_cap(monkeypatch, n):
    """A rejected shell cut at ETA_BREAKS makes 3ⁿ cells, and the cap
    counts them all: below 1 + 3ⁿ the cut is not made and the result is
    flagged unconverged; at 1 + 3ⁿ it is made, and the cap stops the
    bisections that would follow."""
    phase = _Phase(np.ones((1, n)), np.array([2000.0]),
                   _SignSum([(1,) * n], n))
    shell = [LOG_QUARTER] * n, [LOG_TWO] * n
    for cap, panels in ((3, 1), (3 ** n, 1), (1 + 3 ** n, 1 + 3 ** n)):
        monkeypatch.setattr(osc, "MAX_CELLS", cap)
        r = adaptive_box(phase, *shell, eta=True)
        assert (r.panels, r.converged) == (panels, False)
        assert math.isfinite(abs(r.value))


# (Λ, ξ, J, cell ceiling): the (1, 1) control of the probe-sum benchmark
# at amplitudes −4, −8 and −16 (40, 34 and 40 cells), and the criterion-9
# pair at ξ = (0.9, −1.3), J = (2, −1, 2) (30 cells).
_WORKED_PAIR = [[(0, 0, 2), (3, 3, 0)], [(0, 0, 3), (3, 2, 1)]]
_FALLBACK_ROWS = [([[(1, 1)]], (-4.0,), (0, 0), 46),
                  ([[(1, 1)]], (-8.0,), (0, 0), 39),
                  ([[(1, 1)]], (-16.0,), (0, 0), 46),
                  (_WORKED_PAIR, (0.9, -1.3), (2, -1, 2), 35)]


@pytest.mark.parametrize("lams, xi, j, ceiling", _FALLBACK_ROWS,
                         ids=["control-4", "control-8", "control-16",
                              "worked-pair"])
def test_fallback_cells_and_accuracy_on_probe_rows(lams, xi, j, ceiling):
    """Rows the series declines stay within a cell ceiling, and on the
    2-d rows the value agrees with the depth-first oracle on the cut
    shell at tolerance 1e-12 to within CELL_TOL."""
    n = len(j)
    p = VectorPolynomial({(nu, m): 1 for nu, ms in enumerate(lams)
                          for m in ms}, d=len(lams),
                         spec=DomainSpec.of(n, list(range(n))))
    family = PieceFamily(p)
    amps = _amplitudes(family.monos, xi,
                       _j_dot_m(family.monos, np.array([j])))
    got = family.evaluate(amps)
    assert family.paths["fallback"] == 1 and got.converged[0]
    assert family.cells <= ceiling
    if n == 2:
        phase = _Phase(family.expo, amps[0], family.signs)
        ref = adaptive_box_depth_first(
            phase_integrand(phase), [LOG_QUARTER] * n, [LOG_TWO] * n, 1e-12,
            weight=_eta_product, cuts=ETA_BREAKS)
        assert ref.converged
        assert abs(got.values[0] - ref.value) <= CELL_TOL


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("order", [16, 32])
@pytest.mark.parametrize("weighted", [False, True])
def test_separable_cells_match_the_pointwise_oracle(n, order, weighted):
    """The fallback's cell values, with t^m and the tensor weights taken as
    outer products of per-axis factors, agree on every cell with the full
    node grid and the pointwise integrand to 1e-15·2ⁿ·Σ|w|: Σ|w| is the
    cell's weight mass and 2ⁿ bounds the sign-folded integrand, so this is
    a relative error of 1e-15 at every node.  Random sub-boxes of a random
    box (of the shell, with the η weight), more of them than one chunk of
    _CHUNK_NODES holds."""
    rng = random.Random(200 + 10 * n + order + weighted)
    weight = _eta_of_log if weighted else None
    count = 2 * max(1, _CHUNK_NODES // order ** n) + 3
    for _ in range(3):
        phase, _groups = _random_phase(rng, n)
        if weighted:
            lo, hi = np.full(n, LOG_QUARTER), np.full(n, LOG_TWO)
        else:
            lo = np.array([rng.uniform(-3.0, 0.0) for _ in range(n)])
            hi = lo + np.array([rng.uniform(0.5, 2.5) for _ in range(n)])
        ends = np.sort(np.array([[[rng.random() for _ in range(n)]
                                  for _ in range(2)]
                                 for _ in range(count)]), axis=1)
        cell_lo = lo + (hi - lo) * ends[:, 0]
        cell_hi = lo + (hi - lo) * ends[:, 1]
        got = _cell_values(phase.signs.bind(phase.amplitudes),
                           phase.exponents, cell_lo, cell_hi, order, weight)
        ref = cell_values_pointwise(phase_integrand(phase), cell_lo,
                                    cell_hi, order, weight)
        mass = np.array([np.abs(tensor_rule(a, b, order, weight)[1]).sum()
                         for a, b in zip(cell_lo, cell_hi)])
        assert np.all(np.abs(got - ref) <= 1e-15 * 2.0 ** n * mass)


# ---------------------------------------------------------------------------
# dyadic pieces
# ---------------------------------------------------------------------------

def test_piece_zero_frequency():
    p = _vp([(1, 1)], 2, [0, 1])
    r = dyadic_piece(p, (0, 0), [0.0])
    assert abs(r.values[0]) == 0.0


def test_piece_even_tuple_vanishes():
    p = _vp([(2, 1)], 2, [0, 1])
    rng = random.Random(9)
    for _ in range(10):
        j = (rng.randint(0, 6), rng.randint(0, 6))
        xi = [rng.uniform(-4, 4)]
        r = dyadic_piece(p, j, xi)
        assert abs(r.values[0]) < 1e-8 * 2.0


def test_piece_matches_adaptive_reference():
    """A piece must agree with a from-scratch adaptive integration of the
    same η-weighted integrand."""
    rng = random.Random(21)
    p = _vp([(1, 1), (3, 0)], 2, [0, 1])
    family = PieceFamily(p)
    monos = _monomial_list(p)
    groups = sigma_groups([m for _, m, _ in monos], 2)
    for _ in range(6):
        j = (rng.randint(0, 4), rng.randint(0, 4))
        xi = [rng.uniform(-3, 3)]
        got = family.evaluate(amplitudes_per_j(monos, xi, j)[None])
        ref = adaptive_box_depth_first(
            complex_exp_integrand(
                np.array([m for _, m, _ in monos], dtype=float),
                amplitudes_per_j(monos, xi, j), groups),
            [LOG_QUARTER] * 2, [LOG_TWO] * 2, weight=_eta_product)
        assert abs(got.values[0] - ref.value) <= \
            1e-7 + got.errors[0] + ref.abs_error_estimate


def test_piece_scaling_covariance():
    """Single-monomial pieces: (J, ξ) and (0, 2^{−J·m}ξ) are the same
    integral after t → 2^{−J}t."""
    p = _vp([(1, 1)], 2, [0, 1])
    rng = random.Random(4)
    for _ in range(8):
        j = (rng.randint(0, 8), rng.randint(0, 8))
        xi = rng.uniform(0.5, 4.0)
        scaled = xi * 2.0 ** (-float(j[0] + j[1]))
        a = dyadic_piece(p, j, [xi])
        b = dyadic_piece(p, (0, 0), [scaled])
        assert a.values[0] == b.values[0]   # same amplitudes, same rule


def test_prune_bound_is_rigorous():
    p = _vp([(1, 1), (3, 0)], 2, [0, 1])
    monos = _monomial_list(p)
    rng = random.Random(12)
    js = np.array([(rng.randint(-2, 10), rng.randint(-2, 10))
                   for _ in range(15)])
    for _ in range(3):
        xi = [rng.uniform(-2, 2)]
        for j, bound in zip(js, _prune_bounds(monos, xi,
                                              _j_dot_m(monos, js))):
            r = dyadic_piece(p, tuple(j.tolist()), xi)
            assert abs(r.values[0]) <= bound + 1e-7 + r.errors[0]


def _random_j_boxes(rng, n, tries):
    """(monomial list, J box, ξ) on random polynomials with one or two
    components and a random S, so J runs negative off S."""
    for _ in range(tries):
        d = rng.randint(1, 2)
        cmap = {}
        for nu in range(d):
            for _k in range(rng.randint(1, 3)):
                m = tuple(rng.randint(0, 4) for _ in range(n))
                if any(m):
                    cmap[(nu, m)] = rng.choice((1, -2, 3))
        if {nu for nu, _m in cmap} != set(range(d)):
            continue
        S = [j for j in range(n) if rng.random() < 0.5]
        p = VectorPolynomial(cmap, d=d, spec=DomainSpec.of(n, S))
        js = np.array(list(_box_indices(p.spec, rng.randint(0, 6))))
        xi = [rng.choice((1.0, 1e-3, 1e3)) * rng.uniform(-4, 4)
              for _ in range(d)]
        yield _monomial_list(p), js, xi


@pytest.mark.parametrize("n", [1, 2, 3])
def test_prune_bounds_match_per_j_oracle(n):
    """The array bounds over a J box equal the per-J bound bit for bit,
    with S a proper subset (negative J) and several components."""
    for monos, js, xi in _random_j_boxes(random.Random(40 + n), n, 6):
        got = _prune_bounds(monos, xi, _j_dot_m(monos, js))
        want = [prune_bound(monos, xi, tuple(j.tolist()), n) for j in js]
        assert got.tolist() == want


# ---------------------------------------------------------------------------
# the sign-sum kernel, in either form, against the complex exponential
# ---------------------------------------------------------------------------

def _kernel_cases():
    """(n, [(nu, m)], amplitudes): random phases with |φ| ≲ 40 and the
    three unit monomials in n = 3, which give all 8 sign groups; then
    lists on both sides of K ≤ 2r for every n = 1..4, among them
    all-even monomials beside odd ones, an exponent shared by two
    components, and more monomials than twice their rank."""
    rng = random.Random(77)
    lists = [(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [3.0, -7.5, 11.0])]
    for n in (1, 2, 3):
        for _ in range(3):
            monos = sorted({tuple(rng.randint(0, 3) for _ in range(n))
                            for _ in range(rng.randint(1, 4))} - {(0,) * n})
            if not sigma_groups(monos, n):
                monos.append((1,) * n)
            amps = [rng.choice((-1, 1)) * rng.uniform(0.5, 10.0)
                    / 2.0 ** sum(m) for m in monos]
            lists.append((n, monos, amps))
    cases = [(n, [(0, m) for m in monos], amps) for n, monos, amps in lists]
    forms = [           # K ≤ 2r on the left, K > 2r on the right
        (1, [(0, (1,)), (0, (2,))]),
        (1, [(0, (1,)), (0, (3,)), (0, (5,))]),
        (2, [(0, (2, 2)), (0, (1, 0)), (0, (0, 1))]),
        (2, [(0, (2, 0)), (0, (0, 4)), (0, (1, 1)), (0, (3, 1))]),
        (2, [(0, (1, 1)), (1, (1, 1))]),
        (3, [(0, (0, 0, 2)), (0, (3, 3, 0)), (1, (0, 0, 3)),
             (1, (3, 2, 1))]),
        (3, [(0, (1, 0, 0)), (0, (0, 1, 1)), (1, (1, 0, 0)),
             (1, (0, 1, 1)), (1, (1, 1, 1))]),
        (4, [(0, (1, 0, 0, 0)), (0, (0, 1, 0, 0)), (0, (0, 0, 1, 0)),
             (0, (0, 0, 0, 1)), (0, (1, 1, 1, 1))]),
        (4, [(0, (1, 1, 0, 0)), (0, (0, 0, 1, 1)), (0, (1, 1, 1, 1)),
             (0, (3, 1, 0, 0)), (0, (0, 0, 1, 3))]),
    ]
    rng = random.Random(78)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            pts = sorted({tuple(rng.randint(0, 3) for _ in range(n))
                          for _ in range(rng.randint(1, 6))} - {(0,) * n})
            if is_even(pts):
                pts.append((1,) * n)
            forms.append((n, [(0, m) for m in pts]))
    for n, terms in forms:
        amps = [rng.choice((-1, 1)) * rng.uniform(0.5, 10.0) / 2.0 ** sum(m)
                for _nu, m in terms]
        cases.append((n, terms, amps))
    return cases


@pytest.mark.parametrize("n,monos,amps", _kernel_cases())
def test_sign_group_kernel_matches_complex_exp(n, monos, amps):
    """The kernel, in the form that K ≤ 2r picks (the sign groups or the
    parity form), against the sign-group sum of complex exponentials."""
    d = 1 + max(nu for nu, _m in monos)
    p = VectorPolynomial({t: 1 for t in monos}, d=d,
                         spec=DomainSpec.of(n, list(range(n))))
    family = PieceFamily(p)
    points = [m for _nu, m, _c in family.monos]
    r, _subsets = odd_subsets_by_scan(points, n)
    assert family.signs.parity == (len(points) <= 2 * r)
    amp_of = dict(zip(monos, amps))
    amps = np.array([amp_of[nu, m] for nu, m, _c in family.monos])
    _assert_kernel_matches_complex_exp(family, amps,
                                       np.random.default_rng(n))


def _assert_kernel_matches_complex_exp(family, amps, rng):
    """The η-weighted cell values of `_cell_values` at orders 8, 16 and 32
    on the shell and on its 2ⁿ halves (for n = 4 those of at most 2^16
    nodes), and the pointwise integrand on more nodes than one block,
    agree with Σ_g w_g exp(iφ_g) to 1e-13, cell by cell."""
    n = family.n
    oracle = complex_exp_integrand(
        family.expo, amps,
        sigma_groups([m for _nu, m, _c in family.monos], n))
    parts = family.signs.bind(amps)
    edges = np.linspace(LOG_QUARTER, LOG_TWO, 3)
    corners = np.array(list(itertools.product(range(2), repeat=n)))
    shells = ((np.full((1, n), LOG_QUARTER), np.full((1, n), LOG_TWO)),
              (edges[corners], edges[corners + 1]))
    for order in (8, 16, 32):
        for lo, hi in shells:
            if n == 4 and len(lo) * order ** n > 2 ** 16:
                continue
            got = _cell_values(parts, family.expo, lo, hi, order,
                               _eta_of_log)
            for cell_lo, cell_hi, value in zip(lo, hi, got):
                pts, wts = tensor_rule(cell_lo, cell_hi, order, _eta_of_log)
                assert abs(value - np.dot(wts, oracle(pts))) <= 1e-13, \
                    (order, len(lo))

    pts = rng.uniform(LOG_QUARTER, LOG_TWO, size=(2 * _CHUNK_NODES + 5, n))
    got = phase_integrand(_Phase(family.expo, amps, family.signs))(pts)
    assert np.max(np.abs(got - oracle(pts))) <= 1e-13


@pytest.mark.parametrize("n", [3, 4])
def test_declined_rows_reach_the_fallback_once(monkeypatch, n):
    """In one batch at CELL_TOL, each distinct row that the series
    declines reaches `adaptive_box` once, on the shell with the η weight
    (so cut at ETA_BREAKS, and of order 32 at every swing) and the
    caller's tolerance, and its result goes to every row equal to it;
    series rows never reach it, `paths` counts every row and `cells` the
    cells of every call.  No rounding bound meets a tolerance of 1e-20, so there the
    series declines every row, zero amplitudes included."""
    p = VectorPolynomial({(0, (1,) * n): 1, (0, (2,) + (1,) * (n - 1)): 1},
                         d=1, spec=DomainSpec.of(n, list(range(n))))
    family = PieceFamily(p)
    calls = []
    assert ETA_BREAKS == (math.log(0.5), 0.0) and osc._ORDER == 32

    def marked(phase, lo, hi, tol_cell=CELL_TOL, eta=False):
        assert (lo, hi) == ([LOG_QUARTER] * n, [LOG_TWO] * n)
        assert eta is True
        calls.append((phase.amplitudes.tobytes(), tol_cell))
        k = len(calls)
        return osc.QuadratureResult(complex(k, -k), 0.25 * k, k, k % 2 == 0)

    monkeypatch.setattr(osc, "adaptive_box", marked)
    direction = np.array([0.75, -0.25])
    scale = np.dot(np.abs(direction), family.swing_scale)
    small = [direction * s / scale for s in (0.01, 0.5)]
    large = [direction * s / scale for s in (12.0, 20.0, 20.5, 40.0)]
    amps = np.array(small + large + large[::-1])
    got = family.evaluate(amps, CELL_TOL)
    assert family.paths == {"series": 2, "fallback": 8}
    assert family.cells == 1 + 2 + 3 + 4
    assert [key for key, _t in calls] == [r.tobytes() for r in large]
    assert {t for _key, t in calls} == {CELL_TOL}
    for i, row in enumerate(amps):
        k = next((k for k, call in enumerate(calls, 1)
                  if call[0] == row.tobytes()), None)
        if k is None:
            assert i < len(small) and got.converged[i]
            continue
        assert (got.values[i], got.errors[i], got.converged[i]) == \
            (complex(k, -k), 0.25 * k, k % 2 == 0)

    calls.clear()
    got = family.evaluate(np.zeros((3, 2)), 1e-20)
    assert [t for _key, t in calls] == [1e-20]
    assert got.values.tolist() == [1 - 1j] * 3
    assert family.paths == {"series": 2, "fallback": 11}
    family.evaluate(np.zeros((3, 2)))
    assert len(calls) == 1
    assert family.paths == {"series": 5, "fallback": 11}


# ---------------------------------------------------------------------------
# the moment series
# ---------------------------------------------------------------------------

def test_moments_of_the_cutoff():
    """M(0) = ∫η(t)dt/t = log 2 (η telescopes) and M(1) = ∫η(t)dt = 5/8
    (ψ's glue on [1/2, 2] is symmetric about 5/4, so ∫ψ = 5/4), each to
    1e-15; and μ(a) = 2^{−a}M(a) agrees with a rule of twice the panels
    to MOMENT_REL_ERR on every a ≤ 64 and every 16th a up to
    _MAX_MOMENT."""
    assert abs(_moment(0) - math.log(2.0)) <= 1e-15
    assert abs(2.0 * _moment(1) - 0.625) <= 1e-15
    edges = np.concatenate([np.linspace(0.25, 0.5, 129),
                            np.linspace(0.5, 1.0, 129)[1:],
                            np.linspace(1.0, 2.0, 129)[1:]])
    rules = [tensor_rule([a], [b], 16, lambda t: CutoffSpec.eta(t) / t)
             for a, b in zip(edges[:-1], edges[1:])]
    half = 0.5 * np.concatenate([pts.ravel() for pts, _w in rules])
    wts = np.concatenate([w for _p, w in rules])
    for a in sorted(set(range(65)) | set(range(0, _MAX_MOMENT + 1, 16))):
        fine = math.fsum(wts * half ** a)
        assert abs(_moment(a) - fine) <= MOMENT_REL_ERR * fine, a


def _random_monomials(rng, n, count):
    """`count` distinct nonzero exponents in {0..3}ⁿ ({0..6} for n = 1)
    whose list is odd."""
    top = 6 if n == 1 else 3
    while True:
        monos = sorted({tuple(rng.randint(0, top) for _ in range(n))
                        for _ in range(count)})
        if (len(monos) == count and all(any(m) for m in monos)
                and not is_even(monos)):
            return monos


@pytest.mark.parametrize("n", [1, 2, 3])
def test_series_table_matches_the_scan(n):
    """The cached term table, degree by degree, holds exactly the p with
    all-odd Σ p_k m_k that a scan of every p finds, with the same
    coefficients; it stays within SERIES_TERMS terms, and a list of more
    odd subsets than that gets degree 0 alone."""
    many = tuple((k,) * n for k in range(1, 15))       # 2^13 odd subsets
    assert _series_table(many, n).ends == (0,)
    rng = random.Random(70 + n)
    for count in range(1, 6):
        monos = _random_monomials(rng, n, count)
        table = _series_table(tuple(monos), n)
        assert table.ends[-1] == len(table.coef) <= SERIES_TERMS
        top = len(table.ends) - 1
        degree = min(top, int(2e5 ** (1 / count)) - 1)
        scan = series_terms_by_scan(monos, n, degree)
        powers = table.index - len(table.ends) * np.arange(count)
        got = {tuple(map(int, p)): c for p, c in zip(
            powers[:table.ends[degree]], table.coef)}
        assert got.keys() == scan.keys()
        for p, c in scan.items():
            assert abs(got[p] - c) <= 1e-14 * abs(c), p
        assert [sum(1 for p in scan if sum(p) <= d)
                for d in range(degree + 1)] == list(table.ends[:degree + 1])
        assert list(powers.sum(axis=1)) == sorted(powers.sum(axis=1))


def _series_range(family, direction) -> float:
    """The largest swing, to 1e-6, up to which the series takes the
    pieces with amplitudes along `direction` (its bound grows with s),
    bisected on one-row `evaluate` calls by the path count; a declined
    piece gets a stub in place of `adaptive_box`, and `paths` is
    restored."""
    scale = np.dot(np.abs(direction), family.swing_scale)
    paths = dict(family.paths)
    lo, hi = 0.0, 64.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(osc, "adaptive_box", lambda *args, **kwargs:
                      osc.QuadratureResult(0j, 0.0, 1))
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            series = family.paths["series"]
            family.evaluate((direction * mid / scale)[None], CELL_TOL)
            if family.paths["series"] == series:
                hi = mid
            else:
                lo = mid
    family.paths = paths
    return lo


@pytest.mark.parametrize("n", [1, 2, 3])
def test_series_matches_the_depth_first_oracle(n):
    """On random lists (K ≤ 5), pieces whose swings spread over the range
    the series takes agree with the depth-first oracle to the series
    bound plus the oracle's error estimate.  That range reaches s = 1 on
    every list, and a piece of swing 1e-3 meets the bound at degree 2 or
    less."""
    rng = random.Random(80 + n)
    # the 3-d oracle takes seconds a piece: one piece at the range's end
    fractions = (0.1, 0.5, 1.0) if n < 3 else (1.0,)
    for count in range(1, 6) if n < 3 else (2, 4):
        monos = _random_monomials(rng, n, count)
        p = VectorPolynomial({(0, m): rng.choice((1, -2, 3)) for m in monos},
                             d=1, spec=DomainSpec.of(n, list(range(n))))
        family = PieceFamily(p)
        groups = sigma_groups([m for _, m, _ in family.monos], n)
        direction = np.array([rng.uniform(0.2, 1.0) * rng.choice((-1, 1))
                              for _ in monos])
        top = _series_range(family, direction)
        assert top >= 1.0
        scale = np.dot(np.abs(direction), family.swing_scale)
        small = family.evaluate((direction * 1e-3 / scale)[None])
        # the degree-D tail is H_MASSⁿ·s^{D+1}/(D+1)!, and the rounding
        # part is far below the degree-3 tail
        assert small.errors[0] >= osc.H_MASS ** n * 1e-9 / 6.0
        for fraction in fractions:
            amps = direction * fraction * top / scale
            got = family.evaluate(amps[None])
            ref = adaptive_box_depth_first(
                complex_exp_integrand(family.expo, amps, groups),
                [LOG_QUARTER] * n, [LOG_TWO] * n,
                weight=_eta_product, order=32)
            assert abs(got.values[0] - ref.value) <= \
                got.errors[0] + ref.abs_error_estimate
        assert family.paths["series"] == 1 + len(fractions)


# Swings of the batch rows: from amplitudes near 1e-300 through the series
# range to past it, where the fallback takes the piece at a tolerance of
# 1e-4.
_BATCH_SWINGS = (1e-300, 1e-3, 0.5, 2.0, 6.0, 12.0, 24.0, 32.0, 48.0,
                 1000.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_evaluate_matches_the_one_piece_oracle(monkeypatch, n):
    """On random lists (K ≤ 5), one batched `evaluate` call agrees row by
    row with the scalar series oracle and with one-row calls: the same
    path for every row, series values within 1e-15·H_MASSⁿ·e^s of the
    oracle, fallback rows bit for bit, and the path counts of the batch
    equal the sum over the one-row calls.  A row with one amplitude near
    1e-300 and the others of a moderate swing is in every batch, and
    every batch holds rows of both paths.  The series rows
    gathered one row per block give the same values within that bound."""
    rng = random.Random(90 + n)
    tol = 1e-4
    for count in range(1, 6):
        monos = _random_monomials(rng, n, count)
        p = VectorPolynomial({(0, m): rng.choice((1, -2, 3)) for m in monos},
                             d=1, spec=DomainSpec.of(n, list(range(n))))
        family = PieceFamily(p)
        rows = []
        for swing in _BATCH_SWINGS:
            direction = np.array([rng.uniform(0.2, 1.0) * rng.choice((-1, 1))
                                  for _ in monos])
            scale = np.dot(np.abs(direction), family.swing_scale)
            rows.append(direction * swing / scale)
        mixed = rows[3].copy()
        mixed[0] = 1e-300
        rows.append(mixed)
        rng.shuffle(rows)
        amps = np.array(rows)

        paths, singles = [], []
        for row in amps:
            before = dict(family.paths)
            single = family.evaluate(row[None], tol)
            singles.append((single.values[0], single.errors[0],
                            single.converged[0]))
            paths.append(next(key for key, used in family.paths.items()
                              if used > before[key]))
        summed = dict(family.paths)
        family.paths = dict.fromkeys(summed, 0)
        batch = family.evaluate(amps, tol)
        assert family.paths == summed
        assert set(paths) == {"series", "fallback"}

        got_rows = zip(batch.values, batch.errors, batch.converged)
        for row, path, single, got in zip(amps, paths, singles, got_rows):
            scaled = row * family.swing_scale
            swing = float(np.sum(np.abs(scaled)))
            oracle = series_piece(family, scaled, swing, tol)
            assert (path == "series") == (oracle is not None)
            if oracle is None:
                assert got == single
                continue
            value, err, converged = got
            assert converged
            assert err == oracle.abs_error_estimate
            assert abs(value - oracle.value) <= \
                1e-15 * osc.H_MASS ** n * math.exp(swing)

        series = [i for i, path in enumerate(paths) if path == "series"]
        with monkeypatch.context() as patch:
            patch.setattr(osc, "_GATHER_ELEMENTS", 1)
            blocked = family.evaluate(amps[series], tol)
        for i, got in zip(series, blocked.values):
            swing = float(np.sum(np.abs(amps[i] * family.swing_scale)))
            assert abs(got - batch.values[i]) <= \
                1e-15 * osc.H_MASS ** n * math.exp(swing)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_series_bounds_match_the_one_piece_oracle(n):
    """Over 400 rows of swings from 1e-6 to 50 on random lists (K ≤ 5),
    at CELL_TOL and at 1e-4, the batch takes the series on exactly the
    rows the scalar oracle takes it on, with the same error bound bit
    for bit: the e^s of the rounding bound is the same double."""
    rng = random.Random(70 + n)
    for count in range(1, 6):
        monos = _random_monomials(rng, n, count)
        p = VectorPolynomial({(0, m): rng.choice((1, -2, 3)) for m in monos},
                             d=1, spec=DomainSpec.of(n, list(range(n))))
        family = PieceFamily(p)
        scaled = np.array([
            [rng.uniform(0.2, 1.0) * rng.choice((-1, 1)) for _ in monos]
            for _ in range(400)])
        scaled *= (np.exp(np.linspace(math.log(1e-6), math.log(50.0), 400))
                   / np.sum(np.abs(scaled), axis=1))[:, None]
        swing = np.sum(np.abs(scaled), axis=1)
        for tol in (CELL_TOL, 1e-4):
            degree, bound = family._series_degrees(scaled, swing, tol)
            for row, s, got_degree, got_bound in zip(scaled, swing.tolist(),
                                                     degree, bound):
                oracle = series_piece(family, row, s, tol)
                assert (got_degree >= 0) == (oracle is not None)
                if oracle is not None:
                    assert got_bound == oracle.abs_error_estimate


# ---------------------------------------------------------------------------
# the two forms of the sign sum, and the rule that picks one
# ---------------------------------------------------------------------------

def test_odd_subsets_and_the_form_rule():
    """On random monomial lists (repeats allowed): the GF(2) enumeration
    equals the 2^K subset scan, there are 2^r sign groups and 2^{K−r} odd
    subsets (none of either exactly when the list is even), and the
    parity form is picked iff K ≤ 2r."""
    rng = random.Random(8)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 4)
        pts = [tuple(rng.randint(0, 4) for _ in range(n))
               for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.3:
            pts.append(rng.choice(pts))         # a repeated exponent
        r, subsets = odd_subsets_by_scan(pts, n)
        got_r, odd = odd_subsets(pts, n)
        assert (got_r, sorted(odd)) == (r, subsets)
        even = is_even(pts)
        assert len(sigma_groups(pts, n)) == (0 if even else 2 ** r)
        assert len(subsets) == (0 if even else 2 ** (len(pts) - r))
        signs = _SignSum(pts, n)
        assert signs.rank == r
        assert signs.parity == (len(pts) <= 2 * r)
        assert signs.empty == even
        seen.add((signs.parity, even))
    assert len(seen) == 4       # both forms, odd and even lists


def test_many_monomials_of_low_rank_take_the_sign_groups_at_once():
    """n = 1 with 40 odd monomials: r = 1, so the 2^39 odd subsets are
    never drawn and the sign groups (G = 2) are built at once."""
    pts = [(2 * k + 1,) for k in range(40)]
    signs = _SignSum(pts, 1)
    assert (signs.rank, signs.parity, signs.empty) == (1, False, False)
    assert signs.gw.tolist() == [-1.0, 1.0] and signs.sgn.shape == (40, 2)


def test_even_list_has_no_terms_in_either_form():
    for n, pts in ((2, [(2, 0), (0, 2)]), (2, [(2, 1), (2, 3), (4, 1)]),
                   (3, [(1, 1, 0)])):
        p = _vp(pts, n, list(range(n)))
        family = PieceFamily(p)
        assert family.trivial and sigma_groups(pts, n) == []
        got = family.evaluate(np.ones((1, len(pts))))
        assert got.values[0] == 0.0 and got.errors[0] == 0.0
        assert family.paths["series"] == 1


@pytest.mark.parametrize("n,points,parity", [
    (2, [(1, 1)], True),
    (2, [(1, 1), (3, 3), (5, 5)], False),
    (3, [(1, 1, 1), (3, 3, 3)], True),
    (3, [(1, 1, 1), (1, 2, 3)], True),
    (3, [(1, 1, 1), (3, 3, 3), (5, 5, 5)], False),
])
def test_lattice_phase_matches_complex_exp(n, points, parity):
    """The divergence probe's phase runs on lattice coordinates α but
    takes its terms from the original exponents; on 2·_CHUNK_NODES+5
    nodes it agrees with Σ_g w_g exp(iφ_g(α)) to 1e-13."""
    p = _vp(points, n, list(range(n)), coeffs=[1, -2, 3][:len(points)])
    phase, m_rank = _lattice_phase(p, _improper_tuple(p), [0.75])
    assert phase.signs.parity == parity
    assert phase.exponents.shape == (len(points), m_rank)
    oracle = complex_exp_integrand(phase.exponents, phase.amplitudes,
                                   sigma_groups(sorted(points), n))
    rng = np.random.default_rng(n + len(points))
    pts = rng.uniform(-3.0, 0.5, size=(2 * _CHUNK_NODES + 5, m_rank))
    got = phase_integrand(phase)(pts)
    assert np.max(np.abs(got - oracle(pts))) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_amplitudes_match_per_j_oracle(n):
    """The amplitudes over a J box equal the per-J loop bit for bit, with
    S a proper subset (negative J), several components, and J large
    enough to clip the exponent at ±500."""
    rng = random.Random(60 + n)
    for monos, js, xi in _random_j_boxes(rng, n, 8):
        js = js * rng.choice((1, 60))
        got = _amplitudes(monos, xi, _j_dot_m(monos, js))
        want = [amplitudes_per_j(monos, xi, tuple(j.tolist())).tolist()
                for j in js]
        assert got.tolist() == want
    monos = _monomial_list(_vp([(1, 1), (3, 0)], 2, [0, 1]))
    got = _amplitudes(monos, [0.3], np.zeros((1, len(monos))))[0]
    assert got.tolist() == amplitudes_per_j(monos, [0.3]).tolist()


# ---------------------------------------------------------------------------
# lattice normal form
# ---------------------------------------------------------------------------

def test_row_hermite_roundtrip():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        rows = [[rng.randint(0, 6) for _ in range(n)] for _ in range(k)]
        if all(all(x == 0 for x in r) for r in rows):
            continue
        basis = _row_hermite(rows)
        for r in rows:
            if all(x == 0 for x in r):
                continue
            coords = _lattice_coords(r, basis)
            rebuilt = [0] * n
            for c, b in zip(coords, basis):
                rebuilt = [x + c * y for x, y in zip(rebuilt, b)]
            assert rebuilt == list(r)


def test_lattice_coords_rejects_outside():
    basis = _row_hermite([[2, 0], [0, 2]])
    with pytest.raises(ValueError):
        _lattice_coords([1, 0], basis)


# ---------------------------------------------------------------------------
# probes (small versions; the acceptance gate runs the full protocol)
# ---------------------------------------------------------------------------

def _witness_tuple(p, vertex):
    poly = p.lambda_tuple().polyhedra[0]
    face = poly.face_by_key([vertex], [])
    assert face is not None
    return FaceTuple((face,), 1, None)


def test_divergence_probe_odd_vertex():
    p = _vp([(1, 1)], 2, [0, 1])
    ft = _witness_tuple(p, (1, 1))
    seq = [((2.0 ** -k, 2.0 ** -k), (1.0, 1.0)) for k in range(4, 11)]
    res = divergence_probe(p, ft, [1.0], seq)
    assert res.slope > 0.05
    assert res.r_squared > 0.95
    assert not res.inconclusive
    assert len(res.rows) == len(seq)


def test_divergence_probe_even_control():
    p = _vp([(2, 2)], 2, [0, 1])
    ft = _witness_tuple(p, (2, 2))
    seq = [((2.0 ** -k, 2.0 ** -k), (1.0, 1.0)) for k in range(4, 9)]
    res = divergence_probe(p, ft, [1.0], seq)
    assert abs(res.slope) < 1e-2
    assert all(v == 0.0 for _x, v, _f in res.rows)


def test_decay_even_set_zero_table():
    p = _vp([(1, 2)], 2, [0, 1])
    res = decay_check(p, (1, 1), [100.0], k_max=6)
    assert len(res.rows) == 7
    assert all(v == 0.0 for _k, v, _b in res.rows)


def test_decay_odd_monomial():
    p = _vp([(1, 1)], 2, [0, 1])
    res = decay_check(p, (1, 1), [100.0], k_max=8)
    vals = [v for _k, v, _b in res.rows]
    assert res.delta >= 0.05
    # decaying beyond the stationary scale, and below the fitted envelope
    assert vals[-1] < max(vals)
    for _k, v, bound in res.rows:
        assert v <= bound * (1 + 1e-9) + 1e-13


def test_decay_requires_disjoint():
    p = VectorPolynomial(
        {(0, (1, 1)): 1, (1, (1, 1)): 1}, d=2,
        spec=DomainSpec.of(2, [0, 1]))
    with pytest.raises(ValueError):
        decay_check(p, (1, 1), [1.0, 1.0])


def test_sum_probe_even_monomial_zero():
    p = _vp([(2, 1)], 2, [0, 1])
    res = multiplier_sum_probe(p, [[0.7], [-1.3]], radius=5)
    assert res.max_sum == 0.0
    assert res.rows[-1][0] == 5
    assert all(r1 <= r2 for (_a, r1, _s), (_b, r2, _s2)
               in zip(res.rows, res.rows[1:]))


def test_sum_probe_reports_nested_radii():
    p = _vp([(1, 1)], 2, [0, 1])
    res = multiplier_sum_probe(p, [[0.5]], radius=4, report_radii=[2, 4])
    assert [r for r, _v, _s in res.rows] == [2, 4]
    assert res.rows[0][1] <= res.rows[1][1]
    assert res.max_sum == res.rows[1][1]
    assert res.skipped_bound >= 0.0


def _rank_deficient_list(rng, n: int, top: int, degree: int):
    """A random odd polynomial in n variables whose exponents span a
    lattice of rank r < n: combinations, with coefficients in 0..top, of
    r random rows of {0..top}ⁿ, each of total degree at most `degree`."""
    while True:
        base = [[rng.randint(0, top) for _ in range(n)]
                for _ in range(rng.randint(1, n - 1))]
        monos = {tuple(sum(c * b[axis] for c, b in zip(coefs, base))
                       for axis in range(n))
                 for coefs in ([rng.randint(0, top) for _ in base]
                               for _ in range(rng.randint(1, 3)))}
        monos = sorted(m for m in monos if any(m))
        if monos and not is_even(monos) and rank(monos) < n \
                and max(map(sum, monos)) <= degree:
            return VectorPolynomial(
                {(0, m): rng.choice((1, -2, 3)) for m in monos}, d=1,
                spec=DomainSpec.of(n, list(range(n))))


def test_sum_probe_evaluates_each_distinct_row_once(monkeypatch):
    """On the (1, 1) control at ξ ∈ {16, 64} and on random rank-deficient
    lists (n ≤ 3), whose pieces share amplitude rows, the probe's partial
    sums, skipped bound, unconverged count and piece counts equal (==)
    those of one-row `evaluate` calls.  Per ξ, `adaptive_box` is entered
    once per distinct row that the series declines.  (The 3-d lists
    keep small exponents, ξ and radius: a 3-d fallback piece can take a
    second.)"""
    rng = random.Random(17)
    cases = [(_vp([(1, 1)], 2, [0, 1]), [[16.0], [64.0]], 3)]
    cases += [(_rank_deficient_list(rng, 2, 3, 6),
               [[rng.choice((-1, 1)) * rng.uniform(1.0, 16.0)]], 3)
              for _ in range(4)]
    cases += [(_rank_deficient_list(rng, 3, 1, 3),
               [[rng.choice((-1, 1)) * rng.uniform(1.0, 4.0)]], 1)]
    fallback = []
    box = osc.adaptive_box

    def count_fallback(phase, *args, **kwargs):
        fallback.append(phase.amplitudes.tobytes())
        return box(phase, *args, **kwargs)

    monkeypatch.setattr(osc, "adaptive_box", count_fallback)
    shared = 0
    for p, xis, radius in cases:
        radii = list(range(radius + 1))
        # all ξ in one probe, then one ξ at a time for the call counts
        groups = [[xi] for xi in xis]
        for group in groups if len(xis) == 1 else [xis] + groups:
            fallback.clear()
            res = multiplier_sum_probe(p, group, radius, radii)
            once = list(fallback)
            fallback.clear()
            assert (res.partial_sums, res.skipped_bound, res.unconverged,
                    res.pieces) == sum_probe_by_row(p, group, radius, radii)
            if len(group) > 1:
                continue
            assert len(set(once)) == len(once)
            assert set(once) == set(fallback)
            shared += len(fallback) - len(once)
    assert shared > 0       # some rows were evaluated once for many pieces


def test_every_monomial_lies_on_the_improper_faces():
    """The improper face N(Λ_ν) holds every point of Λ_ν: the monomials
    on the improper faces are all of `PieceFamily(p).monos`, and the
    least point of each is the least point of the support that
    `decay_check` scales by.  On random polynomials (n ≤ 4, d ≤ 3, zero
    exponents and lower-dimensional supports included)."""
    rng = random.Random(31)
    for _ in range(200):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        cmap = {(nu, tuple(rng.randint(0, 3) for _ in range(n))):
                rng.choice((-3, -1, 1, 2))
                for nu in range(d) for _ in range(rng.randint(1, 4))}
        spec = DomainSpec.of(n, [j for j in range(n) if rng.random() < 0.5])
        p = VectorPolynomial(cmap, d=d, spec=spec)
        faces = _improper_tuple(p).faces
        assert PieceFamily(p).monos == _monomial_list(
            p, [set(f.lambda_points()) for f in faces])
        assert [min(p.support(nu)) for nu in range(d)] == \
            [f.lambda_points()[0] for f in faces]


def _forbid_hull_code(monkeypatch):
    """Make `build_newton`, `enumerate_faces` and `solve_strict` raise at
    every nh binding."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a probe reached hull/lattice/LP code")

    for module in ("nh.cli", "nh.engine", "nh.newton_poly",
                   "nh.exact_numeric", "nh.oscillatory", "nh.parity"):
        mod = importlib.import_module(module)
        for name in ("build_newton", "enumerate_faces", "solve_strict"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, forbidden)


_WORKED_PAIR = VectorPolynomial(
    {(nu, m): 1 for nu, pts in enumerate([WORKED_L1, WORKED_L2])
     for m in pts}, d=2, spec=DomainSpec.of(3, [0, 1, 2]))


def _sums_by_piece(p, xi, radius: int) -> dict:
    """Σ_{|J|≤r} |I_J(ξ)| for r = 0..radius, one `dyadic_piece` per J of
    the box, pruned pieces counted as 0."""
    monos = _monomial_list(p)
    js = np.array(list(_box_indices(p.spec, radius)), dtype=np.int64)
    bounds = _prune_bounds(monos, xi, _j_dot_m(monos, js))
    vals = np.array([0.0 if bound < PRUNE_TOL
                     else abs(dyadic_piece(p, tuple(j), xi).values[0])
                     for j, bound in zip(js.tolist(), bounds)])
    norm = np.abs(js).max(axis=1)
    return {r: float(np.sum(vals[norm <= r])) for r in range(radius + 1)}


def test_sum_probe_builds_no_polyhedra(monkeypatch):
    """`multiplier_sum_probe` reaches no hull, face-lattice or LP code at
    any binding, and on the criterion-9 pair and the (1, 1) control at
    radius 3 it gives the partial sums of one piece at a time."""
    control = _vp([(1, 1)], 2, [0, 1])
    cases = [(_WORKED_PAIR, [[0.2, -0.1], [-0.05, 0.25]]),
             (control, [[64.0]])]
    want = [[_sums_by_piece(p, xi, 3) for xi in xis] for p, xis in cases]
    _forbid_hull_code(monkeypatch)
    for (p, xis), sums in zip(cases, want):
        res = multiplier_sum_probe(p, xis, radius=3, report_radii=range(4))
        assert res.pieces["series"] + res.pieces["fallback"] > 0
        for got, ref in zip(res.partial_sums, sums):
            assert got.keys() == ref.keys()
            for r, value in ref.items():
                assert abs(got[r] - value) <= 1e-15 * max(value, 1.0), r


def test_decay_probe_builds_no_polyhedra(monkeypatch, tmp_path):
    """`decay_check` and `nh probe-decay` reach no hull, face-lattice or
    LP code at any binding.  On the criterion-9 pair along (1, 1, 1) each
    row holds the value of one piece at a time, and its envelope scales
    by the least point of each improper face."""
    p, ray, xi, k_max = _WORKED_PAIR, (1, 1, 1), [0.2, -0.1], 5
    values = [abs(dyadic_piece(p, (k,) * 3, xi).values[0])
              for k in range(k_max + 1)]
    least = [f.lambda_points()[0] for f in _improper_tuple(p).faces]
    args = [min(abs(x) * 2.0 ** (-k * sum(m)) for x, m in zip(xi, least))
            for k in range(k_max + 1)]
    _forbid_hull_code(monkeypatch)
    res = decay_check(p, ray, xi, k_max=k_max)
    for (k, value, bound), want, arg in zip(res.rows, values, args):
        assert abs(value - want) <= 1e-15 * max(want, 1.0), k
        assert bound == res.constant * min(arg ** -res.delta, 1.0)

    payload = {"n": 2, "S": [1, 2], "lambda": [[[1, 1]]],
               "mode": "probe-decay", "xi": [100.0], "k_max": 6}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    out = CliRunner().invoke(main, ["probe-decay", "--input", str(path)])
    assert out.exit_code == EXIT_BOUNDED, out.output
    assert len(json.loads(out.output)["table"]) == 7

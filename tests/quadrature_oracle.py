"""Reference quadrature pieces for the oscillatory tests.

- A depth-first, one-cell-at-a-time adaptive tensor Gauss–Legendre rule
  with the cutoff weight applied pointwise.  `nh.oscillatory.adaptive_box`
  refines breadth-first in batches and applies a separable weight per
  axis; the two use the same accept test and the same bisection, so they
  accept the same cells and differ only in summation order.
- A phase's sign-folded integrand at given nodes, with t^m = exp(u·e_k)
  from the full exponent sum at each node, and the tensor rule's value on
  a batch of cells from the full node grid, against which the fallback's
  cells, built from per-axis factors, are checked cell by cell.
- The sign-group integrand Σ_g w_g exp(i·φ_g) as one complex exponential
  per group, against which both forms of the real-arithmetic sign-sum
  kernel are checked.
- The odd subsets of a monomial list by a scan of all 2^K subsets,
  against which the GF(2) enumeration of the parity form is checked.
- The per-J prune bound and the per-J amplitudes, against which the array
  versions over a whole J box are checked bit for bit.
- The terms of the moment series by a scan of every exponent vector p up
  to a degree, against which the cached term table is checked.
- One piece's moment series by a degree-by-degree loop over its error
  bound, evaluated with every power the table holds, against which the
  batched series of `PieceFamily.evaluate` is checked row by row.
- The sum probe with every unpruned piece from its own one-row
  `evaluate` call, against which the probe's batches, which evaluate a
  row shared by several pieces once, are checked bit for bit.
- Fixtures built on the harness: the odd cutoff h(u) = η(u)/u and the
  partition-of-unity deviation of η, the σ-folded principal-value integral
  over an annulus box, a single dyadic piece, and the polynomial P_F of
  the monomials on a face tuple, on which a face's pieces are taken.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from nh.engine import VectorPolynomial
from nh.oscillatory import (
    _CHUNK_NODES,
    _EPS,
    CELL_TOL,
    H_MASS,
    MOMENT_REL_ERR,
    PRUNE_TOL,
    CutoffSpec,
    PieceFamily,
    QuadratureResult,
    _amplitudes,
    _box_indices,
    _j_dot_m,
    _moment,
    _monomial_list,
    _Phase,
    _prune_bounds,
    _sign_sum,
    _SignSum,
    adaptive_box,
)


def cutoff_h(u):
    """h(u) = η(u)/u, odd, with h(0) = 0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    nz = u != 0
    out[nz] = CutoffSpec.eta(u[nz]) / u[nz]
    return out


def partition_deviation(samples, k_range=range(-30, 31)) -> float:
    """max |Σ_k η(2^k u) − 1| over the samples (telescoping check)."""
    u = np.asarray(samples, dtype=float)
    total = np.zeros_like(u)
    for k in k_range:
        total += CutoffSpec.eta((2.0 ** k) * u)
    return float(np.max(np.abs(total - 1.0)))


def pv_integral(p, xi, a, b, tol_cell: float = CELL_TOL) -> QuadratureResult:
    """∫ over ∏{a_j<|t_j|<b_j} of e^{i⟨ξ,P(t)⟩} ∏dt_j/t_j via the sign
    split onto the positive box, in log coordinates u = log t."""
    n = p.spec.n
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if len(a) != n or len(b) != n or any(
            not (0.0 < x < y) for x, y in zip(a, b)):
        raise ValueError("need 0 < a < b componentwise")
    monos = _monomial_list(p)
    signs = _SignSum([m for _, m, _ in monos], n)
    if signs.empty:
        return QuadratureResult(0.0 + 0.0j, 0.0, 0)
    phase = _Phase(np.array([m for _, m, _ in monos], dtype=float),
                   amplitudes_per_j(monos, xi), signs)
    lo = [math.log(x) for x in a]
    hi = [math.log(x) for x in b]
    return adaptive_box(phase, lo, hi, tol_cell)


def face_polynomial(p, face_tuple) -> VectorPolynomial:
    """P_F: the monomials c·t^m of P with m ∈ F_ν ∩ Λ_ν, per component."""
    on_face = [set(f.lambda_points()) for f in face_tuple.faces]
    coef = {(nu, m): c for (nu, m), c in p.coefficients.items()
            if m in on_face[nu]}
    return VectorPolynomial(coef, p.d, p.spec)


def dyadic_piece(p, j, xi, tol_cell: float = CELL_TOL):
    """I_J(P, ξ): every monomial m of P, scaled by 2^{−J·m}, integrated
    against ∏h(t_ℓ)dt_ℓ over the shells |t_ℓ| ∈ [1/4, 2]; the one-row
    `Pieces` of `PieceFamily.evaluate`."""
    family = PieceFamily(p)
    jm = _j_dot_m(family.monos, np.array([j]))
    return family.evaluate(_amplitudes(family.monos, xi, jm), tol_cell)


def sum_probe_by_row(p, xi_samples, radius: int, report_radii) -> tuple:
    """(partial sums per ξ, skipped bound, unconverged, pieces) of
    `multiplier_sum_probe`, with every unpruned piece taken from its own
    one-row `PieceFamily.evaluate` call; the pruning, the sums and the
    counts are the probe's."""
    family = PieceFamily(p)
    monos = family.monos
    js = np.array(list(_box_indices(p.spec, radius)), dtype=np.int64)
    norm = np.abs(js).max(axis=1)
    jm = _j_dot_m(monos, js)
    partial = []
    skipped = 0.0
    unconverged = pruned = 0
    for xi in xi_samples:
        bounds = _prune_bounds(monos, xi, jm)
        cut = bounds < PRUNE_TOL
        skipped += float(np.cumsum(bounds[cut])[-1]) if cut.any() else 0.0
        pruned += int(np.count_nonzero(cut))
        live = np.flatnonzero(~cut)
        amps = _amplitudes(monos, xi, jm)
        values = np.empty(len(live), dtype=complex)
        for i, row in enumerate(live):
            piece = family.evaluate(amps[row][None])
            values[i] = piece.values[0]
            unconverged += not piece.converged[0]
        vals = np.zeros(len(js))
        vals[live] = np.abs(values)
        partial.append({r: float(np.sum(vals[norm <= r]))
                        for r in report_radii})
    return partial, skipped, unconverged, dict(family.paths, pruned=pruned)


def series_piece(family, scaled: np.ndarray, swing: float,
                 tol_cell: float) -> Optional[QuadratureResult]:
    """One piece of `family` as its moment series truncated at the least
    degree D whose bound meets tol_cell, else None: the tail
    H_MASSⁿ·s^{D+1}/(D+1)! plus the rounding bound
    ((T + K·D)·ε + n·MOMENT_REL_ERR)·H_MASSⁿ·e^s, degree by degree, with
    `scaled` = A·2^{|m|₁} raised to every power of the table."""
    table = family.series
    mass = H_MASS ** family.n
    growth = mass * math.exp(swing) if swing < 700.0 else math.inf
    tail = mass * swing
    for degree, end in enumerate(table.ends):
        rounding = growth * ((end + len(scaled) * degree) * _EPS
                             + family.n * MOMENT_REL_ERR)
        if rounding > tol_cell:
            return None
        if tail + rounding <= tol_cell:
            powers = scaled[:, None] ** np.arange(len(table.ends))
            terms = powers.ravel()[table.index[:end]].prod(axis=1)
            return QuadratureResult(complex(terms @ table.coef[:end]),
                                    tail + rounding, 0)
        tail *= swing / (degree + 2)
    return None


def amplitudes_per_j(monos, xi, j=None) -> np.ndarray:
    """c·ξ_ν·2^{−J·m} per monomial (nu, m, c) for one J (J = 0 if None)."""
    amps = []
    for nu, m, c in monos:
        a = c * float(xi[nu])
        if j is not None:
            ex = -float(np.dot(j, m))
            a *= 2.0 ** max(min(ex, 500.0), -500.0)
        amps.append(a)
    return np.array(amps, dtype=float)


def odd_subsets_by_scan(points, n: int) -> tuple:
    """(r, subsets): the GF(2) rank r of the list's exponents mod 2, as
    log₂ of the number of distinct subset sums mod 2, and every subset
    whose sum is componentwise odd, as a bitmask over the list indices;
    both by a scan of all 2^K subsets."""
    sums_mod2 = set()
    odd = []
    for mask in range(2 ** len(points)):
        sums = [0] * n
        for k in range(len(points)):
            if mask >> k & 1:
                sums = [a + b for a, b in zip(sums, points[k])]
        sums_mod2.add(tuple(x % 2 for x in sums))
        if all(x % 2 for x in sums):
            odd.append(mask)
    return len(sums_mod2).bit_length() - 1, odd


def series_terms_by_scan(monomials, n: int, degree: int) -> dict:
    """{p: c_p} over every p ∈ ℕ^K with |p| ≤ degree whose exponent sum
    v = Σ_k p_k m_k is all-odd, by a scan of all (degree + 1)^K vectors:
    c_p = 2ⁿ i^{|p|} ∏_ℓ M(v_ℓ)/p! / ∏_k 2^{p_k |m_k|₁}, the coefficient
    of ∏_k (A_k 2^{|m_k|₁})^{p_k}, with M(a) = 2^a μ(a)."""
    terms = {}
    for p in itertools.product(range(degree + 1), repeat=len(monomials)):
        if sum(p) > degree:
            continue
        v = [sum(pk * m[axis] for pk, m in zip(p, monomials))
             for axis in range(n)]
        if not all(x % 2 for x in v):
            continue
        moments = math.prod(2.0 ** x * _moment(x) for x in v)
        scale = math.prod(2.0 ** (pk * sum(m))
                          for pk, m in zip(p, monomials))
        terms[p] = (2 ** n * 1j ** sum(p) * moments
                    / math.prod(math.factorial(pk) for pk in p) / scale)
    return terms


def phase_integrand(phase: _Phase) -> Callable:
    """u ↦ the sign-folded integrand of `phase` at nodes (N, dim), with
    t^m = exp(u·e_k) from the full exponent sum at each node."""
    expo = phase.exponents
    parts = phase.signs.bind(phase.amplitudes)

    def fun(pts: np.ndarray) -> np.ndarray:
        return _sign_sum(parts, np.exp(pts @ expo.T))
    return fun


def cell_values_pointwise(fun: Callable, lo: np.ndarray, hi: np.ndarray,
                          order: int,
                          axis_weight: Optional[Callable]) -> np.ndarray:
    """Order-`order` tensor Gauss–Legendre value of `fun` on each of the
    C boxes, from the full node grid of `tensor_rule` of each box, in
    chunks of at most _CHUNK_NODES nodes."""
    count, n = lo.shape
    step = max(1, _CHUNK_NODES // order ** n)
    out = np.empty(count, dtype=complex)
    for c in range(0, count, step):
        rules = [tensor_rule(a, b, order, axis_weight)
                 for a, b in zip(lo[c:c + step], hi[c:c + step])]
        wts = np.stack([w for _pts, w in rules])
        vals = fun(np.concatenate([pts for pts, _w in rules]))
        out[c:c + step] = np.einsum("cq,cq->c", wts, vals.reshape(wts.shape))
    return out


def complex_exp_integrand(exponents: np.ndarray, amplitudes: np.ndarray,
                          groups) -> Callable:
    """u ↦ Σ_g w_g exp(i Σ_k A_k s_{kg} e^{u·e_k}) at nodes (N, n)."""
    def fun(pts: np.ndarray) -> np.ndarray:
        base = np.exp(pts @ exponents.T) * amplitudes       # (N, K)
        out = np.zeros(pts.shape[0], dtype=complex)
        for w, sgn in groups:
            out += w * np.exp(1j * (base @ sgn))
        return out
    return fun


def prune_bound(monos, xi, j, n: int) -> float:
    """|I_J| ≤ (∫|h|)ⁿ · min_ℓ Σ_{m_ℓ>0} |c ξ| 2^{−J·m} 2^{|m|₁}, one J."""
    best = math.inf
    for axis in range(n):
        tot = 0.0
        for nu, m, c in monos:
            if m[axis] == 0:
                continue
            ex = -float(np.dot(j, m)) + sum(m)
            tot += abs(c * float(xi[nu])) * 2.0 ** max(min(ex, 500.0),
                                                       -500.0)
        best = min(best, tot)
    return (H_MASS ** n) * min(best, 1.0)


_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def tensor_rule(lo, hi, order: int,
                axis_weight: Optional[Callable] = None):
    """Nodes (N, n) and weights (N,) for ∏[lo_i, hi_i].  `axis_weight(u)`
    (elementwise on one axis's nodes) multiplies that axis's weights,
    giving the rule for the separable weight w(u_1)⋯w(u_n)."""
    axes_x, axes_w = [], []
    x, w = _leggauss(order)
    for a, b in zip(lo, hi):
        axes_x.append(0.5 * (b - a) * x + 0.5 * (a + b))
        axes_w.append(0.5 * (b - a) * w)
        if axis_weight is not None:
            axes_w[-1] = axes_w[-1] * axis_weight(axes_x[-1])
    grids = np.meshgrid(*axes_x, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = axes_w[0]
    for w in axes_w[1:]:
        wts = np.multiply.outer(wts, w)
    return pts, np.asarray(wts).ravel()


def adaptive_box_depth_first(fun: Callable, lo, hi,
                             tol_cell: float = CELL_TOL,
                             cell_cap: int = 2 ** 22, order: int = 32,
                             weight: Optional[Callable] = None,
                             cuts: Sequence[float] = ()
                             ) -> QuadratureResult:
    """∫ fun(u)·weight(u) du on a box: each cell is accepted when the
    order-`order` and order-`order`/2 values agree to tol_cell, else
    bisected along its widest axis (ties to the first); but a rejected
    box is first cut on every axis at every point of `cuts` strictly
    inside it, if there is one.  `weight` maps nodes (N, n) to (N,) and
    multiplies the integrand at each node."""
    def weighted(pts):
        out = fun(pts)
        return out if weight is None else out * weight(pts)

    stack = [(tuple(map(float, lo)), tuple(map(float, hi)))]
    value = 0.0 + 0.0j
    err = 0.0
    panels = 0
    converged = True
    while stack:
        clo, chi = stack.pop()
        pts, wts = tensor_rule(clo, chi, order)
        v_hi = complex(np.dot(wts, weighted(pts)))
        pts2, wts2 = tensor_rule(clo, chi, order // 2)
        v_lo = complex(np.dot(wts2, weighted(pts2)))
        delta = abs(v_hi - v_lo)
        panels += 1
        if delta <= tol_cell or panels + len(stack) >= cell_cap:
            if delta > tol_cell:
                converged = False
            value += v_hi
            err += delta
            continue
        inner = [sorted(c for c in cuts if a < c < b)
                 for a, b in zip(clo, chi)]
        if panels == 1 and any(inner):
            edges = [[a, *c, b] for a, b, c in zip(clo, chi, inner)]
            for cell in itertools.product(
                    *[list(zip(e[:-1], e[1:])) for e in edges]):
                stack.append((tuple(a for a, _ in cell),
                              tuple(b for _, b in cell)))
            continue
        axis = max(range(len(clo)), key=lambda i: chi[i] - clo[i])
        mid = 0.5 * (clo[axis] + chi[axis])
        stack.append((clo, tuple(mid if i == axis else c
                                 for i, c in enumerate(chi))))
        stack.append((tuple(mid if i == axis else c
                            for i, c in enumerate(clo)), chi))
    return QuadratureResult(value, err, panels, converged)

"""Floating-point verification harness for the oscillatory multipliers.

Evaluates the multiplier integrals and their dyadic pieces in
log-coordinates, after folding the 2ⁿ sign orthants onto the positive box.
A dyadic piece takes one of two paths:

- the moment series: with θ_k = A_k t^{m_k}, expanding e^{iφ} gives
  I_J = 2ⁿ Σ_p i^{|p|} A^p/p! ∏_ℓ M((Σ_k p_k m_k)_ℓ) over the p whose
  exponent sum is all-odd, M(a) = ∫ η(e^u) e^{au} du; it is taken when
  its truncation and rounding bound, which grows with the swing s, meets
  the tolerance at some degree D (`PieceFamily._series_degrees`);
- else adaptive tensor Gauss–Legendre panels of order 32 (`adaptive_box`)
  on the shell [log ¼, log 2]ⁿ; a rejected shell is cut at u = log ½ and
  u = 0, where η(e^u) is not analytic (`ETA_BREAKS`), before any
  bisection.

Pieces are evaluated per batch (`PieceFamily.evaluate`): the sum probe
passes all unpruned pieces of one ξ at once and gets their values, error
bounds and converged flags back as arrays.  The series rows of a batch
are grouped by their degree D, and each row's series is evaluated only to
its own degree, with the amplitudes raised to the powers 0..D alone.  The
rows the series declines go to the fallback once per distinct row: a
piece depends on J only through J·m, so when the exponents have rank
below n many J share one amplitude row, and its result is scattered to
all of them.  The fallback builds its cells from per-axis factors: per
level, the per-axis nodes and η-weighted weights of all pending cells,
and a cell's t^m and tensor weights as outer products of exp(u_ℓ·e_kℓ)
and of those weights.

The folded integrand Σ_σ(−1)^{|σ|} e^{iΣ_k σ^{m_k}θ_k} of the fallback
has two exact forms, and it is evaluated in the one with fewer terms
(`_SignSum`).  Let r be the GF(2) rank of the exponents mod 2:

- sign groups: Σ_g w_g e^{iφ_g}, grouping σ by the induced monomial sign
  pattern, G = 2^r groups;
- parity form: 2ⁿ Σ_T i^{|T|} ∏_{k∈T} sin θ_k ∏_{k∉T} cos θ_k over the
  2^{K−r} subsets T whose exponents sum to an all-odd vector.

The parity form is used iff K ≤ 2r, where it has no more terms than
there are groups.  Timed per node on random lists with n ≤ 4, this rule
picked the faster form on every list with K ≠ 2r, and at K = 2r the
parity form was at most 1.4× slower; for K > 2r its term count
2^{K−r} grows without bound in K, so the odd subsets are not even built
there.  Either way the parity cancellation (even exponent sets give an
identically zero integrand) happens exactly, before any quadrature error
enters.

Probes: log-divergence along odd witnesses (in the rank-m lattice normal
form of the face span, where the free directions factor out as exact
logarithms), Van der Corput decay along cone rays, and dyadic-sum
plateaus for certified-bounded inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .exact_numeric import rank
from .parity import odd_subsets

LOG_QUARTER = math.log(0.25)
LOG_TWO = math.log(2.0)
ETA_BREAKS = (-LOG_TWO, 0.0)        # u where η(e^u) is not analytic
CELL_TOL = 1e-9
PRUNE_TOL = 1e-10
H_MASS = 2.0 * math.log(2.0)          # ∫|h| per axis
# adaptive_box's cell cap.  Tier-1's largest converged call takes 7,362
# cells and the probe-sum benchmark's 40.  The (1, 1) piece at ξ = 1e6
# stops unconverged here, after 5 s (2-vCPU Xeon); without the cuts, a
# cap of 2²² cells took 144 s and did not converge either.
MAX_CELLS = 2 ** 16
_ORDER = 32                         # adaptive_box's Gauss–Legendre order


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

class CutoffSpec:
    """psi: 1 on [0,1/2], 0 outside [0,2), glued with g(x)=exp(-1/x);
    eta(u) = psi(u) - psi(2u), so h(u) = eta(u)/u is odd."""

    @staticmethod
    def _g(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(-1.0 / x[pos])
        return out

    @classmethod
    def psi(cls, u):
        a = np.abs(np.asarray(u, dtype=float))
        out = np.zeros_like(a)
        out[a <= 0.5] = 1.0
        mid = (a > 0.5) & (a < 2.0)
        gm = cls._g(2.0 - a[mid])
        out[mid] = gm / (gm + cls._g(a[mid] - 0.5))
        return out

    @classmethod
    def eta(cls, u):
        return cls.psi(u) - cls.psi(2.0 * np.asarray(u, dtype=float))


# ---------------------------------------------------------------------------
# quadrature plumbing
# ---------------------------------------------------------------------------

@dataclass
class QuadratureResult:
    value: complex
    abs_error_estimate: float
    panels: int
    converged: bool = True


@dataclass
class Pieces:
    """Dyadic pieces of one `PieceFamily.evaluate` call, one entry per
    amplitude row."""

    values: np.ndarray      # (N,) complex
    errors: np.ndarray      # (N,) error bounds
    converged: np.ndarray   # (N,) bool: False where the cell cap was hit


@functools.cache
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _axis_rules(lo: np.ndarray, hi: np.ndarray, order: int,
                axis_weight: Optional[Callable] = None):
    """The per-axis part of an order-`order` tensor Gauss–Legendre rule on
    C boxes ∏[lo_i, hi_i]: nodes and weights (C, n, q).  `axis_weight(u)`
    (elementwise on the nodes) multiplies the weights, giving the rule for
    the separable weight w(u_1)⋯w(u_n)."""
    x, w = _leggauss(order)
    lo = lo[:, :, None]
    hi = hi[:, :, None]
    axes_x = 0.5 * (hi - lo) * x + 0.5 * (lo + hi)       # (C, n, q)
    axes_w = 0.5 * (hi - lo) * w
    if axis_weight is not None:
        axes_w = axes_w * axis_weight(axes_x)
    return axes_x, axes_w


def _outer(axes: np.ndarray) -> np.ndarray:
    """Per-axis factors (C, n, ..., q) to their products over the tensor
    grid, (C, ..., qⁿ), node index in C order over the axes; the factors
    are multiplied in axis order.  The node axis is last, so numpy's
    inner loops run over q nodes, not over a short trailing axis."""
    out = axes[:, 0]
    for i in range(1, axes.shape[1]):
        out = (out[..., :, None] * axes[:, i, ..., None, :]).reshape(
            out.shape[:-1] + (-1,))
    return out


# Nodes per block: a batch of cells goes to the integrand in chunks of at
# most this many nodes (more only when one cell is larger), and the
# sign-sum kernel sums its nodes in blocks of this size, so its per-block
# arrays stay in cache: (nodes × groups) phases, cosines and sines in the
# sign-group form, (nodes × columns) cosines and sines and (nodes × terms)
# products in the parity form.
_CHUNK_NODES = 2 ** 13


def _cell_values(parts: Callable, expo: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, order: int,
                 axis_weight: Optional[Callable]) -> np.ndarray:
    """Order-`order` tensor Gauss–Legendre value of the sign sum `parts`
    (`_SignSum.bind`) on each of the C boxes, for exponents `expo` (K, n).
    The per-axis nodes and weights are built once for all the boxes; a
    box's t^m and tensor weights are the outer products of its per-axis
    factors exp(u_ℓ·e_kℓ) and weights."""
    count, n = lo.shape
    axes_x, axes_w = _axis_rules(lo, hi, order, axis_weight)
    step = max(1, _CHUNK_NODES // order ** n)
    out = np.empty(count, dtype=complex)
    for c in range(0, count, step):
        factors = np.exp(expo.T[:, :, None] * axes_x[c:c + step, :, None])
        mono = _outer(factors).transpose(0, 2, 1)   # (cells, qⁿ, K)
        wts = _outer(axes_w[c:c + step])
        vals = _sign_sum(parts, mono.reshape(-1, len(expo)))
        out[c:c + step] = np.einsum("cq,cq->c", wts,
                                    vals.reshape(wts.shape))
    return out


def _eta_grid(lo, hi):
    """The box ∏[lo_i, hi_i] cut on every axis at the points of
    ETA_BREAKS strictly inside: its cells' lo and hi, (C, n) each; None
    when no break is inside."""
    edges = [[a, *[c for c in ETA_BREAKS if a < c < b], b]
             for a, b in zip(lo, hi)]
    if all(len(e) == 2 for e in edges):
        return None
    cells = np.array(list(itertools.product(*map(itertools.pairwise,
                                                 edges))))
    return cells[:, :, 0], cells[:, :, 1]


def adaptive_box(phase: _Phase, lo, hi, tol_cell: float = CELL_TOL,
                 eta: bool = False) -> QuadratureResult:
    """Adaptive tensor Gauss–Legendre for ∫ f(u) w(u_1)⋯w(u_n) du on a
    box, f the sign-folded integrand of `phase`, w(u) = η(e^u) with `eta`
    and w ≡ 1 without.  A cell is accepted when its order-_ORDER and
    order-_ORDER/2 values agree to tol_cell, else it is bisected along its
    widest axis (ties to the first); but with `eta`, a rejected box is
    first cut on every axis at the points of ETA_BREAKS strictly inside
    it (`_eta_grid`, up to 3ⁿ cells), where w is not analytic.
    Refinement is breadth-first: all cells pending at a level are
    evaluated together (`_cell_values`), and the rejected ones are split
    together into the next level.  The separable weight enters the
    per-axis weights, q·n evaluations per cell rather than qⁿ.  When
    splitting would take the cell count past MAX_CELLS, the level's
    rejected cells are accepted as they are and the result is flagged
    unconverged instead of raising."""
    parts = phase.signs.bind(phase.amplitudes)
    expo = phase.exponents
    weight = _eta_of_log if eta else None
    clo = np.asarray(lo, dtype=float).reshape(1, -1)
    chi = np.asarray(hi, dtype=float).reshape(1, -1)
    grid = _eta_grid(clo[0], chi[0]) if eta else None
    value = 0.0 + 0.0j
    err = 0.0
    panels = 0
    converged = True
    while len(clo):
        v_hi = _cell_values(parts, expo, clo, chi, _ORDER, weight)
        v_lo = _cell_values(parts, expo, clo, chi, _ORDER // 2, weight)
        delta = np.abs(v_hi - v_lo)
        panels += len(clo)
        split = ~(delta <= tol_cell)        # a NaN value is not accepted
        children = 2 * np.count_nonzero(split) if grid is None \
            else len(grid[0])
        if panels + children > MAX_CELLS:
            converged = converged and not split.any()
            split[:] = False
        keep = ~split
        value += complex(np.sum(v_hi[keep]))
        err += float(np.sum(delta[keep]))
        clo, chi = clo[split], chi[split]
        if grid is not None and len(clo):   # the rejected box: cut
            (clo, chi), grid = grid, None
            continue
        rows = np.arange(len(clo))
        axis = np.argmax(chi - clo, axis=1)
        mid = 0.5 * (clo[rows, axis] + chi[rows, axis])
        left_hi = chi.copy()
        left_hi[rows, axis] = mid
        right_lo = clo.copy()
        right_lo[rows, axis] = mid
        clo = np.concatenate([clo, right_lo])
        chi = np.concatenate([left_hi, chi])
    return QuadratureResult(value, err, panels, converged)


# ---------------------------------------------------------------------------
# sign folding and the sign-sum kernel
# ---------------------------------------------------------------------------

def sigma_groups(monomials: Sequence[tuple], n: int):
    """Fold Σ_{σ∈{±1}ⁿ}(−1)^{|σ|} onto the positive orthant: group σ by
    the induced sign pattern (σ^{m_k})_k and sum the orientation signs.
    Zero-weight groups (the parity cancellation) are dropped exactly."""
    groups: dict = {}
    for signs in itertools.product((1, -1), repeat=n):
        orient = 1
        for s in signs:
            orient *= s
        pat = tuple(
            -1 if sum(mk[j] for j in range(n) if signs[j] < 0) % 2 else 1
            for mk in monomials)
        groups[pat] = groups.get(pat, 0) + orient
    return [(w, np.array(pat, dtype=float))
            for pat, w in sorted(groups.items()) if w != 0]


class _SignSum:
    """Σ_{σ∈{±1}ⁿ}(−1)^{|σ|} exp(iΣ_k σ^{m_k}θ_k), θ_k = A_k t^{m_k}, for
    one monomial list m_1..m_K, in the form with fewer terms (see the
    module docstring): the parity form iff K ≤ 2r, r the GF(2) rank of
    the exponents mod 2, else the sign groups.  The terms, columns and
    signs depend only on the list; `bind` adds the amplitudes A."""

    def __init__(self, monomials: Sequence[tuple], n: int):
        self.rank, odd = odd_subsets(monomials, n)
        count = len(monomials)
        self.parity = count <= 2 * self.rank
        if not self.parity:         # 2^{K−r} > 2^r: leave `odd` undrawn
            groups = sigma_groups(monomials, n)
            self.empty = not groups
            if groups:
                self.sgn = np.stack([s for _, s in groups], axis=1)  # (K, G)
                self.gw = np.array([w for w, _ in groups], dtype=float)
            return
        subsets = sorted(odd)       # at most 2^r ≤ 2ⁿ of them
        self.empty = not subsets
        if self.empty:
            return
        # the cos and sin columns some term uses; factors[k][t] is the
        # column of [cos | sin] that is term t's factor for monomial k
        self.cos_cols = [k for k in range(count)
                         if any(not t >> k & 1 for t in subsets)]
        self.sin_cols = [k for k in range(count)
                         if any(t >> k & 1 for t in subsets)]
        column = {(k, 0): i for i, k in enumerate(self.cos_cols)}
        column.update({(k, 1): len(self.cos_cols) + i
                       for i, k in enumerate(self.sin_cols)})
        self.factors = np.array([[column[k, t >> k & 1] for t in subsets]
                                 for k in range(count)], dtype=np.intp)
        unit = np.array([1, 1j, -1, -1j])[
            [bin(t).count("1") % 4 for t in subsets]] * 2.0 ** n
        self.coef = np.stack([unit.real, unit.imag], axis=1)    # (T, 2)

    def bind(self, amps: np.ndarray) -> Callable:
        """The block kernel for amplitudes `amps`: t^m at B nodes, (B, K),
        to the real and imaginary parts of the sum at each node."""
        if not self.parity:
            mix = amps[:, None] * self.sgn          # (K, G)
            gw = self.gw

            def group_form(mono: np.ndarray):
                phi = mono @ mix
                return np.cos(phi) @ gw, np.sin(phi) @ gw
            return group_form
        cos_cols, sin_cols = self.cos_cols, self.sin_cols
        a_cos, a_sin = amps[cos_cols], amps[sin_cols]
        first, rest = self.factors[0], self.factors[1:]
        coef = self.coef

        def parity_form(mono: np.ndarray):
            cs = np.concatenate((np.cos(mono[:, cos_cols] * a_cos),
                                 np.sin(mono[:, sin_cols] * a_sin)), axis=1)
            prod = cs[:, first]
            for f in rest:
                prod *= cs[:, f]
            re_im = prod @ coef
            return re_im[:, 0], re_im[:, 1]
        return parity_form


def _sign_sum(parts: Callable, mono: np.ndarray) -> np.ndarray:
    """The sign-folded sum at each node, (N,), from t^m at the nodes,
    (N, K): the nodes go through `parts` (`_SignSum.bind`) in blocks of
    _CHUNK_NODES."""
    out = np.empty(mono.shape[0], dtype=complex)
    for b in range(0, mono.shape[0], _CHUNK_NODES):
        re_part, im_part = parts(mono[b:b + _CHUNK_NODES])
        out.real[b:b + _CHUNK_NODES] = re_part
        out.imag[b:b + _CHUNK_NODES] = im_part
    return out


@dataclass
class _Phase:
    """Phase Σ_k A_k s_k ∏_j exp(u_j e_{kj}), folded by `signs`."""

    exponents: np.ndarray          # (K, dim) float exponents in u-coords
    amplitudes: np.ndarray         # (K,) real amplitudes (c·ξ·2^{−J·m})
    signs: _SignSum                # built on the original exponents


def _monomial_list(p, restrict: Optional[Sequence[set]] = None):
    """(nu, m, float coeff) triples, optionally restricted per component."""
    out = []
    for (nu, m), c in sorted(p.coefficients.items()):
        if restrict is not None and m not in restrict[nu]:
            continue
        out.append((nu, m, float(c)))
    if not out:
        raise ValueError("no monomials selected")
    return out


def _j_dot_m(monos, js: np.ndarray) -> np.ndarray:
    """J·m for each row J of `js` and each monomial m of the list: (NJ, K)."""
    expo = np.array([m for _, m, _ in monos], dtype=np.int64)
    return js @ expo.reshape(len(monos), js.shape[1]).T


def _amplitudes(monos, xi, jm: np.ndarray) -> np.ndarray:
    """c·ξ_ν·2^{−J·m} for each monomial (nu, m, c) and each row of
    jm = `_j_dot_m(monos, js)`: (NJ, K), the exponent clipped to ±500."""
    cxi = np.array([c * float(xi[nu]) for nu, _m, c in monos], dtype=float)
    return cxi * np.exp2(np.clip(-jm, -500, 500))


# ---------------------------------------------------------------------------
# dyadic pieces
# ---------------------------------------------------------------------------

def _eta_of_log(u):
    """η(e^u): the per-axis shell weight in log coordinates (h(t)·t = η(t))."""
    return CutoffSpec.eta(np.exp(u))


# ---------------------------------------------------------------------------
# small-swing pieces: the moment series
# ---------------------------------------------------------------------------

# Terms per monomial list in a series table.  Timed per piece on random
# lists (n ∈ {2, 3}, K ≤ 6, 2-vCPU Xeon), the series costs about
# 10 µs + 0.03 µs per term, so about 130 µs here, where a piece costs
# milliseconds in the fallback.  8192 and 16384 terms left criterion 9's
# time as it was: the rounding bound, not the table, ends the series'
# swing range.
SERIES_TERMS = 4096
# No table goes past this degree: the degree-D tail needs D ≈ e·s, and
# beyond s ≈ 15 the rounding bound H_MASSⁿ·e^s·ε alone exceeds CELL_TOL.
_SERIES_DEGREE = 64
# Relative error of `_moment` for a ≤ _MAX_MOMENT: its rule agrees with one
# of twice the panels to within this there (checked in the tests on every
# a ≤ 64 and every 16th a above), and with 40-digit tanh-sinh quadrature to
# 4e-16 at a = 1000 but only to 6e-15 at a = 2000.  A table stops below the
# degree that needs more.
MOMENT_REL_ERR = 1e-15
_MAX_MOMENT = 1024
_EPS = float(np.finfo(float).eps)
# Factors per gather block of the batched series: a block of rows takes its
# (rows × terms × K) factors out of the table of powers at once, so the
# rows are split into blocks of at most this many factors, 512 KiB of
# doubles, and peak memory does not grow with the number of rows.
_GATHER_ELEMENTS = 2 ** 16


@functools.cache
def _moment_rule():
    """Nodes t/2 and weights for ∫_{1/4}^{2} f(t) η(t) dt/t: 64 panels of
    16-point Gauss–Legendre on each of [1/4, 1/2], [1/2, 1] and [1, 2],
    between whose ends η is analytic."""
    edges = np.concatenate([np.linspace(0.25, 0.5, 65),
                            np.linspace(0.5, 1.0, 65)[1:],
                            np.linspace(1.0, 2.0, 65)[1:]])
    pts, wts = _axis_rules(edges[:-1, None], edges[1:, None], 16,
                           lambda t: CutoffSpec.eta(t) / t)
    return 0.5 * pts.ravel(), wts.ravel()


@functools.cache
def _moment(a: int) -> float:
    """μ(a) = 2^{−a}·M(a), M(a) = ∫_{log ¼}^{log 2} η(e^u) e^{au} du, to
    double precision (one exactly rounded sum over `_moment_rule`).  The
    scaling keeps 0 < μ(a) ≤ log 2 for every a ≥ 0."""
    half, wts = _moment_rule()
    return math.fsum(wts * half ** a)


def _compositions(total: int, parts: int):
    """Every q ∈ ℕ^parts with |q| = total."""
    for combo in itertools.combinations_with_replacement(range(parts),
                                                         total):
        q = [0] * parts
        for k in combo:
            q[k] += 1
        yield q


@dataclass(frozen=True)
class _SeriesTable:
    """The terms c_p ∏_k Ã_k^{p_k} of a dyadic piece, Ã_k = A_k 2^{|m_k|₁},
    of degree |p| ≤ len(ends) − 1, sorted by degree: ends[D] counts the
    terms of degree ≤ D.  `index` holds k·(len(ends)) + p_k, the flat
    positions of the factors in a (K, len(ends)) table of powers."""

    index: np.ndarray      # (T, K)
    coef: np.ndarray       # (T,) complex
    ends: tuple


@functools.lru_cache(maxsize=64)
def _series_table(monomials: tuple, n: int) -> _SeriesTable:
    """The moment series of a piece over the monomial list m_1..m_K:
    expanding e^{iφ_σ} and folding the signs σ leaves
    I_J = 2ⁿ Σ_p i^{|p|} A^p/p! ∏_ℓ M(v_ℓ), v = Σ_k p_k m_k, over the p
    with v all-odd, i.e. p = r + 2q with r an odd subset.  With Ã and μ
    in place of A and M, c_p = 2ⁿ i^{|p|} ∏_ℓ μ(v_ℓ)/p!.  Degrees are
    added while the table stays within SERIES_TERMS terms; a list with
    more than SERIES_TERMS odd subsets gets degree 0 alone, and a table
    stops below the first degree with a v_ℓ > _MAX_MOMENT.  Cached per
    list, since a new PieceFamily is built for every probe; the arrays
    are read-only, as every family of the list shares them."""
    count = len(monomials)
    rank, odd = odd_subsets(monomials, n)
    top = _SERIES_DEGREE if 1 << (count - rank) <= SERIES_TERMS else 0
    subsets = [[mask >> k & 1 for k in range(count)]
               for mask in (sorted(odd) if top else ())]
    rows: list = []
    ends = [0]
    for degree in range(1, top + 1):
        new = [[a + 2 * b for a, b in zip(r, q)]
               for r in subsets
               if sum(r) <= degree and (degree - sum(r)) % 2 == 0
               for q in _compositions((degree - sum(r)) // 2, count)]
        if len(rows) + len(new) > SERIES_TERMS:
            break
        rows += new
        ends.append(len(rows))
    p = np.array(rows, dtype=np.int64).reshape(-1, count)
    v = p @ np.array(monomials, dtype=np.int64).reshape(count, n)
    too_high = np.flatnonzero(v.max(axis=1, initial=0) > _MAX_MOMENT)
    if len(too_high):
        ends = ends[:p[too_high[0]].sum()]
        p, v = p[:ends[-1]], v[:ends[-1]]
    mu = np.vectorize(_moment, otypes=[float])(v).reshape(len(p), n)
    fact = np.array([float(math.factorial(j)) for j in range(len(ends))])
    unit = np.array([1, 1j, -1, -1j])[p.sum(axis=1) % 4]
    coef = 2.0 ** n * unit * mu.prod(axis=1) / fact[p].prod(axis=1)
    index = p + len(ends) * np.arange(count)
    index.flags.writeable = coef.flags.writeable = False
    return _SeriesTable(index, coef, tuple(ends))


class PieceFamily:
    """Dyadic pieces I_J(P, ξ) over every monomial of a fixed polynomial:
    the sign-sum form and the moment-series table are built once, so
    sweeping (J, ξ) only costs the series or a fallback per piece.  A
    piece is given by its amplitudes c·ξ·2^{−J·m} over `monos`
    (`_amplitudes`)."""

    def __init__(self, p):
        self.n = p.spec.n
        self.monos = _monomial_list(p)
        self.signs = _SignSum([m for _, m, _ in self.monos], self.n)
        self.trivial = self.signs.empty
        # pieces evaluated by the series (of no terms, for an even list)
        # and by the fallback, and the fallback's cells
        self.paths = {"series": 0, "fallback": 0}
        self.cells = 0
        if self.trivial:
            return
        self.expo = np.array([m for _, m, _ in self.monos], dtype=float)
        self.swing_scale = np.exp(
            np.sum(np.abs(self.expo), axis=1) * LOG_TWO)
        self.series = _series_table(tuple(m for _, m, _ in self.monos),
                                    self.n)

    def _series_degrees(self, scaled: np.ndarray, swing: np.ndarray,
                        tol_cell: float):
        """Per row, the least degree D of the table whose error bound meets
        tol_cell (−1 if none does), and that bound.  Since |φ_σ| ≤ s on
        the shell for every σ and ∫∏η(e^{u_ℓ})du = (log 2)ⁿ, the tail is at
        most H_MASSⁿ·s^{D+1}/(D+1)! (Taylor's remainder of e^{ix} for real
        x), and every term is bounded by the majorant of total mass
        H_MASSⁿ·e^s, so rounding adds at most
        ((T + K·D)·ε + n·MOMENT_REL_ERR)·H_MASSⁿ·e^s over T terms.  The
        degree-D tail is the degree-(D − 1) one times s/(D + 1), taken as
        a running product, so each row's bound is the double that a
        degree-by-degree loop reaches."""
        ends = np.array(self.series.ends)
        degrees = np.arange(len(ends))
        mass = H_MASS ** self.n
        with np.errstate(over="ignore", invalid="ignore"):
            # math.exp per row, as a one-piece bound takes it: numpy's
            # vectorised exp differs from it in the last place on some rows
            growth = np.where(swing < 700.0, mass * np.fromiter(
                map(math.exp, np.minimum(swing, 700.0).tolist()), float,
                len(swing)), np.inf)
            factors = np.empty((len(swing), len(ends)))
            factors[:, 0] = mass * swing
            factors[:, 1:] = swing[:, None] / (degrees[1:] + 1)
            tail = np.cumprod(factors, axis=1)
            rounding = growth[:, None] * (
                (ends + scaled.shape[1] * degrees) * _EPS
                + self.n * MOMENT_REL_ERR)
            bound = tail + rounding
        # rounding grows with D, so once it passes tol_cell no later
        # degree is taken either
        meets = bound <= tol_cell
        degree = np.where(meets.any(axis=1), np.argmax(meets, axis=1), -1)
        rows = np.arange(len(swing))
        return degree, bound[rows, np.maximum(degree, 0)]

    def _series_values(self, scaled: np.ndarray, degree: int) -> np.ndarray:
        """The series truncated at `degree` for each row of `scaled`: the
        amplitudes are raised to the powers 0..degree alone, and the terms
        are gathered in row blocks of at most _GATHER_ELEMENTS factors.
        Each row's terms are added one after another, in table order, as a
        running sum: a matrix product or a pairwise sum would order the
        additions by the number of rows, so a row's value would depend on
        the batch it comes in."""
        table = self.series
        width = len(table.ends)
        end = table.ends[degree]
        count = len(scaled)
        out = np.zeros(count, dtype=complex)
        if not end:
            return out
        index, coef = table.index[:end], table.coef[:end]
        step = max(1, _GATHER_ELEMENTS // index.size)
        for b in range(0, count, step):
            block = scaled[b:b + step]
            powers = np.zeros(block.shape + (width,))
            powers[:, :, :degree + 1] = (block[:, :, None]
                                         ** np.arange(degree + 1))
            flat = powers.reshape(len(block), -1)
            terms = flat[:, index].prod(axis=2) * coef
            out[b:b + step] = np.cumsum(terms, axis=1)[:, -1]
        return out

    def evaluate(self, amps: np.ndarray,
                 tol_cell: float = CELL_TOL) -> Pieces:
        """I_J for each row of amplitudes `amps`, (N, K): from the moment
        series when its error bound meets tol_cell (the rows are grouped by
        the degree they need), else from `adaptive_box` on the η-weighted
        shell, cut at ETA_BREAKS when rejected, once per distinct row, the
        result scattered to every row equal to it.  `paths` counts every
        row, `cells` the fallback's cells."""
        count = len(amps)
        out = Pieces(np.zeros(count, dtype=complex), np.zeros(count),
                     np.ones(count, dtype=bool))
        if self.trivial:
            self.paths["series"] += count
            return out
        scaled = amps * self.swing_scale
        swing = np.sum(np.abs(scaled), axis=1)
        degree, bound = self._series_degrees(scaled, swing, tol_cell)
        for top in sorted(set(degree.tolist()) - {-1}):
            rows = np.flatnonzero(degree == top)
            out.values[rows] = self._series_values(scaled[rows], top)
            out.errors[rows] = bound[rows]
            self.paths["series"] += len(rows)
        # keyed by the bytes, not np.unique: that imports numpy.ma
        shared: dict = {}
        for row in np.flatnonzero(degree < 0).tolist():
            shared.setdefault(amps[row].tobytes(), []).append(row)
        for rows in shared.values():
            piece = adaptive_box(
                _Phase(self.expo, amps[rows[0]], self.signs),
                [LOG_QUARTER] * self.n, [LOG_TWO] * self.n, tol_cell,
                eta=True)
            out.values[rows] = piece.value
            out.errors[rows] = piece.abs_error_estimate
            out.converged[rows] = piece.converged
            self.paths["fallback"] += len(rows)
            self.cells += piece.panels
        return out


def sample_xi(seed: int, count: int, d: int) -> list:
    """`count` seeded frequency vectors of d components, each uniform on
    [−¼, ¼): the probes' ξ when the input gives none."""
    rng = np.random.default_rng(seed)
    return [list(rng.uniform(-0.25, 0.25, size=d)) for _ in range(count)]


# ---------------------------------------------------------------------------
# divergence probe
# ---------------------------------------------------------------------------

def _row_hermite(rows: Sequence[Sequence[int]]):
    """Row-lattice basis in echelon form (integer row operations only);
    every input row is an exact integer combination of the basis."""
    mat = [list(map(int, r)) for r in rows]
    n = len(mat[0])
    basis: list = []
    row_idx = 0
    for col in range(n):
        # gcd-reduce the current column below row_idx
        while True:
            live = [i for i in range(row_idx, len(mat)) if mat[i][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(mat[i][col]))
            a, b = live[0], live[1]
            q = mat[b][col] // mat[a][col]
            mat[b] = [x - q * y for x, y in zip(mat[b], mat[a])]
        live = [i for i in range(row_idx, len(mat)) if mat[i][col] != 0]
        if not live:
            continue
        i = live[0]
        mat[row_idx], mat[i] = mat[i], mat[row_idx]
        if mat[row_idx][col] < 0:
            mat[row_idx] = [-x for x in mat[row_idx]]
        row_idx += 1
    return [r for r in mat[:row_idx]]


def _lattice_coords(point, basis):
    """Integer coordinates of `point` in the echelon lattice basis."""
    rem = list(map(int, point))
    coords = [0] * len(basis)
    for i, b in enumerate(basis):
        lead = next(k for k, x in enumerate(b) if x != 0)
        if rem[lead] % b[lead] != 0:
            raise ValueError("point outside the face lattice")
        q = rem[lead] // b[lead]
        coords[i] = q
        rem = [x - q * y for x, y in zip(rem, b)]
    if any(rem):
        raise ValueError("point outside the face lattice")
    return coords


def _lattice_phase(p, witness, xi):
    """The witness face's phase in the rank-m normal form of its span:
    exponents in lattice coordinates α, amplitudes c·ξ, and the sign sum
    of the original exponents (the sign folding acts on t, not on the
    lattice coordinates).  Returns (phase, m)."""
    monos = _monomial_list(p, [set(f.lambda_points)
                               for f in witness.faces])
    points = sorted({m for _, m, _ in monos})
    basis = _row_hermite(points)
    assert len(basis) == rank(points) <= p.spec.n - 1, \
        "witness span is not low rank"
    alpha = np.array([_lattice_coords(mk, basis) for _, mk, _ in monos],
                     dtype=float)
    amps = _amplitudes(monos, xi, np.zeros((1, len(monos))))[0]
    signs = _SignSum([mk for _, mk, _ in monos], p.spec.n)
    return _Phase(alpha, amps, signs), len(basis)


@dataclass
class ProbeResult:
    slope: float
    intercept: float
    r_squared: float
    rows: list = field(default_factory=list)   # (scale, value, bound/fit)
    inconclusive: bool = False
    unconverged: int = 0    # shrink levels whose quadrature hit the cap


def divergence_probe(p, witness, xi, shrink_sequence,
                     tol_cell: float = CELL_TOL) -> ProbeResult:
    """Growth of |I(P_F, ξ, a, b)| against the free-direction log volume
    ∏_{j>m} log(b_j/a_j), in the rank-m normal form of Sp(⋃F_ν): the first
    m coordinates carry the phase (exponents rewritten in a lattice basis
    of the span), the remaining free directions factor out exactly as
    logarithms.  A slope bounded away from 0 corroborates divergence; a
    slope statistically indistinguishable from 0 is reported inconclusive
    with the full data table.
    """
    n = p.spec.n
    phase, m_rank = _lattice_phase(p, witness, xi)
    rows = []
    unconverged = 0
    for a, b in shrink_sequence:
        a = [float(x) for x in a]
        b = [float(x) for x in b]
        if any(not (0.0 < x < y) for x, y in zip(a, b)):
            raise ValueError("need 0 < a < b componentwise")
        free_log = 1.0
        for jdx in range(m_rank, n):
            free_log *= math.log(b[jdx] / a[jdx])
        if phase.signs.empty:
            rows.append((free_log, 0.0, 0.0))
            continue
        lo = [math.log(a[i]) for i in range(m_rank)]
        hi = [math.log(b[i]) for i in range(m_rank)]
        core = adaptive_box(phase, lo, hi, tol_cell)
        unconverged += not core.converged
        rows.append((free_log, abs(core.value) * free_log,
                     core.abs_error_estimate * free_log))

    xs = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    spread = float(np.std(ys)) + 1e-15
    inconclusive = abs(slope) * (xs.max() - xs.min()) < 10.0 * min(
        1e-6, spread) and abs(slope) < 1e-6
    rows = [(x, y, float(f)) for (x, y, _e), f in zip(rows, fit)]
    return ProbeResult(float(slope), float(intercept), r2, rows,
                       inconclusive, unconverged)


# ---------------------------------------------------------------------------
# decay along cone rays
# ---------------------------------------------------------------------------

@dataclass
class DecayResult:
    delta: float
    constant: float
    rows: list        # (scale k, |I_J|, C·min_ν{|2^{−J·m_ν}ξ_ν|^{−δ}, 1})
    unconverged: int  # pieces whose quadrature hit the cell cap


def decay_check(p, ray, xi, k_max: int = 12) -> DecayResult:
    """Van der Corput decay table along J = k·ray: |I_J| against the
    fitted envelope C·min_ν min{|2^{−J·m_ν}ξ_ν|^{−δ}, 1} with δ fitted by
    least squares on the decaying range (δ is existential in the source
    estimate, so it is measured, not assumed)."""
    p.lambda_tuple().require_disjoint()
    js = np.arange(k_max + 1)[:, None] * np.array([float(x) for x in ray])
    family = PieceFamily(p)
    amps = _amplitudes(family.monos, xi, _j_dot_m(family.monos, js))
    # |2^{−J·m_ν} ξ_ν|, m_ν the lexicographically least point of Λ_ν:
    # amplitudes with c = 1
    chosen = [(nu, min(p.support(nu)), 1.0)
              for nu in range(p.d) if p.support(nu)]
    args = np.abs(_amplitudes(chosen, xi, _j_dot_m(chosen, js)))
    pieces = family.evaluate(amps)
    samples = [(k, v, float(args[k].min()) if chosen else 0.0)
               for k, v in enumerate(np.abs(pieces.values).tolist())]

    fit_pts = [(math.log(arg), math.log(v))
               for _k, v, arg in samples if arg > 1.0 and v > 1e-13]
    if len(fit_pts) >= 2:
        xs = np.array([x for x, _ in fit_pts])
        ys = np.array([y for _, y in fit_pts])
        slope, _ = np.polyfit(xs, ys, 1)
        delta = max(-float(slope), 0.0)
    else:
        delta = 0.5  # nothing to fit: all pieces at or below noise
    consts = [v / min(arg ** (-delta), 1.0) if arg > 0 else v
              for _k, v, arg in samples if v > 1e-13]
    constant = max(consts) if consts else 1.0
    rows = [(k, v, constant * (min(arg ** (-delta), 1.0) if arg > 0
                               else 1.0))
            for k, v, arg in samples]
    return DecayResult(delta, constant, rows,
                       int(np.count_nonzero(~pieces.converged)))


# ---------------------------------------------------------------------------
# dyadic sum probe
# ---------------------------------------------------------------------------

@dataclass
class SumProbeResult:
    partial_sums: list      # per ξ: dict radius → Σ_{|J|≤radius}|I_J|
    max_sum: float
    skipped_bound: float    # total prune bound mass that was skipped
    rows: list              # (radius, max-over-ξ partial sum, skipped)
    unconverged: int        # pieces whose quadrature hit the cell cap
    pieces: dict            # pieces pruned, and evaluated per path
    fallback_cells: int     # adaptive_box cells over all ξ


def _prune_bounds(monos, xi, jm: np.ndarray) -> np.ndarray:
    """Rigorous |I_J| bound for each row of jm = `_j_dot_m(monos, js)`,
    from ∫h = 0: for each axis ℓ, the phase may be frozen at a reference
    t_ℓ at the cost of its total variation, so
    |I_J| ≤ (∫|h|)ⁿ · min_ℓ Σ_{m_ℓ>0} |c ξ| 2^{−J·m} 2^{|m|₁}.
    Terms are added one monomial at a time in list order, so each bound
    is the same double that a scalar loop over the monomials gives."""
    expo = np.array([m for _, m, _ in monos], dtype=np.int64)   # (K, n)
    n = expo.shape[1]
    ex = np.clip(expo.sum(axis=1) - jm, -500, 500)              # (NJ, K)
    pow2 = np.ldexp(1.0, ex)                # exact powers of two
    tot = np.zeros((len(jm), n))
    for k, (nu, m, c) in enumerate(monos):
        term = abs(c * float(xi[nu])) * pow2[:, k]
        tot += np.where(expo[k] > 0, term[:, None], 0.0)
    return (H_MASS ** n) * np.minimum(tot.min(axis=1), 1.0)


def box_size(n: int, s_count: int, radius: int) -> int:
    """Number of lattice J with |J|_∞ ≤ radius inside Z(S), |S| = s_count:
    the length of `_box_indices`."""
    return (radius + 1) ** s_count * (2 * radius + 1) ** (n - s_count)


def _box_indices(spec, radius: int):
    """Lattice J with |J|_∞ ≤ radius inside Z(S), lexicographic order."""
    axes = []
    for jdx in range(spec.n):
        if jdx in spec.S:
            axes.append(range(0, radius + 1))
        else:
            axes.append(range(-radius, radius + 1))
    return itertools.product(*axes)


def multiplier_sum_probe(p, xi_samples, radius: int,
                         report_radii: Optional[Sequence[int]] = None
                         ) -> SumProbeResult:
    """Σ_{|J|≤R, J∈Z(S)} |I_J(ξ)| per sampled ξ, reported at nested radii
    so plateaus are visible.  Pieces below the rigorous prune bound are
    skipped and their bound mass is accumulated, never silently dropped;
    pieces whose quadrature hit the cell cap are counted in `unconverged`.
    `pieces` counts the pruned pieces and the evaluated ones per path
    (series, fallback), and `fallback_cells` the fallback's cells.
    Summation is pairwise in fixed lexicographic J order."""
    spec = p.spec
    family = PieceFamily(p)
    monos = family.monos
    if report_radii is None:
        report_radii = sorted({radius, max(radius - 5, 0)})
    report_radii = sorted(set(int(r) for r in report_radii) | {radius})

    all_j = np.array(list(_box_indices(spec, radius)), dtype=np.int64)
    j_norm = np.abs(all_j).max(axis=1)
    jm = _j_dot_m(monos, all_j)

    partial = []
    skipped_total = 0.0
    unconverged = 0
    pruned = 0
    for xi in xi_samples:
        vals = np.zeros(len(all_j))
        bounds = _prune_bounds(monos, xi, jm)
        cut = bounds < PRUNE_TOL
        # the skipped mass added up in J order, as a running sum
        skipped = float(np.cumsum(bounds[cut])[-1]) if cut.any() else 0.0
        pruned += int(np.count_nonzero(cut))
        live = np.flatnonzero(~cut)
        pieces = family.evaluate(_amplitudes(monos, xi, jm)[live])
        unconverged += int(np.count_nonzero(~pieces.converged))
        vals[live] = np.abs(pieces.values)
        partial.append({r: float(np.sum(vals[j_norm <= r]))
                        for r in report_radii})
        skipped_total += skipped

    max_sum = max((s[radius] for s in partial), default=0.0)
    rows = [(r, max((s[r] for s in partial), default=0.0), skipped_total)
            for r in report_radii]
    return SumProbeResult(partial, max_sum, skipped_total, rows, unconverged,
                          dict(family.paths, pruned=pruned), family.cells)

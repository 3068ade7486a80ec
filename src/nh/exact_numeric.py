"""Exact rational linear algebra.

Vectors are sequences of ints and ``fractions.Fraction``s (any other number
is taken at its exact ``Fraction`` value).  Everything here is pure and
immutable: rank and nullspaces by Bareiss's fraction-free elimination on
Python integers, the null line of n−1 rows by their signed maximal minors
(the cross product written out for n = 3), exact Gram–Schmidt,
strict-inequality feasibility by a simplex that pivots by the same scheme,
with Bland's rule (a sign bound x_j ≥ 0 is a nonnegative column, not a
row), and GF(2) elimination (all subsets of a list of vectors that sum to
a target).  `as_int` admits an integral entry (an int, a numpy integer)
and rejects any other with ValueError.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Rational = Fraction
RVector = Sequence  # a sequence of Rational/int of fixed length
RMatrix = Sequence  # a sequence of RVector of common length


# ---------------------------------------------------------------------------
# vector helpers
# ---------------------------------------------------------------------------

def _rat(x):
    """x itself if it is an int or a Fraction, else its exact Fraction."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def as_int(x) -> int:
    """x as an int when it is integral (an int, a numpy integer); a float,
    a Fraction or a string is a ValueError, never truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"non-integral entry {x!r}") from None


def int_vector(v) -> tuple:
    """The entries of v as ints (`as_int`)."""
    return tuple(map(as_int, v))


def dot(a: RVector, b: RVector) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    # integer numerator over a running denominator; one Fraction at the end
    num, den = 0, 1
    for x, y in zip(a, b):
        if type(x) is int and type(y) is int:
            num += x * y * den
            continue
        x, y = _rat(x), _rat(y)
        d = x.denominator * y.denominator
        if d == den:
            num += x.numerator * y.numerator
        else:
            num = num * d + x.numerator * y.numerator * den
            den *= d
    return Fraction(num) if den == 1 else Fraction(num, den)


def vsub(a: RVector, b: RVector) -> tuple:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    if {*map(type, a), *map(type, b)} == {int}:
        return tuple(map(operator.sub, a, b))
    return tuple(_rat(x) - _rat(y) for x, y in zip(a, b))


def is_zero(a: RVector) -> bool:
    return all(x == 0 for x in a)


def unit(n: int, j: int) -> tuple:
    return tuple(int(i == j) for i in range(n))


def _clear_denominators(v: RVector) -> tuple:
    """Integer vector on the same ray through the origin (sign preserved)."""
    fr = [_rat(x) for x in v]
    lcm = math.lcm(*(x.denominator for x in fr))
    return tuple(x.numerator * (lcm // x.denominator) for x in fr)


def primitive(v: RVector) -> tuple:
    """Primitive integer vector with the same direction (orientation kept)."""
    iv = _clear_denominators(v)
    g = math.gcd(*iv)
    return tuple(x // g for x in iv) if g > 1 else iv


# ---------------------------------------------------------------------------
# rank / nullspace
# ---------------------------------------------------------------------------

def _reduced(row: list) -> list:
    """The integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _echelon(rows: RMatrix) -> tuple[list, list[int]]:
    """Integer row echelon form by Bareiss's fraction-free elimination, the
    scheme `_simplex_max` pivots by: the rows (the first len(pivots) of
    them nonzero) and the pivot columns.  A matrix with a non-int entry is
    scaled to integers row by row first.  A step with pivot row r and pivot
    p = r[c] sets each row below to (p·row − row[c]·r) // p′, p′ the
    previous pivot (1 at first); the division is exact, since every entry
    is then a minor of the input (Sylvester's identity)."""
    mat = list(rows)
    pivots: list[int] = []
    if not mat:
        return mat, pivots
    if len(set(map(len, mat))) != 1:
        raise ValueError("ragged matrix")
    if set(map(type, itertools.chain.from_iterable(mat))) - {int}:
        mat = list(map(_clear_denominators, mat))
    nrows = len(mat)
    prev = 1
    for col in range(len(mat[0])):
        rk = len(pivots)
        for piv in range(rk, nrows):
            if mat[piv][col]:
                break
        else:
            continue
        prow = mat[piv]
        mat[piv] = mat[rk]
        mat[rk] = prow
        p = prow[col]
        for i in range(rk + 1, nrows):
            row = mat[i]
            q = row[col]
            if q:
                mat[i] = [(p * a - q * b) // prev for a, b in zip(row, prow)]
            elif p != prev:
                mat[i] = [p * a // prev for a in row]
        prev = p
        pivots.append(col)
        if rk + 1 == nrows:
            break
    return mat, pivots


def rank(rows: RMatrix) -> int:
    """Row rank by fraction-free integer elimination (`_echelon`)."""
    return len(_echelon(rows)[1])


def row_basis(rows: RMatrix) -> tuple:
    """The nonzero rows of an integer echelon form of `rows`: a basis of
    their row space, so stacking the bases of several lists of rows keeps
    the rank of the stacked lists."""
    mat, pivots = _echelon(rows)
    return tuple(map(tuple, mat[:len(pivots)]))


def nullspace(rows: RMatrix, n: Optional[int] = None) -> list[tuple]:
    """Primitive integer basis of {x : A x = 0}, one vector per free
    column f with x_f > 0 and zeros in the other free columns.  `n` is
    the ambient dimension when `rows` is empty."""
    if not rows:
        if n is None:
            raise ValueError("ambient dimension required for empty matrix")
        return [unit(n, j) for j in range(n)]
    ncols = len(rows[0])
    mat, pivots = _echelon(rows)
    # back substitution: clear each pivot column above its pivot, the last
    # pivot first, so each pivot row ends with zeros in the other pivot
    # columns (the RREF up to a scale per row)
    for k in range(len(pivots) - 1, 0, -1):
        col = pivots[k]
        p = mat[k][col]
        for i in range(k):
            q = mat[i][col]
            if q:
                mat[i] = _reduced([p * a - q * b
                                   for a, b in zip(mat[i], mat[k])])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        scale = math.lcm(*(abs(mat[i][pc]) for i, pc in enumerate(pivots)
                           if mat[i][f]))
        x = [0] * ncols
        x[f] = scale
        for i, pc in enumerate(pivots):
            x[pc] = -mat[i][f] * (scale // mat[i][pc])
        basis.append(tuple(_reduced(x)))
    return basis


def null_line(rows: RMatrix, n: int) -> Optional[tuple]:
    """The primitive integer generator, up to sign, of {x : A x = 0} for
    n−1 integer rows of length n, or None when they have rank < n−1.  Its
    entries are A's signed maximal minors, x_j = (−1)^j det(A without
    column j), so x·a = det(a over A) = 0 for each row a.  For n = 3 that
    is the cross product, written out.  Otherwise the minors of the first
    rows grow one row at a time, by column bitmask: appending column c to
    a set of columns flips the sign once per column above c."""
    if len(rows) != n - 1:
        raise ValueError(f"{len(rows)} rows for a line in {n} dimensions")
    if n == 3:
        (a0, a1, a2), (b0, b1, b2) = rows
        x = [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    else:
        minors = [(0, 1)]
        for row in rows:
            grown: dict = {}
            for cols, w in minors:
                for c in range(n - 1, -1, -1):
                    if cols >> c & 1:
                        w = -w
                    elif row[c]:
                        key = cols | 1 << c
                        grown[key] = grown.get(key, 0) + w * row[c]
            minors = grown.items()
        x = [0] * n
        for cols, w in minors:
            j = (~cols & (1 << n) - 1).bit_length() - 1
            x[j] = -w if j & 1 else w
    g = math.gcd(*x)
    if not g:
        return None
    return tuple(v // g for v in x) if g > 1 else tuple(x)


def reduce_mod(w: RVector, basis: Sequence) -> tuple:
    """w minus its orthogonal projection onto span(basis), for a pairwise
    orthogonal basis."""
    w = tuple(_rat(x) for x in w)
    for u in basis:
        coef = dot(w, u) / dot(u, u)
        w = tuple(a - coef * b for a, b in zip(w, u))
    return w


def orthogonal_basis(vectors: RMatrix) -> list[tuple]:
    """Exact Gram–Schmidt: pairwise orthogonal primitive integer vectors
    spanning the same space, one per vector independent of those before
    it.  A projection does not depend on the scale of the basis vectors,
    so each one is made primitive as soon as it is found."""
    basis: list[tuple] = []
    for v in vectors:
        w = reduce_mod(v, basis)
        if not is_zero(w):
            basis.append(primitive(w))
    return basis


# ---------------------------------------------------------------------------
# strict-inequality feasibility (exact simplex, Bland's rule)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrictSystem:
    """a·x = b (equalities), a·x ≥ b (weak), a·x > b (strict) over ℝ^dim."""

    dim: int
    equalities: tuple = ()
    weak: tuple = ()
    strict: tuple = ()

    def __post_init__(self):
        for group in (self.equalities, self.weak, self.strict):
            for a, _b in group:
                if len(a) != self.dim:
                    raise ValueError("constraint dimension mismatch")

    def satisfied_by(self, x: RVector) -> bool:
        if len(x) != self.dim:
            return False
        return (
            all(dot(a, x) == Fraction(b) for a, b in self.equalities)
            and all(dot(a, x) >= Fraction(b) for a, b in self.weak)
            and all(dot(a, x) > Fraction(b) for a, b in self.strict)
        )


class _Unbounded(Exception):
    pass


def _simplex_max(A: list[list], b: list,
                 c: list) -> tuple[bool, list[Fraction], Fraction]:
    """maximize c·z  s.t.  A z = b, z ≥ 0, exact two-phase simplex.

    Entries are ints or Fractions.  The tableau is fraction-free: an
    integer matrix T over one positive common denominator D (the rational
    tableau is T/D).  Pivoting on p = T[r][k] sets
    T[i][j] ← (p·T[i][j] − T[i][k]·T[r][j]) // D for every i ≠ r, then
    D ← p; the division is exact, since every entry is a minor of the
    integer system (Bareiss).  Bland's rule reads T/D through signs and
    cross-multiplied ratios, so it takes exactly the pivots the rational
    tableau takes, and z and the value are the same exact numbers.

    Returns (feasible, z, value).  Raises _Unbounded if the phase-2
    objective is unbounded above (callers arrange boundedness).
    """
    m = len(A)
    n = len(A[0]) if m else len(c)
    # One LCM over all of A and b: a common scale multiplies every
    # artificial alike and leaves the phase-1 pivots unchanged; scaling row
    # by row would weight the artificials differently and change them.
    scale = math.lcm(*(x.denominator for row in A for x in row),
                     *(x.denominator for x in b))
    T = []
    for i in range(m):
        row = [x.numerator * (scale // x.denominator) for x in A[i]]
        row += [0] * m
        row.append(b[i].numerator * (scale // b[i].denominator))
        if row[-1] < 0:  # normalize rhs signs
            row = [-x for x in row]
        row[n + i] = 1
        T.append(row)
    D = 1
    basis = list(range(n, n + m))
    total = n + m

    def pivot(r: int, col: int) -> None:
        # updates every row of T, including a reduced-cost row appended by
        # `optimize`: each row changes denominator, not only rows with
        # T[i][col] ≠ 0
        nonlocal D
        p = T[r][col]
        prow = T[r]
        for i, row in enumerate(T):
            if i == r:
                continue
            q = row[col]
            if q:
                T[i] = [(p * x - q * y) // D for x, y in zip(row, prow)]
            else:
                T[i] = [p * x // D for x in row]
        D = p
        basis[r] = col

    def optimize(obj: list[int], allowed: int) -> int:
        # maximize obj·z over columns [0, allowed) via Bland's rule.  The
        # reduced costs ride along as row m of T, times D:
        # D·obj_j − Σ_i obj_{basis[i]}·T[i][j]; basic columns read 0, and
        # the last entry is −D·(objective value).  Returns that entry.
        red = [D * o for o in obj] + [0]
        for i in range(m):
            w = obj[basis[i]]
            if w:
                red = [x - w * y for x, y in zip(red, T[i])]
        T.append(red)
        while True:
            red = T[m]
            entering = next((j for j in range(allowed) if red[j] > 0), None)
            if entering is None:
                T.pop()
                return red[-1]
            # ratio test by cross-multiplying, Bland tie-break on the basis
            # variable index
            leave = None
            for i in range(m):
                a = T[i][entering]
                if a > 0:
                    if leave is None:
                        leave = i
                        continue
                    lhs = T[i][-1] * T[leave][entering]
                    rhs = T[leave][-1] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave is None:
                raise _Unbounded
            pivot(leave, entering)

    # phase 1: maximize -(sum of artificials); a positive −D·optimum means
    # some artificial stays positive
    if optimize([0] * n + [-1] * m, total) > 0:
        return False, [], Fraction(0)
    # drive remaining artificials out of the basis (they sit at level 0)
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                if T[i][col] < 0:
                    # keep D positive: pivoting on the negated row gives the
                    # same rational tableau
                    T[i] = [-x for x in T[i]]
                pivot(i, col)
    # rows still basic in an artificial are redundant; freeze them by leaving
    # the artificial basic at zero and never letting artificials re-enter.
    c_scale = math.lcm(*(x.denominator for x in c))
    optimize([x.numerator * (c_scale // x.denominator) for x in c]
             + [0] * m, n)
    z = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = Fraction(T[i][-1], D)
    value = sum(ci * zi for ci, zi in zip(c, z))
    return True, z, value


def _sign_bound(a: RVector, b) -> Optional[int]:
    """j when the weak row a·x ≥ b reads c·x_j ≥ 0 with c > 0, else None."""
    if b != 0:
        return None
    nonzero = [j for j, x in enumerate(a) if x != 0]
    if len(nonzero) == 1 and a[nonzero[0]] > 0:
        return nonzero[0]
    return None


def solve_strict(sys: StrictSystem) -> Optional[tuple]:
    """Witness x for the system, or None.

    Slack formulation: maximize t subject to a·x − t ≥ b per strict row and
    t ≤ 1; feasible with optimum t > 0 iff a strict witness exists.  A weak
    row c·x_j ≥ 0 with c > 0 is a sign bound: x_j is then one nonnegative
    column and the row adds nothing to the tableau.  Columns: x_j or u_j
    at position j, then v_j for each x_j without a sign bound (x_j =
    u_j − v_j), then [tp, tn] (t = tp − tn) if strict rows exist, then one
    surplus per other weak row, per strict row, and one slack for the cap
    t ≤ 1.  With no row left, x = 0.  The witness is re-checked exactly
    against the whole system, sign bounds included, before being returned.
    """
    n = sys.dim
    bounded = set()
    weak = []
    for a_, b_ in sys.weak:
        j = _sign_bound(a_, b_)
        if j is None:
            weak.append((a_, b_))
        else:
            bounded.add(j)
    has_strict = bool(sys.strict)
    if not (sys.equalities or weak or has_strict):
        return tuple(Fraction(0) for _ in range(n))

    neg = {j: n + i
           for i, j in enumerate(j for j in range(n) if j not in bounded)}
    nx = n + len(neg)
    nt = 2 if has_strict else 0
    n_weak = len(weak)
    n_strict = len(sys.strict)
    ncols = nx + nt + n_weak + n_strict + (1 if has_strict else 0)

    A: list[list] = []
    b: list = []

    def row(coeff_x: RVector, t_coeff: int, surplus_col: Optional[int],
            rhs) -> None:
        r = [0] * ncols
        for j, a in enumerate(coeff_x):
            a = _rat(a)
            r[j] = a
            if j in neg:
                r[neg[j]] = -a
        if t_coeff:
            r[nx] = t_coeff
            r[nx + 1] = -t_coeff
        if surplus_col is not None:
            r[surplus_col] = -1
        A.append(r)
        b.append(_rat(rhs))

    base = nx + nt
    for a_, b_ in sys.equalities:
        row(a_, 0, None, b_)
    for i, (a_, b_) in enumerate(weak):
        row(a_, 0, base + i, b_)
    for i, (a_, b_) in enumerate(sys.strict):
        row(a_, -1, base + n_weak + i, b_)
    c = [0] * ncols
    if has_strict:
        r = [0] * ncols
        r[nx] = 1
        r[nx + 1] = -1
        r[-1] = 1
        A.append(r)
        b.append(1)
        c[nx] = 1
        c[nx + 1] = -1

    feasible, z, value = _simplex_max(A, b, c)
    if not feasible:
        return None
    if has_strict and value <= 0:
        return None
    x = tuple(z[j] - z[neg[j]] if j in neg else z[j] for j in range(n))
    assert sys.satisfied_by(x), "simplex witness failed exact re-check"
    return x


# ---------------------------------------------------------------------------
# GF(2)
# ---------------------------------------------------------------------------

def gf2_eliminate(masks: Iterable[int],
                  target: int) -> tuple[Optional[int], list[int]]:
    """The subsets of the GF(2) vectors `masks` (bit k: coordinate k) that
    sum to `target`, by Gaussian elimination on bitmasks: one solution (a
    bitmask over the vector indices, None when target ∉ span) and a basis
    of the kernel (bitmasks of the subsets that sum to 0).  The rank is
    the number of vectors − len(kernel)."""
    # bit position -> (reduced row mask, the subset of rows that sums to it)
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for idx, m in enumerate(masks):
        subset = 1 << idx
        for p, (row, sub) in pivots.items():
            if m >> p & 1:
                m ^= row
                subset ^= sub
        if m:
            pivots[m.bit_length() - 1] = (m, subset)
        else:
            kernel.append(subset)
    t, subset = target, 0
    for p, (row, sub) in pivots.items():
        if t >> p & 1:
            t ^= row
            subset ^= sub
    return (subset if t == 0 else None), kernel

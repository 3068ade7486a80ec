"""Reference rational simplex and strict-feasibility LP for the kernel.

`fraction_simplex_max` is the two-phase Bland simplex on a tableau of
`fractions.Fraction`, divided through by the pivot at every step.  The
integer kernel `nh.exact_numeric._simplex_max` must take the same pivots and
return exactly the same (feasible, z, value); tests compare the two.

`split_solve_strict` is strict feasibility in the split formulation: every
x_j is u_j − v_j and every weak row, sign bounds included, is a tableau row
with its own surplus, solved by `fraction_simplex_max`.  It shares nothing
with `nh.exact_numeric.solve_strict` but the `StrictSystem` data class.
"""

from fractions import Fraction

from nh.exact_numeric import _Unbounded


def fraction_simplex_max(A, b, c):
    """maximize c·z  s.t.  A z = b, z ≥ 0, exact two-phase simplex.

    Returns (feasible, z, value).  Raises _Unbounded if the phase-2
    objective is unbounded above.
    """
    A = [[Fraction(x) for x in row] for row in A]
    b = [Fraction(x) for x in b]
    c = [Fraction(x) for x in c]
    m = len(A)
    n = len(A[0]) if m else len(c)
    # normalize rhs signs
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]

    # tableau with artificial variables n..n+m-1
    T = [A[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
         + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    total = n + m

    def pivot(row, col):
        p = T[row][col]
        T[row] = [x / p for x in T[row]]
        for i in range(m):
            if i != row and T[i][col] != 0:
                q = T[i][col]
                T[i] = [x - q * y for x, y in zip(T[i], T[row])]
        basis[row] = col

    def optimize(obj, allowed):
        # maximize obj·z over columns [0, allowed) via Bland's rule
        while True:
            lam = [obj[basis[i]] for i in range(m)]
            entering = None
            for j in range(allowed):
                if j in basis:
                    continue
                rc = obj[j] - sum(lam[i] * T[i][j] for i in range(m))
                if rc > 0:
                    entering = j
                    break
            if entering is None:
                return sum(lam[i] * T[i][-1] for i in range(m))
            # ratio test, Bland tie-break on basis variable index
            leave, best = None, None
            for i in range(m):
                if T[i][entering] > 0:
                    ratio = T[i][-1] / T[i][entering]
                    if best is None or ratio < best or (
                            ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            if leave is None:
                raise _Unbounded
            pivot(leave, entering)

    # phase 1: maximize -(sum of artificials)
    obj1 = [Fraction(0)] * n + [Fraction(-1)] * m
    val1 = optimize(obj1, total)
    if val1 < 0:
        return False, [], Fraction(0)
    # drive remaining artificials out of the basis (they sit at level 0)
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                pivot(i, col)
    obj2 = list(c) + [Fraction(0)] * m
    optimize(obj2, n)
    z = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = T[i][-1]
    value = sum(ci * zi for ci, zi in zip(c, z))
    return True, z, value


def split_solve_strict(sys):
    """Witness x for the `StrictSystem`, or None: maximize t subject to
    a·x − t ≥ b per strict row and t ≤ 1, over the columns u(n), v(n) with
    x = u − v, then [tp, tn] (t = tp − tn) if strict rows exist, then one
    surplus per weak row, per strict row, and one slack for the cap."""
    n = sys.dim
    has_strict = bool(sys.strict)
    if not (sys.equalities or sys.weak or sys.strict):
        return tuple(Fraction(0) for _ in range(n))
    nuv = 2 * n
    nt = 2 if has_strict else 0
    n_weak = len(sys.weak)
    ncols = nuv + nt + n_weak + len(sys.strict) + (1 if has_strict else 0)
    A, b = [], []

    def row(coeff_x, t_coeff, surplus_col, rhs):
        r = [Fraction(0)] * ncols
        for j, a in enumerate(coeff_x):
            r[j] = Fraction(a)
            r[n + j] = -Fraction(a)
        if t_coeff:
            r[nuv] = Fraction(t_coeff)
            r[nuv + 1] = -Fraction(t_coeff)
        if surplus_col is not None:
            r[surplus_col] = Fraction(-1)
        A.append(r)
        b.append(Fraction(rhs))

    base = nuv + nt
    for a, rhs in sys.equalities:
        row(a, 0, None, rhs)
    for i, (a, rhs) in enumerate(sys.weak):
        row(a, 0, base + i, rhs)
    for i, (a, rhs) in enumerate(sys.strict):
        row(a, -1, base + n_weak + i, rhs)
    c = [Fraction(0)] * ncols
    if has_strict:
        r = [Fraction(0)] * ncols
        r[nuv], r[nuv + 1], r[-1] = Fraction(1), Fraction(-1), Fraction(1)
        A.append(r)
        b.append(Fraction(1))
        c[nuv], c[nuv + 1] = Fraction(1), Fraction(-1)

    feasible, z, value = fraction_simplex_max(A, b, c)
    if not feasible or (has_strict and value <= 0):
        return None
    x = tuple(z[j] - z[n + j] for j in range(n))
    assert sys.satisfied_by(x), "split witness failed exact re-check"
    return x

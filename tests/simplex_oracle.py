"""Reference rational simplex for the fraction-free kernel.

`fraction_simplex_max` is the two-phase Bland simplex on a tableau of
`fractions.Fraction`, divided through by the pivot at every step.  The
integer kernel `nh.exact_numeric._simplex_max` must take the same pivots and
return exactly the same (feasible, z, value); tests compare the two.
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

"""Oracle for `nh.exact_numeric.rank` and `nullspace`: the rank and the
nullspace read off the reduced row echelon form, computed by Gauss–Jordan
over `Fraction`s."""

from fractions import Fraction

from nh.exact_numeric import primitive, unit


def rref(rows):
    """Reduced row echelon form over the rationals; returns (mat, pivot_cols)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        p = mat[r][col]
        mat[r] = [x / p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                q = mat[i][col]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def fraction_rank(rows) -> int:
    """The number of pivots of the RREF."""
    return len(rref(rows)[1])


def fraction_nullspace(rows, n=None):
    """Primitive integer basis of {x : A x = 0}, one vector per free
    column of the RREF."""
    if not rows:
        return [primitive(unit(n, j)) for j in range(n)]
    ncols = len(rows[0])
    mat, pivots = rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            x[pc] = -mat[i][f]
        basis.append(primitive(x))
    return basis

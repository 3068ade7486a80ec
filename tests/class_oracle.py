"""Oracle for the support classes the general criterion ranges over.

Row j (0-based) of A·P, A lower unitriangular, is P_j + Σ_{k<j} a_k P_k
with a ∈ ℚ^j.  Its coefficient at a monomial m is the affine function
c_{jm} + Σ_k a_k c_{km}, one hyperplane of ℚ^j per m, so the supports the
row takes are those at a generic point of each nonempty flat of that
arrangement: the m whose function does not vanish on the whole flat.  A
flat of codimension r is cut out by r of the hyperplanes, so the subsets
of at most j hyperplanes reach every flat; row 0 has no parameter.  The
rows' parameters are independent, so the classes {Λ(AP)} are the product
of the row supports.
"""

import itertools

from nh.engine import LambdaTuple, enumerate_lo_tuples
from nh.exact_numeric import rank
from nh.newton_poly import ExponentSet
from nh.parity import is_even


def row_supports(p, j: int) -> set:
    """Every support of P_j + Σ_{k<j} a_k P_k, a ∈ ℚ^j."""
    monomials = sorted(set().union(*(p.support(k) for k in range(j + 1))))
    # (c_{0m}, …, c_{j−1,m}, c_{jm}): the affine function, constant last
    form = {m: tuple(p.coefficients.get((k, m), 0) for k in range(j + 1))
            for m in monomials}
    out = set()
    for size in range(j + 1):
        for cut in itertools.combinations(monomials, size):
            rows = [form[m] for m in cut]
            r = rank(rows)
            if rank([f[:-1] for f in rows]) < r:
                continue                    # the hyperplanes do not meet
            # m vanishes on the flat iff its form is in the cut's span
            out.add(frozenset(m for m in monomials
                              if rank(rows + [form[m]]) > r))
    return out


def lower_unitriangular_classes(p) -> set:
    """{Λ(AP) : A lower unitriangular}, one support tuple per class."""
    return set(itertools.product(*(row_supports(p, j) for j in range(p.d))))


def class_is_even(supports, spec) -> bool:
    """The evenness condition on one class, its empty rows dropped as
    `decide_general` drops them."""
    live = [s for s in supports if s]
    if not live:
        return True
    lam = LambdaTuple([ExponentSet.of(s, spec.n) for s in live], spec)
    return all(is_even(ft.union_lambda()) for ft in enumerate_lo_tuples(lam))

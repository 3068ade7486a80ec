"""Oracle for `nh.engine.decide_graph`: the face × axes loop.

Λ = ({e₁},…,{e_n},Λ_{n+1}) is unbounded iff some face F of N(R, S), R =
Λ_{n+1} without its unit monomials, and some A ⊆ {e₁,…,e_n} have
rank(F ∪ A) ≤ n−1 with (F ∩ R) ∪ A odd.  There is no cone-overlap test:
for x in (F*)° the x-minimal face of e_j + ℝ₊^S adds no rays beyond F's.
Nothing left after dropping the unit monomials means a linear phase, so
bounded.  `decide_graph` runs the disjoint criterion on ({e₁},…,{e_n}, R)
instead, which walks the T-sums of that tuple and shares no loop with
this one.
"""

import itertools

from nh.exact_numeric import unit
from nh.newton_poly import DomainSpec, ExponentSet, build_newton
from nh.parity import is_even
from rref_oracle import fraction_rank


def graph_is_bounded(lambda_last: ExponentSet, spec: DomainSpec) -> bool:
    n = spec.n
    rest = [m for m in lambda_last.points if sum(m) != 1]
    if not rest:
        return True
    units = [unit(n, j) for j in range(n)]
    for f in build_newton(ExponentSet.of(rest, n), spec).faces():
        gens = sorted(f.vertex_set) + sorted(f.ray_set)
        points = set(f.lambda_points())
        for size in range(n + 1):
            for axes in itertools.combinations(units, size):
                if fraction_rank(gens + list(axes)) <= n - 1 and not is_even(
                        sorted(points | set(axes))):
                    return False
    return True

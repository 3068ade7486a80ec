"""Oracle for the low-rank overlapping tuples: the product walk.

Walks the product of the face lists (each with its empty face last),
prunes a prefix whose point union already has rank n, and asks one exact
joint-interior LP per leaf, written against the supporting levels
(`geom_checks.rho_cones_interior_intersection`).  Same tuples,
same lexicographic face-index order and same union ranks as
`engine.enumerate_lo_tuples`; the witnesses are LP solutions, so they may
be other points of the same open cones.  The ranks come from the
`Fraction` RREF of `rref_oracle`, not from the exact kernel under test.
"""

from geom_checks import rho_cones_interior_intersection
from nh.engine import FaceTuple, LambdaTuple
from rref_oracle import fraction_rank


def _face_points(f) -> list:
    if f.is_empty:
        return []
    return sorted(f.vertex_set) + sorted(f.ray_set)


def walk_lo_tuples(lam: LambdaTuple):
    n = lam.spec.n
    face_lists = [p.faces() for p in lam.polyhedra]

    def walk(level: int, chosen: list, pts: list):
        if level == lam.d:
            r = fraction_rank(pts)
            if r <= n - 1:
                witness = rho_cones_interior_intersection(chosen)
                if witness is not None:
                    yield FaceTuple(tuple(chosen), r, witness)
            return
        for f in face_lists[level]:
            new_pts = pts + _face_points(f)
            if fraction_rank(new_pts) >= n and level + 1 < lam.d:
                continue  # rank is monotone in the union: sound prune
            yield from walk(level + 1, chosen + [f], new_pts)

    yield from walk(0, [], [])

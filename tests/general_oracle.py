"""Oracle for `nh.engine.decide_general`: the criterion with nothing
shared between support classes.

Each class gets its own `LambdaTuple` and is scanned on its own: its
nonempty sets T of rows in `component_subsets` order (by size, then
lexicographic), each walked in full by `enumerate_lo_tuples(lam, t)`, the
all-empty T last.  So every class rebuilds its Newton polyhedra and
Minkowski-sum lattices and rewalks every T; `decide_general` instead walks
each T-support tuple once per call and counts each class from those
walks.  The class order, the scan order and the verdict fields are those
of `decide_general`, so the two give byte-identical reports.
"""

from nh.engine import (
    DEPTH_CAP_BASE,
    DepthCapHit,
    LambdaTuple,
    Verdict,
    component_subsets,
    enumerate_lo_tuples,
    enumerate_support_classes,
)
from nh.newton_poly import ExponentSet
from nh.parity import is_even, odd_witness


def decide_general_per_class(p) -> Verdict:
    classes, cap_hit = enumerate_support_classes(p)
    count = 0
    for cls in classes:
        live = [s for s in cls.supports if s]
        if not live:
            continue
        lam = LambdaTuple(
            [ExponentSet.of(s, p.spec.n) for s in live], p.spec)
        ts = [t for t in component_subsets(lam.d) if t] + [()]
        for ft in (ft for t in ts for ft in enumerate_lo_tuples(lam, t)):
            count += 1
            u = ft.union_lambda()
            if not is_even(u):
                return Verdict(kind="unbounded", face_tuple=ft,
                               odd_subset=odd_witness(u),
                               gl_matrix=cls.matrix,
                               gl_class_count=len(classes),
                               lo_tuples=count)
    if cap_hit:
        raise DepthCapHit(f"class search cut {DEPTH_CAP_BASE ** p.d} steps "
                          f"deep with all {len(classes)} classes bounded")
    return Verdict(kind="bounded", lo_tuples=count,
                   gl_class_count=len(classes))

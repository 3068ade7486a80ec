"""Even/odd exponent sets.

A finite Ω ⊂ ℤ₊ⁿ is even when every subset sum α₁m₁+⋯+α_N m_N (α_j ∈ {0,1})
has at least one even component; odd otherwise.  The fast path reduces mod 2:
Ω is odd iff the all-ones vector lies in the GF(2) span of Γ(Ω) — subset sums
over ℤ₂ are exactly the GF(2) span — taken as int masks (`parity_masks`,
the one encoding) by the one GF(2) elimination, `gf2_eliminate`.  The equivalence is validated against the
explicit subset-sum oracle in the test suite.  The same elimination lists
every odd subset of a monomial list (`odd_subsets`), which the quadrature
harness sums over.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .exact_numeric import gf2_eliminate


def parity_masks(points: Sequence[Sequence[int]]) -> list[int]:
    """Γ(p) of each point p of the list as an int mask, bit k the parity
    of coordinate k: the GF(2) vectors `gf2_eliminate` reduces, built in
    one pass.  Points of different lengths are a ValueError."""
    if len(set(map(len, points))) > 1:
        raise ValueError("GF(2) vector length mismatch")
    masks = []
    for p in points:
        m = 0
        for c in reversed(p):
            m = m << 1 | c & 1
        masks.append(m)
    return masks


def is_even(omega) -> bool:
    """Ω (any iterable of points) even: the all-odd mask ∉ span Γ(Ω)."""
    pts = list(omega)
    return not pts or gf2_eliminate(
        parity_masks(pts), (1 << len(pts[0])) - 1)[0] is None


def odd_witness(omega) -> Optional[list]:
    """The lexicographically smallest subset of minimal size among the
    subsets of Ω whose sum is componentwise odd (as a sorted point list),
    or None if Ω is even.

    Dynamic programming over (suffix index, parity state): fewest[i] maps
    each parity state reachable from the points i, i+1, … of the sorted
    list to the fewest points that reach it.  The witness is rebuilt
    greedily, taking at each step the first point that still allows a
    completion of minimal size.  O(|Ω|·2^r) for r = rank Γ(Ω) ≤ n.
    """
    pts = sorted(omega)
    if not pts:
        return None
    masks = parity_masks(pts)
    fewest = [{0: 0}]
    for g in reversed(masks):
        nxt = dict(fewest[-1])
        for state, size in fewest[-1].items():
            nxt[state ^ g] = min(nxt.get(state ^ g, size + 1), size + 1)
        fewest.append(nxt)
    fewest.reverse()                 # fewest[i]: points i, i+1, … only
    state = (1 << len(pts[0])) - 1  # the all-odd parity vector
    need = fewest[0].get(state)
    if need is None:
        return None
    witness = []
    i = 0
    while need:
        while fewest[i + 1].get(state ^ masks[i]) != need - 1:
            i += 1
        witness.append(pts[i])
        state ^= masks[i]
        need -= 1
        i += 1
    return witness


def odd_subsets(points: Sequence[Sequence[int]],
                n: int) -> tuple[int, Iterator[int]]:
    """The GF(2) rank r of Γ over the list `points` (repeats allowed) in
    ℤ₊ⁿ, and an iterator over every subset of the list whose sum is
    componentwise odd, as bitmasks over the list indices: one solution
    plus each combination of a kernel basis, 2^{K−r} subsets of the K
    points, or none when the list is even.  The subsets are built only as
    they are drawn, so the rank costs one elimination even when 2^{K−r}
    is huge."""
    if any(len(p) != n for p in points):
        raise ValueError("GF(2) vector length mismatch")
    solution, kernel = gf2_eliminate(parity_masks(points), (1 << n) - 1)

    def subsets():
        if solution is None:
            return
        for combo in range(1 << len(kernel)):
            s = solution
            for i, z in enumerate(kernel):
                if combo >> i & 1:
                    s ^= z
            yield s
    return len(points) - len(kernel), subsets()

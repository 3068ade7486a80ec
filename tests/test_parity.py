"""Unit tests for the GF(2) evenness classifier of exponent sets.

Oracles: the subset-sum definition of evenness, the multiset Σ(Ω) of all
2^|Ω| subset sums, and the minimal odd witness by enumerating all subsets.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from nh.exact_numeric import gf2_eliminate
from nh import parity
from nh.parity import is_even, odd_witness

SIGMA_CAP = 20


def sigma_class(omega) -> list:
    """The multiset Σ(Ω) of all 2^|Ω| subset sums."""
    pts = sorted(omega)
    if len(pts) > SIGMA_CAP:
        raise ValueError(
            f"|omega| = {len(pts)} exceeds the enumeration cap {SIGMA_CAP}")
    n = len(pts[0]) if pts else 0
    sums = []
    for mask in itertools.product((0, 1), repeat=len(pts)):
        s = [0] * n
        for a, p in zip(mask, pts):
            if a:
                for i in range(n):
                    s[i] += p[i]
        sums.append(tuple(s))
    return sums


def _odd_witness_by_enumeration(omega):
    """The lexicographically smallest all-odd subset of minimal size, over
    all 2^|Ω| subsets of the sorted point list; None if Ω is even."""
    pts = sorted(omega)
    best = None
    for mask in itertools.product((0, 1), repeat=len(pts)):
        cand = [p for a, p in zip(mask, pts) if a]
        if cand and all(sum(c) % 2 == 1 for c in zip(*cand)):
            if best is None or (len(cand), cand) < (len(best), best):
                best = cand
    return best


def _is_even_oracle(omega):
    """Brute force over sign assignments: Ω is even iff some σ ∈ {±1}ⁿ has
    σ^m = −1 for every m ∈ Ω, i.e. every point has odd pairing with some
    common 0/1 mask.  Equivalently: no nonempty subset is all-odd... the
    direct definition used here is the subset-sum formulation: Ω is odd iff
    some nonempty subset has all components of its exponent sum odd."""
    omega = list(omega)
    if not omega:
        return True
    n = len(omega[0])
    for size in range(1, len(omega) + 1):
        for sub in itertools.combinations(omega, size):
            sums = [sum(m[i] for m in sub) % 2 for i in range(n)]
            if all(s == 1 for s in sums):
                return False
    return True


def test_known_cases():
    assert is_even({(1, 1, 0), (3, 2, 1)})
    assert not is_even({(1, 1, 0), (0, 0, 3)})
    assert not is_even({(1, 1)})
    assert is_even({(2, 1)})
    # contains the all-odd singleton {(3,3)}
    assert not is_even({(2, 2), (3, 3)})
    assert is_even(set())


def test_is_even_on_any_iterable():
    """`is_even` reads one pass over any iterable of points: an unsorted
    list with repeats, a set and a one-shot generator give the subset-sum
    oracle's answer and `gf2_eliminate`'s on the parity masks, for
    n = 1..4 and empty input."""
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for _ in range(2400):
        n = rng.choice([1, 1, 2, 3, 4])
        pts = [tuple(rng.randint(0, 5) for _ in range(n))
               for _ in range(rng.randint(0, 7))]
        pts += rng.sample(pts, min(len(pts), rng.randint(0, 2)))
        rng.shuffle(pts)
        expect = _is_even_oracle(set(pts))
        assert expect == (gf2_eliminate(parity.parity_masks(pts),
                                        (1 << n) - 1)[0] is None)
        for omega in (pts, set(pts), (p for p in pts)):
            assert is_even(omega) == expect, pts
        seen[expect] += 1
    assert min(seen.values()) >= 500, seen
    assert is_even([]) and is_even(iter(()))
    assert not is_even([(3,)]) and is_even([(2,), (4,)])
    assert not is_even(p for p in [(2,), (1,), (1,)])
    with pytest.raises(ValueError):
        is_even([(1, 1), (1,)])


def test_witness_known_cases():
    w = odd_witness({(2, 1), (1, 2)})
    assert w == [(1, 2), (2, 1)]
    assert odd_witness({(2, 2)}) is None
    assert odd_witness({(1, 1)}) == [(1, 1)]


def test_matches_subset_oracle():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(0, 6)
        omega = {tuple(rng.randint(0, 5) for _ in range(n))
                 for _ in range(k)}
        expect = _is_even_oracle(omega)
        assert is_even(omega) == expect, sorted(omega)
        w = odd_witness(omega)
        if expect:
            assert w is None
        else:
            assert w and set(w) <= set(omega)
            assert all(sum(m[i] for m in w) % 2 == 1
                       for i in range(n))


def test_witness_matches_enumeration():
    rng = random.Random(33)
    for _ in range(600):
        n = rng.randint(1, 5)
        omega = {tuple(rng.randint(0, 5) for _ in range(n))
                 for _ in range(rng.randint(0, 10))}
        assert odd_witness(omega) == _odd_witness_by_enumeration(omega), \
            sorted(omega)


def test_witness_minimal_beyond_sixteen_points():
    # 19 points that pair up into odd sums, then one all-odd point: the
    # minimal witness is that point alone, whatever |Ω| is
    omega = ({(2 * i, 1) for i in range(10)}
             | {(1, 2 * i) for i in range(9)} | {(9, 9)})
    assert len(omega) == 20
    assert odd_witness(omega) == [(9, 9)]
    assert odd_witness(omega - {(9, 9)}) == [(0, 1), (1, 0)]


def test_sigma_class_consistency():
    rng = random.Random(32)
    for _ in range(50):
        n = rng.randint(1, 3)
        omega = {tuple(rng.randint(0, 4) for _ in range(n))
                 for _ in range(rng.randint(1, 5))}
        sums = sigma_class(omega)
        assert len(sums) == 2 ** len(omega)
        sigs = set(parity.parity_masks(sums))
        assert ((1 << n) - 1 in sigs) == (not is_even(omega))


def test_parity_masks():
    """Bit k of a point's mask is the parity of its coordinate k."""
    masks = parity.parity_masks    # the binding is_even and the rest call
    assert masks([(3, 2, 1), (1, 0, 0), (0, 0, 5), (4, 7, 2)]) \
        == [0b101, 0b001, 0b100, 0b010]
    assert masks([()]) == [0] and masks([]) == []
    with pytest.raises(ValueError):
        masks([(1, 1), (1,)])


@given(st.integers(1, 4), st.sets(st.tuples(st.integers(0, 6),
                                            st.integers(0, 6)), max_size=6))
@settings(max_examples=100, deadline=None)
def test_monotone_under_superset(extra, omega):
    """Adding points can only destroy evenness, never create it."""
    if not is_even(omega):
        omega2 = set(omega) | {(2 * extra - 1, 2 * extra - 1)}
        # keep the old odd witness: still a subset, still all-odd
        assert not is_even(omega2)


@given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6),
                         st.integers(0, 6)), max_size=5))
@settings(max_examples=150, deadline=None)
def test_doubling_makes_even(omega):
    """Doubling every exponent gives an even set (all signatures zero)."""
    doubled = {tuple(2 * c for c in m) for m in omega}
    assert is_even(doubled)

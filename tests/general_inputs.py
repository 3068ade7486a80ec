"""`decide-general` input families.

`d4_general_input`: the d = 4 family that measures the class search and
the per-T walks at scale.

    random.Random(seed); a pool of 8 distinct nonzero exponents
    (2·randint(0, 2), randint(0, 4), randint(0, 4)), in the order drawn;
    per row, sample(pool, randint(3, 5)) with one
    choice([-2, -1, 1, 2, 3]) per monomial; n = 3, S = all, d = 4.

Seed 8 gives 394 classes and 31,156 lo tuples, seed 1 gives 1,374
classes and 257,219 lo tuples; both are bounded.

`frustum_input`: bounded inputs whose exponents are not globally even,
so that a tuple of rank n, which the criterion drops, can be odd.
"""

import itertools
import random


def d4_general_input(seed: int) -> dict:
    """The `decide-general` input of this family for `seed`."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < 8:
        m = (2 * rng.randint(0, 2), rng.randint(0, 4), rng.randint(0, 4))
        if any(m) and m not in pool:
            pool.append(m)
    rows = []
    for _ in range(4):
        rows.append({m: rng.choice([-2, -1, 1, 2, 3])
                     for m in rng.sample(pool, rng.randint(3, 5))})
    return {"n": 3, "S": [1, 2, 3],
            "lambda": [[list(m) for m in row] for row in rows],
            "coefficients": {f"{nu + 1}:({','.join(map(str, m))})": str(c)
                             for nu, row in enumerate(rows)
                             for m, c in row.items()}}


def frustum_input(rng: random.Random, d: int) -> dict:
    """A bounded `decide-general` input with an odd union of exponents.

    n = 2 (always when d = 4) or 3, and c = 4 or 6 (n = 2), 3 or 5
    (n = 3).  Row ν holds s·e_j for every j and each of its scales s, at
    least one ≤ c and one ≥ c, no scale in two rows; and some of a pool of
    one or two points with every coordinate ≥ 1 and coordinate sum c, one
    of them all odd and in some row, so rows share pool points only.

    Bounded in every support class: an elimination adds one row's
    monomials to another and cancels shared ones, all pool points, so
    each row of each class holds the axis points of its scales on every
    axis and its hull is the frustum {x ≥ 0, l ≤ Σx ≤ h} (l, h its least
    and greatest scale), with the pool points off every coordinate
    hyperplane.  A face of N(row, S) meets the frustum in a face of it,
    which holds l·e_j or h·e_j for every j (rank n) or lies in a
    coordinate hyperplane and holds axis points only.  So a union of
    rank ≤ n−1 holds axis points of at most n−1 axes and is even, while
    the all-odd pool point makes the union of all rows odd."""
    n = 2 if d == 4 else rng.choice([2, 3])
    c = rng.choice([4, 6] if n == 2 else [3, 5])
    pool = [m for m in itertools.product(range(1, c), repeat=n)
            if sum(m) == c]
    odd = [m for m in pool if all(x % 2 for x in m)]
    even = [m for m in pool if m not in odd]
    pool = [rng.choice(odd)] + rng.sample(even, min(1, len(even)))
    lows = rng.sample(range(1, c + 1), d)
    highs = rng.sample(range(c + 1, c + d + 2), d)
    rows = []
    for low, high in zip(lows, highs):
        scales = {c} if low == c and rng.random() < 0.5 else {low, high}
        rows.append({tuple(s * (i == j) for i in range(n))
                     for s in scales for j in range(n)}
                    | set(rng.sample(pool, rng.randint(1, len(pool)))))
    rows[rng.randrange(d)].add(pool[0])
    rows = [sorted(row) for row in rows]
    return {"n": n, "S": [j + 1 for j in range(n) if rng.random() < 0.5],
            "lambda": [[list(m) for m in row] for row in rows],
            "coefficients": {
                f"{nu + 1}:({','.join(map(str, m))})":
                rng.choice(["-2", "-1", "1", "2", "3/2"])
                for nu, row in enumerate(rows) for m in row}}

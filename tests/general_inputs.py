"""The d = 4 `decide-general` input family that measures the class search
and the per-T walks at scale.

    random.Random(seed); a pool of 8 distinct nonzero exponents
    (2·randint(0, 2), randint(0, 4), randint(0, 4)), in the order drawn;
    per row, sample(pool, randint(3, 5)) with one
    choice([-2, -1, 1, 2, 3]) per monomial; n = 3, S = all, d = 4.

Seed 8 gives 394 classes and 31,156 lo tuples, seed 1 gives 1,374
classes and 257,219 lo tuples; both are bounded.
"""

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

"""U_n by the three-term recurrence: a float oracle for the exact Chebyshev code."""

import numpy as np


def eval_u(n: int, y):
    """U_n(y) by the three-term recurrence; accepts scalars or arrays."""
    y = np.asarray(y, dtype=float)
    prev = np.ones_like(y)
    if n == 0:
        return prev
    cur = 2.0 * y
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * y * cur - prev
    return cur

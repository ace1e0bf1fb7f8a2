"""Float oracles for the exact Chebyshev code: U_n by the three-term
recurrence and the semicircle density."""

import math

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


def semicircle_density(x):
    """The radius-2 semicircle law, sqrt(4 - x^2) / (2 pi) on [-2, 2], zero outside."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * math.pi)

"""Shared test utilities: finite differences, error metrics, random data."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def central_difference(scalar_fn: Callable[[], float], arrays: Sequence[np.ndarray], step: float = 1e-6) -> list[np.ndarray]:
    """Numerical gradient of scalar_fn w.r.t. each array, perturbing in place."""
    return [
        central_difference_at(scalar_fn, a, np.arange(a.size), step).reshape(a.shape) for a in arrays
    ]


def central_difference_at(
    scalar_fn: Callable[[], float], array: np.ndarray, flat_indices: Sequence[int], step: float = 1e-6
) -> np.ndarray:
    """Numerical gradient of scalar_fn at the given flat indices of array, perturbing in place."""
    flat_a = array.ravel()
    grad = np.zeros(len(flat_indices))
    for k, i in enumerate(flat_indices):
        orig = flat_a[i]
        flat_a[i] = orig + step
        plus = scalar_fn()
        flat_a[i] = orig - step
        minus = scalar_fn()
        flat_a[i] = orig
        grad[k] = (plus - minus) / (2.0 * step)
    return grad


def max_rel_error(analytic: Sequence[np.ndarray], numeric: Sequence[np.ndarray], floor: float = 1e-3) -> float:
    """Worst elementwise |a - n| / max(floor, |a|, |n|).

    The floor absorbs central-difference cancellation noise (~1e-10 absolute
    at step 1e-6 in double precision) on near-zero entries, where a true
    relative error is not measurable by the oracle itself.
    """
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def random_unit_rows(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_token_batch(
    rng: np.random.Generator, n: int, vocab: int, min_len: int = 2, max_len: int = 6
) -> list[list[int]]:
    return [
        [int(t) for t in rng.integers(0, vocab, size=rng.integers(min_len, max_len + 1))]
        for _ in range(n)
    ]

"""Rank statistics and the vector coercion they share.

All arithmetic is double precision. Inputs are accepted as any sequence of
reals; outputs are float64 numpy arrays or Python floats.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvalidInputError

ZERO_NORM_EPS = 1e-12


def as_vector(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a 1-D float64 array without copying when already one."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise InvalidInputError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def average_ranks(xs: Sequence[float] | np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average (fractional) rank."""
    xs = as_vector(xs)
    order = np.argsort(xs, kind="stable")
    # runs of equal sorted values span 0-based positions first..last
    bounds = np.flatnonzero(xs[order[1:]] != xs[order[:-1]]) + 1
    first = np.concatenate([[0], bounds])
    last = np.concatenate([bounds, [len(xs)]]) - 1
    ranks = np.empty(len(xs), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def spearman_correlation(xs: Sequence[float] | np.ndarray, ys: Sequence[float] | np.ndarray) -> float:
    """Spearman's rho: Pearson correlation of average-tie ranks."""
    xs = as_vector(xs)
    ys = as_vector(ys)
    if xs.shape != ys.shape:
        raise InvalidInputError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise InvalidInputError(f"need at least 2 observations, got {len(xs)}")
    rx = average_ranks(xs)
    ry = average_ranks(ys)
    rx_c = rx - rx.mean()
    ry_c = ry - ry.mean()
    denom = float(np.linalg.norm(rx_c) * np.linalg.norm(ry_c))
    if denom <= ZERO_NORM_EPS:
        raise InvalidInputError("constant sequence has no rank correlation")
    return float(np.clip(np.dot(rx_c, ry_c) / denom, -1.0, 1.0))

"""Deterministic vector primitives and rank statistics.

All arithmetic is double precision. Inputs are accepted as any sequence of
reals; outputs are float64 numpy arrays or Python floats.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    LengthMismatchError,
    ZeroVectorError,
)

ZERO_NORM_EPS = 1e-12


def as_vector(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a 1-D float64 array without copying when already one."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def l2_normalize(v: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scale v to unit L2 norm, preserving direction."""
    v = as_vector(v)
    norm = float(np.linalg.norm(v))
    if norm <= ZERO_NORM_EPS:
        raise ZeroVectorError(f"cannot normalize a vector with norm {norm:.3e}")
    return v / norm


def cosine_similarity(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine of the angle between u and v, clamped to [-1, 1].

    Equals the plain dot product when both inputs are unit-norm. Clamping
    guards downstream acos/threshold logic against rounding like 1 + 1e-16.
    """
    u = as_vector(u)
    v = as_vector(v)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu <= ZERO_NORM_EPS or nv <= ZERO_NORM_EPS:
        raise ZeroVectorError("cosine similarity undefined for zero vectors")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


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
        raise LengthMismatchError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise DegenerateInputError(f"need at least 2 observations, got {len(xs)}")
    rx = average_ranks(xs)
    ry = average_ranks(ys)
    rx_c = rx - rx.mean()
    ry_c = ry - ry.mean()
    denom = float(np.linalg.norm(rx_c) * np.linalg.norm(ry_c))
    if denom <= ZERO_NORM_EPS:
        raise DegenerateInputError("constant sequence has no rank correlation")
    return float(np.clip(np.dot(rx_c, ry_c) / denom, -1.0, 1.0))

"""Dual momentum contrast core.

Two encoder towers (one per language) each carry a momentum copy updated by
exponential moving average, plus a fixed-capacity FIFO ring buffer of that
momentum encoder's recent outputs. The contrastive loss treats the paired
sentence's momentum key as the positive and the queue contents as negatives;
keys and queue entries are constants under differentiation (stop-gradient),
so gradients reach only the two base encoders.

Queues start empty and the loss uses only the filled region, so early steps
see fewer (or zero) negatives instead of fabricated ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoder import (
    EncoderGrads,
    EncoderParams,
    PackedBatch,
    Pooling,
    TokenSeq,
    encode_backward,
    encode_batch,
    forward_batch,
    pack_batch,
)
from .errors import (
    BatchExceedsCapacityError,
    BatchLengthMismatchError,
    DimensionMismatchError,
    NonPositiveTemperatureError,
    NonUnitInputError,
    NonUnitKeyError,
    ShapeMismatchError,
)

UNIT_NORM_TOL = 1e-6


@dataclass
class MemoryQueue:
    """Ring buffer of unit-norm key vectors with FIFO replacement.

    While filled < capacity the occupied region is the prefix [0, filled);
    once full, write_index marks the oldest slot.
    """

    slots: np.ndarray  # (capacity, dim)
    write_index: int = 0
    filled: int = 0

    @classmethod
    def empty(cls, capacity: int, dim: int) -> "MemoryQueue":
        return cls(np.zeros((capacity, dim)), 0, 0)

    @property
    def capacity(self) -> int:
        return self.slots.shape[0]

    @property
    def dim(self) -> int:
        return self.slots.shape[1]

    def negatives(self) -> np.ndarray:
        """The filled entries, in storage order (order is irrelevant to the loss)."""
        return self.slots[: self.filled] if self.filled < self.capacity else self.slots

    def insertion_order(self) -> np.ndarray:
        """Filled entries oldest-to-newest, recovered from write_index."""
        if self.filled < self.capacity:
            return self.slots[: self.filled]
        return np.concatenate([self.slots[self.write_index :], self.slots[: self.write_index]])


def enqueue_batch(queue: MemoryQueue, keys: np.ndarray | Sequence[np.ndarray]) -> None:
    """Write keys in place at consecutive ring positions, replacing the oldest entries."""
    keys = np.atleast_2d(np.asarray(keys, dtype=np.float64))
    b = keys.shape[0]
    if b > queue.capacity:
        raise BatchExceedsCapacityError(f"batch of {b} exceeds queue capacity {queue.capacity}")
    if keys.shape[1] != queue.dim:
        raise DimensionMismatchError(f"key dim {keys.shape[1]} != queue dim {queue.dim}")
    norms = np.linalg.norm(keys, axis=1)
    off = np.abs(norms - 1.0)
    if np.any(off > UNIT_NORM_TOL):
        worst = int(np.argmax(off))
        raise NonUnitKeyError(f"key {worst} has norm {norms[worst]:.9f}")
    queue.slots[(queue.write_index + np.arange(b)) % queue.capacity] = keys
    queue.write_index = int((queue.write_index + b) % queue.capacity)
    queue.filled = min(queue.filled + b, queue.capacity)


def momentum_update(base: EncoderParams, momentum_params: EncoderParams, m: float) -> None:
    """theta <- m * theta + (1 - m) * theta_base, elementwise and in place."""
    if base.shapes() != momentum_params.shapes():
        raise ShapeMismatchError(
            f"base shapes {base.shapes()} != momentum shapes {momentum_params.shapes()}"
        )
    for old, new in zip(momentum_params.arrays(), base.arrays()):
        old *= m
        old += (1.0 - m) * new


@dataclass
class DualMocoState:
    """Everything one optimization step reads: towers, EMA copies, queues.

    The trainer owns one state and updates it in place: the optimizer writes
    the base towers, advance_state the momentum towers and the queues.
    """

    base_a: EncoderParams
    base_b: EncoderParams
    momentum_a: EncoderParams  # gradient-free EMA copy of base_a
    momentum_b: EncoderParams  # gradient-free EMA copy of base_b
    queue_a: MemoryQueue  # language-A keys (momentum_a outputs)
    queue_b: MemoryQueue  # language-B keys (momentum_b outputs)
    temperature: float
    momentum: float  # EMA coefficient m in [0, 1]

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise NonPositiveTemperatureError(f"temperature must be > 0, got {self.temperature}")


def new_state(
    params_a: EncoderParams,
    params_b: EncoderParams,
    momentum_coefficient: float,
    queue_capacity: int,
    temperature: float,
) -> DualMocoState:
    """Fresh state: momentum towers start as copies of the bases, queues empty."""
    return DualMocoState(
        base_a=params_a,
        base_b=params_b,
        momentum_a=params_a.copy(),
        momentum_b=params_b.copy(),
        queue_a=MemoryQueue.empty(queue_capacity, params_a.d_out),
        queue_b=MemoryQueue.empty(queue_capacity, params_b.d_out),
        temperature=temperature,
        momentum=momentum_coefficient,
    )


@dataclass
class LossValue:
    """Bidirectional contrastive loss; total = forward + backward."""

    total: float
    forward: float
    backward: float


def _check_unit(v: np.ndarray, what: str) -> None:
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise NonUnitInputError(f"{what} has norm {norm:.9f}, expected 1")


def _nce_batch(
    queries: np.ndarray, positives: np.ndarray, negatives: np.ndarray, temperature: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row contrastive losses and query gradients.

    Row i classifies positives[i] against the shared negatives in a
    (1 + filled)-way softmax over similarities / temperature. The queries
    are divided by the temperature before the products, so the logits come
    out scaled; they go into one array, which is shifted by its row maximum
    (so exp() stays in range even at temperature 0.01) and exponentiated in
    place: exp runs once per logit. With e that array and z its row sums,
    the softmax is e / z, and the query gradient

        grad_q = (e[:, 1:] @ negatives + (e[:, :1] - z) * positives) / (z * T)

    takes 1/z on the (n, d) result instead of dividing all of e. The inputs
    are only read.
    """
    if temperature <= 0:
        raise NonPositiveTemperatureError(f"temperature must be > 0, got {temperature}")
    scaled = queries / temperature
    logits = np.empty((queries.shape[0], 1 + negatives.shape[0]))
    np.sum(scaled * positives, axis=1, out=logits[:, 0])
    np.matmul(scaled, negatives.T, out=logits[:, 1:])
    positive = logits[:, 0].copy()
    peak = logits.max(axis=1, keepdims=True)
    e = np.exp(np.subtract(logits, peak, out=logits), out=logits)
    z = e.sum(axis=1, keepdims=True)
    losses = (peak + np.log(z)).ravel() - positive
    grad_q = e[:, 1:] @ negatives
    grad_q += (e[:, :1] - z) * positives
    grad_q /= z * temperature
    return losses, grad_q


def info_nce(
    query: np.ndarray, positive_key: np.ndarray, queue: MemoryQueue, temperature: float
) -> float:
    """Contrastive loss for one query against its positive key and the queue."""
    query = np.asarray(query, dtype=np.float64)
    positive_key = np.asarray(positive_key, dtype=np.float64)
    _check_unit(query, "query")
    _check_unit(positive_key, "positive key")
    losses, _ = _nce_batch(query[None, :], positive_key[None, :], queue.negatives(), temperature)
    return float(losses[0])


def info_nce_query_grad(
    query: np.ndarray, positive_key: np.ndarray, queue: MemoryQueue, temperature: float
) -> np.ndarray:
    """d loss / d query with keys and queue treated as constants."""
    query = np.asarray(query, dtype=np.float64)
    positive_key = np.asarray(positive_key, dtype=np.float64)
    _check_unit(query, "query")
    _check_unit(positive_key, "positive key")
    _, grads = _nce_batch(query[None, :], positive_key[None, :], queue.negatives(), temperature)
    return grads[0]


def softmax_entropy(similarities: np.ndarray, temperature: float) -> float:
    """Entropy (nats) of the softmax over similarities / temperature.

    Non-decreasing in temperature for fixed similarities; low temperatures
    concentrate mass on the hardest entries.
    """
    if temperature <= 0:
        raise NonPositiveTemperatureError(f"temperature must be > 0, got {temperature}")
    logits = np.asarray(similarities, dtype=np.float64) / temperature
    peak = logits.max()
    lse = peak + np.log(np.sum(np.exp(logits - peak)))
    probs = np.exp(logits - lse)
    return float(lse - np.dot(probs, logits))


def _check_batches(
    batch_a: Sequence[TokenSeq] | PackedBatch, batch_b: Sequence[TokenSeq] | PackedBatch
) -> None:
    if len(batch_a) != len(batch_b):
        raise BatchLengthMismatchError(f"batch sizes differ: {len(batch_a)} vs {len(batch_b)}")


def bidirectional_loss(
    state: DualMocoState,
    batch_a: Sequence[TokenSeq] | PackedBatch,
    batch_b: Sequence[TokenSeq] | PackedBatch,
    pooling: Pooling | str,
) -> LossValue:
    """Mean contrastive loss in both directions; reads state without mutating it."""
    loss, _, _ = loss_and_gradients(state, batch_a, batch_b, pooling)
    return loss


def loss_and_gradients(
    state: DualMocoState,
    batch_a: Sequence[TokenSeq] | PackedBatch,
    batch_b: Sequence[TokenSeq] | PackedBatch,
    pooling: Pooling | str,
    out: tuple[EncoderGrads, EncoderGrads] | None = None,
) -> tuple[LossValue, EncoderGrads, EncoderGrads]:
    """Bidirectional loss plus gradients for both base towers.

    Keys come from the momentum towers and the queues, so they contribute no
    gradient; grads_a stems from the a->b direction only and grads_b from
    b->a, each averaged over the batch. Each side is packed once, and each
    query forward pass is reused by its backward pass. The gradients are
    written into `out` (grads_a, grads_b) when it is given.
    """
    _check_batches(batch_a, batch_b)
    pooling = Pooling(pooling)
    batch_a = pack_batch(batch_a, state.base_a.vocab_size)
    batch_b = pack_batch(batch_b, state.base_b.vocab_size)
    n = len(batch_a)

    queries_a = forward_batch(state.base_a, batch_a, pooling)
    queries_b = forward_batch(state.base_b, batch_b, pooling)
    keys_b = encode_batch(state.momentum_b, batch_b, pooling)
    keys_a = encode_batch(state.momentum_a, batch_a, pooling)

    fwd_losses, fwd_grad_q = _nce_batch(
        queries_a.h, keys_b, state.queue_b.negatives(), state.temperature
    )
    bwd_losses, bwd_grad_q = _nce_batch(
        queries_b.h, keys_a, state.queue_a.negatives(), state.temperature
    )

    out_a, out_b = out if out is not None else (None, None)
    grads_a = encode_backward(state.base_a, batch_a, pooling, fwd_grad_q / n, queries_a, out_a)
    grads_b = encode_backward(state.base_b, batch_b, pooling, bwd_grad_q / n, queries_b, out_b)

    forward = float(fwd_losses.mean())
    backward = float(bwd_losses.mean())
    return LossValue(forward + backward, forward, backward), grads_a, grads_b


def advance_state(
    state: DualMocoState,
    batch_a: Sequence[TokenSeq] | PackedBatch,
    batch_b: Sequence[TokenSeq] | PackedBatch,
    pooling: Pooling | str,
) -> None:
    """EMA-update both momentum towers, then enqueue the batch's fresh keys.

    Keys are re-encoded with the updated momentum parameters before they
    enter the queues. Mutates the momentum towers and queues of `state`; the
    base towers are only read.
    """
    _check_batches(batch_a, batch_b)
    pooling = Pooling(pooling)
    momentum_update(state.base_a, state.momentum_a, state.momentum)
    momentum_update(state.base_b, state.momentum_b, state.momentum)
    enqueue_batch(state.queue_a, encode_batch(state.momentum_a, batch_a, pooling))
    enqueue_batch(state.queue_b, encode_batch(state.momentum_b, batch_b, pooling))

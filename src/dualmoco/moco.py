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
    Pooling,
    TokenSeq,
    encode_backward,
    encode_batch,
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

    def copy(self) -> "MemoryQueue":
        return MemoryQueue(self.slots.copy(), self.write_index, self.filled)


def enqueue_batch(queue: MemoryQueue, keys: np.ndarray | Sequence[np.ndarray]) -> MemoryQueue:
    """Write keys at consecutive ring positions, replacing the oldest entries."""
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
    out = queue.copy()
    positions = (out.write_index + np.arange(b)) % out.capacity
    out.slots[positions] = keys
    out.write_index = int((out.write_index + b) % out.capacity)
    out.filled = min(out.filled + b, out.capacity)
    return out


@dataclass
class MomentumEncoder:
    """Gradient-free EMA copy of a base encoder."""

    params: EncoderParams
    coefficient: float  # m in [0, 1]


def momentum_update(base: EncoderParams, momentum: MomentumEncoder) -> MomentumEncoder:
    """theta <- m * theta + (1 - m) * theta_base, elementwise."""
    if base.shapes() != momentum.params.shapes():
        raise ShapeMismatchError(
            f"base shapes {base.shapes()} != momentum shapes {momentum.params.shapes()}"
        )
    m = momentum.coefficient
    blended = EncoderParams(
        *(m * old + (1.0 - m) * new for old, new in zip(momentum.params.arrays(), base.arrays()))
    )
    return MomentumEncoder(blended, m)


@dataclass
class DualMocoState:
    """Everything one optimization step reads: towers, EMA copies, queues."""

    base_a: EncoderParams
    base_b: EncoderParams
    momentum_a: MomentumEncoder
    momentum_b: MomentumEncoder
    queue_a: MemoryQueue  # language-A keys (momentum_a outputs)
    queue_b: MemoryQueue  # language-B keys (momentum_b outputs)
    temperature: float

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
        momentum_a=MomentumEncoder(params_a.copy(), momentum_coefficient),
        momentum_b=MomentumEncoder(params_b.copy(), momentum_coefficient),
        queue_a=MemoryQueue.empty(queue_capacity, params_a.d_out),
        queue_b=MemoryQueue.empty(queue_capacity, params_b.d_out),
        temperature=temperature,
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
    (1 + filled)-way softmax over similarities / temperature. Max-logit
    subtraction keeps exp() in range even at temperature 0.01.
    """
    if temperature <= 0:
        raise NonPositiveTemperatureError(f"temperature must be > 0, got {temperature}")
    s_pos = np.sum(queries * positives, axis=1, keepdims=True)
    if negatives.shape[0]:
        logits = np.concatenate([s_pos, queries @ negatives.T], axis=1) / temperature
    else:
        logits = s_pos / temperature
    peak = logits.max(axis=1, keepdims=True)
    lse = peak + np.log(np.sum(np.exp(logits - peak), axis=1, keepdims=True))
    losses = (lse - logits[:, :1]).ravel()
    probs = np.exp(logits - lse)
    grad_q = probs[:, :1] * positives - positives
    if negatives.shape[0]:
        grad_q = grad_q + probs[:, 1:] @ negatives
    return losses, grad_q / temperature


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


def _check_batches(batch_a: Sequence[TokenSeq], batch_b: Sequence[TokenSeq]) -> None:
    if len(batch_a) != len(batch_b):
        raise BatchLengthMismatchError(f"batch sizes differ: {len(batch_a)} vs {len(batch_b)}")


def bidirectional_loss(
    state: DualMocoState,
    batch_a: Sequence[TokenSeq],
    batch_b: Sequence[TokenSeq],
    pooling: Pooling | str,
) -> LossValue:
    """Mean contrastive loss in both directions; reads state without mutating it."""
    loss, _, _ = loss_and_gradients(state, batch_a, batch_b, pooling)
    return loss


def loss_and_gradients(
    state: DualMocoState,
    batch_a: Sequence[TokenSeq],
    batch_b: Sequence[TokenSeq],
    pooling: Pooling | str,
) -> tuple[LossValue, EncoderGrads, EncoderGrads]:
    """Bidirectional loss plus gradients for both base towers.

    Keys come from the momentum towers and the queues, so they contribute no
    gradient; grads_a stems from the a->b direction only and grads_b from
    b->a, each averaged over the batch.
    """
    _check_batches(batch_a, batch_b)
    pooling = Pooling(pooling)
    n = len(batch_a)

    queries_a = encode_batch(state.base_a, batch_a, pooling)
    queries_b = encode_batch(state.base_b, batch_b, pooling)
    keys_b = encode_batch(state.momentum_b.params, batch_b, pooling)
    keys_a = encode_batch(state.momentum_a.params, batch_a, pooling)

    fwd_losses, fwd_grad_q = _nce_batch(
        queries_a, keys_b, state.queue_b.negatives(), state.temperature
    )
    bwd_losses, bwd_grad_q = _nce_batch(
        queries_b, keys_a, state.queue_a.negatives(), state.temperature
    )

    grads_a = encode_backward(state.base_a, batch_a, pooling, fwd_grad_q / n)
    grads_b = encode_backward(state.base_b, batch_b, pooling, bwd_grad_q / n)

    forward = float(fwd_losses.mean())
    backward = float(bwd_losses.mean())
    return LossValue(forward + backward, forward, backward), grads_a, grads_b


def advance_state(
    state: DualMocoState,
    batch_a: Sequence[TokenSeq],
    batch_b: Sequence[TokenSeq],
    pooling: Pooling | str,
) -> DualMocoState:
    """EMA-update both momentum towers, then enqueue the batch's fresh keys.

    Keys are re-encoded with the updated momentum parameters before they
    enter the queues.
    """
    _check_batches(batch_a, batch_b)
    pooling = Pooling(pooling)
    momentum_a = momentum_update(state.base_a, state.momentum_a)
    momentum_b = momentum_update(state.base_b, state.momentum_b)
    queue_a = enqueue_batch(state.queue_a, encode_batch(momentum_a.params, batch_a, pooling))
    queue_b = enqueue_batch(state.queue_b, encode_batch(momentum_b.params, batch_b, pooling))
    return DualMocoState(
        base_a=state.base_a,
        base_b=state.base_b,
        momentum_a=momentum_a,
        momentum_b=momentum_b,
        queue_a=queue_a,
        queue_b=queue_b,
        temperature=state.temperature,
    )


def moco_step(
    state: DualMocoState,
    batch_a: Sequence[TokenSeq],
    batch_b: Sequence[TokenSeq],
    pooling: Pooling | str,
) -> tuple[LossValue, EncoderGrads, EncoderGrads, DualMocoState]:
    """One full contrastive step: loss, base-tower gradients, advanced state.

    The returned state has updated momentum towers and queues; the base
    parameters are untouched (the optimizer lives outside).
    """
    loss, grads_a, grads_b = loss_and_gradients(state, batch_a, batch_b, pooling)
    return loss, grads_a, grads_b, advance_state(state, batch_a, batch_b, pooling)

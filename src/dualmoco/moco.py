"""Dual momentum contrast core.

Two encoder towers (one per language) each carry a momentum copy updated by
exponential moving average, plus a fixed-capacity FIFO ring buffer of that
momentum encoder's recent outputs. The contrastive loss treats the paired
sentence's momentum key as the positive and the queue contents as negatives;
keys and queue entries are constants under differentiation (stop-gradient),
so gradients reach only the two base encoders.

The two base towers are laid out in one flat buffer, tower A's three tensors
then tower B's, and the two momentum towers in a second buffer of the same
layout, so the EMA of both is one whole-buffer blend per step.

Queues start empty and the loss uses only the filled region, so early steps
see fewer (or zero) negatives instead of fabricated ones.

A step follows MoCo's Algorithm 1 (He et al. 2020) and runs four encoder
forwards: loss_and_gradients encodes the queries and, with the momentum
towers as they stand, the keys, from one encoder.TokenTable per side (from
encoder.pack_tokens or encoder.gather_batch), which every forward checks
against its tower and whose mean-pooling order a side's query and key
forwards share; it writes the gradients into towers of arrays that its
caller owns. After the optimizer step, advance_state blends the momentum
towers and enqueues those same keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .encoder import (
    EncoderParams,
    FlatTensors,
    Pooling,
    TokenTable,
    as_pooling,
    encode_backward,
    encode_batch,
    forward_batch,
)
from .errors import ConfigError, InvalidInputError

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


def enqueue_batch(queue: MemoryQueue, keys: np.ndarray | Sequence[np.ndarray]) -> None:
    """Write keys in place at consecutive ring positions, replacing the oldest entries."""
    keys = np.atleast_2d(np.asarray(keys, dtype=np.float64))
    b = keys.shape[0]
    if b > queue.capacity:
        raise ConfigError(f"batch of {b} exceeds queue capacity {queue.capacity}")
    if keys.shape[1] != queue.dim:
        raise InvalidInputError(f"key dim {keys.shape[1]} != queue dim {queue.dim}")
    norms = np.linalg.norm(keys, axis=1)
    off = np.abs(norms - 1.0)
    if np.any(off > UNIT_NORM_TOL):
        worst = int(np.argmax(off))
        raise InvalidInputError(f"key {worst} has norm {norms[worst]:.9f}")
    queue.slots[(queue.write_index + np.arange(b)) % queue.capacity] = keys
    queue.write_index = int((queue.write_index + b) % queue.capacity)
    queue.filled = min(queue.filled + b, queue.capacity)


def momentum_update(
    base: np.ndarray, momentum: np.ndarray, m: float, scratch: np.ndarray | None = None
) -> None:
    """momentum <- m * momentum + (1 - m) * base, elementwise and in place, on
    two flat buffers of one layout (a state's towers and momentum_towers).

    (1 - m) * base goes into `scratch` when given, a buffer of the same
    length that the caller owns, so the update allocates nothing.
    """
    if base.shape != momentum.shape:
        raise InvalidInputError(f"base shape {base.shape} != momentum shape {momentum.shape}")
    momentum *= m
    momentum += np.multiply(base, 1.0 - m, out=scratch)


def tower_pair(tensors: Sequence[np.ndarray]) -> tuple[EncoderParams, EncoderParams]:
    """Towers A and B of tensors laid out as a state's towers are: the three
    tensors of tower A, then the three of tower B."""
    return EncoderParams(*tensors[:3]), EncoderParams(*tensors[3:6])


@dataclass
class DualMocoState:
    """Everything one optimization step reads: towers, EMA copies, queues.

    `towers` holds base A's three tensors, then base B's, as views of one
    flat buffer, and `momentum_towers` their gradient-free EMA copy in the
    same layout; base_a, base_b, momentum_a and momentum_b are EncoderParams
    views of the two buffers. The trainer owns one state and updates it in
    place: the optimizer writes the base towers, advance_state the momentum
    towers and the queues.
    """

    towers: FlatTensors
    momentum_towers: FlatTensors
    queue_a: MemoryQueue  # language-A keys (momentum_a outputs)
    queue_b: MemoryQueue  # language-B keys (momentum_b outputs)
    temperature: float
    momentum: float  # EMA coefficient m in [0, 1]
    base_a: EncoderParams = field(init=False)
    base_b: EncoderParams = field(init=False)
    momentum_a: EncoderParams = field(init=False)
    momentum_b: EncoderParams = field(init=False)

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        self.base_a, self.base_b = tower_pair(self.towers)
        self.momentum_a, self.momentum_b = tower_pair(self.momentum_towers)


def new_state(
    towers: FlatTensors, momentum: float, queue_capacity: int, temperature: float
) -> DualMocoState:
    """Fresh state on `towers` (base A's three tensors, then base B's, which
    the state shares): the momentum towers start as one copy of their flat
    buffer, the queues empty."""
    params_a, params_b = tower_pair(towers)
    return DualMocoState(
        towers,
        FlatTensors(towers.flat.copy(), [t.shape for t in towers]),
        MemoryQueue.empty(queue_capacity, params_a.d_out),
        MemoryQueue.empty(queue_capacity, params_b.d_out),
        temperature,
        momentum,
    )


@dataclass
class LossValue:
    """Bidirectional contrastive loss; total = forward + backward. `keys`,
    left out of comparisons, holds the positives it scored as (keys_a,
    keys_b), momentum_a and momentum_b outputs, for advance_state."""

    total: float
    forward: float
    backward: float
    keys: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)


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
        raise ConfigError(f"temperature must be > 0, got {temperature}")
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


def loss_and_gradients(
    state: DualMocoState,
    batch_a: TokenTable,
    batch_b: TokenTable,
    pooling: Pooling | str,
    out: tuple[EncoderParams, EncoderParams],
) -> LossValue:
    """Bidirectional loss; the gradients of both base towers go into `out`.

    `out` is (grads_a, grads_b), towers of arrays shaped like the bases,
    which are overwritten. Keys come from the momentum towers as they stand
    before the step, and the negatives from the queues, so they contribute
    no gradient; grads_a stems from the a->b direction only and grads_b
    from b->a, each averaged over the batch. The batches are tables
    from pack_tokens or gather_batch, and each query forward pass is reused
    by its backward pass. The result carries the keys for advance_state.
    """
    if len(batch_a) != len(batch_b):
        raise InvalidInputError(f"batch sizes differ: {len(batch_a)} vs {len(batch_b)}")
    pooling = as_pooling(pooling)
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

    encode_backward(state.base_a, batch_a, pooling, fwd_grad_q / n, queries_a, out[0])
    encode_backward(state.base_b, batch_b, pooling, bwd_grad_q / n, queries_b, out[1])

    forward = float(fwd_losses.mean())
    backward = float(bwd_losses.mean())
    return LossValue(forward + backward, forward, backward, (keys_a, keys_b))


def advance_state(
    state: DualMocoState,
    keys_a: np.ndarray,
    keys_b: np.ndarray,
    scratch: np.ndarray | None = None,
) -> None:
    """EMA-update both momentum towers in one whole-buffer blend, then
    enqueue the keys the step's loss scored (its LossValue.keys), which the
    momentum towers encoded before this blend, as in MoCo's Algorithm 1.

    Mutates the momentum towers and queues of `state`; the base towers are
    only read. `scratch`, when given, is a buffer of the length of
    state.towers.flat for the blend (see momentum_update).
    """
    momentum_update(state.towers.flat, state.momentum_towers.flat, state.momentum, scratch)
    enqueue_batch(state.queue_a, keys_a)
    enqueue_batch(state.queue_b, keys_b)

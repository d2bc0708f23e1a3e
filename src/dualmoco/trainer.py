"""Optimization loop: AdamW with warmup + cosine decay, global-norm gradient
clipping, an optional 3-way inference head trained jointly with the
contrastive objective, and the ablation switches used by the sweep harness.

Reproducibility contract: given the same config and corpus, two runs produce
bit-identical metrics logs. Every source of randomness draws from its own
seeded stream (parameter init, batch shuffling, inference-head batching,
dropout), so enabling a zero-weighted side objective cannot perturb the main
trajectory.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import evaluation
from .datagen import NliTriple, ParallelCorpus, StsPair, NLI_LABELS
from .encoder import (
    EncoderGrads,
    EncoderParams,
    PackedBatch,
    Pooling,
    encode_backward,
    encode_batch,
    forward_batch,
    gather_batch,
    init_params,
    pack_batch,
    pack_tokens,
)
from .errors import (
    ConfigError,
    EmptyCorpusError,
    InvalidLabelError,
    NumericalFailureError,
    ShapeMismatchError,
)
from .moco import DualMocoState, LossValue, advance_state, loss_and_gradients, new_state

logger = logging.getLogger(__name__)

# Read-only observer called as probe(step, state, batch_a, batch_b) before each
# step. The state is the trainer's live one, updated in place after the probe
# returns, so a probe must copy whatever it keeps.
StepProbe = Callable[[int, DualMocoState, Sequence, Sequence], None]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Hyperparameters for one training run (desk-scale defaults)."""

    epochs: int = 10
    batch_size: int = 64
    lr_max: float = 1e-2
    warmup_steps: int = 50
    queue_capacity: int = 1024
    temperature: float = 0.04
    momentum: float = 0.99
    grad_clip: float = 10.0
    weight_decay: float = 1e-4
    seed: int = 0
    pooling: Pooling = Pooling.MEAN
    d_emb: int = 32
    d_out: int = 32
    nli_weight: float = 0.1
    nli_batch_size: int = 128
    nli_dropout: float = 0.1
    ablation_no_momentum: bool = False

    def validate(self) -> None:
        checks = [
            ("epochs", self.epochs >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("lr_max", self.lr_max > 0, "> 0"),
            ("warmup_steps", self.warmup_steps >= 0, ">= 0"),
            ("queue_capacity", self.queue_capacity >= 1, ">= 1"),
            ("queue_capacity", self.queue_capacity >= self.batch_size, ">= batch_size"),
            ("temperature", self.temperature > 0, "> 0"),
            ("momentum", 0.0 <= self.momentum <= 1.0, "in [0, 1]"),
            ("grad_clip", self.grad_clip > 0, "> 0"),
            ("weight_decay", self.weight_decay >= 0, ">= 0"),
            ("d_emb", self.d_emb >= 1, ">= 1"),
            ("d_out", self.d_out >= 2, ">= 2"),
            ("nli_weight", self.nli_weight >= 0, ">= 0"),
            ("nli_batch_size", self.nli_batch_size >= 1, ">= 1"),
            ("nli_dropout", 0.0 <= self.nli_dropout < 1.0, "in [0, 1)"),
            ("pooling", self.pooling in list(Pooling), f"one of {', '.join(Pooling)}"),
        ]
        for name, ok, want in checks:
            if not ok:
                raise ConfigError(f"{name} must be {want} (got {getattr(self, name)})")


def lr_at(step: int, *, lr_max: float, warmup_steps: int, total_steps: int) -> float:
    """Linear warmup to lr_max, then cosine decay to zero at total_steps."""
    if step < warmup_steps:
        return lr_max * step / warmup_steps
    if step >= total_steps:
        return 0.0
    span = total_steps - warmup_steps
    progress = (step - warmup_steps) / span if span > 0 else 1.0
    return lr_max * 0.5 * (1.0 + math.cos(math.pi * progress))


class FlatTensors(list):
    """Tensors that are consecutive views, in order, of the 1-D buffer `flat`;
    tensor k holds elements bounds[k] to bounds[k + 1] of it."""

    def __init__(self, flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> None:
        self.flat = flat
        self.bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes])
        lo_hi = zip(self.bounds.tolist(), self.bounds[1:].tolist())
        super().__init__(flat[lo:hi].reshape(shape) for (lo, hi), shape in zip(lo_hi, shapes))

    @classmethod
    def copy_of(cls, arrays: Sequence[np.ndarray]) -> "FlatTensors":
        return cls(np.concatenate([np.ravel(a) for a in arrays]), [a.shape for a in arrays])


def _joined(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays as one flat buffer: their own when they are FlatTensors
    (with no element replaced), else a concatenated copy."""
    flat = getattr(arrays, "flat", None)
    if flat is not None and all(a.base is flat for a in arrays):
        return flat
    return np.concatenate([np.ravel(a) for a in arrays])


def clip_gradients(
    grads: Sequence[np.ndarray], max_norm: float, scratch: np.ndarray | None = None
) -> Sequence[np.ndarray]:
    """Scale all gradients by max_norm/g when the global L2 norm g exceeds max_norm.

    The squares of all gradients land in one buffer, `scratch` when given
    (it must hold as many elements as all gradients together), and g is
    summed from it tensor by tensor, in order, as per-tensor sums would be. Within the bound
    `grads` itself is returned; above it, FlatTensors over one new buffer
    holding every gradient times the scale, from a single whole-buffer
    product. A non-finite g raises NumericalFailureError.
    """
    if max_norm <= 0:
        raise ConfigError(f"grad_clip must be > 0 (got {max_norm})")
    flat = _joined(grads)
    square = np.multiply(flat, flat, out=scratch)
    bounds = list(accumulate((g.size for g in grads), initial=0))
    total = math.sqrt(sum(float(square[lo:hi].sum()) for lo, hi in zip(bounds, bounds[1:])))
    if not math.isfinite(total):
        raise NumericalFailureError(f"non-finite global gradient norm: {total}")
    if total <= max_norm:
        return grads
    return FlatTensors(flat * (max_norm / total), [g.shape for g in grads])


@dataclass
class AdamWState:
    """First/second-moment accumulators, the shared step counter, and scratch.

    The moments of all tensors live in one flat buffer each, with m[k] and
    v[k] the views of tensor k. The scratch buffers, of the same length,
    let a step run without allocating.
    """

    m: FlatTensors
    v: FlatTensors
    scratch: tuple[np.ndarray, np.ndarray]
    finite: np.ndarray  # bool
    t: int = 0

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray]) -> "AdamWState":
        shapes = [p.shape for p in params]
        total = sum(p.size for p in params)
        return cls(
            FlatTensors(np.zeros(total), shapes),
            FlatTensors(np.zeros(total), shapes),
            (np.empty(total), np.empty(total)),
            np.empty(total, dtype=bool),
        )


def adamw_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    state: AdamWState,
    lr: float,
    weight_decay: float,
) -> None:
    """Bias-corrected Adam moments with decoupled weight decay, in place:

    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta)

    Updates params, state.m, state.v and state.t. The update is a fixed
    sequence of whole-buffer operations into the state's scratch, each
    rounding as the formula's elementwise operation does, so it matches the
    per-tensor formula bit for bit. When params and grads are FlatTensors,
    as `train` lays them out, nothing is allocated; other arrays are joined
    into copies and the parameters written back. A non-finite updated
    parameter raises NumericalFailureError naming the first such tensor's
    index in params, once every tensor is updated.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatchError("params, grads and optimizer state must be parallel")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeMismatchError(f"param shape {p.shape} != grad shape {g.shape}")
    state.t += 1
    t = state.t
    p, g = _joined(params), _joined(grads)
    joined_copy = p is not getattr(params, "flat", None)
    m, v, (s, u) = state.m.flat, state.v.flat, state.scratch
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=s), g, out=s)
    np.divide(m, 1.0 - ADAM_BETA1**t, out=s)  # m_hat
    np.divide(v, 1.0 - ADAM_BETA2**t, out=u)  # v_hat
    s /= np.add(np.sqrt(u, out=u), ADAM_EPS, out=u)
    s += np.multiply(p, weight_decay, out=u)
    s *= lr
    p -= s
    if joined_copy:
        for target, updated in zip(params, FlatTensors(p, [a.shape for a in params])):
            target[...] = updated
    if not np.isfinite(p, out=state.finite).all():
        first = int(np.argmin(state.finite))
        k = int(np.searchsorted(state.m.bounds, first, side="right")) - 1
        raise NumericalFailureError(f"non-finite value in parameter {k} after AdamW step {t}")


# ---------------------------------------------------------------------------
# Inference (entailment / neutral / contradiction) multitask head
# ---------------------------------------------------------------------------


@dataclass
class NliHead:
    """Two ReLU layers of width 256 on [h_p ; h_h ; |h_p - h_h|], then 3 logits."""

    w1: np.ndarray  # (3*d_out, 256)
    b1: np.ndarray
    w2: np.ndarray  # (256, 256)
    b2: np.ndarray
    w3: np.ndarray  # (256, 3)
    b3: np.ndarray

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)


HIDDEN = 256
N_CLASSES = 3


def init_nli_head(d_out: int, rng: np.random.Generator) -> NliHead:
    def layer(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
        return rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out)), np.zeros(n_out)

    w1, b1 = layer(3 * d_out, HIDDEN)
    w2, b2 = layer(HIDDEN, HIDDEN)
    w3, b3 = layer(HIDDEN, N_CLASSES)
    return NliHead(w1, b1, w2, b2, w3, b3)


def _label_index(label: str | int) -> int:
    if isinstance(label, (int, np.integer)):
        if 0 <= int(label) < N_CLASSES:
            return int(label)
        raise InvalidLabelError(f"label index {label} outside [0, {N_CLASSES})")
    try:
        return NLI_LABELS.index(label)
    except ValueError:
        raise InvalidLabelError(f"unknown label {label!r}; expected one of {NLI_LABELS}") from None


def _label_indices(labels: Sequence[str | int]) -> np.ndarray:
    return np.fromiter(map(_label_index, labels), np.intp, len(labels))


class NliBatch(NamedTuple):
    """Inference triples packed for tower A, with their label indices."""

    premises: PackedBatch
    hypotheses: PackedBatch
    labels: np.ndarray  # (n,) indices into NLI_LABELS


def _pack_nli(triples: Sequence[NliTriple], vocab_size: int) -> NliBatch:
    return NliBatch(
        pack_batch([t.premise for t in triples], vocab_size),
        pack_batch([t.hypothesis for t in triples], vocab_size),
        _label_indices([t.label for t in triples]),
    )


def nli_loss_and_grads(
    head: NliHead,
    h_premise: np.ndarray,
    h_hypothesis: np.ndarray,
    labels: Sequence[str | int],
    dropout: float = 0.0,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[float, list[np.ndarray], np.ndarray, np.ndarray]:
    """Mean cross-entropy plus gradients for the head and both sentence inputs.

    Dropout (inverted scaling) applies to the two hidden layers only when a
    dropout rng is supplied; gradient checks run with it disabled.
    """
    hp = np.atleast_2d(np.asarray(h_premise, dtype=np.float64))
    hh = np.atleast_2d(np.asarray(h_hypothesis, dtype=np.float64))
    idx = _label_indices(labels)
    n = hp.shape[0]

    diff = hp - hh
    x = np.concatenate([hp, hh, np.abs(diff)], axis=1)

    a1 = x @ head.w1 + head.b1
    h1 = np.maximum(a1, 0.0)
    if dropout > 0.0 and dropout_rng is not None:
        mask1 = (dropout_rng.random(h1.shape) >= dropout) / (1.0 - dropout)
        h1 = h1 * mask1
    else:
        mask1 = None
    a2 = h1 @ head.w2 + head.b2
    h2 = np.maximum(a2, 0.0)
    if dropout > 0.0 and dropout_rng is not None:
        mask2 = (dropout_rng.random(h2.shape) >= dropout) / (1.0 - dropout)
        h2 = h2 * mask2
    else:
        mask2 = None
    logits = h2 @ head.w3 + head.b3

    peak = logits.max(axis=1, keepdims=True)
    lse = peak + np.log(np.sum(np.exp(logits - peak), axis=1, keepdims=True))
    loss = float(np.mean(lse.ravel() - logits[np.arange(n), idx]))

    dlogits = np.exp(logits - lse)
    dlogits[np.arange(n), idx] -= 1.0
    dlogits /= n

    dw3 = h2.T @ dlogits
    db3 = dlogits.sum(axis=0)
    dh2 = dlogits @ head.w3.T
    if mask2 is not None:
        dh2 = dh2 * mask2
    da2 = dh2 * (a2 > 0.0)
    dw2 = h1.T @ da2
    db2 = da2.sum(axis=0)
    dh1 = da2 @ head.w2.T
    if mask1 is not None:
        dh1 = dh1 * mask1
    da1 = dh1 * (a1 > 0.0)
    dw1 = x.T @ da1
    db1 = da1.sum(axis=0)

    dx = da1 @ head.w1.T
    d = hp.shape[1]
    dabs = dx[:, 2 * d :] * np.sign(diff)
    grad_hp = dx[:, :d] + dabs
    grad_hh = dx[:, d : 2 * d] - dabs
    return loss, [dw1, db1, dw2, db2, dw3, db3], grad_hp, grad_hh


def nli_forward_loss(
    head: NliHead, h_premise: np.ndarray, h_hypothesis: np.ndarray, gold: str | int
) -> float:
    """Cross-entropy of one premise/hypothesis pair against its gold label."""
    loss, _, _, _ = nli_loss_and_grads(head, h_premise[None, :], h_hypothesis[None, :], [gold])
    return loss


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    nli_head: NliHead | None
    state: DualMocoState
    step_records: list[dict] = field(default_factory=list)
    epoch_records: list[dict] = field(default_factory=list)


def step_gradients(
    state: DualMocoState,
    batch_a: Sequence | PackedBatch,
    batch_b: Sequence | PackedBatch,
    pooling: Pooling | str,
    head: NliHead | None = None,
    nli_batch: Sequence[NliTriple] | NliBatch | None = None,
    nli_weight: float = 0.0,
    nli_dropout: float = 0.0,
    dropout_rng: np.random.Generator | None = None,
    out: Sequence[np.ndarray] | None = None,
) -> tuple[LossValue, float, list[np.ndarray]]:
    """Gradients of the full step objective, flattened to one array list.

    The list is ordered [base_a tensors, base_b tensors, head tensors]; the
    inference term contributes exactly nli_weight times its own gradient on
    the shared encoder, so the combined gradient is the sum of the two
    objectives' gradients. When `out` is given (arrays in the same order,
    head tensors included when the head is), the gradients are written into
    it and `out` itself is returned as the list.
    """
    grads_out = None if out is None else (EncoderGrads(*out[:3]), EncoderGrads(*out[3:6]))
    loss, grads_a, grads_b = loss_and_gradients(state, batch_a, batch_b, pooling, grads_out)
    nli_loss = 0.0
    head_grads: list[np.ndarray] = []
    if head is not None and nli_batch:
        if not isinstance(nli_batch, NliBatch):
            nli_batch = _pack_nli(nli_batch, state.base_a.vocab_size)
        premises, hypotheses, labels = nli_batch
        hp = forward_batch(state.base_a, premises, pooling)
        hh = forward_batch(state.base_a, hypotheses, pooling)
        rng = dropout_rng if nli_dropout > 0.0 else None
        nli_loss, raw_head_grads, g_hp, g_hh = nli_loss_and_grads(
            head, hp.h, hh.h, labels, dropout=nli_dropout, dropout_rng=rng
        )
        extra = encode_backward(state.base_a, premises, pooling, g_hp, hp)
        extra.add_scaled(encode_backward(state.base_a, hypotheses, pooling, g_hh, hh))
        grads_a.add_scaled(extra, nli_weight)
        head_out = out[6:] if out is not None else [None] * len(raw_head_grads)
        head_grads = [np.multiply(nli_weight, g, out=o) for g, o in zip(raw_head_grads, head_out)]
    if out is not None:
        return loss, nli_loss, out
    return loss, nli_loss, list(grads_a.arrays()) + list(grads_b.arrays()) + head_grads


def _ensure_finite(loss: LossValue, step: int) -> None:
    if not (math.isfinite(loss.total) and math.isfinite(loss.forward) and math.isfinite(loss.backward)):
        raise NumericalFailureError(f"non-finite loss at step {step}: {loss}")


def train(
    config: TrainConfig,
    corpus: ParallelCorpus,
    nli_data: Sequence[NliTriple] | None = None,
    sts_pairs: Sequence[StsPair] | None = None,
    vocab_size_a: int | None = None,
    vocab_size_b: int | None = None,
    step_probe: StepProbe | None = None,
) -> TrainResult:
    """Run the full contrastive (optionally multitask) optimization.

    Each step: gradients of the bidirectional loss (plus the weighted
    inference objective when enabled), global clip, AdamW, EMA update of the
    momentum towers, re-encode and enqueue the batch's keys. Each side of
    the training split (and each field of the inference triples) is
    flattened and range-checked once per corpus, before the first step; a
    step's batch is an index gather from it, shared by all of the above. The
    last partial batch of every epoch is dropped so enqueue sizes stay
    constant. Per-epoch rows carry retrieval accuracy on the validation
    split and, when similarity pairs are supplied, their rank correlation.

    One DualMocoState, one AdamWState and the inference head are built here
    and updated in place every step; the result holds those same objects.
    Every trainable tensor (base A, base B, then the head) is a view of one
    flat buffer, and the step's gradients are written into one more, so
    clipping and AdamW work on whole buffers.

    `step_probe` is called once per step with the live pre-update state and
    the step's token batches. It must not mutate anything (metrics collection
    only), and must copy what it keeps: the state changes after it returns.
    """
    config.validate()
    train_pairs = corpus.split("train")
    if not train_pairs:
        raise EmptyCorpusError("corpus has no training pairs")
    if len(train_pairs) < config.batch_size:
        raise ConfigError(
            f"batch_size must be <= {len(train_pairs)} training pairs (got {config.batch_size})"
        )

    vocab_a = vocab_size_a if vocab_size_a is not None else corpus.max_token_a() + 1
    vocab_b = vocab_size_b if vocab_size_b is not None else corpus.max_token_b() + 1
    side_a = pack_tokens([p.tokens_a for p in train_pairs], vocab_a, "side A of training pair")
    side_b = pack_tokens([p.tokens_b for p in train_pairs], vocab_b, "side B of training pair")

    nli_on = nli_data is not None and len(nli_data) > 0 and config.nli_weight > 0.0
    if nli_on:
        premises = pack_tokens([t.premise for t in nli_data], vocab_a, "premise of inference triple")
        hypotheses = pack_tokens(
            [t.hypothesis for t in nli_data], vocab_a, "hypothesis of inference triple"
        )
        nli_labels = _label_indices([t.label for t in nli_data])

    seed_seq = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng, nli_rng, dropout_rng = (
        np.random.default_rng(s) for s in seed_seq.spawn(4)
    )

    params_a = init_params(vocab_a, config.d_emb, config.d_out, init_rng)
    params_b = init_params(vocab_b, config.d_emb, config.d_out, init_rng)
    head = init_nli_head(config.d_out, init_rng) if nli_on else None
    trainable = FlatTensors.copy_of(
        [*params_a.arrays(), *params_b.arrays(), *(head.arrays() if head is not None else ())]
    )
    params_a, params_b = EncoderParams(*trainable[:3]), EncoderParams(*trainable[3:6])
    if head is not None:
        head = NliHead(*trainable[6:])
    grads = FlatTensors(np.zeros_like(trainable.flat), [a.shape for a in trainable])
    opt = AdamWState.for_params(trainable)

    # Parameter sharing for the no-momentum ablation is an EMA with m = 0:
    # the momentum towers become exact copies of the bases after every step.
    m_eff = 0.0 if config.ablation_no_momentum else config.momentum
    state = new_state(params_a, params_b, m_eff, config.queue_capacity, config.temperature)

    nli_cursor = 0
    if nli_on:
        nli_order = nli_rng.permutation(len(nli_data))

    steps_per_epoch = len(train_pairs) // config.batch_size
    total_steps = config.epochs * steps_per_epoch

    result = TrainResult(head, state)
    step = 0
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(train_pairs))
        for b in range(steps_per_epoch):
            sel = order[b * config.batch_size : (b + 1) * config.batch_size]
            lr = lr_at(
                step, lr_max=config.lr_max, warmup_steps=config.warmup_steps, total_steps=total_steps
            )
            if step_probe is not None:
                step_probe(
                    step,
                    state,
                    [train_pairs[i].tokens_a for i in sel],
                    [train_pairs[i].tokens_b for i in sel],
                )
            batch_a = gather_batch(side_a, sel)
            batch_b = gather_batch(side_b, sel)
            nli_batch = None
            if head is not None:
                rows = nli_order[(nli_cursor + np.arange(config.nli_batch_size)) % len(nli_data)]
                nli_batch = NliBatch(
                    gather_batch(premises, rows), gather_batch(hypotheses, rows), nli_labels[rows]
                )
                nli_cursor = (nli_cursor + config.nli_batch_size) % len(nli_data)
            loss, nli_loss, grad_list = step_gradients(
                state,
                batch_a,
                batch_b,
                config.pooling,
                head=head,
                nli_batch=nli_batch,
                nli_weight=config.nli_weight,
                nli_dropout=config.nli_dropout,
                dropout_rng=dropout_rng,
                out=grads,
            )
            _ensure_finite(loss, step)
            if not math.isfinite(nli_loss):
                raise NumericalFailureError(f"non-finite inference loss at step {step}")

            clipped = clip_gradients(grad_list, config.grad_clip, scratch=opt.scratch[0])
            adamw_step(trainable, clipped, opt, lr, config.weight_decay)
            advance_state(state, batch_a, batch_b, config.pooling)

            result.step_records.append(
                {
                    "step": step,
                    "lr": lr,
                    "loss_total": loss.total + config.nli_weight * nli_loss,
                    "loss_fwd": loss.forward,
                    "loss_bwd": loss.backward,
                    "loss_nli": nli_loss,
                }
            )
            step += 1

        record = _epoch_eval(state, corpus, sts_pairs, config, epoch)
        result.epoch_records.append(record)
        logger.info(
            "epoch %d: acc_ab=%.4f acc_ba=%.4f sts=%s",
            epoch,
            record["retrieval_acc_ab"],
            record["retrieval_acc_ba"],
            record["sts_spearman"],
        )
    return result


def _epoch_eval(
    state: DualMocoState,
    corpus: ParallelCorpus,
    sts_pairs: Sequence[StsPair] | None,
    config: TrainConfig,
    epoch: int,
) -> dict:
    val = corpus.split("validation") or corpus.split("train")[:256]
    embs_a = encode_batch(state.base_a, [p.tokens_a for p in val], config.pooling)
    embs_b = encode_batch(state.base_b, [p.tokens_b for p in val], config.pooling)
    acc_ab, acc_ba = evaluation.retrieval_accuracy(embs_a, embs_b)
    sts = None
    if sts_pairs:
        sts = evaluation.sts_eval(state.base_a, sts_pairs, config.pooling)
    return {
        "epoch": epoch,
        "retrieval_acc_ab": acc_ab,
        "retrieval_acc_ba": acc_ba,
        "sts_spearman": sts,
    }

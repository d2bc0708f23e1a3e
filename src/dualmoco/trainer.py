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
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import evaluation
from .datagen import NliTriple, ParallelCorpus, StsPair, NLI_LABELS
from .encoder import EncoderParams, Pooling, encode_backward, encode_batch, init_params
from .errors import (
    ConfigError,
    EmptyCorpusError,
    InvalidLabelError,
    NumericalFailureError,
    ShapeMismatchError,
)
from .moco import DualMocoState, LossValue, advance_state, loss_and_gradients, new_state

logger = logging.getLogger(__name__)

# Read-only observer called as probe(step, pre-update state, batch_a, batch_b).
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


def clip_gradients(grads: Sequence[np.ndarray], max_norm: float) -> list[np.ndarray]:
    """Scale all gradients by max_norm/g when the global L2 norm g exceeds max_norm.

    A non-finite g raises NumericalFailureError.
    """
    if max_norm <= 0:
        raise ConfigError(f"grad_clip must be > 0 (got {max_norm})")
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if not math.isfinite(total):
        raise NumericalFailureError(f"non-finite global gradient norm: {total}")
    if total <= max_norm:
        return list(grads)
    scale = max_norm / total
    return [g * scale for g in grads]


@dataclass
class AdamWState:
    """First/second-moment accumulators plus the shared step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray]) -> "AdamWState":
        return cls([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params], 0)


def adamw_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    state: AdamWState,
    lr: float,
    weight_decay: float,
) -> tuple[list[np.ndarray], AdamWState]:
    """Bias-corrected Adam moments with decoupled weight decay:

    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta)
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatchError("params, grads and optimizer state must be parallel")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeMismatchError(f"param shape {p.shape} != grad shape {g.shape}")
    t = state.t + 1
    new_params: list[np.ndarray] = []
    new_m: list[np.ndarray] = []
    new_v: list[np.ndarray] = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        new_params.append(p - lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + weight_decay * p))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamWState(new_m, new_v, t)


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
    idx = np.array([_label_index(l) for l in labels], dtype=np.intp)
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
    params_a: EncoderParams
    params_b: EncoderParams
    nli_head: NliHead | None
    state: DualMocoState
    step_records: list[dict] = field(default_factory=list)
    epoch_records: list[dict] = field(default_factory=list)


def step_gradients(
    state: DualMocoState,
    batch_a: Sequence,
    batch_b: Sequence,
    pooling: Pooling | str,
    head: NliHead | None = None,
    nli_batch: Sequence[NliTriple] | None = None,
    nli_weight: float = 0.0,
    nli_dropout: float = 0.0,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[LossValue, float, list[np.ndarray]]:
    """Gradients of the full step objective, flattened to one array list.

    The list is ordered [base_a tensors, base_b tensors, head tensors]; the
    inference term contributes exactly nli_weight times its own gradient on
    the shared encoder, so the combined gradient is the sum of the two
    objectives' gradients.
    """
    loss, grads_a, grads_b = loss_and_gradients(state, batch_a, batch_b, pooling)
    nli_loss = 0.0
    head_grads: list[np.ndarray] = []
    if head is not None and nli_batch:
        hp = encode_batch(state.base_a, [t.premise for t in nli_batch], pooling)
        hh = encode_batch(state.base_a, [t.hypothesis for t in nli_batch], pooling)
        rng = dropout_rng if nli_dropout > 0.0 else None
        nli_loss, raw_head_grads, g_hp, g_hh = nli_loss_and_grads(
            head, hp, hh, [t.label for t in nli_batch], dropout=nli_dropout, dropout_rng=rng
        )
        extra = encode_backward(state.base_a, [t.premise for t in nli_batch], pooling, g_hp)
        extra.add_scaled(
            encode_backward(state.base_a, [t.hypothesis for t in nli_batch], pooling, g_hh)
        )
        grads_a.add_scaled(extra, nli_weight)
        head_grads = [nli_weight * g for g in raw_head_grads]
    return loss, nli_loss, list(grads_a.arrays()) + list(grads_b.arrays()) + head_grads


def _state_with_bases(state: DualMocoState, base_a: EncoderParams, base_b: EncoderParams) -> DualMocoState:
    return replace(state, base_a=base_a, base_b=base_b)


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
    momentum towers, re-encode and enqueue the batch's keys. The last
    partial batch of every epoch is dropped so enqueue sizes stay constant.
    Per-epoch rows carry retrieval accuracy on the validation split and,
    when similarity pairs are supplied, their rank correlation.

    `step_probe` is called once per step with the pre-update state and the
    step's batches; it must not mutate anything (metrics collection only).
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

    seed_seq = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng, nli_rng, dropout_rng = (
        np.random.default_rng(s) for s in seed_seq.spawn(4)
    )

    params_a = init_params(vocab_a, config.d_emb, config.d_out, init_rng)
    params_b = init_params(vocab_b, config.d_emb, config.d_out, init_rng)

    # Parameter sharing for the no-momentum ablation is an EMA with m = 0:
    # the momentum towers become exact copies of the bases after every step.
    m_eff = 0.0 if config.ablation_no_momentum else config.momentum
    state = new_state(params_a, params_b, m_eff, config.queue_capacity, config.temperature)

    nli_on = nli_data is not None and len(nli_data) > 0 and config.nli_weight > 0.0
    head = init_nli_head(config.d_out, init_rng) if nli_on else None
    nli_order: np.ndarray | None = None
    nli_cursor = 0
    if nli_on:
        nli_order = nli_rng.permutation(len(nli_data))

    trainable = list(state.base_a.arrays()) + list(state.base_b.arrays())
    if head is not None:
        trainable += list(head.arrays())
    opt = AdamWState.for_params(trainable)

    steps_per_epoch = len(train_pairs) // config.batch_size
    total_steps = config.epochs * steps_per_epoch

    result = TrainResult(state.base_a, state.base_b, head, state)
    step = 0
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(train_pairs))
        for b in range(steps_per_epoch):
            sel = order[b * config.batch_size : (b + 1) * config.batch_size]
            batch_a = [train_pairs[i].tokens_a for i in sel]
            batch_b = [train_pairs[i].tokens_b for i in sel]

            lr = lr_at(
                step, lr_max=config.lr_max, warmup_steps=config.warmup_steps, total_steps=total_steps
            )
            if step_probe is not None:
                step_probe(step, state, batch_a, batch_b)
            nli_batch = None
            if head is not None:
                nli_batch = [
                    nli_data[nli_order[(nli_cursor + j) % len(nli_data)]]
                    for j in range(config.nli_batch_size)
                ]
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
            )
            _ensure_finite(loss, step)
            if not math.isfinite(nli_loss):
                raise NumericalFailureError(f"non-finite inference loss at step {step}")

            params = list(state.base_a.arrays()) + list(state.base_b.arrays())
            if head is not None:
                params += list(head.arrays())
            clipped = clip_gradients(grad_list, config.grad_clip)
            params, opt = adamw_step(params, clipped, opt, lr, config.weight_decay)

            new_a = EncoderParams(*params[0:3])
            new_b = EncoderParams(*params[3:6])
            if head is not None:
                head = NliHead(*params[6:12])
            state = _state_with_bases(state, new_a, new_b)
            state = advance_state(state, batch_a, batch_b, config.pooling)

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

    result.params_a = state.base_a
    result.params_b = state.base_b
    result.nli_head = head
    result.state = state
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

"""Optimization loop: AdamW with warmup + cosine decay, global-norm gradient
clipping, and an optional 3-way inference head trained jointly with the
contrastive objective. The momentum ablation is momentum = 0, which makes
each key tower a copy of its query tower after every step.

`train` takes the training split from the corpus tables once, range-checked,
and hands every step function batches gathered from it: step_gradients
takes one encoder.TokenTable per side, and an NliBatch of two more. A
table's len() counts its sequences, and every forward checks its ids.
Every trainable tensor lives in one encoder.FlatTensors buffer: the two
towers in the layout of moco.DualMocoState.towers, which is a view of its
start, then the head. step_gradients writes the gradients into a second
buffer of that layout, and clip_gradients and adamw_step work in place on
whole buffers.

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
from typing import NamedTuple, Sequence

import numpy as np

from . import evaluation
from .datagen import NLI_LABELS, NliTriples, ParallelCorpus, StsPairs
from .encoder import (
    FlatTensors,
    Pooling,
    TokenTable,
    check_ids,
    encode_backward,
    encode_batch,
    forward_batch,
    gather_batch,
    init_params,
    table_rows,
)
from .errors import ConfigError, CorpusParseError, InvalidInputError, NumericalFailureError
from .moco import DualMocoState, LossValue, advance_state, loss_and_gradients, new_state, tower_pair

logger = logging.getLogger(__name__)

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

    def validate(self) -> None:
        checks = [
            ("epochs", self.epochs >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("lr_max", 0 < self.lr_max < math.inf, "finite and > 0"),
            ("warmup_steps", self.warmup_steps >= 0, ">= 0"),
            ("queue_capacity", self.queue_capacity >= 1, ">= 1"),
            ("queue_capacity", self.queue_capacity >= self.batch_size, ">= batch_size"),
            ("temperature", 0 < self.temperature < math.inf, "finite and > 0"),
            ("momentum", 0.0 <= self.momentum <= 1.0, "in [0, 1]"),
            ("grad_clip", self.grad_clip > 0, "> 0"),
            ("weight_decay", 0 <= self.weight_decay < math.inf, "finite and >= 0"),
            ("seed", self.seed >= 0, ">= 0"),
            ("d_emb", self.d_emb >= 1, ">= 1"),
            ("d_out", self.d_out >= 2, ">= 2"),
            ("nli_weight", 0 <= self.nli_weight < math.inf, "finite and >= 0"),
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


def clip_gradients(
    grads: FlatTensors, max_norm: float, scratch: np.ndarray | None = None
) -> FlatTensors:
    """Scale all gradients, in place, by max_norm/g when their global L2 norm g
    exceeds max_norm; return grads.

    The squares of grads.flat land in one buffer, `scratch` when given (of
    the same length), and g is summed from it tensor by tensor, in order, as
    per-tensor sums would be. Above the bound grads.flat is multiplied by the
    scale in one whole-buffer product. A non-finite g raises
    NumericalFailureError.
    """
    if max_norm <= 0:
        raise ConfigError(f"grad_clip must be > 0 (got {max_norm})")
    square = np.multiply(grads.flat, grads.flat, out=scratch)
    bounds = grads.bounds.tolist()
    total = math.sqrt(sum(float(square[lo:hi].sum()) for lo, hi in zip(bounds, bounds[1:])))
    if not math.isfinite(total):
        raise NumericalFailureError(f"non-finite global gradient norm: {total}")
    if total > max_norm:
        grads.flat *= max_norm / total
    return grads


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
    params: FlatTensors, grads: FlatTensors, state: AdamWState, lr: float, weight_decay: float
) -> None:
    """Bias-corrected Adam moments with decoupled weight decay, in place:

    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta)

    Updates params, state.m, state.v and state.t. The update is a fixed
    sequence of whole-buffer operations on params.flat and grads.flat into
    the state's scratch, each rounding as the formula's elementwise
    operation does, so it matches the per-tensor formula bit for bit and
    allocates nothing. A non-finite updated parameter raises
    NumericalFailureError naming the first such tensor's index in params,
    once every tensor is updated.
    """
    shapes = [p.shape for p in params]
    if shapes != [g.shape for g in grads] or shapes != [m.shape for m in state.m]:
        raise InvalidInputError(f"param shapes {shapes} != grad or moment shapes")
    state.t += 1
    t = state.t
    p, g = params.flat, grads.flat
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


class NliBatch(NamedTuple):
    """Inference triples for tower A, gathered from datagen.NliTriples columns."""

    premises: TokenTable
    hypotheses: TokenTable
    labels: np.ndarray  # (n,) indices into NLI_LABELS


def nli_loss_and_grads(
    head: NliHead,
    h_premise: np.ndarray,
    h_hypothesis: np.ndarray,
    labels: np.ndarray,
    dropout: float = 0.0,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[float, list[np.ndarray], np.ndarray, np.ndarray]:
    """Mean cross-entropy plus gradients for the head and both sentence inputs.

    `labels` holds the gold indices into NLI_LABELS, which `train` checks
    once per run. Dropout (inverted scaling) applies to the two hidden layers
    only when dropout > 0 and a dropout rng is supplied (the first layer's
    mask is drawn first); gradient checks run with it disabled.
    """
    hp = np.atleast_2d(np.asarray(h_premise, dtype=np.float64))
    hh = np.atleast_2d(np.asarray(h_hypothesis, dtype=np.float64))
    n = hp.shape[0]
    mask1 = mask2 = 1.0
    if dropout > 0.0 and dropout_rng is not None:
        mask1, mask2 = (
            (dropout_rng.random((n, w.shape[1])) >= dropout) / (1.0 - dropout)
            for w in (head.w1, head.w2)
        )

    diff = hp - hh
    x = np.concatenate([hp, hh, np.abs(diff)], axis=1)

    a1 = x @ head.w1 + head.b1
    h1 = np.maximum(a1, 0.0) * mask1
    a2 = h1 @ head.w2 + head.b2
    h2 = np.maximum(a2, 0.0) * mask2
    logits = h2 @ head.w3 + head.b3

    peak = logits.max(axis=1, keepdims=True)
    lse = peak + np.log(np.sum(np.exp(logits - peak), axis=1, keepdims=True))
    loss = float(np.mean(lse.ravel() - logits[np.arange(n), labels]))

    dlogits = np.exp(logits - lse)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    dw3 = h2.T @ dlogits
    db3 = dlogits.sum(axis=0)
    dh2 = (dlogits @ head.w3.T) * mask2
    da2 = dh2 * (a2 > 0.0)
    dw2 = h1.T @ da2
    db2 = da2.sum(axis=0)
    dh1 = (da2 @ head.w2.T) * mask1
    da1 = dh1 * (a1 > 0.0)
    dw1 = x.T @ da1
    db1 = da1.sum(axis=0)

    dx = da1 @ head.w1.T
    d = hp.shape[1]
    dabs = dx[:, 2 * d :] * np.sign(diff)
    grad_hp = dx[:, :d] + dabs
    grad_hh = dx[:, d : 2 * d] - dabs
    return loss, [dw1, db1, dw2, db2, dw3, db3], grad_hp, grad_hh


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    nli_head: NliHead | None
    state: DualMocoState
    # in metrics.jsonl order: each epoch's step records, then its epoch record
    records: list[dict] = field(default_factory=list)


def step_gradients(
    state: DualMocoState,
    batch_a: TokenTable,
    batch_b: TokenTable,
    pooling: Pooling | str,
    out: FlatTensors,
    head: NliHead | None = None,
    nli_batch: NliBatch | None = None,
    nli_weight: float = 0.0,
    nli_dropout: float = 0.0,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[LossValue, float]:
    """Write the gradients of the full step objective into `out`; return the
    contrastive loss, keys included, and the inference loss (0.0 if no head).

    Both sides are tables from pack_tokens or gather_batch, and the
    inference triples an NliBatch of tables for tower A. `out` holds the base_a
    tensors, the base_b tensors, then the head tensors when the head is
    given. The inference term adds exactly nli_weight times its own gradient
    to the shared encoder, so the combined gradient is the sum of the two
    objectives' gradients.
    """
    grads_a, grads_b = tower_pair(out)
    loss = loss_and_gradients(state, batch_a, batch_b, pooling, (grads_a, grads_b))
    if head is None or nli_batch is None:
        return loss, 0.0
    premises, hypotheses, labels = nli_batch
    hp = forward_batch(state.base_a, premises, pooling)
    hh = forward_batch(state.base_a, hypotheses, pooling)
    nli_loss, head_grads, g_hp, g_hh = nli_loss_and_grads(
        head, hp.h, hh.h, labels, dropout=nli_dropout, dropout_rng=dropout_rng
    )
    # one tower-A sized scratch per sentence role: premises, then hypotheses
    n_a = out.bounds[3]
    scratch = FlatTensors(np.empty(2 * n_a), grads_a.shapes() * 2)
    grads_p, grads_h = tower_pair(scratch)
    encode_backward(state.base_a, premises, pooling, g_hp, hp, grads_p)
    encode_backward(state.base_a, hypotheses, pooling, g_hh, hh, grads_h)
    out.flat[:n_a] += nli_weight * (scratch.flat[:n_a] + scratch.flat[n_a:])
    for g, o in zip(head_grads, out[6:]):
        np.multiply(nli_weight, g, out=o)
    return loss, nli_loss


def _ensure_finite(loss: LossValue, step: int) -> None:
    if not (math.isfinite(loss.total) and math.isfinite(loss.forward) and math.isfinite(loss.backward)):
        raise NumericalFailureError(f"non-finite loss at step {step}: {loss}")


def train(
    config: TrainConfig,
    corpus: ParallelCorpus,
    nli_data: NliTriples | None = None,
    sts_pairs: StsPairs | None = None,
    vocab_size: int | None = None,
) -> TrainResult:
    """Run the full contrastive (optionally multitask) optimization.

    Each step, in the order of MoCo's Algorithm 1: gradients of the
    bidirectional loss (plus the weighted inference objective when enabled)
    against the momentum towers' keys, global clip, AdamW, EMA update of the
    momentum towers, enqueue of the keys the loss used. Each side of the
    training split, and every column of the inference and similarity data,
    is taken from its table and checked once, before the first step; a
    step's batch is an index gather from it. The last
    partial batch of every epoch is dropped so enqueue sizes stay constant.
    Per-epoch rows carry retrieval accuracy on the validation split and,
    when similarity pairs are supplied, their rank correlation.
    Both towers get `vocab_size` rows, by default one more than the largest
    token id on either side of the corpus.

    One DualMocoState, one AdamWState and the inference head are built here
    and updated in place every step; the result holds those same objects.
    Every trainable tensor (the state's towers, then the head) is a view of
    one flat buffer, and the step's gradients are written into one more, so
    clipping and AdamW work on whole buffers.
    """
    config.validate()
    train_rows = corpus.split("train")
    if not len(train_rows):
        raise CorpusParseError("corpus has no training pairs")
    if len(train_rows) < config.batch_size:
        raise ConfigError(
            f"batch_size must be <= {len(train_rows)} training pairs (got {config.batch_size})"
        )

    vocab = vocab_size if vocab_size is not None else corpus.max_token() + 1
    side_a = table_rows(corpus.tokens_a, train_rows, vocab, "side A of training pair")
    side_b = table_rows(corpus.tokens_b, train_rows, vocab, "side B of training pair")
    val_rows = corpus.split("validation")
    if not len(val_rows):
        val_rows = train_rows[:256]
    val = gather_batch(corpus.tokens_a, val_rows), gather_batch(corpus.tokens_b, val_rows)

    nli_on = bool(nli_data) and config.nli_weight > 0.0
    if nli_on:
        check_ids(nli_data.premises, vocab, "premise of inference triple")
        check_ids(nli_data.hypotheses, vocab, "hypothesis of inference triple")
        bad = np.flatnonzero((nli_data.labels < 0) | (nli_data.labels >= len(NLI_LABELS)))
        if bad.size:
            code = nli_data.labels[bad[0]]
            raise InvalidInputError(f"inference triple {bad[0]}: label code {code} outside [0, {len(NLI_LABELS)})")
    if sts_pairs:
        check_ids(sts_pairs.tokens_1, vocab, "first sentence of similarity pair")
        check_ids(sts_pairs.tokens_2, vocab, "second sentence of similarity pair")
        if sts_pairs.gold.min() == sts_pairs.gold.max():  # one pair, or a constant column
            raise InvalidInputError(
                f"similarity pairs: every gold score is {float(sts_pairs.gold[0])!r}; "
                "a rank correlation needs 2 distinct scores"
            )

    seed_seq = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng, nli_rng, dropout_rng = (
        np.random.default_rng(s) for s in seed_seq.spawn(4)
    )

    params_a = init_params(vocab, config.d_emb, config.d_out, init_rng)
    params_b = init_params(vocab, config.d_emb, config.d_out, init_rng)
    head = init_nli_head(config.d_out, init_rng) if nli_on else None
    trainable = FlatTensors.copy_of(
        [*params_a.arrays(), *params_b.arrays(), *(head.arrays() if head is not None else ())]
    )
    shapes = [a.shape for a in trainable]
    towers = FlatTensors(trainable.flat[: trainable.bounds[6]], shapes[:6])
    state = new_state(towers, config.momentum, config.queue_capacity, config.temperature)
    if head is not None:
        head = NliHead(*trainable[6:])
    grads = FlatTensors(np.zeros_like(trainable.flat), shapes)
    opt = AdamWState.for_params(trainable)
    # AdamW's scratch is free from the end of its step to the next clip
    ema_scratch = opt.scratch[0][: towers.flat.size]

    if nli_on:
        nli_order = nli_rng.permutation(len(nli_data))

    steps_per_epoch = len(train_rows) // config.batch_size
    total_steps = config.epochs * steps_per_epoch

    result = TrainResult(head, state)
    step = 0
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(train_rows))
        for b in range(steps_per_epoch):
            sel = order[b * config.batch_size : (b + 1) * config.batch_size]
            lr = lr_at(
                step, lr_max=config.lr_max, warmup_steps=config.warmup_steps, total_steps=total_steps
            )
            batch_a = gather_batch(side_a, sel)
            batch_b = gather_batch(side_b, sel)
            nli_batch = None
            if head is not None:
                first = step * config.nli_batch_size
                rows = nli_order[(first + np.arange(config.nli_batch_size)) % len(nli_data)]
                nli_batch = NliBatch(
                    gather_batch(nli_data.premises, rows),
                    gather_batch(nli_data.hypotheses, rows),
                    nli_data.labels[rows],
                )
            loss, nli_loss = step_gradients(
                state,
                batch_a,
                batch_b,
                config.pooling,
                grads,
                head=head,
                nli_batch=nli_batch,
                nli_weight=config.nli_weight,
                nli_dropout=config.nli_dropout,
                dropout_rng=dropout_rng,
            )
            _ensure_finite(loss, step)
            if not math.isfinite(nli_loss):
                raise NumericalFailureError(f"non-finite inference loss at step {step}")

            clip_gradients(grads, config.grad_clip, scratch=opt.scratch[0])
            adamw_step(trainable, grads, opt, lr, config.weight_decay)
            advance_state(state, *loss.keys, scratch=ema_scratch)

            result.records.append(
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
            del loss  # its keys are queued: free them before the next step's loss

        record = _epoch_eval(state, val, sts_pairs, config, epoch)
        result.records.append(record)
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
    val: tuple[TokenTable, TokenTable],
    sts_pairs: StsPairs | None,
    config: TrainConfig,
    epoch: int,
) -> dict:
    """The epoch record: retrieval accuracy between the two sides of the
    validation pairs (the first 256 training pairs without any), and the
    rank correlation on the similarity pairs when given."""
    embs_a = encode_batch(state.base_a, val[0], config.pooling)
    embs_b = encode_batch(state.base_b, val[1], config.pooling)
    acc_ab, acc_ba = evaluation.retrieval_accuracy(embs_a, embs_b)
    sts = evaluation.sts_eval(state.base_a, sts_pairs, config.pooling) if sts_pairs else None
    return {
        "epoch": epoch,
        "retrieval_acc_ab": acc_ab,
        "retrieval_acc_ba": acc_ba,
        "sts_spearman": sts,
    }

"""Shared test utilities: finite differences, error metrics, random data, a
hand-built embedding dump, the vector primitives that the package itself no
longer needs, tower copies and the flat two-tower layout of a state, the
per-pair contrastive and inference losses with the token-list and
fresh-array entry points built on the packed step API, the two-exp
contrastive kernel, the per-tensor EMA and optimizer steps, the step rows of
a training log, per-element reference implementations of the array-coded
evaluation paths, the per-token generator draws and rendering, and the
records of a columnar dataset as tuples."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Callable, Sequence

import numpy as np

from dualmoco import moco
from dualmoco.datagen import NLI_LABELS, SPLITS, NliTriples, ParallelCorpus
from dualmoco.encoder import (
    EncoderParams,
    FlatTensors,
    Pooling,
    TokenSeq,
    TokenTable,
    encode_backward,
    forward_batch,
    gather_batch,
    pack_tensor_file,
    pack_tokens,
    token_table,
)
from dualmoco.errors import ConfigError, InvalidInputError, NumericalFailureError
from dualmoco.evaluation import EMBEDDING_MAGIC, RATIO_EPS, MiningResult, Neighbors
from dualmoco.numerics import ZERO_NORM_EPS, as_vector
from dualmoco.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    NliBatch,
    NliHead,
    TrainResult,
    nli_loss_and_grads,
    step_gradients,
)


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


def write_embedding_dump(path: str, embeddings: np.ndarray) -> None:
    """An embedding dump with a sidecar whose checksum matches, written without
    save_embeddings, which refuses non-finite rows; the loader's own checks
    then see whatever the rows hold."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    data = pack_tensor_file(EMBEDDING_MAGIC, embeddings.shape, [embeddings])
    sidecar = {
        "count": embeddings.shape[0],
        "dim": embeddings.shape[1],
        "source_corpus": "",
        "checksum": hashlib.sha256(data).hexdigest(),
    }
    with open(path, "wb") as fh:
        fh.write(data)
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)


# ---------------------------------------------------------------------------
# Vector primitives: single-vector normalization and cosine, used as oracles
# for the batched code.
# ---------------------------------------------------------------------------


def l2_normalize(v: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scale v to unit L2 norm, preserving direction."""
    v = as_vector(v)
    norm = float(np.linalg.norm(v))
    if norm <= ZERO_NORM_EPS:
        raise InvalidInputError(f"cannot normalize a vector with norm {norm:.3e}")
    return v / norm


def cosine_similarity(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine of the angle between u and v, clamped to [-1, 1].

    Equals the plain dot product when both inputs are unit-norm. Clamping
    guards downstream acos/threshold logic against rounding like 1 + 1e-16.
    """
    u = as_vector(u)
    v = as_vector(v)
    if u.shape != v.shape:
        raise InvalidInputError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu <= ZERO_NORM_EPS or nv <= ZERO_NORM_EPS:
        raise InvalidInputError("cosine similarity undefined for zero vectors")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


# ---------------------------------------------------------------------------
# Per-pair losses and token-list entry points. The library's step API takes
# batch tables and writes gradients into the caller's arrays; these pack
# token lists at the call, return gradients in fresh zeroed arrays, score one
# query or one inference pair, and read a queue back in insertion order.
# ---------------------------------------------------------------------------


def _check_unit(v: np.ndarray, what: str) -> None:
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > moco.UNIT_NORM_TOL:
        raise InvalidInputError(f"{what} has norm {norm:.9f}, expected 1")


def _nce_one(
    query: np.ndarray, positive_key: np.ndarray, queue: moco.MemoryQueue, temperature: float
) -> tuple[np.ndarray, np.ndarray]:
    """The contrastive kernel on one unit query and its unit positive key."""
    query = np.asarray(query, dtype=np.float64)
    positive_key = np.asarray(positive_key, dtype=np.float64)
    _check_unit(query, "query")
    _check_unit(positive_key, "positive key")
    return moco._nce_batch(query[None, :], positive_key[None, :], queue.negatives(), temperature)


def info_nce(
    query: np.ndarray, positive_key: np.ndarray, queue: moco.MemoryQueue, temperature: float
) -> float:
    """Contrastive loss for one query against its positive key and the queue."""
    losses, _ = _nce_one(query, positive_key, queue, temperature)
    return float(losses[0])


def info_nce_query_grad(
    query: np.ndarray, positive_key: np.ndarray, queue: moco.MemoryQueue, temperature: float
) -> np.ndarray:
    """d loss / d query with keys and queue treated as constants."""
    _, grads = _nce_one(query, positive_key, queue, temperature)
    return grads[0]


def softmax_entropy(similarities: np.ndarray, temperature: float) -> float:
    """Entropy (nats) of the softmax over similarities / temperature.

    Non-decreasing in temperature for fixed similarities; low temperatures
    concentrate mass on the hardest entries.
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    logits = np.asarray(similarities, dtype=np.float64) / temperature
    peak = logits.max()
    lse = peak + np.log(np.sum(np.exp(logits - peak)))
    probs = np.exp(logits - lse)
    return float(lse - np.dot(probs, logits))


def pack_pair(
    state: moco.DualMocoState, batch_a: Sequence[TokenSeq], batch_b: Sequence[TokenSeq]
) -> tuple[TokenTable, TokenTable]:
    """Both sides of a token-list batch packed for the state's towers."""
    return (
        pack_tokens(batch_a),
        pack_tokens(batch_b),
    )


def bidirectional_loss(
    state: moco.DualMocoState,
    batch_a: Sequence[TokenSeq],
    batch_b: Sequence[TokenSeq],
    pooling: Pooling | str,
) -> moco.LossValue:
    """Mean contrastive loss in both directions; reads state without mutating it."""
    loss, _, _ = loss_and_new_gradients(state, *pack_pair(state, batch_a, batch_b), pooling)
    return loss


def copy_tower(params: EncoderParams) -> EncoderParams:
    """A tower of copies of params' arrays."""
    return EncoderParams(*(a.copy() for a in params.arrays()))


def flat_towers(params_a: EncoderParams, params_b: EncoderParams) -> FlatTensors:
    """Copies of two towers in the layout of DualMocoState.towers: tower A's
    three tensors, then tower B's, as views of one flat buffer."""
    return FlatTensors.copy_of([*params_a.arrays(), *params_b.arrays()])


def zeros_like_tower(params: EncoderParams) -> EncoderParams:
    """A tower of zeroed arrays shaped like params, for gradients."""
    return EncoderParams(*(np.zeros_like(a) for a in params.arrays()))


def loss_and_new_gradients(
    state: moco.DualMocoState, batch_a: TokenTable, batch_b: TokenTable, pooling: Pooling | str
) -> tuple[moco.LossValue, EncoderParams, EncoderParams]:
    """moco.loss_and_gradients with both towers' gradients in fresh arrays."""
    grads = (zeros_like_tower(state.base_a), zeros_like_tower(state.base_b))
    loss = moco.loss_and_gradients(state, batch_a, batch_b, pooling, grads)
    return (loss, *grads)


def step_new_gradients(
    state: moco.DualMocoState,
    batch_a: TokenTable,
    batch_b: TokenTable,
    pooling: Pooling | str,
    head: NliHead | None = None,
    **kwargs,
) -> tuple[moco.LossValue, float, FlatTensors]:
    """trainer.step_gradients into a fresh zeroed FlatTensors of base A,
    base B and, when given, the head; returns it after the two losses."""
    arrays = [*state.base_a.arrays(), *state.base_b.arrays(), *(head.arrays() if head else ())]
    out = FlatTensors(np.zeros(sum(a.size for a in arrays)), [a.shape for a in arrays])
    loss, nli_loss = step_gradients(state, batch_a, batch_b, pooling, out, head=head, **kwargs)
    return loss, nli_loss, out


def step_records(result: TrainResult) -> list[dict]:
    """The per-step rows of a training log, in order."""
    return [r for r in result.records if "step" in r]


def insertion_order(queue: moco.MemoryQueue) -> np.ndarray:
    """Filled queue entries oldest-to-newest, recovered from write_index."""
    if queue.filled < queue.capacity:
        return queue.slots[: queue.filled]
    return np.concatenate([queue.slots[queue.write_index :], queue.slots[: queue.write_index]])


def encode_backward_tokens(
    params: EncoderParams, batch: Sequence[TokenSeq], pooling: Pooling | str, upstream: np.ndarray
) -> EncoderParams:
    """encode_backward of a token-list batch, after its own pack and forward
    pass, into fresh zeroed arrays."""
    packed = pack_tokens(batch)
    forward = forward_batch(params, packed, pooling)
    grads = zeros_like_tower(params)
    encode_backward(params, packed, pooling, upstream, forward, grads)
    return grads


def gather_nli(triples: NliTriples, rows: Sequence[int]) -> NliBatch:
    """The batch of inference triples `rows`, in that order."""
    rows = np.asarray(rows)
    return NliBatch(gather_batch(triples.premises, rows), gather_batch(triples.hypotheses, rows), triples.labels[rows])


def label_codes(labels: Sequence[str]) -> np.ndarray:
    """The indices of label names in NLI_LABELS, as an NliTriples stores them."""
    return np.array([NLI_LABELS.index(label) for label in labels], dtype=np.int8)


def nli_forward_loss(
    head: NliHead, h_premise: np.ndarray, h_hypothesis: np.ndarray, gold: str
) -> float:
    """Cross-entropy of one premise/hypothesis pair against its gold label."""
    labels = label_codes([gold])
    loss, _, _, _ = nli_loss_and_grads(head, h_premise[None, :], h_hypothesis[None, :], labels)
    return loss


def reference_nce_batch(
    queries: np.ndarray, positives: np.ndarray, negatives: np.ndarray, temperature: float
) -> tuple[np.ndarray, np.ndarray]:
    """The contrastive kernel with two exp passes: one for the log-sum-exp,
    one for probs = exp(logits - lse)."""
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


def reference_momentum_update(base: EncoderParams, momentum: EncoderParams, m: float) -> None:
    """The per-tensor EMA, in place: each momentum tensor <- m * itself + (1 - m) * base's."""
    for old, new in zip(momentum.arrays(), base.arrays()):
        old *= m
        old += (1.0 - m) * new


def reference_clip_gradients(grads: Sequence[np.ndarray], max_norm: float) -> list[np.ndarray]:
    """Global-norm clipping tensor by tensor: the inputs within max_norm,
    else each tensor times max_norm / norm."""
    if max_norm <= 0:
        raise ConfigError(f"grad_clip must be > 0 (got {max_norm})")
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if not math.isfinite(total):
        raise NumericalFailureError(f"non-finite global gradient norm: {total}")
    if total <= max_norm:
        return list(grads)
    scale = max_norm / total
    return [g * scale for g in grads]


def reference_adamw_step(
    params: Sequence[np.ndarray], grads: Sequence[np.ndarray], state, lr: float, weight_decay: float
) -> None:
    """AdamW tensor by tensor, in place on params and on state.m[k],
    state.v[k] and state.t; stops at the first tensor left non-finite."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise InvalidInputError("params, grads and optimizer state must be parallel")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise InvalidInputError(f"param shape {p.shape} != grad shape {g.shape}")
    state.t += 1
    t = state.t
    for k, (p, g, m, v) in enumerate(zip(params, grads, state.m, state.v)):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p -= lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + weight_decay * p)
        if not np.isfinite(p).all():
            raise NumericalFailureError(f"non-finite value in parameter {k} after AdamW step {t}")


# ---------------------------------------------------------------------------
# Per-element references: the full-row sort top-k and its blocked search,
# the per-candidate margin and mining, the cursor threshold sweep and the
# tie-walking average ranks that the array code in dualmoco.evaluation and
# dualmoco.numerics must reproduce bit for bit.
# ---------------------------------------------------------------------------


def reference_top_k(sims: np.ndarray, k: int) -> Neighbors:
    """First k columns of a stable descending sort of each row."""
    n, m = sims.shape
    if k < 1 or k > m:
        raise ConfigError(f"k={k} not in [1, {m}]")
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return Neighbors(order, np.take_along_axis(sims, order, axis=1))


def reference_nn_search(queries: np.ndarray, corpus: np.ndarray, k: int, block_size: int = 512) -> Neighbors:
    """reference_top_k of each block_size-row block of queries @ corpus.T, stacked."""
    blocks = [
        reference_top_k(queries[start:start + block_size] @ corpus.T, k)
        for start in range(0, queries.shape[0], block_size)
    ]
    return Neighbors(np.concatenate([b.indices for b in blocks]), np.concatenate([b.sims for b in blocks]))


def reference_margin_score(
    i: int,
    j: int,
    cos: float,
    nn_a: Neighbors,
    nn_b: Neighbors,
    k: int = 3,
    variant: str = "distance",
) -> float:
    if k < 1 or k > nn_a.sims.shape[1] or k > nn_b.sims.shape[1]:
        raise ConfigError(f"k={k} exceeds available neighbor lists")
    a = float(cos)
    b = float(nn_a.sims[i, :k].sum() / (2 * k) + nn_b.sims[j, :k].sum() / (2 * k))
    if variant == "distance":
        return a - b
    if variant == "ratio":
        if b <= RATIO_EPS:
            raise InvalidInputError(f"neighborhood average {b:.3e} too small for ratio margin")
        return a / b
    raise ConfigError(f"variant must be 'distance' or 'ratio' (got {variant!r})")


def reference_mine_bitext(
    embs_a: np.ndarray,
    embs_b: np.ndarray,
    k: int = 3,
    variant: str = "distance",
    threshold: float = float("-inf"),
    exhaustive: bool = False,
) -> MiningResult:
    """Candidates are the union of rank-1 matches, or every cross pair if
    `exhaustive`. Neighbor lists come from 512-row block products in both
    directions and a candidate's cosine is the dot product of its two rows."""
    embs_a = np.atleast_2d(np.asarray(embs_a, dtype=np.float64))
    embs_b = np.atleast_2d(np.asarray(embs_b, dtype=np.float64))
    if embs_a.shape[0] == 0 or embs_b.shape[0] == 0:
        raise InvalidInputError("both mining sides must be non-empty")
    nn_a = reference_nn_search(embs_a, embs_b, k)
    nn_b = reference_nn_search(embs_b, embs_a, k)
    if exhaustive:
        candidates = [(i, j) for i in range(embs_a.shape[0]) for j in range(embs_b.shape[0])]
    else:
        forward = {(i, int(nn_a.indices[i, 0])) for i in range(embs_a.shape[0])}
        backward = {(int(nn_b.indices[j, 0]), j) for j in range(embs_b.shape[0])}
        candidates = sorted(forward | backward)
    scored = [
        (i, j, reference_margin_score(i, j, np.einsum("i,i->", embs_a[i], embs_b[j]), nn_a, nn_b, k, variant))
        for i, j in candidates
    ]
    accepted = [(i, j) for i, j, s in scored if s > threshold]
    return MiningResult(scored, accepted, threshold)


def reference_search_threshold(
    scored: Sequence[tuple[int, int, float]], gold_pairs: Sequence[tuple[int, int]]
) -> tuple[float, float]:
    gold_set = set(map(tuple, gold_pairs))
    if not gold_set:
        raise InvalidInputError("threshold search needs at least one gold pair")
    by_score = sorted(scored, key=lambda t: -t[2])
    scores = [s for _, _, s in by_score]
    thresholds = [float("inf")]
    for left, right in zip(scores, scores[1:]):
        if left != right:
            thresholds.append(0.5 * (left + right))
    thresholds.append(float("-inf"))
    n_gold = len(gold_set)
    best_f1 = 0.0
    best_lambda = float("inf")
    tp = 0
    taken = 0
    cursor = 0
    for lam in thresholds:
        while cursor < len(by_score) and by_score[cursor][2] > lam:
            i, j, _ = by_score[cursor]
            taken += 1
            if (i, j) in gold_set:
                tp += 1
            cursor += 1
        precision = tp / taken if taken else 0.0
        recall = tp / n_gold
        score = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        if score > best_f1:
            best_f1 = score
            best_lambda = lam
    return best_lambda, best_f1


def reference_average_ranks(xs: Sequence[float] | np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(len(xs), dtype=np.float64)
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


# ---------------------------------------------------------------------------
# Per-token references for dualmoco.datagen: concept draws converted element
# by element with int(), and rendering that indexes the lexicon's arrays and
# converts every token. Generation with these patched in must write the same
# bytes as the list-backed code.
# ---------------------------------------------------------------------------


def reference_draw_concepts(rng: np.random.Generator, pool, size: int) -> tuple[int, ...]:
    return tuple(int(c) for c in rng.choice(pool, size=size, replace=False))


def reference_render(
    concepts: Sequence[int], surface, noise, noise_rate: float, rng: np.random.Generator
) -> tuple[int, ...]:
    tokens: list[int] = []
    for c in concepts:
        if noise_rate > 0.0 and rng.random() < noise_rate:
            tokens.append(int(noise[rng.integers(len(noise))]))
        tokens.append(int(surface[c]))
    return tuple(tokens)


# ---------------------------------------------------------------------------
# A parallel corpus holds its pairs as columns; these give them as tuples.
# ---------------------------------------------------------------------------


def sequences(table: TokenTable, rows: Sequence[int] | None = None) -> list[tuple[int, ...]]:
    """The sequences of a token table, or those at `rows` in that order, as
    tuples of Python ints."""
    rows = range(len(table.lengths)) if rows is None else np.asarray(rows).tolist()
    return [tuple(table.ids[table.starts[i] : table.starts[i] + table.lengths[i]].tolist()) for i in rows]


def columns(dataset) -> dict:
    """The fields of a columnar dataset by name, each table as its
    sequences and each array as a list, for comparing two datasets."""
    values = {f.name: getattr(dataset, f.name) for f in dataclasses.fields(dataset)}
    return {
        name: sequences(v) if isinstance(v, TokenTable) else v.tolist() if isinstance(v, np.ndarray) else v
        for name, v in values.items()
    }


def corpus_rows(corpus: ParallelCorpus) -> list[tuple]:
    """Each pair of a corpus as (tokens_a, tokens_b, concepts, split name)."""
    names = [SPLITS[code] for code in corpus.split_codes.tolist()]
    columns = (sequences(corpus.tokens_a), sequences(corpus.tokens_b), sequences(corpus.concepts))
    return list(zip(*columns, names))


def corpus_of(rows: Sequence[tuple[Sequence[int], Sequence[int], Sequence[int], str]]) -> ParallelCorpus:
    """The corpus of (tokens_a, tokens_b, concepts, split name) rows."""

    def table(column: int) -> TokenTable:
        seqs = [row[column] for row in rows]
        flat = [t for seq in seqs for t in seq]
        return token_table(np.array(flat, dtype=np.int64), [len(seq) for seq in seqs])

    codes = np.array([SPLITS.index(row[3]) for row in rows], dtype=np.int8)
    return ParallelCorpus(table(0), table(1), table(2), codes)

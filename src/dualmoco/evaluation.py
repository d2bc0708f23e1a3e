"""Evaluation harness over frozen embedding matrices.

Nearest-neighbor search is exact (blocked dense dot products, ties broken
toward the lower index). Bitext mining scores candidate pairs with a
neighborhood-corrected margin: the raw cosine is offset (or divided) by the
average similarity of each side's k nearest neighbors, which counteracts
hubs that are close to everything. The acceptance threshold is swept on a
validation set to maximize F1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoder import EncoderParams, Pooling, atomic_write, encode_batch, read_tensor_file, write_tensor_file
from .errors import (
    CorpusParseError,
    DegenerateInputError,
    DimensionMismatchError,
    EmptySideError,
    KTooLargeError,
    LengthMismatchError,
    NoGoldPairsError,
    ZeroDenominatorError,
)
from .numerics import spearman_correlation

EMBEDDING_MAGIC = b"DMCE"

RATIO_EPS = 1e-12

Pair = tuple[int, int]


@dataclass
class Neighbors:
    """Top-k neighbor indices and similarities per query, sorted descending."""

    indices: np.ndarray  # (n_queries, k) int
    sims: np.ndarray     # (n_queries, k) float


@dataclass
class MiningResult:
    scored: list[tuple[int, int, float]]  # every candidate pair with its margin score
    accepted: list[Pair]                  # candidates with score > threshold
    threshold: float


def top_k_from_sims(sims: np.ndarray, k: int) -> Neighbors:
    """Exact top-k per row of a similarity matrix; ties keep the lower index."""
    n, m = sims.shape
    if k < 1 or k > m:
        raise KTooLargeError(f"k={k} not in [1, {m}]")
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return Neighbors(order, np.take_along_axis(sims, order, axis=1))


def nn_search(queries: np.ndarray, corpus: np.ndarray, k: int, block_size: int = 512) -> Neighbors:
    """Exact cosine top-k of unit-norm queries against a unit-norm corpus."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    corpus = np.atleast_2d(np.asarray(corpus, dtype=np.float64))
    if queries.shape[1] != corpus.shape[1]:
        raise DimensionMismatchError(
            f"query dim {queries.shape[1]} != corpus dim {corpus.shape[1]}"
        )
    if k < 1 or k > corpus.shape[0]:
        raise KTooLargeError(f"k={k} not in [1, {corpus.shape[0]}]")
    indices = np.empty((queries.shape[0], k), dtype=np.int64)
    sims = np.empty((queries.shape[0], k))
    for start in range(0, queries.shape[0], block_size):
        stop = min(start + block_size, queries.shape[0])
        block = top_k_from_sims(queries[start:stop] @ corpus.T, k)
        indices[start:stop] = block.indices
        sims[start:stop] = block.sims
    return Neighbors(indices, sims)


def retrieval_accuracy(src_embs: np.ndarray, tgt_embs: np.ndarray) -> tuple[float, float]:
    """Fraction of rank-1 hits on the aligned index, in both directions."""
    src_embs = np.atleast_2d(np.asarray(src_embs, dtype=np.float64))
    tgt_embs = np.atleast_2d(np.asarray(tgt_embs, dtype=np.float64))
    if src_embs.shape[0] != tgt_embs.shape[0]:
        raise LengthMismatchError(
            f"sides must align: {src_embs.shape[0]} vs {tgt_embs.shape[0]}"
        )
    n = src_embs.shape[0]
    fwd = nn_search(src_embs, tgt_embs, 1).indices[:, 0]
    bwd = nn_search(tgt_embs, src_embs, 1).indices[:, 0]
    aligned = np.arange(n)
    return float(np.mean(fwd == aligned)), float(np.mean(bwd == aligned))


def margin_score(
    i: int,
    j: int,
    sims: np.ndarray,
    nn_a: Neighbors,
    nn_b: Neighbors,
    k: int = 3,
    variant: str = "distance",
) -> float:
    """Neighborhood-corrected similarity of pair (i, j).

    b averages the k nearest-neighbor similarities of both endpoints
    (each side contributing half); the distance variant returns
    cos(i, j) - b, the ratio variant cos(i, j) / b.
    """
    if k < 1 or k > nn_a.sims.shape[1] or k > nn_b.sims.shape[1]:
        raise KTooLargeError(f"k={k} exceeds available neighbor lists")
    a = float(sims[i, j])
    b = float(nn_a.sims[i, :k].sum() / (2 * k) + nn_b.sims[j, :k].sum() / (2 * k))
    if variant == "distance":
        return a - b
    if variant == "ratio":
        if b <= RATIO_EPS:
            raise ZeroDenominatorError(f"neighborhood average {b:.3e} too small for ratio margin")
        return a / b
    raise ValueError(f"variant must be 'distance' or 'ratio' (got {variant!r})")


def mine_bitext(
    embs_a: np.ndarray,
    embs_b: np.ndarray,
    k: int = 3,
    variant: str = "distance",
    threshold: float = float("-inf"),
    exhaustive: bool = False,
) -> MiningResult:
    """Score candidate pairs and accept those whose margin exceeds the threshold.

    Candidates are the union of each side's rank-1 matches; `exhaustive`
    scores every cross pair instead (kept for oracle comparisons). A
    sentence may appear in several accepted pairs.
    """
    embs_a = np.atleast_2d(np.asarray(embs_a, dtype=np.float64))
    embs_b = np.atleast_2d(np.asarray(embs_b, dtype=np.float64))
    if embs_a.shape[0] == 0 or embs_b.shape[0] == 0:
        raise EmptySideError("both mining sides must be non-empty")
    sims = embs_a @ embs_b.T
    nn_a = top_k_from_sims(sims, k)
    nn_b = top_k_from_sims(sims.T, k)

    if exhaustive:
        candidates = [(i, j) for i in range(embs_a.shape[0]) for j in range(embs_b.shape[0])]
    else:
        forward = {(i, int(nn_a.indices[i, 0])) for i in range(embs_a.shape[0])}
        backward = {(int(nn_b.indices[j, 0]), j) for j in range(embs_b.shape[0])}
        candidates = sorted(forward | backward)

    scored = [
        (i, j, margin_score(i, j, sims, nn_a, nn_b, k, variant)) for i, j in candidates
    ]
    accepted = [(i, j) for i, j, s in scored if s > threshold]
    return MiningResult(scored, accepted, threshold)


def f1(predicted: Sequence[Pair], gold: Sequence[Pair]) -> tuple[float, float, float]:
    """Set-overlap precision, recall, and F1; empty prediction scores zero."""
    pred_set = set(map(tuple, predicted))
    gold_set = set(map(tuple, gold))
    tp = len(pred_set & gold_set)
    precision = tp / len(pred_set) if pred_set else 0.0
    recall = tp / len(gold_set) if gold_set else 0.0
    score = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, score


def search_threshold(
    scored: Sequence[tuple[int, int, float]], gold_pairs: Sequence[Pair]
) -> tuple[float, float]:
    """Pick the acceptance threshold maximizing F1 on validation candidates.

    Sweeps the midpoints between consecutive distinct scores plus +/-inf
    sentinels; on ties the larger threshold (higher precision) wins.
    """
    gold_set = set(map(tuple, gold_pairs))
    if not gold_set:
        raise NoGoldPairsError("threshold search needs at least one gold pair")

    by_score = sorted(scored, key=lambda t: -t[2])
    scores = [s for _, _, s in by_score]
    thresholds = [float("inf")]
    for left, right in zip(scores, scores[1:]):
        if left != right:
            thresholds.append(0.5 * (left + right))
    thresholds.append(float("-inf"))

    n_gold = len(gold_set)
    best_f1 = 0.0
    best_lambda = float("inf")  # accept nothing until something scores better
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


def sts_eval(
    encoder: EncoderParams, pairs: Sequence, pooling: Pooling | str
) -> float:
    """Rank correlation between model cosine similarity and gold scores."""
    if len(pairs) < 2:
        raise DegenerateInputError("need at least 2 scored pairs")
    h1 = encode_batch(encoder, [p.tokens_1 for p in pairs], pooling)
    h2 = encode_batch(encoder, [p.tokens_2 for p in pairs], pooling)
    model = np.sum(h1 * h2, axis=1)
    gold = [p.gold_sim for p in pairs]
    return spearman_correlation(model, gold)


# ---------------------------------------------------------------------------
# Embedding dump: a tensor file (see encoder.write_tensor_file) with magic
# "DMCE", header (count, dim) and one row-major matrix; a JSON sidecar
# records {count, dim, source_corpus, checksum} with the sha256 of the
# binary file.
# ---------------------------------------------------------------------------


def save_embeddings(path: str, embeddings: np.ndarray, source_corpus: str = "") -> None:
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    digest = write_tensor_file(path, EMBEDDING_MAGIC, embeddings.shape, [embeddings])
    sidecar = {
        "count": embeddings.shape[0],
        "dim": embeddings.shape[1],
        "source_corpus": source_corpus,
        "checksum": digest,
    }
    atomic_write(path + ".json", (json.dumps(sidecar, indent=2) + "\n").encode("utf-8"))


def load_embeddings(path: str) -> np.ndarray:
    """Read an embedding dump and verify it against its sidecar."""
    (count, dim), (embeddings,), digest = read_tensor_file(
        path, EMBEDDING_MAGIC, 2, lambda header: [header]
    )
    with open(path + ".json", "r", encoding="utf-8") as fh:
        try:
            sidecar = json.load(fh)
        except json.JSONDecodeError as e:
            raise CorpusParseError(f"{path}.json: invalid JSON ({e})") from e
    if not isinstance(sidecar, dict):
        raise CorpusParseError(f"{path}.json: sidecar must be a JSON object")
    expected = {"count": count, "dim": dim, "checksum": digest}
    for key, value in expected.items():
        if sidecar.get(key) != value:
            raise CorpusParseError(
                f"{path}: {key} {value!r} does not match sidecar value {sidecar.get(key)!r}"
            )
    return embeddings

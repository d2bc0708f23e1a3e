"""Evaluation harness over frozen embedding matrices.

Nearest-neighbor search is exact: dense dot products over blocks of query
rows, then a per-row selection of the k best columns rather than a sort of
the whole row (k argmax passes, each masking the previous winner). Neighbors
come out by descending similarity with ties broken toward the lower index,
the order a stable sort of each row would give. A NaN similarity has no
rank and is refused. Bitext mining scores candidate pairs with a
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

from .datagen import StsPairs
from .encoder import (
    EncoderParams,
    Pooling,
    atomic_write,
    check_ids,
    encode_batch,
    pack_tensor_file,
    read_json_object,
    read_tensor_file,
)
from .errors import ConfigError, CorpusParseError, InvalidInputError, NumericalFailureError
from .numerics import spearman_correlation

EMBEDDING_MAGIC = b"DMCE"

RATIO_EPS = 1e-12

MARGIN_VARIANTS = ("distance", "ratio")

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
    """Exact top-k per row of a similarity matrix, by k argmax passes.

    Row i's neighbors are its k largest entries by descending value, ties
    going to the lower column index (+0.0 and -0.0 tie), exactly as the
    first k columns of a stable descending sort of the row. Each pass takes
    the first maximum of every row and masks it with -inf for the next. A
    writable contiguous input takes the masks itself, and they are undone
    before the call returns or raises, so the input reads as it did; any
    other input (read-only, or a strided view whose entries may share
    memory) masks one C-order copy instead. k = 1 writes nothing. The first
    pass brings a NaN in a row to the top, and a NaN raises
    InvalidInputError. The result owns (n, k) arrays only.
    """
    n, m = sims.shape
    if k < 1 or k > m:
        raise ConfigError(f"k={k} not in [1, {m}]")
    in_place = sims.flags.writeable and (sims.flags.c_contiguous or sims.flags.f_contiguous)
    work = sims if k == 1 or in_place else np.array(sims, order="C")
    rows = np.arange(n)
    cols = np.empty((n, k), dtype=np.intp)
    masked = np.empty((n, k - 1), dtype=sims.dtype)  # each masked pick's value, to undo the mask
    passes = 0
    try:
        for p in range(k):
            cols[:, p] = work.argmax(axis=1)
            if p + 1 < k:
                masked[:, p] = work[rows, cols[:, p]]
                passes += 1
                work[rows, cols[:, p]] = -np.inf
        # Once a row has only -inf left, a pass may take a masked column
        # again; such rows take their picks from the stable descending sort.
        low = np.isneginf(work[rows, cols[:, -1]])
    finally:
        # a column picked twice was masked twice, and its second record is
        # -inf: undo in reverse pass order, so the first record lands last
        for p in reversed(range(passes)):
            work[rows, cols[:, p]] = masked[:, p]
    nan_rows = np.isnan(sims[rows, cols[:, 0]])
    if nan_rows.any():
        raise InvalidInputError(f"similarity row {int(nan_rows.argmax())} holds NaN")
    if low.any():
        cols[low] = np.argsort(-sims[low], axis=1, kind="stable")[:, :k]
    return Neighbors(cols, np.take_along_axis(sims, cols, axis=1))


def nn_search(queries: np.ndarray, corpus: np.ndarray, k: int, block_size: int = 512) -> Neighbors:
    """Exact cosine top-k of unit-norm queries against a unit-norm corpus.

    The products of each block of block_size query rows go into one
    (block_size, n_corpus) buffer that the call owns and reuses, and
    top_k_from_sims selects in it; a NaN is refused with its block named.
    """
    if block_size < 1:
        raise ConfigError(f"block_size must be at least 1 (got {block_size})")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    corpus = np.atleast_2d(np.asarray(corpus, dtype=np.float64))
    if queries.shape[1] != corpus.shape[1]:
        raise InvalidInputError(f"query dim {queries.shape[1]} != corpus dim {corpus.shape[1]}")
    if k < 1 or k > corpus.shape[0]:
        raise ConfigError(f"k={k} not in [1, {corpus.shape[0]}]")
    n = queries.shape[0]
    indices = np.empty((n, k), dtype=np.int64)
    sims = np.empty((n, k))
    products = np.empty((min(block_size, n), corpus.shape[0]))
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block_sims = np.matmul(queries[start:stop], corpus.T, out=products[: stop - start])
        try:
            block = top_k_from_sims(block_sims, k)
        except InvalidInputError as e:
            raise InvalidInputError(f"query block starting at row {start}: {e}") from e
        indices[start:stop] = block.indices
        sims[start:stop] = block.sims
    return Neighbors(indices, sims)


def retrieval_accuracy(src_embs: np.ndarray, tgt_embs: np.ndarray) -> tuple[float, float]:
    """Fraction of rank-1 hits on the aligned index, in both directions."""
    src_embs = np.atleast_2d(np.asarray(src_embs, dtype=np.float64))
    tgt_embs = np.atleast_2d(np.asarray(tgt_embs, dtype=np.float64))
    if src_embs.shape[0] != tgt_embs.shape[0]:
        raise InvalidInputError(
            f"sides must align: {src_embs.shape[0]} vs {tgt_embs.shape[0]}"
        )
    n = src_embs.shape[0]
    fwd = nn_search(src_embs, tgt_embs, 1).indices[:, 0]
    bwd = nn_search(tgt_embs, src_embs, 1).indices[:, 0]
    aligned = np.arange(n)
    return float(np.mean(fwd == aligned)), float(np.mean(bwd == aligned))


def margin_score(
    i: int | np.ndarray,
    j: int | np.ndarray,
    cos: float | np.ndarray,
    nn_a: Neighbors,
    nn_b: Neighbors,
    k: int = 3,
    variant: str = "distance",
) -> float | np.ndarray:
    """Neighborhood-corrected similarity of pairs (i, j) of cosine cos, elementwise over arrays.

    b averages the k nearest-neighbor similarities of both endpoints
    (each side contributing half); the distance variant returns cos - b,
    the ratio variant cos / b.
    """
    if k < 1 or k > nn_a.sims.shape[1] or k > nn_b.sims.shape[1]:
        raise ConfigError(f"k={k} exceeds available neighbor lists")
    _check_variant(variant)
    b = nn_a.sims[i, :k].sum(axis=-1) / (2 * k) + nn_b.sims[j, :k].sum(axis=-1) / (2 * k)
    if variant == "distance":
        return cos - b
    small = b[b <= RATIO_EPS]
    if small.size:
        raise InvalidInputError(f"neighborhood average {small[0]:.3e} too small for ratio margin")
    return cos / b


def _check_variant(variant: str) -> None:
    if variant not in MARGIN_VARIANTS:
        raise ConfigError(f"variant must be 'distance' or 'ratio' (got {variant!r})")


def mine_bitext(
    embs_a: np.ndarray,
    embs_b: np.ndarray,
    k: int = 3,
    variant: str = "distance",
    threshold: float = float("-inf"),
) -> MiningResult:
    """Score candidate pairs and accept those whose margin exceeds the threshold.

    Candidates are the union of each side's rank-1 matches under nn_search,
    in (i, j) order, each scored from the dot product of its two rows. Each
    search holds one block of products (512 x the other side's rows), never
    the n_a x n_b matrix, and the candidate keys are deduplicated by a sort.
    A sentence may be in several accepted pairs. An unknown variant is
    refused before either search runs.
    """
    _check_variant(variant)
    embs_a = np.atleast_2d(np.asarray(embs_a, dtype=np.float64))
    embs_b = np.atleast_2d(np.asarray(embs_b, dtype=np.float64))
    if embs_a.shape[0] == 0 or embs_b.shape[0] == 0:
        raise InvalidInputError("both mining sides must be non-empty")
    nn_a = nn_search(embs_a, embs_b, k)
    nn_b = nn_search(embs_b, embs_a, k)

    # pair (i, j) as the key i * n_b + j, so sorted distinct keys are in (i, j)
    # order; np.unique would import numpy.ma on first use
    n_a, n_b = len(embs_a), len(embs_b)
    forward = np.arange(n_a) * n_b + nn_a.indices[:, 0]
    backward = nn_b.indices[:, 0] * n_b + np.arange(n_b)
    keys = np.sort(np.concatenate([forward, backward]))
    i, j = np.divmod(keys[np.concatenate([[True], keys[1:] != keys[:-1]])], n_b)
    scores = margin_score(i, j, np.einsum("ij,ij->i", embs_a[i], embs_b[j]), nn_a, nn_b, k, variant)
    keep = scores > threshold
    scored = list(zip(i.tolist(), j.tolist(), scores.tolist()))
    return MiningResult(scored, list(zip(i[keep].tolist(), j[keep].tolist())), threshold)


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
    gold = np.array(list(set(map(tuple, gold_pairs))), dtype=np.float64).reshape(-1, 2)
    if not len(gold):
        raise InvalidInputError("threshold search needs at least one gold pair")
    rows = np.array(scored, dtype=np.float64).reshape(-1, 3)
    order = np.argsort(-rows[:, 2], kind="stable")
    pairs, scores = rows[order, :2], rows[order, 2]
    distinct = scores[:-1] != scores[1:]
    thresholds = np.concatenate([[np.inf], 0.5 * (scores[:-1] + scores[1:])[distinct], [-np.inf]])

    # a midpoint of adjacent doubles can round onto one of them, so count
    # the scores strictly above each threshold by comparison
    taken = np.searchsorted(-scores, -thresholds, side="left")
    # a pair (i, j) is looked up as the complex number i + j*1j among gold's
    keys, gold_keys = pairs[:, 0] + 1j * pairs[:, 1], np.sort(gold[:, 0] + 1j * gold[:, 1])
    hits = gold_keys[np.searchsorted(gold_keys, keys).clip(max=len(gold_keys) - 1)] == keys
    tp = np.concatenate([[0], np.cumsum(hits)])[taken]
    precision = np.divide(tp, taken, out=np.zeros(len(taken)), where=taken > 0)
    recall = tp / len(gold)
    score = np.divide(2 * precision * recall, precision + recall, out=np.zeros(len(taken)), where=tp > 0)
    best = int(np.argmax(score))
    if score[best] > 0.0:
        return float(thresholds[best]), float(score[best])
    return float("inf"), 0.0  # accept nothing when no threshold scores above zero


def check_sts_pairs(pairs: StsPairs, vocab_size: int, source: str) -> None:
    """InvalidInputError unless every sentence of `pairs` is non-empty with
    ids in [0, vocab_size) and the gold column holds 2 distinct scores, as a
    rank correlation needs; the message starts with `source`, the file or
    a name for the pairs, and names the column and the pair."""
    check_ids(pairs.tokens_1, vocab_size, f"{source}: first sentence of similarity pair")
    check_ids(pairs.tokens_2, vocab_size, f"{source}: second sentence of similarity pair")
    if pairs.gold.min() == pairs.gold.max():  # one pair, or a constant column
        raise InvalidInputError(
            f"{source}: every gold score is {float(pairs.gold[0])!r}; a rank correlation needs 2 distinct scores"
        )


def sts_eval(encoder: EncoderParams, pairs: StsPairs, pooling: Pooling | str) -> float:
    """Rank correlation between model cosine similarity and gold scores; the
    forward passes read the pairs' columns as they are."""
    if len(pairs) < 2:
        raise InvalidInputError("need at least 2 scored pairs")
    h1 = encode_batch(encoder, pairs.tokens_1, pooling)
    h2 = encode_batch(encoder, pairs.tokens_2, pooling)
    return spearman_correlation(np.sum(h1 * h2, axis=1), pairs.gold)


# ---------------------------------------------------------------------------
# Embedding dump: a tensor file (see encoder.pack_tensor_file) with magic
# "DMCE", header (count, dim) and one row-major matrix; a JSON sidecar
# records {count, dim, source_corpus, checksum} with the sha256 of the
# binary file. Both files are replaced together (see encoder.atomic_write).
# ---------------------------------------------------------------------------


def _first_non_finite_row(embeddings: np.ndarray) -> int | None:
    bad_rows = ~np.isfinite(embeddings).all(axis=1)
    return int(bad_rows.argmax()) if bad_rows.any() else None


def save_embeddings(path: str, embeddings: np.ndarray, source_corpus: str = "") -> None:
    """Write an embedding dump and its sidecar; refuse rows that load_embeddings would."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    bad = _first_non_finite_row(embeddings)
    if bad is not None:
        raise NumericalFailureError(f"{path}: row {bad} holds a NaN or infinite value")
    # hashlib maps OpenSSL, about 3.5 MB of RSS, into the process: only the
    # embedding dumps are hashed, so only their writer and reader import it
    import hashlib

    data = pack_tensor_file(EMBEDDING_MAGIC, embeddings.shape, [embeddings])
    sidecar = {
        "count": embeddings.shape[0],
        "dim": embeddings.shape[1],
        "source_corpus": source_corpus,
        "checksum": hashlib.sha256(data).hexdigest(),
    }
    atomic_write({path: data, path + ".json": (json.dumps(sidecar, indent=2) + "\n").encode("utf-8")})


def load_embeddings(path: str) -> np.ndarray:
    """Read an embedding dump, verify it against its sidecar and refuse non-finite rows."""
    import hashlib  # imported here, as in save_embeddings

    (count, dim), (embeddings,), data = read_tensor_file(
        path, EMBEDDING_MAGIC, 2, lambda header: [header]
    )
    sidecar = read_json_object(path + ".json")
    expected = {"count": count, "dim": dim, "checksum": hashlib.sha256(data).hexdigest()}
    for key, value in expected.items():
        if sidecar.get(key) != value:
            raise CorpusParseError(
                f"{path}: {key} {value!r} does not match sidecar value {sidecar.get(key)!r}"
            )
    bad = _first_non_finite_row(embeddings)
    if bad is not None:
        raise CorpusParseError(f"{path}: row {bad} holds a NaN or infinite value")
    return embeddings

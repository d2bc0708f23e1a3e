"""Output checks for the pipeline benchmark.

Every check recomputes a program output apart from the program: the files
are parsed here from their documented formats (README "File formats"), the
encoder forward pass is re-implemented in plain numpy, and retrieval,
mining and rank correlation are recounted by brute force. Nothing is
compared against a stored copy of an earlier run.

Each check raises CheckFailed with a reason, or returns a short summary.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy import stats

# Two similarities closer than this are a tie the program may break either
# way (its blocked BLAS products round differently from a full product).
TIE_EPS = 1e-12
# Independent forward vs program rows, unit norms, spearman agreement.
VALUE_TOL = 1e-9
MINING_K = 3


class CheckFailed(Exception):
    """A program output disagrees with its independent recomputation."""


# ---------------------------------------------------------------------------
# Readers for the documented file formats
# ---------------------------------------------------------------------------


def _tokens(field: str) -> tuple[int, ...]:
    return tuple(int(t) for t in field.split())


def read_parallel(path: Path) -> dict[str, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Pairs of `parallel.tsv` grouped by split name."""
    splits: dict[str, list] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        a, b, _concepts, split = line.split("\t")
        splits.setdefault(split, []).append((_tokens(a), _tokens(b)))
    return splits


def read_sts(path: Path) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], np.ndarray]:
    first, second, gold = [], [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        s1, s2, g = line.split("\t")
        first.append(_tokens(s1))
        second.append(_tokens(s2))
        gold.append(float(g))
    return first, second, np.array(gold)


def read_mining(path: Path) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return {
        "side_a": [tuple(s) for s in doc["side_a"]],
        "side_b": [tuple(s) for s in doc["side_b"]],
        "gold": {(int(i), int(j)) for i, j in doc["gold_pairs"]},
    }


def read_checkpoint(path: Path) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Both towers of a `DMC1` checkpoint as (embedding, proj_w, proj_b)."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"DMC1":
        raise CheckFailed(f"{path}: bad checkpoint magic {raw[:4]!r}")
    vocab, d_emb, d_out = struct.unpack("<QQQ", raw[4:28])
    shapes = [(vocab, d_emb), (d_emb, d_out), (d_out,)]
    per_tower = sum(int(np.prod(s)) for s in shapes)
    if len(raw) != 28 + 16 * per_tower:
        raise CheckFailed(f"{path}: {len(raw)} bytes, header implies {28 + 16 * per_tower}")
    flat = np.frombuffer(raw, dtype="<f8", offset=28).astype(np.float64)
    towers, pos = [], 0
    for _ in range(2):
        tensors = []
        for shape in shapes:
            size = int(np.prod(shape))
            tensors.append(flat[pos : pos + size].reshape(shape))
            pos += size
        towers.append(tuple(tensors))
    return towers


def read_embeddings(path: Path) -> np.ndarray:
    """Rows of a `DMCE` dump after checking it against its JSON sidecar."""
    raw = Path(path).read_bytes()
    sidecar = json.loads(Path(str(path) + ".json").read_text(encoding="utf-8"))
    digest = hashlib.sha256(raw).hexdigest()
    if digest != sidecar["checksum"]:
        raise CheckFailed(f"{path}: sha256 {digest[:12]} != sidecar {sidecar['checksum'][:12]}")
    if raw[:4] != b"DMCE":
        raise CheckFailed(f"{path}: bad embedding magic {raw[:4]!r}")
    count, dim = struct.unpack("<QQ", raw[4:20])
    if (count, dim) != (sidecar["count"], sidecar["dim"]):
        raise CheckFailed(f"{path}: header {count}x{dim} != sidecar {sidecar['count']}x{sidecar['dim']}")
    if len(raw) != 20 + 8 * count * dim:
        raise CheckFailed(f"{path}: payload is {len(raw) - 20} bytes, header implies {8 * count * dim}")
    return np.frombuffer(raw, dtype="<f8", offset=20).astype(np.float64).reshape(count, dim)


# ---------------------------------------------------------------------------
# Independent encoder: lookup -> pooling -> affine -> tanh -> L2 normalize
# ---------------------------------------------------------------------------


def encode(tower, sentences, pooling: str = "mean") -> np.ndarray:
    """Unit-norm sentence vectors, computed on a padded token matrix."""
    embedding, proj_w, proj_b = tower
    lengths = np.array([len(s) for s in sentences])
    ids = np.zeros((len(sentences), lengths.max()), dtype=np.intp)
    for row, s in enumerate(sentences):
        ids[row, : len(s)] = s
    mask = np.arange(ids.shape[1])[None, :] < lengths[:, None]
    rows = embedding[ids]  # (n, max_len, d_emb)
    if pooling == "mean":
        pooled = np.where(mask[:, :, None], rows, 0.0).sum(axis=1) / lengths[:, None]
    elif pooling == "max":
        pooled = np.where(mask[:, :, None], rows, -np.inf).max(axis=1)
    elif pooling == "first":
        pooled = rows[:, 0]
    else:
        raise ValueError(f"unknown pooling {pooling!r}")
    z = np.tanh(pooled @ proj_w + proj_b)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_train_metrics(run_dir: Path, n_train: int, batch_size: int, epochs: int) -> str:
    """Step-record count, finite losses, and a lower loss in the last epoch."""
    records = [
        json.loads(line)
        for line in (Path(run_dir) / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    steps = [r for r in records if "step" in r]
    per_epoch = n_train // batch_size
    if len(steps) != epochs * per_epoch:
        raise CheckFailed(f"{len(steps)} step records, expected {epochs} x {per_epoch}")
    if [r["step"] for r in steps] != list(range(len(steps))):
        raise CheckFailed("step records are not numbered 0..n-1 in order")
    for r in steps:
        for key in ("loss_total", "loss_fwd", "loss_bwd", "loss_nli"):
            if not math.isfinite(r[key]):
                raise CheckFailed(f"step {r['step']}: {key} = {r[key]}")
    first = np.mean([r["loss_total"] for r in steps[:per_epoch]])
    last = np.mean([r["loss_total"] for r in steps[-per_epoch:]])
    if not last < first:
        raise CheckFailed(f"last-epoch mean loss {last:.6f} not below first {first:.6f}")
    return f"{len(steps)} steps, mean loss {first:.4f} -> {last:.4f}"


def check_embedding_files(emb_dir: Path, split: str, n_pairs: int) -> str:
    """Checksums, row counts, and unit-norm rows of both dumps."""
    for side in ("a", "b"):
        rows = read_embeddings(Path(emb_dir) / f"{split}_{side}.emb")
        if rows.shape[0] != n_pairs:
            raise CheckFailed(f"{split}_{side}.emb has {rows.shape[0]} rows, split has {n_pairs}")
        off = float(np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)))
        if off > VALUE_TOL:
            raise CheckFailed(f"{split}_{side}.emb: a row norm is off 1 by {off:.3e}")
    return f"2 x {n_pairs} rows, checksums and norms ok"


def check_embedding_rows(emb_dir: Path, split: str, pairs, checkpoint: Path, sample: np.ndarray) -> str:
    """Sampled rows equal the independent forward from the checkpoint."""
    towers = read_checkpoint(checkpoint)
    worst = 0.0
    for side, tower in zip((0, 1), towers):
        rows = read_embeddings(Path(emb_dir) / f"{split}_{'ab'[side]}.emb")[sample]
        expected = encode(tower, [pairs[i][side] for i in sample])
        worst = max(worst, float(np.max(np.abs(rows - expected))))
    if worst > VALUE_TOL:
        raise CheckFailed(f"sampled rows differ from the independent forward by {worst:.3e}")
    return f"{2 * len(sample)} rows within {worst:.1e}"


def _hit_range(sims: np.ndarray) -> tuple[int, int]:
    """(sure, possible) rank-1 hits on the diagonal, ties within TIE_EPS open."""
    n = sims.shape[0]
    diag = sims[np.arange(n), np.arange(n)]
    others = sims.copy()
    others[np.arange(n), np.arange(n)] = -np.inf
    runner = others.max(axis=1) if n > 1 else np.full(n, -np.inf)
    sure = int(np.sum(diag - runner >= TIE_EPS))
    possible = int(np.sum(runner - diag < TIE_EPS))
    return sure, possible


def check_retrieval(result_path: Path, emb_dir: Path, split: str) -> str:
    """Reported accuracies equal a brute-force argmax recount."""
    doc = json.loads(Path(result_path).read_text(encoding="utf-8"))
    a = read_embeddings(Path(emb_dir) / f"{split}_a.emb")
    b = read_embeddings(Path(emb_dir) / f"{split}_b.emb")
    n = a.shape[0]
    if doc["count"] != n:
        raise CheckFailed(f"count {doc['count']} != {n} rows")
    sims = a @ b.T
    for key, matrix in (("acc_forward", sims), ("acc_backward", sims.T)):
        sure, possible = _hit_range(matrix)
        hits = doc[key] * n
        if abs(hits - round(hits)) > 1e-6 or not sure <= round(hits) <= possible:
            raise CheckFailed(f"{key} = {doc[key]} is {hits:.3f} hits, recount gives [{sure}, {possible}]")
    return f"forward {doc['acc_forward']:.4f} backward {doc['acc_backward']:.4f} recounted"


def check_mining_scores(result_path: Path, mining_path: Path) -> str:
    """Precision, recall and F1 equal a recount of the pairs against gold."""
    doc = json.loads(Path(result_path).read_text(encoding="utf-8"))
    gold = read_mining(mining_path)["gold"]
    predicted = {(int(i), int(j)) for i, j in doc["pairs"]}
    if len(predicted) != len(doc["pairs"]):
        raise CheckFailed("accepted pairs contain duplicates")
    tp = len(predicted & gold)
    precision = tp / len(predicted) if predicted else 0.0
    recall = tp / len(gold)
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    for key, value in (("precision", precision), ("recall", recall), ("f1", f1)):
        if abs(doc[key] - value) > 1e-12:
            raise CheckFailed(f"{key} = {doc[key]} but recount gives {value}")
    return f"{tp} of {len(predicted)} pairs gold, f1 {f1:.4f}"


def check_mining_margin(result_path: Path, mining_path: Path, checkpoint: Path) -> str:
    """Accepted pairs equal the candidates whose distance margin exceeds lambda.

    Candidates are each sentence's nearest neighbour on the other side; the
    margin is cos(i, j) minus the mean of both endpoints' k-nearest-neighbour
    similarities, halved. Pairs within VALUE_TOL of lambda, and neighbours
    within TIE_EPS of a row maximum, may go either way.
    """
    doc = json.loads(Path(result_path).read_text(encoding="utf-8"))
    corpus = read_mining(mining_path)
    tower_a, tower_b = read_checkpoint(checkpoint)
    sims = encode(tower_a, corpus["side_a"]) @ encode(tower_b, corpus["side_b"]).T
    k = min(MINING_K, *sims.shape)
    knn_a = -np.sort(-sims, axis=1)[:, :k].mean(axis=1)
    knn_b = -np.sort(-sims, axis=0)[:k, :].mean(axis=0)
    margin = sims - 0.5 * (knn_a[:, None] + knn_b[None, :])

    sure, maybe = set(), set()
    for matrix, flip in ((sims, False), (sims.T, True)):
        top = matrix.max(axis=1, keepdims=True)
        near = np.argwhere(top - matrix < TIE_EPS)
        for row in np.unique(near[:, 0]):
            cols = near[near[:, 0] == row, 1]
            for col in cols:
                pair = (int(col), int(row)) if flip else (int(row), int(col))
                (sure if len(cols) == 1 else maybe).add(pair)
    lam = doc["lambda"]
    must = {p for p in sure if margin[p] > lam + VALUE_TOL}
    may = must | {p for p in sure | maybe if margin[p] > lam - VALUE_TOL}
    got = {(int(i), int(j)) for i, j in doc["pairs"]}
    if not must <= got:
        raise CheckFailed(f"{len(must - got)} pairs above lambda missing, e.g. {sorted(must - got)[:3]}")
    if not got <= may:
        raise CheckFailed(f"{len(got - may)} accepted pairs not above lambda, e.g. {sorted(got - may)[:3]}")
    return f"{len(got)} accepted of {len(sure | maybe)} candidates at lambda {lam:.4f}"


def _merge_near_ties(values: np.ndarray) -> np.ndarray:
    """Values within TIE_EPS of their sorted neighbour, set equal."""
    order = np.argsort(values, kind="stable")
    merged = values.copy()
    for prev, cur in zip(order[:-1], order[1:]):
        if values[cur] - values[prev] < TIE_EPS:
            merged[cur] = merged[prev]
    return merged


def check_sts(result_path: Path, sts_path: Path, checkpoint: Path) -> str:
    """Reported Spearman equals scipy's on independently computed cosines.

    A pair of identical sentences has cosine 1 up to rounding, so which of
    those cosines tie exactly differs between two computations. Their gold
    scores tie too (all are 1), so the order among them cannot move the
    correlation, but how many of them tie moves the rank variance. The
    reported value must therefore lie between the correlation with every
    near-tie group tied and the one with every group broken into distinct
    ranks. Without near-ties the two are the same number.
    """
    doc = json.loads(Path(result_path).read_text(encoding="utf-8"))
    first, second, gold = read_sts(sts_path)
    tower_a, _ = read_checkpoint(checkpoint)
    cosines = _merge_near_ties(np.sum(encode(tower_a, first) * encode(tower_a, second), axis=1))
    gold_ranks = stats.rankdata(gold)
    tied = float(stats.spearmanr(cosines, gold).statistic)
    broken = float(stats.pearsonr(stats.rankdata(cosines, method="ordinal"), gold_ranks).statistic)
    lo, hi = min(tied, broken), max(tied, broken)
    if doc["count"] != len(gold) or not lo - VALUE_TOL <= doc["spearman"] <= hi + VALUE_TOL:
        raise CheckFailed(f"spearman {doc['spearman']} over {doc['count']}, scipy gives {lo}..{hi} over {len(gold)}")
    return f"spearman {doc['spearman']:.4f} over {len(gold)} pairs, scipy {lo:.10f}..{hi:.10f}"


def check_gates(retrieval_path: Path, sts_path: Path) -> str:
    """The README's retrieval and similarity gates at default settings."""
    retrieval = json.loads(Path(retrieval_path).read_text(encoding="utf-8"))
    rho = json.loads(Path(sts_path).read_text(encoding="utf-8"))["spearman"]
    if min(retrieval["acc_forward"], retrieval["acc_backward"]) < 0.95:
        raise CheckFailed(f"retrieval below 0.95: {retrieval}")
    if rho < 0.60:
        raise CheckFailed(f"spearman {rho} below 0.60")
    return "retrieval >= 0.95 both ways, spearman >= 0.60"

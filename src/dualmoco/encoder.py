"""Small trainable sentence encoder with exact analytic gradients.

Forward path: token embedding lookup -> pooling -> linear projection ->
tanh -> L2 normalization. Everything downstream consumes the unit-norm
output, so the backward pass has to differentiate through the
normalization Jacobian as well: for pre-normalization z with unit output
h = z/||z|| and upstream gradient g,

    dL/dz = (g - (g . h) h) / ||z||.

The tanh keeps pre-normalization vectors bounded, which makes a zero
vector at the normalization step unreachable except for contrived
parameter settings (it is still checked and raised).
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CorpusParseError,
    ShapeMismatchError,
    TokenOutOfRangeError,
    ZeroVectorError,
)
from .numerics import ZERO_NORM_EPS

TokenSeq = Sequence[int]

CHECKPOINT_MAGIC = b"DMC1"


class Pooling(str, Enum):
    """How per-token embeddings collapse into one sentence vector."""

    MEAN = "mean"
    MAX = "max"
    FIRST = "first"


@dataclass
class EncoderParams:
    """Trainable tensors of one encoder tower."""

    embedding: np.ndarray  # (vocab_size, d_emb)
    proj_w: np.ndarray     # (d_emb, d_out)
    proj_b: np.ndarray     # (d_out,)

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def d_emb(self) -> int:
        return self.embedding.shape[1]

    @property
    def d_out(self) -> int:
        return self.proj_w.shape[1]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.embedding, self.proj_w, self.proj_b)

    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(a.shape for a in self.arrays())

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.embedding.copy(), self.proj_w.copy(), self.proj_b.copy())


@dataclass
class EncoderGrads:
    """Gradients with the same layout as EncoderParams."""

    embedding: np.ndarray
    proj_w: np.ndarray
    proj_b: np.ndarray

    @classmethod
    def zeros_like(cls, params: EncoderParams) -> "EncoderGrads":
        return cls(*(np.zeros_like(a) for a in params.arrays()))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.embedding, self.proj_w, self.proj_b)

    def add_scaled(self, other: "EncoderGrads", scale: float = 1.0) -> None:
        self.embedding += scale * other.embedding
        self.proj_w += scale * other.proj_w
        self.proj_b += scale * other.proj_b


def init_params(vocab_size: int, d_emb: int, d_out: int, rng: np.random.Generator) -> EncoderParams:
    """Random initialization keeping pre-tanh activations order-one."""
    embedding = rng.normal(0.0, 1.0, size=(vocab_size, d_emb))
    proj_w = rng.normal(0.0, 1.0 / np.sqrt(d_emb), size=(d_emb, d_out))
    proj_b = np.zeros(d_out)
    return EncoderParams(embedding, proj_w, proj_b)


def _pack(
    params: EncoderParams, batch: Sequence[TokenSeq]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a batch into token ids, lengths and start offsets.

    Every sequence must be non-empty with ids in [0, vocab_size); otherwise
    TokenOutOfRangeError names the first offending batch item.
    """
    n = len(batch)
    lengths = np.fromiter(map(len, batch), np.intp, n)
    starts = np.cumsum(lengths) - lengths
    try:
        ids = np.fromiter(chain.from_iterable(batch), np.intp, int(lengths.sum()))
    except OverflowError:  # an id too large for intp: range-check the Python ints instead
        ids = np.fromiter(chain.from_iterable(batch), object, int(lengths.sum()))
    bad = np.flatnonzero((ids < 0) | (ids >= params.vocab_size))
    empty = np.flatnonzero(lengths == 0)
    if bad.size or empty.size:
        # the last sentence starting at or before the bad position holds it
        item = int(np.searchsorted(starts, bad[0], side="right")) - 1 if bad.size else n
        if empty.size and empty[0] < item:
            raise TokenOutOfRangeError(f"batch item {empty[0]}: empty token sequence")
        t = batch[item][bad[0] - starts[item]]
        raise TokenOutOfRangeError(
            f"batch item {item}: token id {t} outside [0, {params.vocab_size})"
        )
    return ids, lengths, starts


def encode(params: EncoderParams, tokens: TokenSeq, pooling: Pooling | str) -> np.ndarray:
    """Encode one token sequence into a unit-norm vector of dimension d_out."""
    pooling = Pooling(pooling)
    h, _, _, _ = _forward_batch(params, _pack(params, [tokens]), pooling)
    return h[0]


def _forward_batch(
    params: EncoderParams,
    packed: tuple[np.ndarray, np.ndarray, np.ndarray],
    pooling: Pooling,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared forward pass over a packed batch, returning (H, Z, norms, pooled).

    Each sentence's row is a pure function of its own tokens, computed with
    the same floating-point operations in the same order whatever the batch
    size, so encode and encode_batch agree bit for bit:

    - mean pooling adds token t to every sentence longer than t, position by
      position, then divides by the length. Each row is summed in token
      order, as ndarray.mean(axis=0) sums a sentence's rows when d_emb > 1;
      np.add.reduceat may sum a segment in another order and change the
      last bits;
    - max pooling (np.maximum.reduceat) and first-token pooling are exact;
    - the projection is a stacked matmul of (1, d_emb) rows, which runs one
      vector-matrix product per row; a single (n, d_emb) GEMM would round
      differently depending on the batch size;
    - bias, tanh and the row norms are elementwise or per row.
    """
    ids, lengths, starts = packed
    if pooling is Pooling.MAX:
        pooled = np.maximum.reduceat(params.embedding[ids], starts, axis=0)
    else:
        pooled = params.embedding[ids[starts]]
        if pooling is Pooling.MEAN:
            for t in range(1, int(lengths.max())):
                live = lengths > t
                pooled[live] += params.embedding[ids[starts[live] + t]]
            pooled /= lengths[:, None]
    projected = np.matmul(pooled[:, None, :], params.proj_w)[:, 0]
    z = np.tanh(projected + params.proj_b)
    norms = np.linalg.norm(z, axis=1)
    bad = np.nonzero(norms <= ZERO_NORM_EPS)[0]
    if bad.size:
        raise ZeroVectorError(f"batch item {bad[0]}: pre-normalization output is the zero vector")
    return z / norms[:, None], z, norms, pooled


def encode_batch(
    params: EncoderParams, batch: Sequence[TokenSeq], pooling: Pooling | str
) -> np.ndarray:
    """Encode a batch; row i is bit-identical to encode(params, batch[i], pooling)."""
    pooling = Pooling(pooling)
    if len(batch) == 0:
        return np.zeros((0, params.d_out))
    h, _, _, _ = _forward_batch(params, _pack(params, batch), pooling)
    return h


def encode_backward(
    params: EncoderParams,
    batch: Sequence[TokenSeq],
    pooling: Pooling | str,
    upstream: np.ndarray,
) -> EncoderGrads:
    """Gradient of sum_i upstream[i] . h_i with respect to the parameters.

    Exact chain rule through normalization, tanh, the affine projection,
    and pooling. Max pooling routes each dimension's subgradient to the
    earliest token position attaining the maximum. The embedding gradient is
    scattered with one np.add.at in sentence-then-token order, so repeated
    ids accumulate in the same order as a per-sentence loop would.
    """
    pooling = Pooling(pooling)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (len(batch), params.d_out):
        raise ShapeMismatchError(
            f"upstream shape {upstream.shape} != ({len(batch)}, {params.d_out})"
        )
    grads = EncoderGrads.zeros_like(params)
    if len(batch) == 0:
        return grads

    ids, lengths, starts = packed = _pack(params, batch)
    h, z, norms, pooled = _forward_batch(params, packed, pooling)

    # normalization: dz = (g - (g.h) h) / ||z||, rowwise
    gh = np.sum(upstream * h, axis=1, keepdims=True)
    dz = (upstream - gh * h) / norms[:, None]
    da = dz * (1.0 - z * z)  # tanh'(a) = 1 - tanh(a)^2

    grads.proj_w += pooled.T @ da
    grads.proj_b += da.sum(axis=0)
    dpooled = da @ params.proj_w.T

    if pooling is Pooling.MEAN:
        np.add.at(grads.embedding, ids, np.repeat(dpooled / lengths[:, None], lengths, axis=0))
    elif pooling is Pooling.MAX:
        # flat position of each sentence's first maximum per dimension (a NaN
        # counts as the maximum, as in np.argmax)
        rows = params.embedding[ids]
        winner = (rows == np.repeat(pooled, lengths, axis=0)) | np.isnan(rows)
        position = np.where(winner, np.arange(len(ids))[:, None], len(ids))
        first = np.minimum.reduceat(position, starts, axis=0)
        np.add.at(grads.embedding, (ids[first], np.arange(params.d_emb)), dpooled)
    else:
        np.add.at(grads.embedding, ids[starts], dpooled)
    return grads


# ---------------------------------------------------------------------------
# Tensor files: a 4-byte magic, a header of 8-byte little-endian unsigned
# integers, then tensors as 8-byte little-endian doubles in row-major order.
# Checkpoints (magic "DMC1") have the header (vocab_size, d_emb, d_out) and
# the three tensors of encoder A followed by those of encoder B; embedding
# dumps (magic "DMCE", see evaluation.py) have (count, dim) and one matrix.
# ---------------------------------------------------------------------------


def write_tensor_file(
    path: str, magic: bytes, header: Sequence[int], tensors: Sequence[np.ndarray]
) -> str:
    """Write a tensor file and return the sha256 of its bytes.

    The bytes go to a temporary file that replaces `path` only once complete,
    so a save that fails leaves any previous file intact.
    """
    data = b"".join(
        [magic, struct.pack(f"<{len(header)}Q", *header)]
        + [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in tensors]
    )
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return hashlib.sha256(data).hexdigest()


def read_tensor_file(
    path: str,
    magic: bytes,
    header_len: int,
    shapes: Callable[[tuple[int, ...]], list[tuple[int, ...]]],
) -> tuple[tuple[int, ...], list[np.ndarray], str]:
    """Read a tensor file; return its header, its tensors and its sha256.

    `shapes` maps the header to the shapes of the tensors that follow it.
    The file size must match them exactly before any tensor is parsed.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != magic:
        raise CorpusParseError(f"{path}: bad magic {data[:4]!r} (expected {magic!r})")
    offset = 4 + 8 * header_len
    if len(data) < offset:
        raise CorpusParseError(f"{path}: truncated header")
    header = struct.unpack_from(f"<{header_len}Q", data, 4)
    layout = [(shape, math.prod(shape)) for shape in shapes(header)]
    expected = offset + 8 * sum(size for _, size in layout)
    if len(data) < expected:
        raise CorpusParseError(f"{path}: truncated ({len(data)} bytes, header needs {expected})")
    if len(data) > expected:
        raise CorpusParseError(f"{path}: trailing bytes after the payload")
    tensors = []
    for shape, size in layout:
        tensors.append(np.frombuffer(data, "<f8", size, offset).astype(np.float64).reshape(shape))
        offset += 8 * size
    return header, tensors, hashlib.sha256(data).hexdigest()


def _checkpoint_shapes(header: tuple[int, ...]) -> list[tuple[int, ...]]:
    vocab, d_emb, d_out = header
    return [(vocab, d_emb), (d_emb, d_out), (d_out,)] * 2


def save_checkpoint(path: str, params_a: EncoderParams, params_b: EncoderParams) -> None:
    """Write both encoder towers to one binary checkpoint file."""
    if params_a.shapes() != params_b.shapes():
        raise ShapeMismatchError("encoder towers must share shapes in a checkpoint")
    header = (params_a.vocab_size, params_a.d_emb, params_a.d_out)
    write_tensor_file(path, CHECKPOINT_MAGIC, header, [*params_a.arrays(), *params_b.arrays()])


def load_checkpoint(path: str) -> tuple[EncoderParams, EncoderParams]:
    """Read both encoder towers back from a checkpoint file."""
    _, tensors, _ = read_tensor_file(path, CHECKPOINT_MAGIC, 3, _checkpoint_shapes)
    return EncoderParams(*tensors[:3]), EncoderParams(*tensors[3:])

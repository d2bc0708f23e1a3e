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
from typing import Callable, NamedTuple, Sequence

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


@dataclass(frozen=True, eq=False)
class PackedBatch:
    """A batch of token sequences flattened and validated once.

    One pack serves every forward and backward pass over the batch. Sentence
    i is ids[starts[i] : starts[i] + lengths[i]]. Mean pooling reads the
    tokens position by position instead: `by_position` holds position 0 of
    every sentence, then position 1 of every sentence longer than one token,
    and so on, with the sentences ordered longest first (stably), so the
    sentences still running at position t are the first live[t] of that
    order; row `restore[i]` of that order is batch item i.
    """

    ids: np.ndarray  # (total,) token ids, sentence by sentence
    lengths: np.ndarray  # (n,)
    starts: np.ndarray  # (n,) offset of each sentence in ids
    by_position: np.ndarray  # (total,) ids, position by position, longest sentence first
    live: tuple[int, ...]  # live[t]: number of sentences longer than t tokens
    restore: np.ndarray  # (n,) longest-first row of each batch item
    max_id: int  # -1 for an empty batch

    def __len__(self) -> int:
        return len(self.lengths)


class TokenTable(NamedTuple):
    """Token sequences flattened and range-checked once, without the pooling
    gather: sequence i is ids[starts[i] : starts[i] + lengths[i]]. A batch
    of any of its sequences is then an index gather (`gather_batch`).

    A table may hold a whole corpus side for a whole run, so it stores
    32-bit integers where the vocabulary allows; batches gathered from it
    hold intp, as pack_batch's do.
    """

    ids: np.ndarray  # (total,) token ids, sequence by sequence
    lengths: np.ndarray  # (n,)
    starts: np.ndarray  # (n,) offset of each sequence in ids


def _out_of_range(
    ids: np.ndarray, starts: np.ndarray, position: int, vocab_size: int, item: str
) -> TokenOutOfRangeError:
    # the last sentence starting at or before the bad position holds it
    index = int(np.searchsorted(starts, position, side="right")) - 1
    return TokenOutOfRangeError(
        f"{item} {index}: token id {ids[position]} outside [0, {vocab_size})"
    )


def _flatten(
    sequences: Sequence[TokenSeq], vocab_size: int, item: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ids, lengths and starts (intp) of non-empty sequences with ids in
    [0, vocab_size); otherwise TokenOutOfRangeError names the first
    offending sequence as `item` and its index."""
    n = len(sequences)
    lengths = np.fromiter(map(len, sequences), np.intp, n)
    starts = np.cumsum(lengths) - lengths
    try:
        ids = np.fromiter(chain.from_iterable(sequences), np.intp, int(lengths.sum()))
    except OverflowError:  # an id too large for intp: range-check the Python ints instead
        ids = np.fromiter(chain.from_iterable(sequences), object, int(lengths.sum()))
    bad = np.flatnonzero((ids < 0) | (ids >= vocab_size))
    empty = np.flatnonzero(lengths == 0)
    if empty.size and (not bad.size or starts[empty[0]] <= bad[0]):
        raise TokenOutOfRangeError(f"{item} {empty[0]}: empty token sequence")
    if bad.size:
        raise _out_of_range(ids, starts, bad[0], vocab_size, item)
    return ids, lengths, starts


def pack_tokens(sequences: Sequence[TokenSeq], vocab_size: int, item: str) -> TokenTable:
    """Flatten and check sequences once into a TokenTable.

    Every sequence must be non-empty with ids in [0, vocab_size); otherwise
    TokenOutOfRangeError names the first offending sequence as `item` and
    its index (as in "side A of training pair 17").
    """
    ids, lengths, starts = _flatten(sequences, vocab_size, item)
    dtype = np.int32 if max(vocab_size, len(ids)) <= np.iinfo(np.int32).max else np.intp
    return TokenTable(ids.astype(dtype), lengths.astype(dtype), starts.astype(dtype))


def _packed_batch(ids: np.ndarray, lengths: np.ndarray, starts: np.ndarray) -> PackedBatch:
    """The PackedBatch of checked sequences: adds the position-by-position gather."""
    n = len(lengths)
    # Sentences longest first, each length's in batch order. A match against
    # the lengths present finds this order without an argsort, whose code
    # pages alone add about 0.2 MB to the peak RSS of a short CLI process.
    counts = np.bincount(lengths, minlength=1)
    order = np.nonzero(lengths == np.flatnonzero(counts)[::-1, None])[1]
    restore = np.empty(n, np.intp)
    restore[order] = np.arange(n)
    live = (n - np.cumsum(counts)[:-1]).tolist()
    # Row t of this (longest length, n) grid holds the offset of token t of
    # every sentence, longest first; the sentences still running at t are a
    # prefix of the row, so the mask reads the rows' prefixes in order.
    position = np.arange(len(live))[:, None]
    by_position = ids[(starts[order] + position)[position < lengths[order]]]
    return PackedBatch(ids, lengths, starts, by_position, tuple(live), restore, int(ids.max()) if n else -1)


def pack_batch(batch: Sequence[TokenSeq] | PackedBatch, vocab_size: int) -> PackedBatch:
    """Pack a batch for towers with `vocab_size` tokens.

    Every sequence must be non-empty with ids in [0, vocab_size); otherwise
    TokenOutOfRangeError names the first offending batch item. A batch that
    is already packed is returned as it is, once its ids are checked against
    vocab_size.
    """
    if isinstance(batch, PackedBatch):
        if batch.max_id >= vocab_size:
            bad = int(np.argmax(batch.ids >= vocab_size))
            raise _out_of_range(batch.ids, batch.starts, bad, vocab_size, "batch item")
        return batch
    return _packed_batch(*_flatten(batch, vocab_size, "batch item"))


def gather_batch(table: TokenTable, selection: np.ndarray) -> PackedBatch:
    """The PackedBatch of table sequences `selection`, in that order; equal,
    field by field, to pack_batch of the same sequences as token lists."""
    lengths = table.lengths[selection].astype(np.intp)
    starts = np.cumsum(lengths) - lengths
    offsets = np.repeat(table.starts[selection] - starts, lengths)
    ids = table.ids[offsets + np.arange(len(offsets))].astype(np.intp)
    return _packed_batch(ids, lengths, starts)


class Forward(NamedTuple):
    """One forward pass over a batch: the outputs and what the backward pass reads."""

    h: np.ndarray  # (n, d_out) unit-norm outputs
    z: np.ndarray  # (n, d_out) outputs before normalization
    norms: np.ndarray  # (n,) row norms of z
    pooled: np.ndarray  # (n, d_emb) pooled embeddings


def encode(params: EncoderParams, tokens: TokenSeq, pooling: Pooling | str) -> np.ndarray:
    """Encode one token sequence into a unit-norm vector of dimension d_out."""
    return forward_batch(params, [tokens], pooling).h[0]


def forward_batch(
    params: EncoderParams, batch: Sequence[TokenSeq] | PackedBatch, pooling: Pooling | str
) -> Forward:
    """Forward pass over a batch (token lists or a PackedBatch).

    Each sentence's row is a pure function of its own tokens, computed with
    the same floating-point operations in the same order whatever the batch
    size, so encode and encode_batch agree bit for bit:

    - mean pooling starts from each sentence's first token and adds its
      tokens one position at a time, then divides by the length. Each row is
      summed in token order, as ndarray.mean(axis=0) sums a sentence's rows
      when d_emb > 1; np.add.reduceat may sum a segment in another order and
      change the last bits. In longest-first order the sentences still
      running at a position are a prefix of the rows, so each position is
      one gather of its tokens and one in-place add to a slice;
    - max pooling (np.maximum.reduceat) and first-token pooling are exact;
    - the projection is a stacked matmul of (1, d_emb) rows, which runs one
      vector-matrix product per row; a single (n, d_emb) GEMM would round
      differently depending on the batch size;
    - bias, tanh and the row norms are elementwise or per row.
    """
    pooling = Pooling(pooling)
    packed = pack_batch(batch, params.vocab_size)
    if pooling is Pooling.MAX:
        pooled = np.maximum.reduceat(params.embedding[packed.ids], packed.starts, axis=0)
    elif pooling is Pooling.FIRST:
        pooled = params.embedding[packed.ids[packed.starts]]
    else:
        offset = len(packed)
        pooled = params.embedding.take(packed.by_position[:offset], axis=0)
        for live in packed.live[1:]:
            pooled[:live] += params.embedding.take(packed.by_position[offset : offset + live], axis=0)
            offset += live
        pooled = pooled[packed.restore]
        pooled /= packed.lengths[:, None]
    projected = np.matmul(pooled[:, None, :], params.proj_w)[:, 0]
    z = np.tanh(projected + params.proj_b)
    norms = np.linalg.norm(z, axis=1)
    bad = np.nonzero(norms <= ZERO_NORM_EPS)[0]
    if bad.size:
        raise ZeroVectorError(f"batch item {bad[0]}: pre-normalization output is the zero vector")
    return Forward(z / norms[:, None], z, norms, pooled)


def encode_batch(
    params: EncoderParams, batch: Sequence[TokenSeq] | PackedBatch, pooling: Pooling | str
) -> np.ndarray:
    """Encode a batch; row i is bit-identical to encode(params, batch[i], pooling)."""
    return forward_batch(params, batch, pooling).h


def _scatter_rows(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """target[rows[k, j], j] += values[k, j], in k-then-j order; rows may be (k, 1).

    One np.add.at over flat indices adds in the same order as the 2-D form,
    which runs several times slower.
    """
    d = target.shape[1]
    np.add.at(target.reshape(-1), (rows * d + np.arange(d)).ravel(), values.ravel())


def encode_backward(
    params: EncoderParams,
    batch: Sequence[TokenSeq] | PackedBatch,
    pooling: Pooling | str,
    upstream: np.ndarray,
    forward: Forward | None = None,
    out: EncoderGrads | None = None,
) -> EncoderGrads:
    """Gradient of sum_i upstream[i] . h_i with respect to the parameters.

    `forward` is forward_batch(params, batch, pooling), the pass whose
    outputs received `upstream`; it is reused as is, and run here only when
    it is not given. The gradient goes into `out` when it is given (its
    arrays are zeroed first, then accumulated as new ones would be) and into
    new arrays otherwise. Exact chain rule through normalization, tanh, the
    affine projection, and pooling. Max pooling routes each dimension's
    subgradient to the earliest token position attaining the maximum. The
    embedding gradient is scattered in sentence-then-token order, so repeated
    ids accumulate in the same order as a per-sentence loop would.
    """
    pooling = Pooling(pooling)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (len(batch), params.d_out):
        raise ShapeMismatchError(
            f"upstream shape {upstream.shape} != ({len(batch)}, {params.d_out})"
        )
    if out is None:
        grads = EncoderGrads.zeros_like(params)
    else:
        grads = out
        for a in grads.arrays():
            a.fill(0.0)
    if len(batch) == 0:
        return grads

    packed = pack_batch(batch, params.vocab_size)
    h, z, norms, pooled = forward if forward is not None else forward_batch(params, packed, pooling)
    ids, lengths, starts = packed.ids, packed.lengths, packed.starts

    # normalization: dz = (g - (g.h) h) / ||z||, rowwise
    gh = np.sum(upstream * h, axis=1, keepdims=True)
    dz = (upstream - gh * h) / norms[:, None]
    da = dz * (1.0 - z * z)  # tanh'(a) = 1 - tanh(a)^2

    grads.proj_w += pooled.T @ da
    grads.proj_b += da.sum(axis=0)
    dpooled = da @ params.proj_w.T

    if pooling is Pooling.MEAN:
        _scatter_rows(
            grads.embedding, ids[:, None], np.repeat(dpooled / lengths[:, None], lengths, axis=0)
        )
    elif pooling is Pooling.MAX:
        # flat position of each sentence's first maximum per dimension (a NaN
        # counts as the maximum, as in np.argmax)
        rows = params.embedding[ids]
        winner = (rows == np.repeat(pooled, lengths, axis=0)) | np.isnan(rows)
        position = np.where(winner, np.arange(len(ids))[:, None], len(ids))
        first = np.minimum.reduceat(position, starts, axis=0)
        _scatter_rows(grads.embedding, ids[first], dpooled)
    else:
        _scatter_rows(grads.embedding, ids[starts][:, None], dpooled)
    return grads


def atomic_write(files: dict[str | os.PathLike, bytes]) -> None:
    """Write each file's bytes to a temporary file, then replace the files.

    No file is replaced before every temporary is complete, so a write that
    fails leaves all previous files intact.
    """
    staged = []
    try:
        for path, data in files.items():
            staged.append(f"{path}.tmp")
            with open(staged[-1], "wb") as fh:
                fh.write(data)
        for tmp, path in zip(staged, files):
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.remove(tmp)


# ---------------------------------------------------------------------------
# Tensor files: a 4-byte magic, a header of 8-byte little-endian unsigned
# integers, then tensors as 8-byte little-endian doubles in row-major order.
# Checkpoints (magic "DMC1") have the header (vocab_size, d_emb, d_out) and
# the three tensors of encoder A followed by those of encoder B; embedding
# dumps (magic "DMCE", see evaluation.py) have (count, dim) and one matrix.
# ---------------------------------------------------------------------------


def pack_tensor_file(magic: bytes, header: Sequence[int], tensors: Sequence[np.ndarray]) -> bytes:
    """The bytes of a tensor file."""
    return b"".join(
        [magic, struct.pack(f"<{len(header)}Q", *header)]
        + [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in tensors]
    )


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
    tensors = [*params_a.arrays(), *params_b.arrays()]
    atomic_write({path: pack_tensor_file(CHECKPOINT_MAGIC, header, tensors)})


def load_checkpoint(path: str) -> tuple[EncoderParams, EncoderParams]:
    """Read both encoder towers back from a checkpoint file."""
    _, tensors, _ = read_tensor_file(path, CHECKPOINT_MAGIC, 3, _checkpoint_shapes)
    return EncoderParams(*tensors[:3]), EncoderParams(*tensors[3:])

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

import json
import math
import os
import struct
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, CorpusParseError, InvalidInputError
from .numerics import ZERO_NORM_EPS

TokenSeq = Sequence[int]

CHECKPOINT_MAGIC = b"DMC1"


class Pooling(str, Enum):
    """How per-token embeddings collapse into one sentence vector."""

    MEAN = "mean"
    MAX = "max"
    FIRST = "first"


def as_pooling(pooling: Pooling | str) -> Pooling:
    """`pooling` as a Pooling; ConfigError names the accepted values otherwise."""
    try:
        return Pooling(pooling)
    except ValueError:
        raise ConfigError(f"pooling must be one of {', '.join(Pooling)} (got {pooling!r})") from None


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


def init_params(vocab_size: int, d_emb: int, d_out: int, rng: np.random.Generator) -> EncoderParams:
    """Random initialization keeping pre-tanh activations order-one."""
    embedding = rng.normal(0.0, 1.0, size=(vocab_size, d_emb))
    proj_w = rng.normal(0.0, 1.0 / np.sqrt(d_emb), size=(d_emb, d_out))
    proj_b = np.zeros(d_out)
    return EncoderParams(embedding, proj_w, proj_b)


@dataclass(frozen=True, eq=False)
class TokenTable:
    """Token sequences flattened once: sequence i is
    ids[starts[i] : starts[i] + lengths[i]], and len() counts the sequences.

    One type holds every dataset column and every batch. A column may hold
    its sentences for a whole run, so it stores 32-bit integers where its
    values allow (see token_table); a batch of any of its sequences is an
    index gather (`gather_batch`) holding intp, as pack_tokens's tables do.
    Every forward pass checks a table's ids against its tower. The id range
    and the mean-pooling order are computed on first use and kept, so the
    forward passes over one batch, or over one column every epoch, share them.
    """

    ids: np.ndarray  # (total,) token ids, sequence by sequence
    lengths: np.ndarray  # (n,)
    starts: np.ndarray  # (n,) offset of each sequence in ids

    def __len__(self) -> int:
        return len(self.lengths)

    @cached_property
    def _bounds(self) -> tuple[int, int, int]:
        """min(0, smallest id), max(-1, largest id) and min(1, shortest
        length): all check_ids needs to pass a table."""
        return self.ids.min(initial=0), self.ids.max(initial=-1), self.lengths.min(initial=1)

    @cached_property
    def mean_order(self) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
        """(by_position, live, restore): the order mean pooling reads tokens in.

        by_position holds position 0 of every sequence, then position 1 of
        every sequence longer than one token, and so on, with the sequences
        ordered longest first (stably), so the sequences still running at
        position t are the first live[t] of that order; row restore[i] of
        that order is sequence i.
        """
        lengths = self.lengths
        n = len(lengths)
        # Sequences longest first, each length's in table order. A match
        # against the lengths present finds this order without an argsort,
        # whose code pages alone add about 0.2 MB to the peak RSS of a short
        # CLI process.
        counts = np.bincount(lengths, minlength=1)
        order = np.nonzero(lengths == np.flatnonzero(counts)[::-1, None])[1]
        restore = np.empty(n, np.intp)
        restore[order] = np.arange(n)
        live = (n - np.cumsum(counts)[:-1]).tolist()
        # Row t of this (longest length, n) grid holds the offset of token t
        # of every sequence, longest first; the sequences still running at t
        # are a prefix of the row, so the mask reads the rows' prefixes in order.
        position = np.arange(len(live))[:, None]
        by_position = self.ids[(self.starts[order] + position)[position < lengths[order]]]
        return by_position, tuple(live), restore


_INT32 = np.iinfo(np.int32)


def token_table(ids: np.ndarray, lengths: np.ndarray) -> TokenTable:
    """The table of consecutive sequences of `ids` with the given lengths.

    ids are stored as int32 when every one fits, and kept as given
    otherwise (int64, or Python ints of dtype object for ids beyond int64);
    lengths and starts are int32 when the total length fits.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    if len(ids) and _INT32.min <= ids.min() and ids.max() <= _INT32.max:
        ids = ids.astype(np.int32, copy=False)
    if len(ids) <= _INT32.max:
        lengths, starts = lengths.astype(np.int32), starts.astype(np.int32)
    return TokenTable(ids, lengths, starts)


def check_ids(table: TokenTable, vocab_size: int, item: str) -> None:
    """InvalidInputError naming the first sequence of `table`, as `item` and
    its index, that is empty or holds an id outside [0, vocab_size) (as in
    "premise of inference triple 17"); a later check of the table is free."""
    low, high, shortest = table._bounds
    if low >= 0 and high < vocab_size and shortest > 0:
        return
    ids, starts = table.ids, table.starts
    bad = np.flatnonzero((ids < 0) | (ids >= vocab_size))
    empty = np.flatnonzero(table.lengths == 0)
    if empty.size and (not bad.size or starts[empty[0]] <= bad[0]):
        raise InvalidInputError(f"{item} {empty[0]}: empty token sequence")
    # the last sequence starting at or before the bad position holds it
    index = int(np.searchsorted(starts, bad[0], side="right")) - 1
    raise InvalidInputError(f"{item} {index}: token id {ids[bad[0]]} outside [0, {vocab_size})")


def pack_tokens(sequences: Sequence[TokenSeq]) -> TokenTable:
    """The table of token lists `sequences`, with intp ids, lengths and
    starts (ids beyond intp kept as Python ints); it checks nothing, since
    every forward pass refuses an empty sequence or an id outside its tower."""
    lengths = np.fromiter(map(len, sequences), np.intp, len(sequences))
    total = int(lengths.sum())
    try:
        ids = np.fromiter(chain.from_iterable(sequences), np.intp, total)
    except OverflowError:  # an id too large for intp: keep the Python ints for the range check
        ids = np.fromiter(chain.from_iterable(sequences), object, total)
    return TokenTable(ids, lengths, np.cumsum(lengths) - lengths)


def gather_batch(table: TokenTable, selection: np.ndarray) -> TokenTable:
    """The batch of table sequences `selection`, in that order, with intp
    ids, lengths and starts; equal, array by array, to pack_tokens of the
    same sequences as token lists.

    Its ids are not checked here: every forward pass refuses a batch with an
    empty sequence or an id outside its tower, naming the batch item. A
    batch holding an id beyond intp keeps them as Python ints, which only
    that refusal reads.
    """
    lengths = table.lengths[selection].astype(np.intp)
    starts = np.cumsum(lengths) - lengths
    offsets = np.repeat(table.starts[selection] - starts, lengths)
    ids = table.ids[offsets + np.arange(len(offsets))]
    try:
        ids = ids.astype(np.intp)
    except OverflowError:
        pass
    return TokenTable(ids, lengths, starts)


class Forward(NamedTuple):
    """One forward pass over a batch: the outputs and what the backward pass reads."""

    h: np.ndarray  # (n, d_out) unit-norm outputs
    z: np.ndarray  # (n, d_out) outputs before normalization
    norms: np.ndarray  # (n,) row norms of z
    pooled: np.ndarray  # (n, d_emb) pooled embeddings


def encode(params: EncoderParams, tokens: TokenSeq, pooling: Pooling | str) -> np.ndarray:
    """Encode one token sequence into a unit-norm vector of dimension d_out."""
    return encode_batch(params, [tokens], pooling)[0]


def forward_batch(params: EncoderParams, batch: TokenTable, pooling: Pooling | str) -> Forward:
    """Forward pass over a batch table; InvalidInputError names the first
    batch item that is empty or holds an id outside the tower.

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
    pooling = as_pooling(pooling)
    check_ids(batch, params.vocab_size, "batch item")
    if pooling is Pooling.MAX:
        pooled = np.maximum.reduceat(params.embedding[batch.ids], batch.starts, axis=0)
    elif pooling is Pooling.FIRST:
        pooled = params.embedding[batch.ids[batch.starts]]
    else:
        by_position, live_counts, restore = batch.mean_order
        offset = len(batch)
        pooled = params.embedding.take(by_position[:offset], axis=0)
        for live in live_counts[1:]:
            pooled[:live] += params.embedding.take(by_position[offset : offset + live], axis=0)
            offset += live
        pooled = pooled[restore]
        pooled /= batch.lengths[:, None]
    projected = np.matmul(pooled[:, None, :], params.proj_w)[:, 0]
    z = np.tanh(projected + params.proj_b)
    norms = np.linalg.norm(z, axis=1)
    bad = np.nonzero(norms <= ZERO_NORM_EPS)[0]
    if bad.size:
        raise InvalidInputError(f"batch item {bad[0]}: pre-normalization output is the zero vector")
    return Forward(z / norms[:, None], z, norms, pooled)


def encode_batch(
    params: EncoderParams, batch: Sequence[TokenSeq] | TokenTable, pooling: Pooling | str
) -> np.ndarray:
    """Encode a batch of token lists or a batch table; row i is bit-identical
    to encode(params, tokens of sequence i, pooling)."""
    if not isinstance(batch, TokenTable):
        batch = pack_tokens(batch)
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
    batch: TokenTable,
    pooling: Pooling | str,
    upstream: np.ndarray,
    forward: Forward,
    out: EncoderParams,
) -> None:
    """Write the gradient of sum_i upstream[i] . h_i with respect to `params`
    into `out`, arrays of the same shapes: they are zeroed, then accumulated.

    `forward` is forward_batch(params, batch, pooling), the pass whose
    outputs received `upstream`; it is reused as is. Exact chain rule
    through normalization, tanh, the affine projection, and pooling. Max
    pooling routes each dimension's subgradient to the earliest token
    position attaining the maximum. The embedding gradient is scattered in
    sentence-then-token order, so repeated ids accumulate in the same order
    as a per-sentence loop would.
    """
    pooling = as_pooling(pooling)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (len(batch), params.d_out):
        raise InvalidInputError(
            f"upstream shape {upstream.shape} != ({len(batch)}, {params.d_out})"
        )
    for a in out.arrays():
        a.fill(0.0)
    if len(batch) == 0:
        return

    h, z, norms, pooled = forward
    ids, lengths, starts = batch.ids, batch.lengths, batch.starts

    # normalization: dz = (g - (g.h) h) / ||z||, rowwise
    gh = np.sum(upstream * h, axis=1, keepdims=True)
    dz = (upstream - gh * h) / norms[:, None]
    da = dz * (1.0 - z * z)  # tanh'(a) = 1 - tanh(a)^2

    out.proj_w += pooled.T @ da
    out.proj_b += da.sum(axis=0)
    dpooled = da @ params.proj_w.T

    if pooling is Pooling.MEAN:
        _scatter_rows(
            out.embedding, ids[:, None], np.repeat(dpooled / lengths[:, None], lengths, axis=0)
        )
    elif pooling is Pooling.MAX:
        # flat position of each sentence's first maximum per dimension (a NaN
        # counts as the maximum, as in np.argmax)
        rows = params.embedding[ids]
        winner = (rows == np.repeat(pooled, lengths, axis=0)) | np.isnan(rows)
        position = np.where(winner, np.arange(len(ids))[:, None], len(ids))
        first = np.minimum.reduceat(position, starts, axis=0)
        _scatter_rows(out.embedding, ids[first], dpooled)
    else:
        _scatter_rows(out.embedding, ids[starts][:, None], dpooled)


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


def read_json_object(path: str | os.PathLike) -> dict:
    """The JSON object in a data file; CorpusParseError names the file when
    its text is not UTF-8, not JSON or not an object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:  # a JSONDecodeError or a UnicodeDecodeError
            raise CorpusParseError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise CorpusParseError(f"{path}: must be a JSON object")
    return doc


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
) -> tuple[tuple[int, ...], list[np.ndarray], bytes]:
    """Read a tensor file; return its header, its tensors and its bytes.

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
    return header, tensors, data


def _checkpoint_shapes(header: tuple[int, ...]) -> list[tuple[int, ...]]:
    vocab, d_emb, d_out = header
    return [(vocab, d_emb), (d_emb, d_out), (d_out,)] * 2


def save_checkpoint(path: str, params_a: EncoderParams, params_b: EncoderParams) -> None:
    """Write both encoder towers to one binary checkpoint file."""
    if params_a.shapes() != params_b.shapes():
        raise InvalidInputError("encoder towers must share shapes in a checkpoint")
    header = (params_a.vocab_size, params_a.d_emb, params_a.d_out)
    tensors = [*params_a.arrays(), *params_b.arrays()]
    atomic_write({path: pack_tensor_file(CHECKPOINT_MAGIC, header, tensors)})


def load_checkpoint(path: str) -> tuple[EncoderParams, EncoderParams]:
    """Read both encoder towers back from a checkpoint file; refuse non-finite tensors."""
    _, tensors, _ = read_tensor_file(path, CHECKPOINT_MAGIC, 3, _checkpoint_shapes)
    towers = EncoderParams(*tensors[:3]), EncoderParams(*tensors[3:])
    for tower, params in zip("AB", towers):
        for field in fields(params):
            if not np.isfinite(getattr(params, field.name)).all():
                raise CorpusParseError(f"{path}: tower {tower} {field.name} holds a NaN or infinite value")
    return towers

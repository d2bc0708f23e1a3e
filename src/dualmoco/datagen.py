"""Synthetic bilingual world with known semantics.

Sentences are sequences of concept ids. Each "language" renders a concept
through its own surface-token bijection, applies a fixed word-order rule,
and sprinkles in function tokens from a small noise vocabulary disjoint
from the concept tokens. Because the underlying concept sets are known,
every downstream task gets exact gold labels for free: alignment for
retrieval, true pairs for mining, set-Jaccard for similarity, and a
set-relation rule for inference triples.

Every concept set generated within one corpus is unique, which makes the
aligned sentence the unique maximum-Jaccard match of its partner.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .encoder import TokenTable, atomic_write, pack_tokens, read_json_object, token_table
from .errors import ConfigError, CorpusParseError

NLI_LABELS = ("entailment", "neutral", "contradiction")

SPLITS = ("train", "validation", "test")

_MAX_SAMPLING_ATTEMPTS = 2000
_MAX_LEN = 20  # concepts per sentence at most
# Side-A sets per step of the mining audit: at 1,000 side-B sets and 10
# concepts a set, a block gathers at most 320 kB of incidence rows.
_AUDIT_BLOCK = 32


@dataclass
class ConceptLexicon:
    """Concept-to-token bijections and noise vocabularies for both languages."""

    concept_count: int
    surface_a: np.ndarray  # (concept_count,) token ids, unique
    surface_b: np.ndarray
    noise_a: np.ndarray    # function-token ids, disjoint from surface_a
    noise_b: np.ndarray

    @property
    def vocab_size(self) -> int:
        """Token ids per language; both languages hold the same noise count."""
        return self.concept_count + len(self.noise_a)


def make_lexicon(concept_count: int = 380, noise_count: int = 20, seed: int = 0) -> ConceptLexicon:
    """Build per-language surface permutations over a shared concept inventory."""
    if concept_count < 1:
        raise ConfigError(f"concept_count must be >= 1 (got {concept_count})")
    if noise_count < 1:
        raise ConfigError(f"noise_count must be >= 1 (got {noise_count})")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0 (got {seed})")
    rng = np.random.default_rng(seed)
    vocab = concept_count + noise_count
    perm_a = rng.permutation(vocab)
    perm_b = rng.permutation(vocab)
    return ConceptLexicon(
        concept_count=concept_count,
        surface_a=perm_a[:concept_count],
        surface_b=perm_b[:concept_count],
        noise_a=perm_a[concept_count:],
        noise_b=perm_b[concept_count:],
    )


@dataclass(eq=False)
class ParallelCorpus:
    """Aligned sentence pairs, held as columns: pair i is sequence i of each
    table and split_codes[i], the index of its split in SPLITS. Both sides
    of a pair render the pair's concept sequence."""

    tokens_a: TokenTable
    tokens_b: TokenTable
    concepts: TokenTable
    split_codes: np.ndarray  # (n,) int8

    def __len__(self) -> int:
        return len(self.split_codes)

    def split(self, name: str) -> np.ndarray:
        """The indices of the pairs in split `name`, in corpus order (none for
        a name outside SPLITS)."""
        return np.flatnonzero(self.split_codes == (SPLITS.index(name) if name in SPLITS else -1))

    def max_token(self) -> int:
        """The largest token id on either side."""
        return max(int(self.tokens_a.ids.max()), int(self.tokens_b.ids.max()))


@dataclass(eq=False)
class MiningCorpus:
    """Two sentence tables with a partially parallel gold alignment."""

    side_a: TokenTable
    side_b: TokenTable
    gold_pairs: list[tuple[int, int]]
    parallel_fraction: float


@dataclass(eq=False)
class StsPairs:
    """Same-language sentence pairs as columns: pair i is sequence i of each
    table and gold[i], the Jaccard of the two concept sets."""

    tokens_1: TokenTable
    tokens_2: TokenTable
    gold: np.ndarray  # (n,) float64

    def __len__(self) -> int:
        return len(self.gold)


@dataclass(eq=False)
class NliTriples:
    """Premise/hypothesis pairs as columns: triple i is sequence i of each
    table and labels[i], the index of its label in NLI_LABELS."""

    premises: TokenTable
    hypotheses: TokenTable
    labels: np.ndarray  # (n,) int8

    def __len__(self) -> int:
        return len(self.labels)


def _table(sequences: Sequence[Sequence[int]]) -> TokenTable:
    """Token lists as a column, stored as token_table stores one."""
    packed = pack_tokens(sequences)
    return token_table(packed.ids, packed.lengths)


def nli_label(premise_concepts: Iterable[int], hypothesis_concepts: Iterable[int]) -> str:
    """entailment iff hypothesis concepts are a strict subset of the premise's;
    contradiction iff the sets are disjoint; neutral otherwise."""
    prem = set(premise_concepts)
    hyp = set(hypothesis_concepts)
    if hyp < prem:
        return "entailment"
    if not (hyp & prem):
        return "contradiction"
    return "neutral"


def _render(
    concepts: Sequence[int],
    surface: list[int],
    noise: list[int],
    noise_rate: float,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Surface tokens for a concept sequence with function tokens mixed in;
    `surface` and `noise` are the lexicon's token ids as Python lists."""
    tokens: list[int] = []
    for c in concepts:
        if noise_rate > 0.0 and rng.random() < noise_rate:
            tokens.append(noise[rng.integers(len(noise))])
        tokens.append(surface[c])
    return tuple(tokens)


def _draw_concepts(rng: np.random.Generator, pool: int | np.ndarray, size: int) -> tuple[int, ...]:
    """`size` distinct concepts drawn from `pool`, as Python ints."""
    return tuple(rng.choice(pool, size=size, replace=False).tolist())


def _reorder(concepts: tuple[int, ...], rule: str) -> tuple[int, ...]:
    if rule == "reverse":
        return concepts[::-1]
    if rule == "identity":
        return concepts
    raise ConfigError(f"reorder_b must be 'reverse' or 'identity' (got {rule!r})")


class _ConceptSampler:
    """Draws distinct-concept sequences whose sets are unique (and optionally
    low-overlap) across everything sampled so far.

    With max_overlap = 1 only a repeated set is rejected, so each set is
    kept as an integer with one bit per concept. With max_overlap < 1 the
    sets themselves are kept, in `seen`, for the mining audit, and a
    candidate is rejected when its Jaccard with any seen set reaches
    max_overlap. A concept x seen-set incidence matrix of
    0/1 bytes, whose columns double in number as it fills, gives the number
    of concepts the candidate shares with every seen set in one gather and
    one sum. The float test an all-pairs scan makes, m / (n + |s| - m) >=
    max_overlap for m shared concepts, grows with m at fixed n + |s|, so
    for each candidate length n and seen set s it fails from one least m
    on; those counts, kept per seen set for every n up to _MAX_LEN, turn
    the test into one comparison of the whole count array.
    """

    def __init__(self, lexicon: ConceptLexicon, rng: np.random.Generator, max_overlap: float = 1.0):
        if not max_overlap > 0.0:
            raise ConfigError(f"max_overlap must be > 0 (got {max_overlap})")
        self.lexicon = lexicon
        self.rng = rng
        self.max_overlap = max_overlap  # reject Jaccard >= this vs existing sets
        self.seen: list[frozenset[int]] = []
        self._seen_keys: set[int] = set()
        self._incidence = np.zeros((lexicon.concept_count, 64), dtype=np.uint8)
        self._fail_at = np.zeros((_MAX_LEN + 1, 64), dtype=np.uint8)  # [n, k]: least failing m
        # [n + |s|]: least m failing the float test; 255, above any count, if none does
        self._fail_by_total = np.array(
            [
                min((m for m in range(1, total // 2 + 1) if m / (total - m) >= max_overlap), default=255)
                for total in range(2 * _MAX_LEN + 1)
            ],
            dtype=np.uint8,
        )

    def draw(self, length: int) -> tuple[int, ...]:
        if length > self.lexicon.concept_count:
            raise ConfigError(
                f"sentence length {length} exceeds concept inventory {self.lexicon.concept_count}"
            )
        for _ in range(_MAX_SAMPLING_ATTEMPTS):
            seq = _draw_concepts(self.rng, self.lexicon.concept_count, length)
            if self.max_overlap >= 1.0:
                key = sum(1 << c for c in seq)  # the concepts are distinct
                if key not in self._seen_keys:
                    self._seen_keys.add(key)
                    return seq
            else:
                cand = frozenset(seq)
                if self._acceptable(cand):
                    self._add(cand)
                    return seq
        raise ConfigError(
            "could not sample a sufficiently distinct concept sequence; "
            "increase concept_count or reduce corpus size"
        )

    def _acceptable(self, cand: frozenset[int]) -> bool:
        k = len(self.seen)
        shared = np.add.reduce(self._incidence[list(cand), :k], axis=0, dtype=np.uint8)
        return not (shared >= self._fail_at[len(cand), :k]).any()

    def _add(self, cand: frozenset[int]) -> None:
        k = len(self.seen)
        self.seen.append(cand)
        if k == self._incidence.shape[1]:
            self._incidence = np.concatenate([self._incidence, np.zeros_like(self._incidence)], axis=1)
            self._fail_at = np.concatenate([self._fail_at, np.zeros_like(self._fail_at)], axis=1)
        self._incidence[list(cand), k] = 1
        self._fail_at[:, k] = self._fail_by_total[len(cand) : len(cand) + _MAX_LEN + 1]


def _check_len_range(len_range: tuple[int, int]) -> None:
    lo, hi = len_range
    if not (3 <= lo <= hi <= _MAX_LEN):
        raise ConfigError(f"len_range must satisfy 3 <= lo <= hi <= {_MAX_LEN} (got {len_range})")


def gen_parallel_corpus(
    lexicon: ConceptLexicon,
    n_train: int = 5000,
    n_val: int = 500,
    n_test: int = 1000,
    len_range: tuple[int, int] = (3, 10),
    noise_rate: float = 0.1,
    seed: int = 0,
    reorder_b: str = "reverse",
) -> ParallelCorpus:
    """Aligned pairs across all three splits, deterministic in the seed.

    Pairs are drawn split by split; each pair's tokens go straight into the
    flat columns of the corpus tables.
    """
    if n_train < 1:
        raise ConfigError(f"n_train must be >= 1 (got {n_train})")
    if n_val < 0 or n_test < 0:
        raise ConfigError("n_val and n_test must be >= 0")
    _check_len_range(len_range)
    if not (0.0 <= noise_rate < 1.0):
        raise ConfigError(f"noise_rate must be in [0, 1) (got {noise_rate})")

    rng = np.random.default_rng(seed)
    sampler = _ConceptSampler(lexicon, rng)
    surface_a, noise_a = lexicon.surface_a.tolist(), lexicon.noise_a.tolist()
    surface_b, noise_b = lexicon.surface_b.tolist(), lexicon.noise_b.tolist()
    counts = (n_train, n_val, n_test)
    # the ids of side A, side B and the concepts, and the three lengths of
    # each pair, as C ints
    ids_a, ids_b, ids_c, lengths = array("i"), array("i"), array("i"), array("i")
    for _ in range(sum(counts)):
        length = int(rng.integers(len_range[0], len_range[1] + 1))
        concepts = sampler.draw(length)
        tokens_a = _render(concepts, surface_a, noise_a, noise_rate, rng)
        tokens_b = _render(_reorder(concepts, reorder_b), surface_b, noise_b, noise_rate, rng)
        ids_a.extend(tokens_a)
        ids_b.extend(tokens_b)
        ids_c.extend(concepts)
        lengths.extend((len(tokens_a), len(tokens_b), length))
    per_pair = np.array(lengths).reshape(-1, 3)
    tables = (token_table(np.array(ids), per_pair[:, k]) for k, ids in enumerate((ids_a, ids_b, ids_c)))
    return ParallelCorpus(*tables, np.repeat(np.arange(len(SPLITS), dtype=np.int8), counts))


def gen_mining_corpus(
    lexicon: ConceptLexicon,
    n_a: int = 400,
    n_b: int = 400,
    parallel_fraction: float = 0.1,
    seed: int = 0,
    len_range: tuple[int, int] = (3, 10),
    noise_rate: float = 0.1,
    reorder_b: str = "reverse",
) -> MiningCorpus:
    """Partially parallel collections with at least one recorded gold pair.

    Concept sets are rejected until every cross-side non-gold pair shares
    less than half of its concepts (Jaccard < 0.5), which a final scan
    re-verifies.
    """
    if not (0.0 < parallel_fraction < 1.0):
        raise ConfigError(f"parallel_fraction must be in (0, 1) (got {parallel_fraction})")
    n_gold = int(parallel_fraction * min(n_a, n_b))
    if n_gold < 1:
        raise ConfigError(f"parallel_fraction {parallel_fraction} of {min(n_a, n_b)} sentences gives no gold pair")
    _check_len_range(len_range)

    rng = np.random.default_rng(seed)
    sampler = _ConceptSampler(lexicon, rng, max_overlap=0.5)
    surface_a, noise_a = lexicon.surface_a.tolist(), lexicon.noise_a.tolist()
    surface_b, noise_b = lexicon.surface_b.tolist(), lexicon.noise_b.tolist()

    # sets 0..n_gold-1 are gold and rendered on both sides, then come n_a - n_gold
    # side-A-only sets and n_b - n_gold side-B-only ones
    seqs_a: list[tuple[int, ...]] = []
    seqs_b: list[tuple[int, ...]] = []
    for i in range(n_a + n_b - n_gold):
        length = int(rng.integers(len_range[0], len_range[1] + 1))
        concepts = sampler.draw(length)
        if i < n_a:
            seqs_a.append(_render(concepts, surface_a, noise_a, noise_rate, rng))
        if not n_gold <= i < n_a:
            seqs_b.append(_render(_reorder(concepts, reorder_b), surface_b, noise_b, noise_rate, rng))

    # sequence i lands at position pos[i] of its side
    pos_a = rng.permutation(n_a)
    pos_b = rng.permutation(n_b)
    side_a = _table([seqs_a[i] for i in np.argsort(pos_a).tolist()])
    side_b = _table([seqs_b[i] for i in np.argsort(pos_b).tolist()])
    gold_pairs = [(int(pos_a[i]), int(pos_b[i])) for i in range(n_gold)]

    seen = sampler.seen
    _audit_overlap(seen[:n_a], seen[:n_gold] + seen[n_a:], pos_a, pos_b, set(gold_pairs))
    return MiningCorpus(side_a, side_b, gold_pairs, parallel_fraction)


def _audit_overlap(
    sets_a: list[frozenset[int]],
    sets_b: list[frozenset[int]],
    pos_a: np.ndarray,
    pos_b: np.ndarray,
    gold: set[tuple[int, int]],
) -> None:
    """Cross-check that every non-gold cross pair shares < 50% of concepts.

    Side-A sets are taken _AUDIT_BLOCK at a time, in generation order. A
    block's shared-concept counts against every side-B set are the rows of a
    concept x side-B incidence of 0/1 bytes gathered at the block's concepts
    and summed set by set, with no float product; the float Jaccard test an
    all-pairs scan makes then runs on the whole block. Failing pairs are
    visited in row-major order, so the first non-gold one is the pair that
    scan, in generation order of side A and then side B, reports.
    """
    len_a = np.fromiter(map(len, sets_a), dtype=np.int16, count=len(sets_a))
    len_b = np.fromiter(map(len, sets_b), dtype=np.int16, count=len(sets_b))
    flat_a = np.fromiter(chain.from_iterable(sets_a), dtype=np.intp, count=int(len_a.sum()))
    flat_b = np.fromiter(chain.from_iterable(sets_b), dtype=np.intp, count=int(len_b.sum()))
    incidence_b = np.zeros((max(flat_a.max(), flat_b.max()) + 1, len(sets_b)), dtype=np.uint8)
    incidence_b[flat_b, np.repeat(np.arange(len(sets_b)), len_b)] = 1
    starts_a = np.concatenate([[0], np.cumsum(len_a)])
    for lo in range(0, len(sets_a), _AUDIT_BLOCK):
        hi = min(lo + _AUDIT_BLOCK, len(sets_a))
        rows = incidence_b[flat_a[starts_a[lo] : starts_a[hi]]]
        shared = np.add.reduceat(rows, starts_a[lo:hi] - starts_a[lo], axis=0, dtype=np.uint8)
        fails = shared / (len_a[lo:hi, None] + len_b - shared) >= 0.5
        for ia, jb in zip(*np.nonzero(fails)):
            i, j = int(pos_a[lo + ia]), int(pos_b[jb])
            if (i, j) not in gold:
                raise ConfigError(
                    f"generation audit failed: non-gold pair ({i}, {j}) shares >= 50% of concepts"
                )


def gen_sts_pairs(
    lexicon: ConceptLexicon,
    n: int = 500,
    seed: int = 0,
    len_range: tuple[int, int] = (3, 8),
    noise_rate: float = 0.1,
) -> StsPairs:
    """Same-language sentence pairs with Jaccard-of-concepts gold scores.

    Overlap sizes are drawn uniformly from full-identity down to disjoint,
    so the gold values spread across [0, 1].
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1 (got {n})")
    _check_len_range(len_range)
    rng = np.random.default_rng(seed)
    surface, noise = lexicon.surface_a.tolist(), lexicon.noise_a.tolist()
    all_concepts = np.arange(lexicon.concept_count)
    tokens_1, tokens_2, gold = [], [], []
    for _ in range(n):
        length = int(rng.integers(len_range[0], len_range[1] + 1))
        s1 = _draw_concepts(rng, lexicon.concept_count, length)
        overlap = int(rng.integers(0, length + 1))
        remaining = np.delete(all_concepts, s1)
        s2 = s1[:overlap] + _draw_concepts(rng, remaining, length - overlap)
        gold.append(overlap / len(set(s1) | set(s2)))
        tokens_1.append(_render(s1, surface, noise, noise_rate, rng))
        tokens_2.append(_render(s2, surface, noise, noise_rate, rng))
    return StsPairs(_table(tokens_1), _table(tokens_2), np.array(gold))


def gen_nli_triples(
    lexicon: ConceptLexicon,
    n: int = 1000,
    seed: int = 0,
    len_range: tuple[int, int] = (3, 8),
    noise_rate: float = 0.1,
) -> NliTriples:
    """Premise/hypothesis pairs with labels balanced by round-robin construction."""
    if n < 1:
        raise ConfigError(f"n must be >= 1 (got {n})")
    _check_len_range(len_range)
    rng = np.random.default_rng(seed)
    surface, noise = lexicon.surface_a.tolist(), lexicon.noise_a.tolist()
    all_concepts = np.arange(lexicon.concept_count)
    premises, hypotheses = [], []
    for i in range(n):
        want = NLI_LABELS[i % len(NLI_LABELS)]
        length = int(rng.integers(len_range[0], len_range[1] + 1))
        prem = _draw_concepts(rng, lexicon.concept_count, length)
        if want == "entailment":
            size = int(rng.integers(1, length))
            keep = sorted(rng.choice(length, size=size, replace=False).tolist())
            hyp = tuple(prem[k] for k in keep)
        elif want == "contradiction":
            pool = np.delete(all_concepts, prem)
            hlen = int(rng.integers(len_range[0], len_range[1] + 1))
            hyp = _draw_concepts(rng, pool, hlen)
        else:
            shared_n = int(rng.integers(1, length))
            pool = np.delete(all_concepts, prem)
            fresh_n = int(rng.integers(1, len_range[1]))
            hyp = prem[:shared_n] + _draw_concepts(rng, pool, fresh_n)
        assert nli_label(prem, hyp) == want
        premises.append(_render(prem, surface, noise, noise_rate, rng))
        hypotheses.append(_render(hyp, surface, noise, noise_rate, rng))
    labels = (np.arange(n) % len(NLI_LABELS)).astype(np.int8)  # triple i is NLI_LABELS[i % 3]
    return NliTriples(_table(premises), _table(hypotheses), labels)


# ---------------------------------------------------------------------------
# File formats. Parallel corpora are TSV: one pair per line,
# `a_tokens<TAB>b_tokens<TAB>concept_ids<TAB>split`, tokens space-separated
# integers, UTF-8, LF line endings. Similarity / inference files carry their
# gold column (similarity or label name) in the last field; mining corpora
# are JSON. Each dataset is written from its columns and loaded back into them.
# ---------------------------------------------------------------------------


def _ints(fieldtext: str, path: str, lineno: int) -> tuple[int, ...]:
    """The ids of a token field as save_tsv writes it: ASCII digits separated
    by single spaces (int() alone also reads '1_0', '+7', non-ASCII digits)."""
    if not fieldtext:
        raise CorpusParseError(f"{path}:{lineno}: empty token field")
    try:
        if fieldtext.isascii() and fieldtext.replace(" ", "").isdigit():
            return tuple(map(int, fieldtext.split(" ")))
    except ValueError:  # an empty token: a leading, trailing or doubled space
        pass
    raise CorpusParseError(f"{path}:{lineno}: non-integer token field {fieldtext!r}")


def _read_rows(path: str, n_cols: int) -> list[tuple[int, list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as e:
            raise CorpusParseError(f"{path}: not UTF-8 ({e})") from e
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != n_cols:
            raise CorpusParseError(f"{path}:{lineno}: expected {n_cols} columns, got {len(cols)}")
        rows.append((lineno, cols))
    if not rows:
        raise CorpusParseError(f"{path}: no records")
    return rows


def _save_lines(path: str, lines: Iterable[str]) -> None:
    atomic_write({path: "".join(line + "\n" for line in lines).encode("utf-8")})


def _texts(table: TokenTable) -> list[str]:
    """Each sequence of a table as a token field; each distinct id is made a
    string once, and its tokens share that string."""
    distinct, inverse = np.unique(table.ids, return_inverse=True)
    words = np.array(list(map(str, distinct.tolist())), dtype=object)[inverse].tolist()
    bounds = zip(table.starts.tolist(), table.lengths.tolist())
    return [" ".join(words[start : start + length]) for start, length in bounds]


def save_tsv(corpus: ParallelCorpus, path: str) -> None:
    columns = _texts(corpus.tokens_a), _texts(corpus.tokens_b), _texts(corpus.concepts)
    names = (SPLITS[code] for code in corpus.split_codes.tolist())
    _save_lines(path, map("\t".join, zip(*columns, names)))


# The whole-array pass over a parallel corpus file reads each byte's class
# through bytes.translate tables: numpy work at import would map code pages
# into every process.
_DIGIT, _SPACE, _OTHER, _TAB, _LF = range(5)
_SEPARATORS = {ord(" "): _SPACE, ord("\t"): _TAB, ord("\n"): _LF}
_BYTE_CLASSES = bytes(_DIGIT if c in b"0123456789" else _SEPARATORS.get(c, _OTHER) for c in range(256))
# Every byte but an ASCII digit to a space, the separator np.fromstring reads.
_DIGITS_AND_SPACES = bytes(c if c in b"0123456789" else ord(" ") for c in range(256))
# A space that is not between two digits: leading, trailing or doubled.
_STRAY_SPACES = (b"  ", b"\t ", b" \t", b"\n ", b" \n")


def _parse_parallel(data: bytes) -> ParallelCorpus | None:
    """The corpus in `data` if it is laid out exactly as save_tsv writes it,
    checked and parsed as whole arrays; None otherwise.

    Each line must be three non-empty token fields of ASCII digits and
    single spaces, then a split name, separated by tabs and ended by LF.
    The files save_tsv writes pass. None is also the answer for CR line
    ends, blank lines and a last line without LF, which load_tsv's line
    walk takes.
    """
    if not data.isascii() or data[:1] == b" " or data[-1:] != b"\n":
        return None
    if any(pair in data for pair in _STRAY_SPACES):
        return None
    byte_class = np.frombuffer(data.translate(_BYTE_CLASSES), dtype=np.uint8)
    ends = np.flatnonzero(byte_class >= _TAB)  # each field's tab or LF
    n = len(ends) // 4
    if not n or len(ends) != 4 * n or (byte_class[ends].reshape(n, 4) != (_TAB, _TAB, _TAB, _LF)).any():
        return None
    widths = (np.diff(ends, prepend=-1) - 1).reshape(n, 4)
    # The split names are the only bytes that are not digits, spaces, tabs or
    # LFs: every fourth field is one, and no other field holds such a byte.
    if (
        not widths[:, :3].all()
        or sum(data.count(b"\t%s\n" % name.encode()) for name in SPLITS) != n
        or np.count_nonzero(byte_class == _OTHER) != widths[:, 3].sum()
    ):
        return None
    # a token field's spaces, plus one, are its tokens
    spaces_before = np.searchsorted(np.flatnonzero(byte_class == _SPACE), ends)
    counts = np.diff(spaces_before, prepend=0).reshape(n, 4)[:, :3] + 1
    del byte_class, ends
    digits = data.translate(_DIGITS_AND_SPACES)
    ids = np.fromstring(digits, dtype=np.int64, count=counts.sum(), sep=" ")
    if ids.max() == np.iinfo(np.int64).max:  # where np.fromstring saturates
        ids = np.array(list(map(int, digits.split())), dtype=object)
    del digits
    fields = token_table(ids, counts.ravel())  # the 3n token fields in file order, narrowed
    del ids
    column = np.tile(np.arange(3, dtype=np.int8), n).repeat(counts.ravel())
    tables = (token_table(fields.ids[column == c], counts[:, c]) for c in range(3))
    split_codes = np.zeros(n, dtype=np.int8)
    for code, name in enumerate(SPLITS):  # the names differ in length
        split_codes[widths[:, 3] == len(name)] = code
    return ParallelCorpus(*tables, split_codes)


def load_tsv(path: str) -> ParallelCorpus:
    """A parallel corpus as save_tsv writes it. A file that the whole-array
    pass refuses is walked line by line: a fault raises CorpusParseError
    citing its line, and a file without one is read as its records."""
    with open(path, "rb") as fh:
        corpus = _parse_parallel(fh.read())
    if corpus is None:
        rows = _read_rows(path, 4)
        for lineno, cols in rows:
            if cols[3] not in SPLITS:
                raise CorpusParseError(f"{path}:{lineno}: unknown split {cols[3]!r}")
            for fieldtext in cols[:3]:
                _ints(fieldtext, path, lineno)
        corpus = _parse_parallel("".join("\t".join(cols) + "\n" for _, cols in rows).encode("ascii"))
        assert corpus is not None  # the walk takes no record that the array pass refuses
    return corpus


def save_sts_tsv(pairs: StsPairs, path: str) -> None:
    golds = map(repr, pairs.gold.tolist())
    _save_lines(path, map("\t".join, zip(_texts(pairs.tokens_1), _texts(pairs.tokens_2), golds)))


def load_sts_tsv(path: str) -> StsPairs:
    rows = []
    for lineno, cols in _read_rows(path, 3):
        try:
            gold = float(cols[2])
        except ValueError as e:
            raise CorpusParseError(f"{path}:{lineno}: bad gold similarity {cols[2]!r}") from e
        if not 0.0 <= gold <= 1.0:  # false for NaN too
            raise CorpusParseError(f"{path}:{lineno}: gold similarity {cols[2]!r} outside [0, 1]")
        rows.append((_ints(cols[0], path, lineno), _ints(cols[1], path, lineno), gold))
    tokens_1, tokens_2, golds = zip(*rows)
    return StsPairs(_table(tokens_1), _table(tokens_2), np.array(golds))


def save_nli_tsv(triples: NliTriples, path: str) -> None:
    names = (NLI_LABELS[code] for code in triples.labels.tolist())
    _save_lines(path, map("\t".join, zip(_texts(triples.premises), _texts(triples.hypotheses), names)))


def load_nli_tsv(path: str) -> NliTriples:
    rows = []
    for lineno, cols in _read_rows(path, 3):
        if cols[2] not in NLI_LABELS:
            raise CorpusParseError(f"{path}:{lineno}: unknown label {cols[2]!r}")
        rows.append((_ints(cols[0], path, lineno), _ints(cols[1], path, lineno), NLI_LABELS.index(cols[2])))
    premises, hypotheses, codes = zip(*rows)
    return NliTriples(_table(premises), _table(hypotheses), np.array(codes, dtype=np.int8))


def _sequences(table: TokenTable) -> list[list[int]]:
    """Each sequence of a table as a list of Python ints."""
    ids = table.ids.tolist()
    return [ids[start : start + length] for start, length in zip(table.starts.tolist(), table.lengths.tolist())]


def save_mining_json(corpus: MiningCorpus, path: str) -> None:
    doc = {
        "side_a": _sequences(corpus.side_a),
        "side_b": _sequences(corpus.side_b),
        "gold_pairs": [list(p) for p in corpus.gold_pairs],
        "parallel_fraction": corpus.parallel_fraction,
    }
    atomic_write({path: (json.dumps(doc) + "\n").encode("utf-8")})


def _mining_side(doc: dict, key: str, path: str) -> TokenTable:
    """doc[key] as a table of sentences, each a non-empty list of JSON integers
    (no booleans), checked by type over the whole side before it is packed."""
    side = doc[key]
    if (
        type(side) is not list
        or not side
        or not set(map(type, side)) <= {list}
        or not all(side)
        or not set(map(type, chain.from_iterable(side))) <= {int}
    ):
        if type(side) is not list:
            raise CorpusParseError(f"{path}: {key} must be a list of sentences")
        if not side:
            raise CorpusParseError(f"{path}: {key} holds no sentences")
        for n, sentence in enumerate(side):
            if type(sentence) is not list or not sentence:
                raise CorpusParseError(
                    f"{path}: {key}[{n}] must be a non-empty list of token ids (got {sentence!r})"
                )
            for t in sentence:
                if type(t) is not int:
                    raise CorpusParseError(f"{path}: {key}[{n}] token {t!r} is not an integer")
    return _table(side)


def load_mining_json(path: str) -> MiningCorpus:
    """A mining corpus as save_mining_json writes it. Tokens must be JSON
    integers and gold pairs in-range [side_a index, side_b index] pairs;
    anything else raises CorpusParseError naming the file and the item."""
    doc = read_json_object(path)
    try:
        side_a, side_b = _mining_side(doc, "side_a", path), _mining_side(doc, "side_b", path)
        gold_pairs = []
        for n, pair in enumerate(doc["gold_pairs"]):
            if not (
                type(pair) is list
                and len(pair) == 2
                and type(pair[0]) is int
                and type(pair[1]) is int
                and 0 <= pair[0] < len(side_a)
                and 0 <= pair[1] < len(side_b)
            ):
                raise CorpusParseError(
                    f"{path}: gold_pairs[{n}] {pair!r} is not an in-range [side_a index, side_b index] pair"
                )
            gold_pairs.append((pair[0], pair[1]))
        return MiningCorpus(side_a, side_b, gold_pairs, float(doc["parallel_fraction"]))
    except (KeyError, TypeError, ValueError) as e:
        raise CorpusParseError(f"{path}: malformed mining corpus ({e})") from e

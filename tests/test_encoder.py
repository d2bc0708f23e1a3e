import dataclasses
import errno

import numpy as np
import pytest

from helpers import (
    central_difference,
    encode_backward_tokens,
    l2_normalize,
    max_rel_error,
    random_token_batch,
    random_unit_rows,
    zeros_like_tower,
)

from dualmoco import cli, datagen, encoder, evaluation
from dualmoco.encoder import (
    EncoderParams,
    Pooling,
    check_ids,
    encode,
    encode_backward,
    encode_batch,
    forward_batch,
    gather_batch,
    init_params,
    load_checkpoint,
    pack_tokens,
    save_checkpoint,
    table_rows,
    token_table,
)
from dualmoco.errors import ConfigError, CorpusParseError, InvalidInputError


@pytest.fixture
def params():
    return init_params(vocab_size=10, d_emb=4, d_out=3, rng=np.random.default_rng(0))


def reference_forward(params, batch, pooling):
    """Per-sentence forward pass: pool each sentence, project it row by row.

    The batched kernel must reproduce these bits exactly. Sentences of 8 or
    more tokens matter: that is where summing a mean in another order than
    ndarray.mean(axis=0) starts to change the last bit.
    """
    pooled = np.empty((len(batch), params.d_emb))
    for i, tokens in enumerate(batch):
        rows = params.embedding[np.asarray(tokens, dtype=np.intp)]
        if pooling is Pooling.MEAN:
            pooled[i] = rows.mean(axis=0)
        elif pooling is Pooling.MAX:
            pooled[i] = rows.max(axis=0)
        else:
            pooled[i] = rows[0]
    projected = np.empty((len(batch), params.d_out))
    for i in range(len(batch)):
        projected[i] = pooled[i] @ params.proj_w
    z = np.tanh(projected + params.proj_b)
    norms = np.linalg.norm(z, axis=1)
    return z / norms[:, None], z, norms, pooled


def reference_backward(params, batch, pooling, upstream):
    """encode_backward with one embedding scatter per sentence."""
    h, z, norms, pooled = reference_forward(params, batch, pooling)
    grads = zeros_like_tower(params)
    gh = np.sum(upstream * h, axis=1, keepdims=True)
    dz = (upstream - gh * h) / norms[:, None]
    da = dz * (1.0 - z * z)
    grads.proj_w += pooled.T @ da
    grads.proj_b += da.sum(axis=0)
    dpooled = da @ params.proj_w.T
    for i, tokens in enumerate(batch):
        ids = np.asarray(tokens, dtype=np.intp)
        if pooling is Pooling.MEAN:
            np.add.at(grads.embedding, ids, dpooled[i] / len(ids))
        elif pooling is Pooling.MAX:
            winners = np.argmax(params.embedding[ids], axis=0)
            np.add.at(grads.embedding, (ids[winners], np.arange(params.d_emb)), dpooled[i])
        else:
            grads.embedding[ids[0]] += dpooled[i]
    return grads


def wide_params(rng, ties=False):
    """Default-sized towers; with ties, small-integer embeddings so max pooling ties often."""
    params = init_params(vocab_size=60, d_emb=32, d_out=32, rng=rng)
    if ties:
        params.embedding = rng.integers(-2, 3, size=params.embedding.shape).astype(np.float64)
        params.proj_b = rng.normal(size=params.d_out)
    return params


class TestEncodeForward:
    def test_single_token_mean_equals_first(self, params):
        # mean pooling over one token is that token's embedding row, i.e.
        # exactly the first-token pooled vector
        for t in range(params.vocab_size):
            np.testing.assert_array_equal(
                encode(params, [t], Pooling.MEAN), encode(params, [t], Pooling.FIRST)
            )

    def test_max_pooling_elementwise(self):
        # rows 0,1 pool (elementwise max) to exactly row 2
        embedding = np.array([[1.0, -2.0], [3.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
        params = EncoderParams(embedding, np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(
            encode(params, [0, 1], Pooling.MAX), encode(params, [2], Pooling.MEAN)
        )

    def test_output_unit_norm(self, params):
        rng = np.random.default_rng(1)
        for tokens in random_token_batch(rng, 30, params.vocab_size):
            for pooling in Pooling:
                h = encode(params, tokens, pooling)
                assert abs(np.linalg.norm(h) - 1.0) <= 1e-12
                assert h.shape == (params.d_out,)

    def test_matches_stated_composition(self, params):
        tokens = [2, 5, 5, 7]
        pooled = params.embedding[tokens].mean(axis=0)
        expected = l2_normalize(np.tanh(pooled @ params.proj_w + params.proj_b))
        np.testing.assert_array_equal(encode(params, tokens, Pooling.MEAN), expected)

    def test_token_out_of_range(self, params):
        with pytest.raises(InvalidInputError, match="token id 10 outside"):
            encode(params, [0, 10], Pooling.MEAN)
        with pytest.raises(InvalidInputError, match="token id -1 outside"):
            encode(params, [-1], Pooling.MEAN)
        with pytest.raises(InvalidInputError, match="empty token sequence"):
            encode(params, [], Pooling.MEAN)

    def test_zero_vector_with_contrived_params(self):
        params = EncoderParams(np.zeros((4, 3)), np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(InvalidInputError, match="is the zero vector"):
            encode(params, [0], Pooling.MEAN)

    def test_pooling_accepts_strings(self, params):
        np.testing.assert_array_equal(
            encode(params, [1, 2], "mean"), encode(params, [1, 2], Pooling.MEAN)
        )

    def test_unknown_pooling_is_a_config_error(self, params):
        packed = pack_tokens([[1, 2]])
        grads = zeros_like_tower(params)
        for call in (
            lambda: encode_batch(params, [[1, 2]], "avg"),
            lambda: forward_batch(params, packed, "avg"),
            lambda: encode_backward(params, packed, "avg", np.zeros((1, 3)), None, grads),
        ):
            with pytest.raises(ConfigError, match=r"pooling must be one of mean, max, first \(got 'avg'\)"):
                call()

    def test_permutation_invariance_of_mean_and_max(self, params):
        rng = np.random.default_rng(3)
        tokens = [1, 4, 7, 2]
        base_max = encode(params, tokens, Pooling.MAX)
        base_mean = encode(params, tokens, Pooling.MEAN)
        for _ in range(5):
            shuffled = [tokens[i] for i in rng.permutation(len(tokens))]
            # elementwise max is exactly order-free; mean only up to
            # float summation order
            np.testing.assert_array_equal(base_max, encode(params, shuffled, Pooling.MAX))
            np.testing.assert_allclose(base_mean, encode(params, shuffled, Pooling.MEAN), atol=1e-12)

    def test_first_token_is_order_sensitive(self, params):
        a = encode(params, [1, 4], Pooling.FIRST)
        b = encode(params, [4, 1], Pooling.FIRST)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_deterministic(self, params):
        a = encode(params, [3, 1, 3], Pooling.MAX)
        b = encode(params, [3, 1, 3], Pooling.MAX)
        np.testing.assert_array_equal(a, b)


class TestEncodeBatch:
    def test_empty_batch(self, params):
        out = encode_batch(params, [], Pooling.MEAN)
        assert out.shape == (0, params.d_out)

    def test_singleton_matches_encode(self, params):
        tokens = [4, 4, 9]
        np.testing.assert_array_equal(
            encode_batch(params, [tokens], Pooling.MEAN)[0], encode(params, tokens, Pooling.MEAN)
        )

    def test_rows_match_encode_bitwise(self):
        rng = np.random.default_rng(5)
        params = wide_params(rng)
        for n in (1, 2, 64, 300):
            batch = random_token_batch(rng, n, params.vocab_size, min_len=1, max_len=12)
            for pooling in Pooling:
                out = encode_batch(params, batch, pooling)
                assert out.shape == (n, params.d_out)
                expected, _, _, _ = reference_forward(params, batch, pooling)
                assert out.tobytes() == expected.tobytes(), (n, pooling)
                for i, tokens in enumerate(batch):
                    assert out[i].tobytes() == encode(params, tokens, pooling).tobytes(), (n, pooling, i)

    def test_error_carries_batch_index(self, params):
        with pytest.raises(InvalidInputError, match="batch item 1"):
            encode_batch(params, [[0], [99]], Pooling.MEAN)
        with pytest.raises(InvalidInputError, match="batch item 1: empty"):
            encode_batch(params, [[0], [], [99]], Pooling.MEAN)
        with pytest.raises(InvalidInputError, match="batch item 2: token id -1 "):
            encode_batch(params, [[0], [1, 2], [3, -1]], Pooling.MEAN)
        with pytest.raises(InvalidInputError, match=f"batch item 1: token id {2**70} "):
            encode_batch(params, [[0], [1, 2**70]], Pooling.MEAN)


class TestPackedBatch:
    """Token lists packed once into a batch table by pack_tokens."""

    def test_encode_batch_on_packed_equals_token_lists_bitwise(self):
        rng = np.random.default_rng(6)
        params = wide_params(rng)
        for n in (0, 1, 2, 64, 300):
            batch = random_token_batch(rng, n, params.vocab_size, min_len=1, max_len=12)
            packed = pack_tokens(batch)
            assert len(packed) == n and packed.ids.dtype == np.intp
            for pooling in Pooling:
                got = encode_batch(params, packed, pooling)
                assert got.shape == (n, params.d_out)
                assert got.tobytes() == encode_batch(params, batch, pooling).tobytes(), (n, pooling)

    @pytest.mark.parametrize("pooling", list(Pooling))
    def test_backward_reusing_forward_equals_own_forward_bitwise(self, pooling):
        rng = np.random.default_rng(7)
        params = wide_params(rng, ties=pooling is Pooling.MAX)
        batch = random_token_batch(rng, 64, params.vocab_size, min_len=1, max_len=12)
        upstream = rng.normal(size=(64, params.d_out))
        packed = pack_tokens(batch)
        reused = zeros_like_tower(params)
        encode_backward(params, packed, pooling, upstream, forward_batch(params, packed, pooling), reused)
        own = encode_backward_tokens(params, batch, pooling, upstream)
        assert [g.tobytes() for g in reused.arrays()] == [g.tobytes() for g in own.arrays()]

    def test_pack_for_larger_vocab_is_checked_against_each_tower(self, params):
        # packed with ids for a 60-token tower, used with the fixture's
        # 10-token one (the backward pass takes the forward pass that checks the pack)
        batch = [[0, 1], [2, 3, 4], [5, 42, 7], [12]]
        packed = pack_tokens(batch)
        upstream = np.zeros((4, params.d_out))
        for call in (
            lambda: encode_batch(params, packed, Pooling.MEAN),
            lambda: encode_backward(
                params,
                packed,
                Pooling.MAX,
                upstream,
                forward_batch(params, packed, Pooling.MAX),
                zeros_like_tower(params),
            ),
            lambda: forward_batch(params, packed, Pooling.FIRST),
        ):
            with pytest.raises(InvalidInputError, match=r"batch item 2: token id 42 outside \[0, 10\)"):
                call()
        # a tower the pack fits takes it as it is; one token short, it names the item
        fits = init_params(43, 4, 3, np.random.default_rng(1))
        got = encode_batch(fits, packed, Pooling.MEAN)
        assert got.tobytes() == encode_batch(fits, batch, Pooling.MEAN).tobytes()
        with pytest.raises(InvalidInputError, match="batch item 2: token id 42 "):
            encode_batch(init_params(42, 4, 3, np.random.default_rng(1)), packed, Pooling.MEAN)


class TestTokenTable:
    """A corpus flattened once by pack_tokens; gathered batches must equal
    pack_tokens of the same sentences as token lists, array by array, and
    every forward pass must refuse a batch that is not valid for its tower."""

    def test_gathered_batch_equals_packed_token_lists(self):
        rng = np.random.default_rng(11)
        # many tied lengths, and sentences of one token
        corpus = random_token_batch(rng, 500, 37, min_len=1, max_len=4)
        corpus += [[int(t)] for t in rng.integers(0, 37, size=40)]
        table = pack_tokens(corpus)
        selections = [np.arange(0), np.arange(3), np.array([520, 7, 520, 3])]
        selections += [rng.permutation(len(corpus))[:n] for n in (1, 2, 16, 64, 128, 540)]
        for sel in selections:
            got = gather_batch(table, sel)
            want = pack_tokens([corpus[i] for i in sel])
            for a, b in zip(self.arrays(got), self.arrays(want)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), len(sel)
            assert got.ids.dtype == np.intp and len(got) == len(sel)
            assert got.mean_order[1] == want.mean_order[1] and got._bounds == want._bounds

    @staticmethod
    def arrays(table):
        """ids, lengths, starts, and the by_position and restore arrays of the mean-pooling order."""
        by_position, _, restore = table.mean_order
        return table.ids, table.lengths, table.starts, by_position, restore

    def test_mean_order_is_computed_once_per_table(self, params):
        table = pack_tokens([[1, 2, 3], [4], [5, 6]])
        batch = gather_batch(table, np.array([2, 0, 1]))
        assert "mean_order" not in vars(batch)
        encode_batch(params, batch, "max")
        assert "mean_order" not in vars(batch)  # max and first pooling do not read it
        encode_batch(params, batch, "mean")
        order = vars(batch)["mean_order"]
        other = init_params(10, 4, 3, np.random.default_rng(1))
        encode_batch(other, batch, "mean")
        assert batch.mean_order is order
        assert "mean_order" not in vars(table)

    @pytest.mark.parametrize("pooling", list(Pooling))
    def test_forward_refuses_a_negative_id(self, params, pooling):
        batch = gather_batch(token_table(np.array([-1, 2, 3]), [2, 1]), np.array([0, 1]))
        with pytest.raises(InvalidInputError, match=r"batch item 0: token id -1 outside \[0, 10\)"):
            encode_batch(params, batch, pooling)

    @pytest.mark.parametrize("pooling", list(Pooling))
    def test_forward_refuses_an_empty_sequence(self, params, pooling):
        batch = gather_batch(token_table(np.array([1, 2, 3]), [2, 0, 1]), np.array([0, 1, 2]))
        with pytest.raises(InvalidInputError, match="batch item 1: empty token sequence"):
            encode_batch(params, batch, pooling)

    def test_ids_beyond_int64_reach_the_forward_range_check(self, params):
        # a corpus file may hold such an id; batches without it gather as intp
        table = token_table(np.array([1, 2, 10**25, 3], dtype=object), [2, 1, 1])
        batch = gather_batch(table, np.array([2, 0]))
        assert batch.ids.dtype == np.intp and batch.ids.tolist() == [3, 1, 2]
        want = encode_batch(params, [[3], [1, 2]], "max")
        np.testing.assert_array_equal(encode_batch(params, batch, "max"), want)
        with pytest.raises(InvalidInputError, match=rf"batch item 1: token id {10**25} outside \[0, 10\)"):
            encode_batch(params, gather_batch(table, np.array([0, 1])), "max")

    def test_errors_name_the_item_and_its_index(self):
        with pytest.raises(InvalidInputError, match=r"side A of training pair 2: token id 9 outside \[0, 9\)"):
            check_ids(pack_tokens([[1, 2], [3], [4, 9, 9]]), 9, "side A of training pair")
        with pytest.raises(InvalidInputError, match="premise 1: empty token sequence"):
            check_ids(pack_tokens([[1], [], [-1]]), 9, "premise")
        # table_rows names a sequence by its position in the selection
        table = pack_tokens([[1, 2], [3], [4, 9, 9], [5]])
        assert table_rows(table, np.array([3, 0]), 9, "side A of training pair").ids.tolist() == [5, 1, 2]
        with pytest.raises(InvalidInputError, match=r"side A of training pair 1: token id 9 outside \[0, 9\)"):
            table_rows(table, np.array([1, 2, 0]), 9, "side A of training pair")


class TestEncodeBackward:
    def test_zero_upstream_gives_zero_grads(self, params):
        grads = encode_backward_tokens(params, [[1, 2], [3]], Pooling.MEAN, np.zeros((2, 3)))
        for g in grads.arrays():
            assert not g.any()

    def test_unused_vocab_rows_get_zero_grad(self, params):
        rng = np.random.default_rng(8)
        batch = [[1, 2], [2, 3]]
        grads = encode_backward_tokens(params, batch, Pooling.MEAN, rng.normal(size=(2, 3)))
        used = {1, 2, 3}
        for row in range(params.vocab_size):
            if row not in used:
                assert not grads.embedding[row].any()

    @pytest.mark.parametrize("pooling", list(Pooling))
    def test_matches_finite_differences(self, pooling):
        rng = np.random.default_rng(21)
        params = init_params(10, 4, 3, rng)
        batch = random_token_batch(rng, 2, 10, min_len=2, max_len=5)
        upstream = rng.normal(size=(2, 3))
        analytic = encode_backward_tokens(params, batch, pooling, upstream)

        def objective():
            return float(np.sum(upstream * encode_batch(params, batch, pooling)))

        numeric = central_difference(objective, params.arrays(), step=1e-6)
        assert max_rel_error(analytic.arrays(), numeric, floor=1e-3) < 1e-6

    def test_shape_mismatch(self, params):
        with pytest.raises(InvalidInputError, match=r"upstream shape \(2, 3\) != \(1, 3\)"):
            encode_backward_tokens(params, [[1]], Pooling.MEAN, np.zeros((2, 3)))
        with pytest.raises(InvalidInputError, match=r"upstream shape \(1, 4\) != \(1, 3\)"):
            encode_backward_tokens(params, [[1]], Pooling.MEAN, np.zeros((1, 4)))

    def test_normalization_jacobian_formula(self):
        # d/dz of g . (z/||z||) must equal (g - (g.h) h) / ||z||
        rng = np.random.default_rng(34)
        for _ in range(20):
            z = rng.normal(size=6)
            g = rng.normal(size=6)
            h = z / np.linalg.norm(z)
            analytic = (g - np.dot(g, h) * h) / np.linalg.norm(z)

            def objective():
                return float(np.dot(g, z / np.linalg.norm(z)))

            numeric = central_difference(objective, [z], step=1e-6)[0]
            assert max_rel_error([analytic], [numeric], floor=1e-3) < 1e-6

    @pytest.mark.parametrize(
        "pooling,ties",
        [(Pooling.MEAN, False), (Pooling.MAX, False), (Pooling.MAX, True), (Pooling.FIRST, False)],
    )
    def test_matches_per_sentence_reference_bitwise(self, pooling, ties):
        rng = np.random.default_rng(13)
        params = wide_params(rng, ties)
        batch = random_token_batch(rng, 64, params.vocab_size, min_len=1, max_len=12)
        upstream = rng.normal(size=(64, params.d_out))
        got = encode_backward_tokens(params, batch, pooling, upstream)
        want = reference_backward(params, batch, pooling, upstream)
        for g, w in zip(got.arrays(), want.arrays()):
            assert g.tobytes() == w.tobytes()

    def test_max_pool_nan_routes_like_argmax(self):
        # a NaN counts as the maximum: its gradient goes to the first NaN row
        embedding = np.array([[1.0, 2.0], [np.nan, 0.0], [np.nan, 5.0]])
        params = EncoderParams(embedding, np.eye(2), np.full(2, 0.5))
        batch = [[0, 1, 2], [2, 1]]
        upstream = np.array([[0.3, -0.2], [0.1, 0.4]])
        got = encode_backward_tokens(params, batch, Pooling.MAX, upstream)
        want = reference_backward(params, batch, Pooling.MAX, upstream)
        for g, w in zip(got.arrays(), want.arrays()):
            np.testing.assert_array_equal(g, w)

    def test_max_pool_ties_route_to_earliest_token(self):
        # identical rows tie on every dimension; the gradient must land on
        # the first token position only
        embedding = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        params = EncoderParams(embedding, np.eye(2), np.zeros(2))
        grads = encode_backward_tokens(params, [[1, 0]], Pooling.MAX, np.array([[0.3, -0.2]]))
        assert grads.embedding[1].any()
        assert not grads.embedding[0].any()


class TestCheckpoint:
    def test_round_trip(self, params, tmp_path):
        other = init_params(10, 4, 3, np.random.default_rng(100))
        path = tmp_path / "enc.ckpt"
        save_checkpoint(str(path), params, other)
        got_a, got_b = load_checkpoint(str(path))
        for a, b in zip(params.arrays(), got_a.arrays()):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(other.arrays(), got_b.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_header_layout(self, params, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(str(path), params, params)
        raw = path.read_bytes()
        assert raw[:4] == b"DMC1"
        assert int.from_bytes(raw[4:12], "little") == 10
        assert int.from_bytes(raw[12:20], "little") == 4
        assert int.from_bytes(raw[20:28], "little") == 3
        n_doubles = 2 * (10 * 4 + 4 * 3 + 3)
        assert len(raw) == 28 + 8 * n_doubles

    def test_bad_magic(self, params, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CorpusParseError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated(self, params, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(str(path), params, params)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(CorpusParseError, match="truncated"):
            load_checkpoint(str(path))

    def test_trailing_bytes(self, params, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(str(path), params, params)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CorpusParseError, match="trailing"):
            load_checkpoint(str(path))

    def test_oversized_header_rejected_before_reading(self, params, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(str(path), params, params)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + (2**40).to_bytes(8, "little") + raw[12:])
        with pytest.raises(CorpusParseError, match="truncated"):
            load_checkpoint(str(path))

    def test_failed_save_keeps_previous_file(self, params, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(str(path), params, params)
        before = path.read_bytes()
        # fails after tower A is serialized
        broken = dataclasses.replace(params, proj_b=np.array(["x"] * 3, dtype=object))
        with pytest.raises(ValueError):
            save_checkpoint(str(path), params, broken)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["enc.ckpt"]

    def test_shape_mismatch_rejected(self, params, tmp_path):
        other = init_params(11, 4, 3, np.random.default_rng(2))
        with pytest.raises(InvalidInputError, match="towers must share shapes"):
            save_checkpoint(str(tmp_path / "x.ckpt"), params, other)


LEXICON = datagen.make_lexicon(80, 8, seed=0)


def _embedding_rows(seed):
    return random_unit_rows(6, 4, np.random.default_rng(seed))


def _save_embeddings(path, seed):
    evaluation.save_embeddings(path, _embedding_rows(seed), source_corpus=f"seed {seed}")


# name: (write a seed-dependent file at path, which write fails: the
# embedding dump stages its .emb, then the sidecar)
ATOMIC_WRITERS = {
    "save_tsv": (
        lambda path, seed: datagen.save_tsv(datagen.gen_parallel_corpus(LEXICON, 8, 2, 2, seed=seed), path),
        1,
    ),
    "save_sts_tsv": (
        lambda path, seed: datagen.save_sts_tsv(datagen.gen_sts_pairs(LEXICON, 8, seed=seed), path),
        1,
    ),
    "save_nli_tsv": (
        lambda path, seed: datagen.save_nli_tsv(datagen.gen_nli_triples(LEXICON, 8, seed=seed), path),
        1,
    ),
    "save_mining_json": (
        lambda path, seed: datagen.save_mining_json(
            datagen.gen_mining_corpus(LEXICON, 20, 20, 0.2, seed=seed), path
        ),
        1,
    ),
    "write_json": (lambda path, seed: cli._write_json(path, {"seed": seed}), 1),
    "save_embeddings": (_save_embeddings, 1),
    "embedding_sidecar": (_save_embeddings, 2),
    "save_checkpoint": (
        lambda path, seed: save_checkpoint(path, *[init_params(10, 4, 3, np.random.default_rng(seed))] * 2),
        1,
    ),
}


@pytest.mark.parametrize("name", list(ATOMIC_WRITERS))
def test_failed_write_keeps_previous_file(name, tmp_path, monkeypatch):
    # the n-th file opened for writing takes half of its bytes, then the disk
    # is full: every previous file must survive byte for byte, with no .tmp
    # left, and an embedding dump must still load with its previous rows
    write, nth = ATOMIC_WRITERS[name]
    path = str(tmp_path / "out")
    write(path, 1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    opened = []

    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "w" in mode:
            opened.append(file)
            if len(opened) == nth:
                return HalfWrite(fh)
        return fh

    monkeypatch.setattr(encoder, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        write(path, 2)
    assert len(opened) == nth
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    if name in ("save_embeddings", "embedding_sidecar"):
        np.testing.assert_array_equal(evaluation.load_embeddings(path), _embedding_rows(1))

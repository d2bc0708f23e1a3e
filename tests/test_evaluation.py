import itertools
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from helpers import (
    random_unit_rows,
    reference_margin_score,
    reference_mine_bitext,
    reference_nn_search,
    reference_search_threshold,
    reference_top_k,
    write_embedding_dump,
)

import dualmoco
from dualmoco import evaluation
from dualmoco.datagen import StsPairs
from dualmoco.encoder import encode_batch, init_params, pack_tokens
from dualmoco.errors import ConfigError, CorpusParseError, InvalidInputError, NumericalFailureError
from dualmoco.evaluation import (
    Neighbors,
    f1,
    load_embeddings,
    margin_score,
    mine_bitext,
    nn_search,
    retrieval_accuracy,
    save_embeddings,
    search_threshold,
    sts_eval,
    top_k_from_sims,
)


def naive_nn(queries, corpus, k):
    """Per-pair loop oracle: descending similarity, ties to the lower index."""
    indices = []
    sims = []
    for q in queries:
        pairs = [(float(np.dot(q, c)), j) for j, c in enumerate(corpus)]
        pairs.sort(key=lambda t: (-t[0], t[1]))
        indices.append([j for _, j in pairs[:k]])
        sims.append([s for s, _ in pairs[:k]])
    return np.array(indices), np.array(sims)


def brute_force_threshold(scored, gold):
    """Try every score-separating threshold; ties prefer the larger one."""
    gold = set(gold)
    values = sorted({s for _, _, s in scored}, reverse=True)
    candidates = [float("inf")]
    candidates += [0.5 * (a + b) for a, b in zip(values, values[1:])]
    candidates.append(float("-inf"))
    best = (0.0, float("inf"))
    for lam in candidates:
        pred = [(i, j) for i, j, s in scored if s > lam]
        _, _, score = f1(pred, gold)
        if score > best[0]:
            best = (score, lam)
    return best[1], best[0]


class TestNnSearch:
    def test_query_in_corpus_is_rank_one(self):
        rng = np.random.default_rng(0)
        corpus = random_unit_rows(10, 4, rng)
        result = nn_search(corpus[3][None, :], corpus, 1)
        assert result.indices[0, 0] == 3
        assert result.sims[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_full_k_is_descending_permutation(self):
        rng = np.random.default_rng(1)
        corpus = random_unit_rows(8, 4, rng)
        queries = random_unit_rows(3, 4, rng)
        result = nn_search(queries, corpus, 8)
        for row_idx, row_sims in zip(result.indices, result.sims):
            assert sorted(row_idx.tolist()) == list(range(8))
            assert all(a >= b for a, b in zip(row_sims, row_sims[1:]))

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(2)
        queries = random_unit_rows(50, 8, rng)
        corpus = random_unit_rows(50, 8, rng)
        for k in (1, 3, 50):
            mine = nn_search(queries, corpus, k)
            oracle_idx, oracle_sims = naive_nn(queries, corpus, k)
            np.testing.assert_array_equal(mine.indices, oracle_idx)
            np.testing.assert_allclose(mine.sims, oracle_sims, atol=1e-12)

    def test_blocked_equals_unblocked(self):
        rng = np.random.default_rng(3)
        queries = random_unit_rows(23, 5, rng)
        corpus = random_unit_rows(17, 5, rng)
        a = nn_search(queries, corpus, 4, block_size=7)
        b = nn_search(queries, corpus, 4, block_size=512)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.sims, b.sims)

    def test_ties_break_to_lower_index(self):
        sims = np.array([[0.5, 0.9, 0.9, 0.1]])
        result = top_k_from_sims(sims, 3)
        assert result.indices[0].tolist() == [1, 2, 0]

    def test_k_too_large(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ConfigError, match=r"k=6 not in \[1, 5\]"):
            nn_search(random_unit_rows(2, 3, rng), random_unit_rows(5, 3, rng), 6)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        with pytest.raises(InvalidInputError, match="query dim 3 != corpus dim 4"):
            nn_search(random_unit_rows(2, 3, rng), random_unit_rows(5, 4, rng), 1)

    def test_block_size_below_one_is_refused(self):
        rng = np.random.default_rng(40)
        queries, corpus = random_unit_rows(3, 4, rng), random_unit_rows(5, 4, rng)
        for block_size in (-1, 0):
            with pytest.raises(ConfigError, match=rf"block_size must be at least 1 \(got {block_size}\)"):
                nn_search(queries, corpus, 2, block_size=block_size)

    def test_nan_similarity_is_refused(self):
        sims = np.array([[0.5, 0.9, 0.9, 0.1], [0.5, np.nan, 0.9, 0.1], [np.nan] * 4])
        for k in (1, 2, 3, 4):
            with pytest.raises(InvalidInputError, match="row 1"):
                top_k_from_sims(sims, k)
            with pytest.raises(InvalidInputError, match="row 1"):
                top_k_from_sims(np.asfortranarray(sims), k)
        corpus = random_unit_rows(5, 3, np.random.default_rng(9))
        queries = corpus[[0, 1, 2]].copy()
        queries[2, 1] = np.nan
        with pytest.raises(InvalidInputError, match="block starting at row 2: similarity row 0 holds NaN"):
            nn_search(queries, corpus, 2, block_size=2)


class TestRetrievalAccuracy:
    def test_identical_sides(self):
        rng = np.random.default_rng(6)
        embs = random_unit_rows(12, 6, rng)
        assert retrieval_accuracy(embs, embs) == (1.0, 1.0)

    def test_reversed_alignment_scores_zero(self):
        rng = np.random.default_rng(7)
        embs = random_unit_rows(10, 6, rng)
        assert retrieval_accuracy(embs, embs[::-1]) == (0.0, 0.0)

    def test_length_mismatch(self):
        rng = np.random.default_rng(8)
        with pytest.raises(InvalidInputError, match="sides must align: 3 vs 4"):
            retrieval_accuracy(random_unit_rows(3, 4, rng), random_unit_rows(4, 4, rng))


class TestMarginScore:
    def make_instance(self):
        # cos(x, y) = 0.9; x's top-3 neighbor sims {0.8, 0.7, 0.6};
        # y's {0.9, 0.5, 0.4} -> b = 2.1/6 + 1.8/6 = 0.65
        sims = np.array([[0.9]])
        nn_a = Neighbors(np.zeros((1, 3), dtype=int), np.array([[0.8, 0.7, 0.6]]))
        nn_b = Neighbors(np.zeros((1, 3), dtype=int), np.array([[0.9, 0.5, 0.4]]))
        return sims, nn_a, nn_b

    def test_distance_variant_hand_value(self):
        sims, nn_a, nn_b = self.make_instance()
        assert margin_score(0, 0, sims[0, 0], nn_a, nn_b, 3, "distance") == pytest.approx(0.25)

    def test_ratio_variant_hand_value(self):
        sims, nn_a, nn_b = self.make_instance()
        got = margin_score(0, 0, sims[0, 0], nn_a, nn_b, 3, "ratio")
        assert got == pytest.approx(0.9 / 0.65, abs=1e-12)
        assert got == pytest.approx(1.38462, abs=1e-5)

    def test_global_shift_cancels_in_distance_variant(self):
        # shifting every similarity by +c leaves distance scores unchanged
        # as long as neighbor sets are unchanged; recomputed by brute force
        rng = np.random.default_rng(9)
        sims = rng.uniform(-0.5, 0.5, size=(6, 6))
        shift = 0.17
        nn_a = top_k_from_sims(sims, 3)
        nn_b = top_k_from_sims(sims.T, 3)
        nn_a2 = top_k_from_sims(sims + shift, 3)
        nn_b2 = top_k_from_sims(sims.T + shift, 3)
        np.testing.assert_array_equal(nn_a.indices, nn_a2.indices)
        for i in range(6):
            for j in range(6):
                before = margin_score(i, j, sims[i, j], nn_a, nn_b, 3, "distance")
                after = margin_score(i, j, (sims + shift)[i, j], nn_a2, nn_b2, 3, "distance")
                assert after == pytest.approx(before, abs=1e-12)

    def test_k_too_large(self):
        sims, nn_a, nn_b = self.make_instance()
        with pytest.raises(ConfigError, match="k=4 exceeds available neighbor lists"):
            margin_score(0, 0, sims[0, 0], nn_a, nn_b, 4, "distance")

    def test_zero_denominator_in_ratio(self):
        sims = np.array([[0.9]])
        nn_a = Neighbors(np.zeros((1, 1), dtype=int), np.array([[0.4]]))
        nn_b = Neighbors(np.zeros((1, 1), dtype=int), np.array([[-0.4]]))
        with pytest.raises(InvalidInputError, match="too small for ratio margin"):
            margin_score(0, 0, sims[0, 0], nn_a, nn_b, 1, "ratio")


class TestMineBitext:
    def planted_instance(self, rng, n=4, d=6, pairs=2):
        base = random_unit_rows(n, d, rng)
        noise = 0.05 * rng.normal(size=(n, d))
        side_b = base + noise
        side_b /= np.linalg.norm(side_b, axis=1, keepdims=True)
        # only the first `pairs` rows of side B truly align with side A
        for j in range(pairs, n):
            fresh = random_unit_rows(1, d, rng)[0]
            side_b[j] = fresh
        gold = [(i, i) for i in range(pairs)]
        return base, side_b, gold

    def test_infinite_threshold_accepts_nothing(self):
        rng = np.random.default_rng(10)
        a, b, _ = self.planted_instance(rng)
        result = mine_bitext(a, b, k=2, threshold=float("inf"))
        assert result.accepted == []

    def test_negative_infinite_threshold_accepts_all_candidates(self):
        rng = np.random.default_rng(11)
        a, b, _ = self.planted_instance(rng)
        result = mine_bitext(a, b, k=2, threshold=float("-inf"))
        assert set(result.accepted) == {(i, j) for i, j, _ in result.scored}

    def test_empty_side(self):
        rng = np.random.default_rng(12)
        with pytest.raises(InvalidInputError, match="both mining sides must be non-empty"):
            mine_bitext(np.zeros((0, 4)), random_unit_rows(3, 4, rng))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(15)
        with pytest.raises(InvalidInputError, match="query dim 4 != corpus dim 5"):
            mine_bitext(random_unit_rows(3, 4, rng), random_unit_rows(3, 5, rng))

    def test_unknown_variant_refused_before_any_search(self, monkeypatch):
        rng = np.random.default_rng(16)
        a, b, _ = self.planted_instance(rng)
        searches = []
        monkeypatch.setattr(evaluation, "nn_search", lambda *args, **kwargs: searches.append(args))
        with pytest.raises(ConfigError, match=r"variant must be 'distance' or 'ratio' \(got 'cosine'\)"):
            mine_bitext(a, b, k=2, variant="cosine")
        assert searches == []

    def test_peak_allocation_below_one_dense_matrix(self):
        rng = np.random.default_rng(39)
        a, b = random_unit_rows(2000, 32, rng), random_unit_rows(2000, 32, rng)
        tracemalloc.start()
        try:
            mine_bitext(a, b, k=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000 * 8  # the 32 MB of one n_a x n_b float64 matrix

    def test_accepted_matches_exhaustive_scoring_on_candidates(self):
        # hand-size instance: accepted set must equal exhaustive scoring of
        # all pairs above the threshold restricted to the candidate set
        rng = np.random.default_rng(13)
        a, b, _ = self.planted_instance(rng, n=4, pairs=2)
        lam = 0.1
        union = mine_bitext(a, b, k=2, threshold=lam)
        exhaustive = reference_mine_bitext(a, b, k=2, threshold=lam, exhaustive=True)
        candidate_set = {(i, j) for i, j, _ in union.scored}
        expected = [p for p in exhaustive.accepted if p in candidate_set]
        assert sorted(union.accepted) == sorted(expected)

    def test_scores_agree_between_modes(self):
        rng = np.random.default_rng(14)
        a, b, _ = self.planted_instance(rng)
        union = {(i, j): s for i, j, s in mine_bitext(a, b, k=2).scored}
        exhaustive = {(i, j): s for i, j, s in reference_mine_bitext(a, b, k=2, exhaustive=True).scored}
        for pair, score in union.items():
            assert exhaustive[pair] == pytest.approx(score, abs=1e-12)


def outcome(fn, *args, **kwargs):
    """A call's result as its exact repr, or its error type and message."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as e:  # the reference and the array code must fail alike
        return type(e).__name__, str(e)


def tie_heavy_rows(rng, n, d):
    """Rows drawn from a small pool of 0.1-rounded vectors with signed zeros."""
    pool = np.round(rng.uniform(-1, 1, size=(max(1, n // 2), d)), 1)
    pool[rng.random(pool.shape) < 0.2] = -0.0
    return pool[rng.integers(0, len(pool), size=n)]


class TestMatchesPerElementReference:
    """The array code reproduces the per-candidate loops bit for bit."""

    def test_margin_score_index_arrays(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            n_a, n_b = (int(x) for x in rng.integers(1, 9, size=2))
            sims = np.round(rng.uniform(-1, 1, size=(n_a, n_b)), int(rng.integers(1, 3)))
            sims[rng.random(sims.shape) < 0.15] = -0.0
            sims[rng.random(sims.shape) < 0.15] = 0.0
            width = int(rng.integers(1, 5))
            nn_a, nn_b = (
                Neighbors(np.zeros((n, width), dtype=int), np.round(rng.uniform(-1, 1, (n, width)), 1))
                for n in (n_a, n_b)
            )
            i = rng.integers(0, n_a, size=12)
            j = rng.integers(0, n_b, size=12)
            for k in range(1, 5):
                for variant in ("distance", "ratio"):
                    got = outcome(lambda: margin_score(i, j, sims[i, j], nn_a, nn_b, k, variant).tolist())
                    want = outcome(lambda: [
                        reference_margin_score(int(x), int(y), sims[x, y], nn_a, nn_b, k, variant)
                        for x, y in zip(i, j)
                    ])
                    assert got == want
                    x, y = int(i[0]), int(j[0])
                    assert outcome(lambda: float(margin_score(x, y, sims[x, y], nn_a, nn_b, k, variant))) == (
                        outcome(reference_margin_score, x, y, sims[x, y], nn_a, nn_b, k, variant)
                    )

    def test_mine_bitext_scored_and_accepted(self):
        rng = np.random.default_rng(31)
        for case in range(300):
            n_a, n_b = (int(x) for x in rng.integers(1, 13, size=2))
            d = int(rng.integers(1, 6))
            if case % 3 == 0:
                a, b = random_unit_rows(n_a, d, rng), random_unit_rows(n_b, d, rng)
            elif case % 3 == 1:  # one-hot rows on side A: every similarity is a 0.1-rounded entry of B
                a, b = np.eye(d)[rng.integers(0, d, size=n_a)], tie_heavy_rows(rng, n_b, d)
            else:
                a, b = tie_heavy_rows(rng, n_a, d), tie_heavy_rows(rng, n_b, d)
            for k in range(1, 5):
                for variant in ("distance", "ratio"):
                    for threshold in (float("-inf"), 0.0, float(rng.uniform(-0.5, 1.5))):
                        got = outcome(lambda: mine_bitext(a, b, k, variant, threshold))
                        want = outcome(lambda: reference_mine_bitext(a, b, k, variant, threshold))
                        assert got == want

    def test_mine_bitext_across_search_blocks(self):
        # sides above nn_search's 512-row blocks, so both searches cross a
        # block boundary and end on a ragged block
        rng = np.random.default_rng(38)
        cases = [
            (random_unit_rows(1030, 6, rng), random_unit_rows(700, 6, rng)),
            (tie_heavy_rows(rng, 700, 3), tie_heavy_rows(rng, 1100, 3)),
        ]
        for a, b in cases:
            for k in range(1, 5):
                for variant in ("distance", "ratio"):
                    got = outcome(lambda: mine_bitext(a, b, k, variant, 0.0))
                    want = outcome(lambda: reference_mine_bitext(a, b, k, variant, 0.0))
                    assert got == want

    def test_search_threshold_with_ties_signed_zeros_and_adjacent_doubles(self):
        rng = np.random.default_rng(32)
        for case in range(1000):
            n = int(rng.integers(0, 30))
            scores = np.round(rng.uniform(-1, 1, size=n), int(rng.integers(1, 4)))
            scores[rng.random(n) < 0.1] = -0.0
            scores[rng.random(n) < 0.1] = 0.0
            step = rng.random(n) < 0.3
            scores[step] = np.nextafter(scores[step], rng.choice([-np.inf, np.inf], size=int(step.sum())))
            if case % 3 == 0 and n:
                scores[rng.random(n) < 0.5] = np.nextafter(scores[0], np.inf)
            pairs = rng.integers(0, 8, size=(n, 2))
            scored = [(int(i), int(j), float(s)) for (i, j), s in zip(pairs, scores)]
            gold = [(int(i), int(j)) for i, j in rng.integers(0, 8, size=(int(rng.integers(0, 12)), 2))]
            got = outcome(search_threshold, scored, gold)
            want = outcome(reference_search_threshold, scored, gold)
            assert got == want


def sort_reference_cases(rng):
    """1-40 x 1-40 matrices: random, 0.1-rounded, signed zeros and +/-inf rows."""
    for case in range(400):
        n, m = (int(x) for x in rng.integers(1, 41, size=2))
        sims = rng.normal(size=(n, m))
        if case % 4 >= 1:
            sims = np.round(sims, 1)
        if case % 4 >= 2:
            sims[rng.random(sims.shape) < 0.2] = -0.0
            sims[rng.random(sims.shape) < 0.2] = 0.0
        if case % 4 == 3:
            sims[rng.random(n) < 0.2] = np.inf
            sims[rng.random(n) < 0.2] = -np.inf
            sims[rng.random(sims.shape) < 0.1] = rng.choice([np.inf, -np.inf])
        yield sims


class TestTopKMatchesSortReference:
    """Selection returns the first k columns of a stable descending sort, byte for byte."""

    @staticmethod
    def assert_same(got, want):
        for a, b in ((got.indices, want.indices), (got.sims, want.sims)):
            assert (a.shape, a.dtype) == (b.shape, b.dtype)
            assert a.tobytes() == b.tobytes()

    def test_every_k_on_row_major_and_transposed_views(self):
        rng = np.random.default_rng(33)
        for sims in sort_reference_cases(rng):
            for view in (sims, np.ascontiguousarray(sims.T).T, sims.T):
                for k in range(1, view.shape[1] + 1):
                    self.assert_same(top_k_from_sims(view, k), reference_top_k(view, k))

    def test_masked_winner_is_not_picked_again_among_minus_inf(self):
        sims = np.array([[-np.inf, 5.0, -np.inf, -np.inf]])
        got = top_k_from_sims(sims, 4)
        assert got.indices.tolist() == [[1, 0, 2, 3]]
        self.assert_same(got, reference_top_k(sims, 4))

    def test_read_only_input_is_left_as_it_was(self):
        sims = np.round(np.random.default_rng(37).normal(size=(6, 9)), 1)
        sims[2] = -np.inf
        sims.setflags(write=False)
        before = sims.tobytes()
        for view in (sims, sims.T):
            for k in range(1, view.shape[1] + 1):
                self.assert_same(top_k_from_sims(view, k), reference_top_k(view, k))
        assert sims.tobytes() == before

    def test_writable_input_is_left_as_it_was(self):
        # the masks go into a writable input and are undone: every entry,
        # signed zeros and infinities included, reads its old bytes again
        rng = np.random.default_rng(41)
        for sims in itertools.islice(sort_reference_cases(rng), 100):
            for view in (sims, np.asfortranarray(sims), sims.T):
                before = view.tobytes()
                for k in range(1, view.shape[1] + 1):
                    self.assert_same(top_k_from_sims(view, k), reference_top_k(view, k))
                    assert view.tobytes() == before

    def test_overlapping_writable_view_is_not_masked_in_place(self):
        # each row of a sliding window shares entries with its neighbours,
        # so a mask written into one row would show in the next
        values = np.round(np.random.default_rng(43).normal(size=14), 1)
        windows = np.lib.stride_tricks.as_strided(values, shape=(10, 5), strides=(8, 8))
        assert windows.flags.writeable
        for k in range(1, 6):
            self.assert_same(top_k_from_sims(windows, k), reference_top_k(windows, k))

    def test_input_is_left_as_it_was_after_nan_refusal(self):
        sims = np.array([[0.5, -np.inf, 0.9, -0.0], [0.5, np.nan, -np.inf, 0.1], [-np.inf] * 4])
        for view in (sims, np.asfortranarray(sims), sims.T):
            before = view.tobytes()
            for k in range(1, view.shape[1] + 1):
                with pytest.raises(InvalidInputError, match="holds NaN"):
                    top_k_from_sims(view, k)
                assert view.tobytes() == before

    def test_column_masked_twice_reads_its_value_again(self):
        # passes 2 and 3 take column 0 again among -inf: undoing the masks
        # in pass order would leave -inf where 3.0 was
        sims = np.array([[3.0, -np.inf, -np.inf]])
        got = top_k_from_sims(sims, 3)
        assert sims.tolist() == [[3.0, -np.inf, -np.inf]]
        assert got.indices.tolist() == [[0, 1, 2]]
        self.assert_same(got, reference_top_k(sims, 3))

    def test_nn_search_blocks(self):
        rng = np.random.default_rng(34)
        for case in range(60):
            n_q, n_c = (int(x) for x in rng.integers(1, 41, size=2))
            d = int(rng.integers(1, 6))
            if case % 2:
                queries, corpus = random_unit_rows(n_q, d, rng), random_unit_rows(n_c, d, rng)
            else:
                queries, corpus = tie_heavy_rows(rng, n_q, d), tie_heavy_rows(rng, n_c, d)
            for block_size in (1, 7, 512):
                for k in range(1, n_c + 1):
                    want = reference_nn_search(queries, corpus, k, block_size)
                    self.assert_same(nn_search(queries, corpus, k, block_size=block_size), want)


class TestTopKMemory:
    def test_results_hold_only_n_by_k_elements(self):
        sims = np.round(np.random.default_rng(35).normal(size=(50, 40)), 1)
        for view in (sims, sims.T):
            for k in (1, 3, view.shape[1]):
                result = top_k_from_sims(view, k)
                for array in (result.indices, result.sims):
                    while array.base is not None:
                        array = array.base
                    assert array.size == view.shape[0] * k

    def test_peak_allocation_on_a_search_block(self):
        sims = np.random.default_rng(36).normal(size=(512, 2000))
        for k, blocks in ((1, 1.0), (3, 1.5)):
            tracemalloc.start()
            try:
                top_k_from_sims(sims, k)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < blocks * sims.nbytes

    def test_nn_search_holds_one_block_of_products(self):
        rng = np.random.default_rng(42)
        queries, corpus = random_unit_rows(512, 32, rng), random_unit_rows(2000, 32, rng)
        tracemalloc.start()
        try:
            nn_search(queries, corpus, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 512 * 2000 * 8


def test_mining_and_search_leave_numpy_ma_unimported():
    # numpy.ma costs about 10 ms to import, and a plain np.unique imports it
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from dualmoco.evaluation import mine_bitext, nn_search, search_threshold

        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(30, 8)), rng.normal(size=(40, 8))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        nn_search(a, b, 3, block_size=7)
        result = mine_bitext(a, b, k=3)
        search_threshold(result.scored, [(0, 0), (1, 2)])
        print("numpy.ma" in sys.modules)
        """
    )
    src = os.path.dirname(os.path.dirname(dualmoco.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


class TestF1:
    def test_exact_match(self):
        assert f1([(0, 1), (2, 3)], [(0, 1), (2, 3)]) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        assert f1([(0, 1)], [(2, 3)]) == (0.0, 0.0, 0.0)

    def test_hand_arithmetic(self):
        predicted = [(0, 0), (1, 1), (2, 2), (3, 3)]
        gold = [(0, 0), (1, 1), (9, 9)]
        p, r, score = f1(predicted, gold)
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(2.0 / 3.0)
        assert score == pytest.approx(2 * 0.5 * (2 / 3) / (0.5 + 2 / 3), abs=1e-12)
        assert score == pytest.approx(0.5714, abs=1e-4)

    def test_empty_prediction(self):
        assert f1([], [(0, 0)]) == (0.0, 0.0, 0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(15)
        predicted = [(int(i), int(j)) for i, j in rng.integers(0, 5, size=(8, 2))]
        gold = [(int(i), int(j)) for i, j in rng.integers(0, 5, size=(6, 2))]
        base = f1(predicted, gold)
        for _ in range(5):
            assert f1(list(rng.permutation(predicted)), list(rng.permutation(gold))) == base


class TestSearchThreshold:
    def test_perfect_separation(self):
        scored = [(0, 0, 0.9), (1, 1, 0.8), (2, 2, 0.3), (3, 3, 0.1)]
        gold = [(0, 0), (1, 1)]
        lam, best = search_threshold(scored, gold)
        assert best == 1.0
        assert 0.3 < lam < 0.8

    def test_matches_brute_force_on_interleaved_instance(self):
        scored = [
            (0, 0, 0.9),
            (1, 1, 0.7),
            (2, 2, 0.65),
            (3, 3, 0.5),
            (4, 4, 0.45),
            (5, 5, 0.2),
        ]
        gold = [(0, 0), (2, 2), (3, 3)]
        lam, best = search_threshold(scored, gold)
        oracle_lam, oracle_best = brute_force_threshold(scored, gold)
        assert best == pytest.approx(oracle_best, abs=1e-12)
        assert lam == pytest.approx(oracle_lam, abs=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            n = int(rng.integers(3, 15))
            scored = [(i, i, float(rng.uniform(-1, 1))) for i in range(n)]
            gold = [(i, i) for i in range(n) if rng.random() < 0.4] or [(0, 0)]
            lam, best = search_threshold(scored, gold)
            oracle_lam, oracle_best = brute_force_threshold(scored, gold)
            assert best == pytest.approx(oracle_best, abs=1e-12)
            assert lam == pytest.approx(oracle_lam, abs=1e-12)

    def test_tie_prefers_larger_threshold(self):
        # {top-1} gives P=1, R=1/2 and {all four} gives P=1/2, R=1: both
        # F1 = 2/3, so the higher-precision threshold must win
        scored = [(0, 0, 0.9), (1, 1, 0.6), (2, 2, 0.5), (3, 3, 0.4)]
        gold = [(0, 0), (3, 3)]
        lam, best = search_threshold(scored, gold)
        assert best == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert lam == pytest.approx(0.75, abs=1e-12)

    def test_no_gold(self):
        with pytest.raises(InvalidInputError, match="needs at least one gold pair"):
            search_threshold([(0, 0, 0.5)], [])


class TestStsEval:
    def test_perfect_and_reversed_correlation(self):
        rng = np.random.default_rng(17)
        params = init_params(12, 4, 3, rng)

        token_pairs = [([i, (i + 1) % 12], [(i + 2) % 12, i]) for i in range(10)]
        firsts = pack_tokens([t1 for t1, _ in token_pairs])
        seconds = pack_tokens([t2 for _, t2 in token_pairs])
        h1 = encode_batch(params, [t1 for t1, _ in token_pairs], "mean")
        h2 = encode_batch(params, [t2 for _, t2 in token_pairs], "mean")
        model = np.sum(h1 * h2, axis=1)
        aligned = StsPairs(firsts, seconds, model)
        reversed_gold = StsPairs(firsts, seconds, -model)
        assert sts_eval(params, aligned, "mean") == pytest.approx(1.0)
        assert sts_eval(params, reversed_gold, "mean") == pytest.approx(-1.0)

    def test_constant_gold_rejected(self):
        rng = np.random.default_rng(18)
        params = init_params(12, 4, 3, rng)

        pairs = StsPairs(pack_tokens([(0, 1)] * 3), pack_tokens([(2, 3)] * 3), np.full(3, 0.5))
        with pytest.raises(InvalidInputError, match="constant sequence has no rank correlation"):
            sts_eval(params, pairs, "mean")

    def test_too_few_pairs(self):
        rng = np.random.default_rng(19)
        params = init_params(12, 4, 3, rng)
        for n in (0, 1):
            pairs = StsPairs(pack_tokens([(0, 1)] * n), pack_tokens([(2, 3)] * n), np.full(n, 0.5))
            with pytest.raises(InvalidInputError, match="need at least 2 scored pairs"):
                sts_eval(params, pairs, "mean")


class TestMonolingualTransferBound:
    def test_cauchy_schwarz_bound_holds(self):
        # |cos(x_i, x_j) - cos(x_i, y_j)| <= 2 ||x_j - y_j|| for unit vectors
        rng = np.random.default_rng(20)
        for _ in range(50):
            xi, xj, yj = random_unit_rows(3, 8, rng)
            lhs = abs(float(np.dot(xi, xj)) - float(np.dot(xi, yj)))
            assert lhs <= 2.0 * float(np.linalg.norm(xj - yj)) + 1e-12


class TestEmbeddingDump:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        embs = random_unit_rows(7, 5, rng)
        path = tmp_path / "vectors.emb"
        save_embeddings(str(path), embs, source_corpus="corpus.tsv#test/a")
        np.testing.assert_array_equal(load_embeddings(str(path)), embs)

    def test_sidecar_contents(self, tmp_path):
        import hashlib

        rng = np.random.default_rng(22)
        embs = random_unit_rows(4, 3, rng)
        path = tmp_path / "vectors.emb"
        save_embeddings(str(path), embs, source_corpus="src")
        sidecar = json.loads((tmp_path / "vectors.emb.json").read_text())
        assert sidecar["count"] == 4 and sidecar["dim"] == 3
        assert sidecar["source_corpus"] == "src"
        assert sidecar["checksum"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_header_layout(self, tmp_path):
        rng = np.random.default_rng(23)
        path = tmp_path / "vectors.emb"
        save_embeddings(str(path), random_unit_rows(2, 3, rng))
        raw = path.read_bytes()
        assert raw[:4] == b"DMCE"
        assert int.from_bytes(raw[4:12], "little") == 2
        assert int.from_bytes(raw[12:20], "little") == 3
        assert len(raw) == 20 + 8 * 6

    def test_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "vectors.emb"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(CorpusParseError, match="magic"):
            load_embeddings(str(path))
        rng = np.random.default_rng(24)
        save_embeddings(str(path), random_unit_rows(3, 3, rng))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CorpusParseError, match="truncated"):
            load_embeddings(str(path))

    def test_oversized_header_and_trailing_bytes(self, tmp_path):
        path = tmp_path / "vectors.emb"
        save_embeddings(str(path), random_unit_rows(3, 3, np.random.default_rng(25)))
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + (2**40).to_bytes(8, "little") + raw[12:])
        with pytest.raises(CorpusParseError, match="truncated"):
            load_embeddings(str(path))
        path.write_bytes(raw + b"\x00" * 8)
        with pytest.raises(CorpusParseError, match="trailing"):
            load_embeddings(str(path))

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "vectors.emb"
        save_embeddings(str(path), random_unit_rows(3, 3, np.random.default_rng(26)))
        raw = bytearray(path.read_bytes())
        raw[30] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CorpusParseError, match="checksum"):
            load_embeddings(str(path))

    def test_non_finite_row_rejected(self, tmp_path):
        path = tmp_path / "vectors.emb"
        for value in (np.nan, np.inf, -np.inf):
            embs = random_unit_rows(5, 3, np.random.default_rng(28))
            embs[2, 1] = embs[4, 0] = value
            write_embedding_dump(str(path), embs)
            with pytest.raises(CorpusParseError, match="row 2 holds a NaN or infinite value"):
                load_embeddings(str(path))

    def test_writer_refuses_non_finite_rows(self, tmp_path):
        path = tmp_path / "vectors.emb"
        for value in (np.nan, np.inf, -np.inf):
            embs = random_unit_rows(5, 3, np.random.default_rng(28))
            embs[2, 1] = embs[4, 0] = value
            with pytest.raises(NumericalFailureError, match="row 2 holds a NaN or infinite value"):
                save_embeddings(str(path), embs)
            assert not path.exists() and not (tmp_path / "vectors.emb.json").exists()

    def test_sidecar_shape_checked(self, tmp_path):
        path = tmp_path / "vectors.emb"
        save_embeddings(str(path), random_unit_rows(3, 3, np.random.default_rng(27)))
        sidecar_path = tmp_path / "vectors.emb.json"
        sidecar = json.loads(sidecar_path.read_text())
        for key in ("count", "dim"):
            sidecar_path.write_text(json.dumps({**sidecar, key: 4}))
            with pytest.raises(CorpusParseError, match=key):
                load_embeddings(str(path))

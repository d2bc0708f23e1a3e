import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    central_difference,
    central_difference_at,
    copy_tower,
    corpus_of,
    corpus_rows,
    encode_backward_tokens,
    flat_towers,
    insertion_order,
    loss_and_new_gradients,
    max_rel_error,
    nli_forward_loss,
    pack_nli,
    pack_pair,
    random_unit_rows,
    reference_adamw_step,
    reference_clip_gradients,
    sequences,
    step_new_gradients,
    step_records,
)

from dualmoco import datagen, trainer
from dualmoco.encoder import FlatTensors, encode_batch, init_params
from dualmoco.errors import ConfigError, CorpusParseError, InvalidInputError, NumericalFailureError
from dualmoco.moco import LossValue, enqueue_batch, new_state
from dualmoco.trainer import (
    AdamWState,
    TrainConfig,
    adamw_step,
    clip_gradients,
    init_nli_head,
    lr_at,
    nli_loss_and_grads,
    step_gradients,
    train,
    _ensure_finite,
    _label_indices,
)


@pytest.fixture(scope="module")
def small_world():
    lexicon = datagen.make_lexicon(80, 8, seed=0)
    corpus = datagen.gen_parallel_corpus(
        lexicon, n_train=96, n_val=24, n_test=24, len_range=(3, 6), seed=1
    )
    nli = datagen.gen_nli_triples(lexicon, 30, seed=2, len_range=(3, 6))
    sts = datagen.gen_sts_pairs(lexicon, 30, seed=3, len_range=(3, 6))
    return lexicon, corpus, nli, sts


def small_config(**overrides):
    base = dict(
        epochs=2,
        batch_size=16,
        queue_capacity=32,
        d_emb=8,
        d_out=8,
        warmup_steps=3,
        nli_batch_size=8,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestLrSchedule:
    def test_warmup_endpoint(self):
        assert lr_at(100, lr_max=0.5, warmup_steps=100, total_steps=1000) == 0.5

    def test_warmup_midpoint(self):
        assert lr_at(50, lr_max=0.5, warmup_steps=100, total_steps=1000) == 0.25

    def test_cosine_endpoint(self):
        assert lr_at(1000, lr_max=0.5, warmup_steps=100, total_steps=1000) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_saturates_past_total(self):
        assert lr_at(5000, lr_max=0.5, warmup_steps=100, total_steps=1000) == 0.0

    def test_cosine_midpoint(self):
        assert lr_at(550, lr_max=0.5, warmup_steps=100, total_steps=1000) == pytest.approx(0.25)

    def test_zero_warmup(self):
        assert lr_at(0, lr_max=0.5, warmup_steps=0, total_steps=10) == 0.5

    def test_continuity_bound(self):
        lr_max, warmup, total = 0.3, 40, 500
        bound = lr_max * max(1.0 / warmup, math.pi / (total - warmup))
        values = [
            lr_at(s, lr_max=lr_max, warmup_steps=warmup, total_steps=total)
            for s in range(total + 10)
        ]
        for a, b in zip(values, values[1:]):
            assert abs(b - a) <= bound + 1e-15


class TestClipGradients:
    def test_halves_when_double_norm(self):
        g = FlatTensors.copy_of([np.array([4.0, 0.0]), np.full((2, 2), np.sqrt(384.0 / 4.0))])
        before = [x.copy() for x in g]
        total = math.sqrt(sum(float(np.sum(x * x)) for x in g))
        clipped = clip_gradients(g, total / 2.0)
        for orig, new in zip(before, clipped):
            np.testing.assert_allclose(new, orig / 2.0, rtol=1e-15)

    def test_passthrough_below_threshold(self):
        g = FlatTensors.copy_of([np.array([1.0, 2.0])])
        out = clip_gradients(g, 10.0)
        assert out[0] is g[0]

    def test_zero_grads_unchanged(self):
        g = FlatTensors.copy_of([np.zeros(3)])
        np.testing.assert_array_equal(clip_gradients(g, 1.0)[0], g[0])

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            g = FlatTensors.copy_of([rng.normal(size=rng.integers(1, 5)) * 10 for _ in range(3)])
            max_norm = float(rng.uniform(0.1, 5.0))
            clipped = clip_gradients(g, max_norm)
            norm = math.sqrt(sum(float(np.sum(x * x)) for x in clipped))
            assert norm <= max_norm + 1e-9

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_norm_raises(self, bad):
        g = FlatTensors.copy_of([np.array([1.0, 2.0]), np.array([[0.5, bad]])])
        with pytest.raises(NumericalFailureError, match="gradient norm"):
            clip_gradients(g, 10.0)


def textbook_adamw(p, g, m, v, t, lr, wd):
    """One out-of-place AdamW step, written out from the formula."""
    b1, b2 = trainer.ADAM_BETA1, trainer.ADAM_BETA2
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    return p - lr * (m_hat / (np.sqrt(v_hat) + trainer.ADAM_EPS) + wd * p), m, v


class TestAdamW:
    def test_zero_grad_no_decay_is_identity(self):
        p = FlatTensors.copy_of([np.array([1.0, -2.0])])
        g = FlatTensors.copy_of([np.zeros(2)])
        adamw_step(p, g, AdamWState.for_params(p), lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(p[0], [1.0, -2.0])

    def test_hand_evaluated_first_step(self):
        # theta=1, g=1, lr=0.1, wd=0.1: bias-corrected m_hat = v_hat = 1,
        # update = 0.1 * (1/(1+1e-8) + 0.1 * 1)
        p = FlatTensors.copy_of([np.array([1.0])])
        g = FlatTensors.copy_of([np.array([1.0])])
        adamw_step(p, g, AdamWState.for_params(p), lr=0.1, weight_decay=0.1)
        expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8) + 0.1)
        assert p[0][0] == pytest.approx(expected, abs=1e-15)
        assert p[0][0] == pytest.approx(0.89, abs=1e-7)

    def test_decay_difference_is_algebraic(self):
        # at step 1 two runs differing only in wd differ by lr * dwd * theta
        theta = 3.0
        p1, p2 = FlatTensors.copy_of([np.array([theta])]), FlatTensors.copy_of([np.array([theta])])
        g = FlatTensors.copy_of([np.array([0.7])])
        adamw_step(p1, g, AdamWState.for_params(p1), lr=0.05, weight_decay=0.0)
        adamw_step(p2, g, AdamWState.for_params(p2), lr=0.05, weight_decay=0.3)
        assert p1[0][0] - p2[0][0] == pytest.approx(0.05 * 0.3 * theta, abs=1e-12)

    def test_pure_decay_is_geometric(self):
        # with g = 0 throughout, theta_t = theta_0 * (1 - lr*wd)^t exactly
        p = FlatTensors.copy_of([np.array([2.0, -4.0])])
        state = AdamWState.for_params(p)
        lr, wd = 0.05, 0.2
        for t in range(1, 11):
            adamw_step(p, FlatTensors.copy_of([np.zeros(2)]), state, lr=lr, weight_decay=wd)
            np.testing.assert_allclose(
                p[0], np.array([2.0, -4.0]) * (1.0 - lr * wd) ** t, rtol=1e-12
            )

    def test_in_place_matches_textbook_formula_bitwise(self):
        # several steps on tensors of different shapes, with a varying lr:
        # the in-place update must round exactly like the out-of-place formula
        rng = np.random.default_rng(6)
        params = FlatTensors.copy_of(
            [rng.normal(size=(7, 5)), rng.normal(size=(5,)), rng.normal(size=(3, 2, 4))]
        )
        buffers = list(params)
        ref = [(p.copy(), np.zeros_like(p), np.zeros_like(p)) for p in params]
        state = AdamWState.for_params(params)
        moments = state.m + state.v
        for t in range(1, 7):
            grads = FlatTensors.copy_of(
                [rng.normal(size=p.shape) * 10.0 ** rng.integers(-3, 3) for p in params]
            )
            lr = float(rng.uniform(1e-4, 1e-1))
            adamw_step(params, grads, state, lr=lr, weight_decay=1e-2)
            ref = [textbook_adamw(p, g, m, v, t, lr, 1e-2) for (p, m, v), g in zip(ref, grads)]
            assert state.t == t
            for k, (p, m, v) in enumerate(ref):
                np.testing.assert_array_equal(params[k], p)
                np.testing.assert_array_equal(state.m[k], m)
                np.testing.assert_array_equal(state.v[k], v)
        assert all(a is b for a, b in zip(params, buffers))
        assert all(a is b for a, b in zip(state.m + state.v, moments))

    def test_overflowing_update_raises(self):
        # theta = -1.7e308 stepped by lr = 1e308 against a unit gradient overflows to -inf
        p = FlatTensors.copy_of([np.zeros(2), np.array([1.0, -1.7e308])])
        g = FlatTensors.copy_of([np.zeros(2), np.array([0.0, 1.0])])
        with np.errstate(over="ignore"), pytest.raises(
            NumericalFailureError, match="parameter 1 after AdamW step 1"
        ):
            adamw_step(p, g, AdamWState.for_params(p), lr=1e308, weight_decay=0.0)

    def test_shape_mismatch(self):
        p = FlatTensors.copy_of([np.zeros(2)])
        with pytest.raises(Exception):
            adamw_step(p, FlatTensors.copy_of([np.zeros(3)]), AdamWState.for_params(p), 0.1, 0.0)


class TestFlatOptimizerMatchesPerTensorReference:
    """clip_gradients and adamw_step on the flat buffers `train` lays out
    (two towers and the inference head), against the per-tensor loops."""

    @staticmethod
    def trainable(rng):
        arrays = [*init_params(40, 8, 8, rng).arrays(), *init_params(40, 8, 8, rng).arrays()]
        return arrays + list(init_nli_head(8, rng).arrays())

    @pytest.mark.parametrize("max_norm", [1e6, 0.05])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_steps_match_reference_bitwise(self, max_norm, weight_decay):
        rng = np.random.default_rng(12)
        arrays = self.trainable(rng)
        params = FlatTensors.copy_of(arrays)
        ref = [a.copy() for a in arrays]
        grads = FlatTensors(np.zeros_like(params.flat), [a.shape for a in arrays])
        opt, ref_opt = AdamWState.for_params(params), AdamWState.for_params(ref)
        total, warmup = 24, 6
        lrs, clipped = [], 0
        for step in range(total):
            lr = lr_at(step, lr_max=0.05, warmup_steps=warmup, total_steps=total)
            lrs.append(lr)
            for g in grads:
                g[...] = rng.normal(size=g.shape) * 10.0 ** rng.integers(-3, 2)
            ref_grads = [g.copy() for g in grads]
            got = clip_gradients(grads, max_norm)
            want = reference_clip_gradients(ref_grads, max_norm)
            clipped += any(g.tobytes() != r.tobytes() for g, r in zip(got, ref_grads))
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            adamw_step(params, got, opt, lr=lr, weight_decay=weight_decay)
            reference_adamw_step(ref, want, ref_opt, lr=lr, weight_decay=weight_decay)
            assert opt.t == ref_opt.t == step + 1
            assert [p.tobytes() for p in params] == [r.tobytes() for r in ref]
            assert opt.m.flat.tobytes() == ref_opt.m.flat.tobytes()
            assert opt.v.flat.tobytes() == ref_opt.v.flat.tobytes()
        assert clipped == (total if max_norm < 1 else 0)
        assert lrs[1] < lrs[warmup] and lrs[-1] < lrs[warmup]  # warmup and decay both ran
        assert all(p.base is params.flat for p in params)

    def test_flat_step_allocates_no_buffer(self):
        rng = np.random.default_rng(13)
        params = FlatTensors.copy_of([rng.normal(size=(400, 64)), rng.normal(size=(64,))])
        grads = FlatTensors(rng.normal(size=params.flat.size), [p.shape for p in params])
        opt = AdamWState.for_params(params)
        adamw_step(params, grads, opt, lr=1e-3, weight_decay=1e-4)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            adamw_step(params, grads, opt, lr=1e-3, weight_decay=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < params.flat.nbytes // 100

    @pytest.mark.parametrize("max_norm", [1e6, 0.05])
    def test_clip_into_scratch_matches_reference_bitwise(self, max_norm):
        # tensor sizes around numpy's pairwise-summation blocks (8 and 128)
        rng = np.random.default_rng(14)
        shapes = [(7,), (9, 17), (129,), (40, 8), (1,), (300, 33), (256,)]
        grads = FlatTensors(np.zeros(sum(math.prod(s) for s in shapes)), shapes)
        opt = AdamWState.for_params(grads)
        for _ in range(5):
            grads.flat[...] = rng.normal(size=grads.flat.size) * 10.0 ** rng.integers(-3, 2)
            before = grads.flat.copy()
            want = reference_clip_gradients([g.copy() for g in grads], max_norm)
            got = clip_gradients(grads, max_norm, scratch=opt.scratch[0])
            assert got is grads
            assert (got.flat.tobytes() == before.tobytes()) == (max_norm > 1)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_clip_within_bound_allocates_no_buffer(self):
        rng = np.random.default_rng(15)
        grads = FlatTensors(rng.normal(size=400 * 64 + 64), [(400, 64), (64,)])
        scratch = AdamWState.for_params(grads).scratch[0]
        clip_gradients(grads, 1e6, scratch=scratch)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = clip_gradients(grads, 1e6, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is grads
        assert peak - start < grads.flat.nbytes // 100

    def test_clip_above_bound_scales_in_place_without_a_buffer(self):
        rng = np.random.default_rng(16)
        grads = FlatTensors(rng.normal(size=400 * 64 + 64), [(400, 64), (64,)])
        flat = grads.flat
        scratch = AdamWState.for_params(grads).scratch[0]
        clip_gradients(grads, 1e-3, scratch=scratch)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = clip_gradients(grads, 1e-4, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is grads and grads.flat is flat
        assert math.sqrt(float(np.sum(flat * flat))) == pytest.approx(1e-4, rel=1e-12)
        assert peak - start < grads.flat.nbytes // 100

    @pytest.mark.parametrize("bad_tensor, element", [(0, 0), (2, -1), (4, 0), (5, 0)])
    def test_overflow_names_the_tensor(self, bad_tensor, element):
        # theta = -1.7e308 stepped by lr = 1e308 against a unit gradient
        # overflows to -inf in one tensor of the flat buffer
        shapes = [(3,), (2, 2), (4,), (1,), (2, 3), (5,)]
        params = FlatTensors(np.zeros(sum(math.prod(s) for s in shapes)), shapes)
        grads = FlatTensors(np.zeros_like(params.flat), shapes)
        params[bad_tensor].flat[element] = -1.7e308
        grads[bad_tensor].flat[element] = 1.0
        ref, ref_grads = [p.copy() for p in params], [g.copy() for g in grads]
        message = f"parameter {bad_tensor} after AdamW step 1"
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalFailureError, match=message):
                adamw_step(params, grads, AdamWState.for_params(params), lr=1e308, weight_decay=0.0)
            with pytest.raises(NumericalFailureError, match=message):
                reference_adamw_step(ref, ref_grads, AdamWState.for_params(ref), 1e308, 0.0)


class TestNliHead:
    def test_uniform_logits_give_log3(self):
        head = init_nli_head(4, np.random.default_rng(0))
        head.w1[:] = 0.0
        head.b1[:] = 0.0
        head.w2[:] = 0.0
        head.b2[:] = 0.0
        head.w3[:] = 0.0
        head.b3[:] = 0.0
        rng = np.random.default_rng(1)
        hp = random_unit_rows(1, 4, rng)[0]
        hh = random_unit_rows(1, 4, rng)[0]
        for label in ("entailment", "neutral", "contradiction"):
            assert nli_forward_loss(head, hp, hh, label) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_peaked_logits_drive_loss_to_zero(self):
        head = init_nli_head(4, np.random.default_rng(0))
        head.w3[:] = 0.0
        head.b3[:] = np.array([50.0, -50.0, -50.0])
        rng = np.random.default_rng(2)
        hp = random_unit_rows(1, 4, rng)[0]
        hh = random_unit_rows(1, 4, rng)[0]
        assert nli_forward_loss(head, hp, hh, "entailment") == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def gradient_case():
        rng = np.random.default_rng(3)
        head = init_nli_head(3, rng)
        hp = random_unit_rows(4, 3, rng)
        hh = random_unit_rows(4, 3, rng)
        labels = ["entailment", "neutral", "contradiction", "neutral"]
        labels = _label_indices(labels)
        _, head_grads, g_hp, g_hh = nli_loss_and_grads(head, hp, hh, labels)

        def objective():
            loss, _, _, _ = nli_loss_and_grads(head, hp, hh, labels)
            return loss

        return objective, list(head.arrays()) + [hp, hh], head_grads + [g_hp, g_hh]

    def test_gradients_match_finite_differences(self, monkeypatch):
        # every coordinate, at a hidden width narrow enough to difference them all
        monkeypatch.setattr(trainer, "HIDDEN", 16)
        objective, arrays, analytic = self.gradient_case()
        assert arrays[2].shape == (16, 16)
        numeric = central_difference(objective, arrays, step=1e-6)
        assert max_rel_error(analytic, numeric, floor=1e-3) < 1e-6

    def test_gradients_match_finite_differences_at_full_width(self):
        # HIDDEN = 256: a seeded sample of up to 64 coordinates from every tensor
        objective, arrays, analytic = self.gradient_case()
        assert arrays[2].shape == (256, 256)
        pick = np.random.default_rng(5)
        for a, g in zip(arrays, analytic):
            idx = pick.choice(a.size, size=min(64, a.size), replace=False)
            numeric = central_difference_at(objective, a, idx, step=1e-6)
            assert max_rel_error([g.ravel()[idx]], [numeric], floor=1e-3) < 1e-6

    def test_invalid_label(self):
        head = init_nli_head(3, np.random.default_rng(0))
        h = random_unit_rows(1, 3, np.random.default_rng(1))[0]
        with pytest.raises(InvalidInputError, match="unknown label 'maybe'"):
            nli_forward_loss(head, h, h, "maybe")
        with pytest.raises(InvalidInputError, match="unknown label 7"):
            nli_forward_loss(head, h, h, 7)

    def test_dropout_masks_are_seeded(self):
        rng = np.random.default_rng(4)
        head = init_nli_head(3, rng)
        hp = random_unit_rows(2, 3, rng)
        hh = random_unit_rows(2, 3, rng)
        labels = _label_indices(["neutral", "entailment"])
        loss1, _, _, _ = nli_loss_and_grads(
            head, hp, hh, labels, dropout=0.5, dropout_rng=np.random.default_rng(9)
        )
        loss2, _, _, _ = nli_loss_and_grads(
            head, hp, hh, labels, dropout=0.5, dropout_rng=np.random.default_rng(9)
        )
        loss3, _, _, _ = nli_loss_and_grads(head, hp, hh, labels)
        assert loss1 == loss2
        assert loss1 != loss3
        # the first hidden layer's mask is drawn first; `train --nli` output
        # depends on that order
        draws = np.random.default_rng(9)
        mask1, mask2 = ((draws.random((2, trainer.HIDDEN)) >= 0.5) / 0.5 for _ in range(2))
        x = np.concatenate([hp, hh, np.abs(hp - hh)], axis=1)
        h1 = np.maximum(x @ head.w1 + head.b1, 0.0) * mask1
        logits = (np.maximum(h1 @ head.w2 + head.b2, 0.0) * mask2) @ head.w3 + head.b3
        lse = np.log(np.exp(logits).sum(axis=1))
        assert loss1 == pytest.approx(float(np.mean(lse - logits[[0, 1], labels])), abs=1e-12)


class TestTrain:
    def test_deterministic_runs(self, small_world):
        _, corpus, _, sts = small_world
        r1 = train(small_config(), corpus, sts_pairs=sts)
        r2 = train(small_config(), corpus, sts_pairs=sts)
        assert r1.records == r2.records
        for a, b in zip(r1.state.base_a.arrays(), r2.state.base_a.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_zero_weight_nli_matches_disabled(self, small_world):
        _, corpus, nli, _ = small_world
        plain = train(small_config(), corpus)
        zero = train(small_config(nli_weight=0.0), corpus, nli_data=nli)
        assert step_records(plain) == step_records(zero)
        for a, b in zip(plain.state.base_a.arrays(), zero.state.base_a.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_loss_decreases_on_average(self, small_world):
        _, corpus, _, _ = small_world
        result = train(small_config(epochs=8), corpus)
        losses = [r["loss_total"] for r in step_records(result)]
        assert np.mean(losses[:10]) > np.mean(losses[-10:])

    def test_nli_training_reduces_nli_loss(self, small_world):
        _, corpus, nli, _ = small_world
        result = train(small_config(epochs=8), corpus, nli_data=nli)
        nli_losses = [r["loss_nli"] for r in step_records(result)]
        assert nli_losses[-1] < nli_losses[0]
        assert result.nli_head is not None

    def test_empty_corpus_rejected(self, small_world):
        # every pair of the corpus relabelled to the test split
        _, corpus, _, _ = small_world
        held_out = dataclasses.replace(corpus, split_codes=np.full_like(corpus.split_codes, 2))
        with pytest.raises(CorpusParseError, match="corpus has no training pairs"):
            train(small_config(), held_out)

    def test_config_validation_names_field(self):
        with pytest.raises(ConfigError, match="temperature"):
            TrainConfig(temperature=-0.5).validate()
        with pytest.raises(ConfigError, match="momentum"):
            TrainConfig(momentum=1.5).validate()
        with pytest.raises(ConfigError, match="queue_capacity"):
            TrainConfig(queue_capacity=16, batch_size=64).validate()
        with pytest.raises(ConfigError, match="pooling"):
            TrainConfig(pooling="bogus").validate()
        for name in ("lr_max", "weight_decay", "nli_weight", "temperature"):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                TrainConfig(**{name: math.inf}).validate()
        TrainConfig(pooling="max").validate()

    def test_batch_larger_than_corpus_rejected(self, small_world):
        _, corpus, _, _ = small_world
        with pytest.raises(ConfigError, match="batch_size"):
            train(small_config(batch_size=512, queue_capacity=512), corpus)

    def test_metrics_schema(self, small_world):
        _, corpus, _, sts = small_world
        result = train(small_config(), corpus, sts_pairs=sts)
        steps_per_epoch = len(corpus.split("train")) // small_config().batch_size
        step_keys = {"step", "lr", "loss_total", "loss_fwd", "loss_bwd", "loss_nli"}
        epoch_keys = {"epoch", "retrieval_acc_ab", "retrieval_acc_ba", "sts_spearman"}
        # each epoch's step records, then its epoch record
        records = result.records
        assert [set(r) for r in records] == ([step_keys] * steps_per_epoch + [epoch_keys]) * 2
        assert [r["step"] for r in step_records(result)] == list(range(2 * steps_per_epoch))
        assert [r["epoch"] for r in records if "epoch" in r] == [0, 1]

    def test_towers_are_views_of_the_two_flat_buffers(self, small_world):
        # with the head, which follows the towers in the trainable buffer
        _, corpus, nli, _ = small_world
        result = train(small_config(epochs=1), corpus, nli_data=nli)
        state = result.state
        for tower, flat in (
            (state.base_a, state.towers.flat),
            (state.base_b, state.towers.flat),
            (state.momentum_a, state.momentum_towers.flat),
            (state.momentum_b, state.momentum_towers.flat),
        ):
            assert all(np.shares_memory(a, flat) for a in tower.arrays())
        assert state.towers.flat.size == state.momentum_towers.flat.size == state.towers.bounds[-1]
        assert not np.shares_memory(state.towers.flat, state.momentum_towers.flat)
        assert not any(np.shares_memory(h, state.towers.flat) for h in result.nli_head.arrays())

    def test_ablation_shares_parameters(self, small_world):
        _, corpus, _, _ = small_world
        result = train(small_config(momentum=0.0), corpus)
        for a, b in zip(result.state.base_a.arrays(), result.state.momentum_a.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_ablation_queue_holds_base_outputs(self, small_world, monkeypatch):
        # with parameter sharing the newest queue entries must equal the
        # current base encoder applied to the step's batch
        _, corpus, _, _ = small_world
        snapshots = []
        real = trainer.step_gradients

        def probe(state, batch_a, batch_b, *args, **kwargs):
            snapshots.append((copy_tower(state.base_a), batch_a))
            return real(state, batch_a, batch_b, *args, **kwargs)

        monkeypatch.setattr(trainer, "step_gradients", probe)
        config = small_config(epochs=1, momentum=0.0)
        result = train(config, corpus)
        newest = insertion_order(result.state.queue_a)[-config.batch_size :]
        # the final step's keys were encoded with the post-update params,
        # which are exactly the returned base params
        replay = encode_batch(result.state.base_a, snapshots[-1][1], config.pooling)
        np.testing.assert_allclose(newest, replay, atol=1e-12)

    def test_step_probe_sees_every_step(self, small_world, monkeypatch):
        _, corpus, _, _ = small_world
        seen = []
        real = trainer.step_gradients

        def probe(state, *args, **kwargs):
            seen.append((len(seen), state))
            return real(state, *args, **kwargs)

        monkeypatch.setattr(trainer, "step_gradients", probe)
        result = train(small_config(epochs=1), corpus)
        assert [s for s, _ in seen] == list(range(len(corpus.split("train")) // 16))
        # every step sees the trainer's one live state, not a snapshot
        assert all(state is result.state for _, state in seen)

    def test_trainable_tensors_are_views_of_one_buffer(self, small_world):
        _, corpus, nli, _ = small_world
        result = train(small_config(epochs=1), corpus, nli_data=nli)
        trainable = [
            *result.state.base_a.arrays(), *result.state.base_b.arrays(), *result.nli_head.arrays()
        ]
        flat = trainable[0].base
        assert flat.ndim == 1 and flat.size == sum(a.size for a in trainable)
        assert all(a.base is flat for a in trainable)
        address = flat.__array_interface__["data"][0]
        offsets = [a.__array_interface__["data"][0] - address for a in trainable]
        assert offsets == np.cumsum([0] + [a.nbytes for a in trainable[:-1]]).tolist()

    def test_out_of_range_id_raises_before_the_first_step(self, small_world, monkeypatch):
        # training pair 5 gets one side-B id past the vocabulary, which side A stays inside
        _, corpus, _, _ = small_world
        top = corpus.max_token() + 1
        rows = corpus_rows(corpus)
        assert rows[5][3] == "train"
        rows[5] = (rows[5][0], rows[5][1] + (top,), *rows[5][2:])
        steps = []
        monkeypatch.setattr(trainer, "step_gradients", lambda *args, **kwargs: steps.append(args))
        with pytest.raises(InvalidInputError, match=f"side B of training pair 5: token id {top}"):
            train(small_config(), corpus_of(rows), vocab_size=top)
        assert steps == []

    @pytest.mark.parametrize("big", [2**63, 10**25], ids=["int64-max-plus-one", "25-digits"])
    def test_id_beyond_int64_in_a_file_reaches_the_out_of_range_message(self, small_world, tmp_path, big):
        # side A of training pair 3 gets an id that no int64 holds
        _, corpus, _, _ = small_world
        path = tmp_path / "parallel.tsv"
        datagen.save_tsv(corpus, str(path))
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace("\t", f" {big}\t", 1)
        path.write_text("\n".join(lines) + "\n")
        loaded = datagen.load_tsv(str(path))
        top = corpus.max_token() + 1
        with pytest.raises(InvalidInputError, match=f"side A of training pair 3: token id {big} outside"):
            train(small_config(), loaded, vocab_size=top)

    def test_nan_guard(self):
        with pytest.raises(NumericalFailureError):
            _ensure_finite(LossValue(float("nan"), 0.0, 0.0), 3)

    def test_nan_gradient_stops_training(self, small_world, monkeypatch):
        # a finite loss with a NaN gradient must fail the step, not reach AdamW
        _, corpus, _, _ = small_world
        real = trainer.step_gradients

        def nan_gradients(state, batch_a, batch_b, pooling, out, **kwargs):
            losses = real(state, batch_a, batch_b, pooling, out, **kwargs)
            out[0][0, 0] = np.nan
            return losses

        monkeypatch.setattr(trainer, "step_gradients", nan_gradients)
        with pytest.raises(NumericalFailureError, match="gradient norm"):
            train(small_config(epochs=1), corpus)


class TestStepGradientLinearity:
    def test_combined_equals_sum_of_terms(self, small_world):
        lexicon, corpus, nli, _ = small_world
        rng = np.random.default_rng(5)
        params_a = init_params(lexicon.vocab_size, 8, 8, rng)
        params_b = init_params(lexicon.vocab_size, 8, 8, rng)
        state = new_state(flat_towers(params_a, params_b), 0.9, 32, 0.07)
        enqueue_batch(state.queue_a, random_unit_rows(16, 8, rng))
        enqueue_batch(state.queue_b, random_unit_rows(16, 8, rng))
        head = init_nli_head(8, rng)
        rows = corpus.split("train")[:8]
        sides = (sequences(corpus.tokens_a, rows), sequences(corpus.tokens_b, rows))
        batch_a, batch_b = pack_pair(state, *sides)
        nli_batch = pack_nli(nli[:8], lexicon.vocab_size)
        alpha = 0.37

        _, _, combined = step_new_gradients(
            state, batch_a, batch_b, "mean", head=head, nli_batch=nli_batch, nli_weight=alpha
        )
        _, _, moco_only = step_new_gradients(state, batch_a, batch_b, "mean")
        _, _, nli_unit = step_new_gradients(
            state, batch_a, batch_b, "mean", head=head, nli_batch=nli_batch, nli_weight=1.0
        )
        nli_term = [u - m for u, m in zip(nli_unit[:6], moco_only)]
        # encoder blocks: combined = moco + alpha * nli_term
        for idx in range(6):
            np.testing.assert_allclose(
                combined[idx], moco_only[idx] + alpha * nli_term[idx], atol=1e-12
            )
        # head blocks scale linearly with alpha
        for idx in range(6, 12):
            np.testing.assert_allclose(combined[idx], alpha * nli_unit[idx], atol=1e-12)

    def test_gradients_written_into_out_equal_new_arrays_bitwise(self, small_world):
        # train hands step_gradients its flat gradient buffer, still holding
        # the previous step's values; the result must not depend on them
        lexicon, corpus, nli, _ = small_world
        rng = np.random.default_rng(7)
        params_a = init_params(lexicon.vocab_size, 8, 8, rng)
        params_b = init_params(lexicon.vocab_size, 8, 8, rng)
        state = new_state(flat_towers(params_a, params_b), 0.9, 32, 0.07)
        enqueue_batch(state.queue_a, random_unit_rows(16, 8, rng))
        enqueue_batch(state.queue_b, random_unit_rows(16, 8, rng))
        head = init_nli_head(8, rng)
        rows = corpus.split("train")[:8]
        sides = (sequences(corpus.tokens_a, rows), sequences(corpus.tokens_b, rows))
        args = (state, *pack_pair(state, *sides), "mean")
        kwargs = dict(head=head, nli_batch=pack_nli(nli[:12], lexicon.vocab_size), nli_weight=0.3)
        loss, nli_loss, want = step_new_gradients(*args, **kwargs)  # into zeros
        got = FlatTensors(rng.normal(size=want.flat.size), [w.shape for w in want])
        assert step_gradients(*args, got, **kwargs) == (loss, nli_loss)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_nli_gradients_equal_token_list_passes_bitwise(self, small_world):
        # step_gradients reuses the forward passes of the packed premises
        # and hypotheses; the same sums from token lists, with each backward
        # pass after its own pack and forward pass, give the same bits
        lexicon, corpus, nli, _ = small_world
        rng = np.random.default_rng(6)
        params_a = init_params(lexicon.vocab_size, 8, 8, rng)
        params_b = init_params(lexicon.vocab_size, 8, 8, rng)
        state = new_state(flat_towers(params_a, params_b), 0.9, 32, 0.07)
        enqueue_batch(state.queue_a, random_unit_rows(16, 8, rng))
        enqueue_batch(state.queue_b, random_unit_rows(16, 8, rng))
        head = init_nli_head(8, rng)
        rows = corpus.split("train")[:8]
        batch_a = sequences(corpus.tokens_a, rows)
        batch_b = sequences(corpus.tokens_b, rows)
        nli_batch = nli[:12]
        packed = pack_pair(state, batch_a, batch_b)
        _, nli_loss, got = step_new_gradients(
            state, *packed, "mean", head=head, nli_batch=pack_nli(nli_batch, lexicon.vocab_size),
            nli_weight=0.3, nli_dropout=0.1, dropout_rng=np.random.default_rng(9),
        )

        _, grads_a, grads_b = loss_and_new_gradients(state, *packed, "mean")
        premises = [t.premise for t in nli_batch]
        hypotheses = [t.hypothesis for t in nli_batch]
        want_loss, head_grads, g_hp, g_hh = nli_loss_and_grads(
            head,
            encode_batch(state.base_a, premises, "mean"),
            encode_batch(state.base_a, hypotheses, "mean"),
            _label_indices([t.label for t in nli_batch]),
            dropout=0.1,
            dropout_rng=np.random.default_rng(9),
        )
        extra_p = encode_backward_tokens(state.base_a, premises, "mean", g_hp)
        extra_h = encode_backward_tokens(state.base_a, hypotheses, "mean", g_hh)
        for g, p, h in zip(grads_a.arrays(), extra_p.arrays(), extra_h.arrays()):
            p += 1.0 * h
            g += 0.3 * p
        want = [*grads_a.arrays(), *grads_b.arrays(), *(0.3 * g for g in head_grads)]
        assert nli_loss == want_loss
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

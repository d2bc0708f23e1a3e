import math

import numpy as np
import pytest

from helpers import central_difference, max_rel_error, random_unit_rows

from dualmoco import datagen, trainer
from dualmoco.encoder import encode_batch, init_params
from dualmoco.errors import (
    ConfigError,
    EmptyCorpusError,
    InvalidLabelError,
    NumericalFailureError,
)
from dualmoco.moco import LossValue, enqueue_batch, new_state
from dualmoco.trainer import (
    AdamWState,
    TrainConfig,
    adamw_step,
    clip_gradients,
    init_nli_head,
    lr_at,
    nli_forward_loss,
    nli_loss_and_grads,
    step_gradients,
    train,
    _ensure_finite,
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
        g = [np.array([4.0, 0.0]), np.full((2, 2), np.sqrt(384.0 / 4.0))]
        total = math.sqrt(sum(float(np.sum(x * x)) for x in g))
        clipped = clip_gradients(g, total / 2.0)
        for orig, new in zip(g, clipped):
            np.testing.assert_allclose(new, orig / 2.0, rtol=1e-15)

    def test_passthrough_below_threshold(self):
        g = [np.array([1.0, 2.0])]
        out = clip_gradients(g, 10.0)
        assert out[0] is g[0]

    def test_zero_grads_unchanged(self):
        g = [np.zeros(3)]
        np.testing.assert_array_equal(clip_gradients(g, 1.0)[0], g[0])

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            g = [rng.normal(size=rng.integers(1, 5)) * 10 for _ in range(3)]
            max_norm = float(rng.uniform(0.1, 5.0))
            clipped = clip_gradients(g, max_norm)
            norm = math.sqrt(sum(float(np.sum(x * x)) for x in clipped))
            assert norm <= max_norm + 1e-9

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_norm_raises(self, bad):
        g = [np.array([1.0, 2.0]), np.array([[0.5, bad]])]
        with pytest.raises(NumericalFailureError, match="gradient norm"):
            clip_gradients(g, 10.0)


class TestAdamW:
    def test_zero_grad_no_decay_is_identity(self):
        p = [np.array([1.0, -2.0])]
        state = AdamWState.for_params(p)
        out, _ = adamw_step(p, [np.zeros(2)], state, lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(out[0], p[0])

    def test_hand_evaluated_first_step(self):
        # theta=1, g=1, lr=0.1, wd=0.1: bias-corrected m_hat = v_hat = 1,
        # update = 0.1 * (1/(1+1e-8) + 0.1 * 1)
        p = [np.array([1.0])]
        state = AdamWState.for_params(p)
        out, _ = adamw_step(p, [np.array([1.0])], state, lr=0.1, weight_decay=0.1)
        expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8) + 0.1)
        assert out[0][0] == pytest.approx(expected, abs=1e-15)
        assert out[0][0] == pytest.approx(0.89, abs=1e-7)

    def test_decay_difference_is_algebraic(self):
        # at step 1 two runs differing only in wd differ by lr * dwd * theta
        theta = 3.0
        p = [np.array([theta])]
        g = [np.array([0.7])]
        out1, _ = adamw_step(p, g, AdamWState.for_params(p), lr=0.05, weight_decay=0.0)
        out2, _ = adamw_step(p, g, AdamWState.for_params(p), lr=0.05, weight_decay=0.3)
        assert out1[0][0] - out2[0][0] == pytest.approx(0.05 * 0.3 * theta, abs=1e-12)

    def test_pure_decay_is_geometric(self):
        # with g = 0 throughout, theta_t = theta_0 * (1 - lr*wd)^t exactly
        p = [np.array([2.0, -4.0])]
        state = AdamWState.for_params(p)
        lr, wd = 0.05, 0.2
        for t in range(1, 11):
            p, state = adamw_step(p, [np.zeros(2)], state, lr=lr, weight_decay=wd)
            np.testing.assert_allclose(
                p[0], np.array([2.0, -4.0]) * (1.0 - lr * wd) ** t, rtol=1e-12
            )

    def test_shape_mismatch(self):
        p = [np.zeros(2)]
        with pytest.raises(Exception):
            adamw_step(p, [np.zeros(3)], AdamWState.for_params(p), 0.1, 0.0)


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

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        head = init_nli_head(3, rng)
        hp = random_unit_rows(4, 3, rng)
        hh = random_unit_rows(4, 3, rng)
        labels = ["entailment", "neutral", "contradiction", "neutral"]
        _, head_grads, g_hp, g_hh = nli_loss_and_grads(head, hp, hh, labels)

        def objective():
            loss, _, _, _ = nli_loss_and_grads(head, hp, hh, labels)
            return loss

        numeric = central_difference(objective, list(head.arrays()) + [hp, hh], step=1e-6)
        analytic = head_grads + [g_hp, g_hh]
        assert max_rel_error(analytic, numeric, floor=1e-3) < 1e-6

    def test_invalid_label(self):
        head = init_nli_head(3, np.random.default_rng(0))
        h = random_unit_rows(1, 3, np.random.default_rng(1))[0]
        with pytest.raises(InvalidLabelError):
            nli_forward_loss(head, h, h, "maybe")
        with pytest.raises(InvalidLabelError):
            nli_forward_loss(head, h, h, 7)

    def test_dropout_masks_are_seeded(self):
        rng = np.random.default_rng(4)
        head = init_nli_head(3, rng)
        hp = random_unit_rows(2, 3, rng)
        hh = random_unit_rows(2, 3, rng)
        labels = ["neutral", "entailment"]
        loss1, _, _, _ = nli_loss_and_grads(
            head, hp, hh, labels, dropout=0.5, dropout_rng=np.random.default_rng(9)
        )
        loss2, _, _, _ = nli_loss_and_grads(
            head, hp, hh, labels, dropout=0.5, dropout_rng=np.random.default_rng(9)
        )
        loss3, _, _, _ = nli_loss_and_grads(head, hp, hh, labels)
        assert loss1 == loss2
        assert loss1 != loss3


class TestTrain:
    def test_deterministic_runs(self, small_world):
        _, corpus, _, sts = small_world
        r1 = train(small_config(), corpus, sts_pairs=sts)
        r2 = train(small_config(), corpus, sts_pairs=sts)
        assert r1.step_records == r2.step_records
        assert r1.epoch_records == r2.epoch_records
        for a, b in zip(r1.params_a.arrays(), r2.params_a.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_zero_weight_nli_matches_disabled(self, small_world):
        _, corpus, nli, _ = small_world
        plain = train(small_config(), corpus)
        zero = train(small_config(nli_weight=0.0), corpus, nli_data=nli)
        assert plain.step_records == zero.step_records
        for a, b in zip(plain.params_a.arrays(), zero.params_a.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_loss_decreases_on_average(self, small_world):
        _, corpus, _, _ = small_world
        result = train(small_config(epochs=8), corpus)
        losses = [r["loss_total"] for r in result.step_records]
        assert np.mean(losses[:10]) > np.mean(losses[-10:])

    def test_nli_training_reduces_nli_loss(self, small_world):
        _, corpus, nli, _ = small_world
        result = train(small_config(epochs=8), corpus, nli_data=nli)
        nli_losses = [r["loss_nli"] for r in result.step_records]
        assert nli_losses[-1] < nli_losses[0]
        assert result.nli_head is not None

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            train(small_config(), datagen.ParallelCorpus())

    def test_config_validation_names_field(self):
        with pytest.raises(ConfigError, match="temperature"):
            TrainConfig(temperature=-0.5).validate()
        with pytest.raises(ConfigError, match="momentum"):
            TrainConfig(momentum=1.5).validate()
        with pytest.raises(ConfigError, match="queue_capacity"):
            TrainConfig(queue_capacity=16, batch_size=64).validate()
        with pytest.raises(ConfigError, match="pooling"):
            TrainConfig(pooling="bogus").validate()
        TrainConfig(pooling="max").validate()

    def test_batch_larger_than_corpus_rejected(self, small_world):
        _, corpus, _, _ = small_world
        with pytest.raises(ConfigError, match="batch_size"):
            train(small_config(batch_size=512, queue_capacity=512), corpus)

    def test_metrics_schema(self, small_world):
        _, corpus, _, sts = small_world
        result = train(small_config(), corpus, sts_pairs=sts)
        assert {"step", "lr", "loss_total", "loss_fwd", "loss_bwd", "loss_nli"} == set(
            result.step_records[0]
        )
        assert {"epoch", "retrieval_acc_ab", "retrieval_acc_ba", "sts_spearman"} == set(
            result.epoch_records[0]
        )
        steps_per_epoch = len(corpus.split("train")) // small_config().batch_size
        assert len(result.step_records) == 2 * steps_per_epoch
        assert len(result.epoch_records) == 2

    def test_ablation_shares_parameters(self, small_world):
        _, corpus, _, _ = small_world
        result = train(small_config(ablation_no_momentum=True), corpus)
        for a, b in zip(result.state.base_a.arrays(), result.state.momentum_a.params.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_ablation_queue_holds_base_outputs(self, small_world):
        # with parameter sharing the newest queue entries must equal the
        # current base encoder applied to the step's batch
        _, corpus, _, _ = small_world
        snapshots = []

        def probe(step, state, batch_a, batch_b):
            snapshots.append((state.base_a.copy(), [list(t) for t in batch_a]))

        config = small_config(epochs=1, ablation_no_momentum=True)
        result = train(config, corpus, step_probe=probe)
        newest = result.state.queue_a.insertion_order()[-config.batch_size :]
        # the final step's keys were encoded with the post-update params,
        # which are exactly the returned base params
        replay = encode_batch(result.params_a, snapshots[-1][1], config.pooling)
        np.testing.assert_allclose(newest, replay, atol=1e-12)

    def test_step_probe_sees_every_step(self, small_world):
        _, corpus, _, _ = small_world
        seen = []
        train(small_config(epochs=1), corpus, step_probe=lambda s, *_: seen.append(s))
        assert seen == list(range(len(corpus.split("train")) // 16))

    def test_nan_guard(self):
        with pytest.raises(NumericalFailureError):
            _ensure_finite(LossValue(float("nan"), 0.0, 0.0), 3)

    def test_nan_gradient_stops_training(self, small_world, monkeypatch):
        # a finite loss with a NaN gradient must fail the step, not reach AdamW
        _, corpus, _, _ = small_world
        real = trainer.step_gradients

        def nan_gradients(*args, **kwargs):
            loss, nli_loss, grads = real(*args, **kwargs)
            grads[0] = grads[0].copy()
            grads[0][0, 0] = np.nan
            return loss, nli_loss, grads

        monkeypatch.setattr(trainer, "step_gradients", nan_gradients)
        with pytest.raises(NumericalFailureError, match="gradient norm"):
            train(small_config(epochs=1), corpus)


class TestStepGradientLinearity:
    def test_combined_equals_sum_of_terms(self, small_world):
        lexicon, corpus, nli, _ = small_world
        rng = np.random.default_rng(5)
        params_a = init_params(lexicon.vocab_size_a, 8, 8, rng)
        params_b = init_params(lexicon.vocab_size_b, 8, 8, rng)
        state = new_state(params_a, params_b, 0.9, 32, 0.07)
        state.queue_a = enqueue_batch(state.queue_a, random_unit_rows(16, 8, rng))
        state.queue_b = enqueue_batch(state.queue_b, random_unit_rows(16, 8, rng))
        head = init_nli_head(8, rng)
        pairs = corpus.split("train")[:8]
        batch_a = [p.tokens_a for p in pairs]
        batch_b = [p.tokens_b for p in pairs]
        alpha = 0.37

        _, _, combined = step_gradients(
            state, batch_a, batch_b, "mean", head=head, nli_batch=nli[:8], nli_weight=alpha
        )
        _, _, moco_only = step_gradients(state, batch_a, batch_b, "mean")
        _, _, nli_unit = step_gradients(
            state, batch_a, batch_b, "mean", head=head, nli_batch=nli[:8], nli_weight=1.0
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

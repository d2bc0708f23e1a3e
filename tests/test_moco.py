import math

import numpy as np
import pytest

from helpers import (
    central_difference,
    max_rel_error,
    random_token_batch,
    random_unit_rows,
    reference_nce_batch,
)

from dualmoco import moco
from dualmoco.encoder import EncoderParams, Pooling, encode, encode_backward, encode_batch, init_params
from dualmoco.errors import (
    BatchExceedsCapacityError,
    BatchLengthMismatchError,
    DimensionMismatchError,
    NonPositiveTemperatureError,
    NonUnitInputError,
    NonUnitKeyError,
    ShapeMismatchError,
)
from dualmoco.moco import (
    DualMocoState,
    MemoryQueue,
    advance_state,
    bidirectional_loss,
    enqueue_batch,
    info_nce,
    info_nce_query_grad,
    loss_and_gradients,
    momentum_update,
    new_state,
    softmax_entropy,
)


def constant_params(value, vocab=3, d_emb=2, d_out=2):
    return EncoderParams(
        np.full((vocab, d_emb), value), np.full((d_emb, d_out), value), np.full(d_out, value)
    )


def filled_queue(capacity, keys):
    queue = MemoryQueue.empty(capacity, keys.shape[1])
    enqueue_batch(queue, keys)
    return queue


def moco_step(state, batch_a, batch_b, pooling):
    """One training step's MoCo part: gradients from the state, then advance it in place."""
    loss, grads_a, grads_b = loss_and_gradients(state, batch_a, batch_b, pooling)
    advance_state(state, batch_a, batch_b, pooling)
    return loss, grads_a, grads_b


def tiny_state(rng, vocab=10, d_emb=8, d_out=8, capacity=16, temperature=0.07, m=0.9):
    state = new_state(
        init_params(vocab, d_emb, d_out, rng),
        init_params(vocab, d_emb, d_out, rng),
        m,
        capacity,
        temperature,
    )
    # momentum towers drift so stop-gradient paths differ from the bases
    state.momentum_a.embedding += 0.1 * rng.normal(size=(vocab, d_emb))
    state.momentum_b.proj_w += 0.1 * rng.normal(size=(d_emb, d_out))
    return state


class TestMomentumUpdate:
    def test_m_one_is_fixed_point(self):
        base = constant_params(1.0)
        momentum = constant_params(2.0)
        momentum_update(base, momentum, 1.0)
        for a, b in zip(momentum.arrays(), constant_params(2.0).arrays()):
            np.testing.assert_array_equal(a, b)

    def test_m_zero_copies_base(self):
        base = constant_params(1.0)
        momentum = constant_params(2.0)
        momentum_update(base, momentum, 0.0)
        for a, b in zip(momentum.arrays(), base.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_scalar_blend(self):
        base = constant_params(1.0)
        momentum = constant_params(2.0)
        arrays = momentum.arrays()
        momentum_update(base, momentum, 0.999)
        np.testing.assert_allclose(momentum.embedding, 1.999, rtol=0, atol=1e-15)
        # blended into the same buffers; the base is only read
        assert all(a is b for a, b in zip(momentum.arrays(), arrays))
        np.testing.assert_array_equal(base.embedding, 1.0)

    def test_shape_mismatch(self):
        base = constant_params(1.0, vocab=4)
        with pytest.raises(ShapeMismatchError):
            momentum_update(base, constant_params(2.0, vocab=3), 0.5)


class TestMemoryQueue:
    def test_partial_fill(self):
        rng = np.random.default_rng(0)
        keys = random_unit_rows(2, 3, rng)
        q = filled_queue(4, keys)
        assert q.filled == 2 and q.write_index == 2
        np.testing.assert_array_equal(q.negatives(), keys)
        np.testing.assert_array_equal(q.insertion_order(), keys)

    def test_fifo_replacement(self):
        rng = np.random.default_rng(1)
        a, b, c, d, e, f = random_unit_rows(6, 3, rng)
        q = filled_queue(4, np.stack([a, b, c, d]))
        assert q.write_index == 0 and q.filled == 4
        slots = q.slots
        enqueue_batch(q, np.stack([e, f]))
        assert q.slots is slots
        np.testing.assert_array_equal(q.slots, np.stack([e, f, c, d]))
        assert q.write_index == 2
        np.testing.assert_array_equal(q.insertion_order(), np.stack([c, d, e, f]))

    def test_batch_exceeds_capacity(self):
        rng = np.random.default_rng(2)
        with pytest.raises(BatchExceedsCapacityError):
            enqueue_batch(MemoryQueue.empty(4, 3), random_unit_rows(5, 3, rng))

    def test_non_unit_key(self):
        with pytest.raises(NonUnitKeyError):
            enqueue_batch(MemoryQueue.empty(4, 3), np.array([[1.0, 1.0, 0.0]]))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DimensionMismatchError):
            enqueue_batch(MemoryQueue.empty(4, 3), random_unit_rows(1, 2, rng))

    def test_replay_oracle_random_sequences(self):
        # queue contents must always equal the last-K enqueued keys in
        # insertion order, across wraparound and partial fill
        rng = np.random.default_rng(5)
        for trial in range(10):
            capacity = int(rng.integers(1, 9))
            q = MemoryQueue.empty(capacity, 4)
            history: list[np.ndarray] = []
            for _ in range(30):
                batch = random_unit_rows(int(rng.integers(1, capacity + 1)), 4, rng)
                enqueue_batch(q, batch)
                history.extend(batch)
                expected = np.array(history[-capacity:])
                np.testing.assert_array_equal(q.insertion_order(), expected)
                assert q.filled == min(len(history), capacity)


class TestInfoNce:
    def test_no_negatives_gives_zero(self):
        q = np.array([1.0, 0.0, 0.0])
        assert info_nce(q, q, MemoryQueue.empty(4, 3), 0.5) == 0.0

    def test_hand_evaluated_value(self):
        q = np.array([1.0, 0.0, 0.0])
        queue = filled_queue(4, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        expected = -math.log(math.e / (math.e + 2.0))
        assert info_nce(q, q, queue, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.551445, abs=1e-6)

    def test_loss_decreases_as_temperature_drops(self):
        # when the positive similarity beats every negative, sharpening the
        # softmax can only shrink the loss; swept over a brute-force grid
        q = np.array([1.0, 0.0, 0.0])
        queue = filled_queue(4, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        grid = [2.0, 1.0, 0.5, 0.2, 0.1, 0.04, 0.01]
        losses = [info_nce(q, q, queue, t) for t in grid]
        for earlier, later in zip(losses, losses[1:]):
            assert later < earlier

    def test_positive_when_any_negatives(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = random_unit_rows(1, 5, rng)[0]
            pos = random_unit_rows(1, 5, rng)[0]
            queue = filled_queue(8, random_unit_rows(4, 5, rng))
            assert info_nce(q, pos, queue, 0.3) > 0.0

    def test_temperature_must_be_positive(self):
        q = np.array([1.0, 0.0])
        with pytest.raises(NonPositiveTemperatureError):
            info_nce(q, q, MemoryQueue.empty(2, 2), 0.0)

    def test_non_unit_inputs_rejected(self):
        q = np.array([1.0, 0.0])
        with pytest.raises(NonUnitInputError):
            info_nce(2.0 * q, q, MemoryQueue.empty(2, 2), 1.0)
        with pytest.raises(NonUnitInputError):
            info_nce(q, 0.5 * q, MemoryQueue.empty(2, 2), 1.0)

    def test_stable_at_low_temperature(self):
        rng = np.random.default_rng(7)
        q = random_unit_rows(1, 8, rng)[0]
        pos = random_unit_rows(1, 8, rng)[0]
        queue = filled_queue(64, random_unit_rows(64, 8, rng))
        loss = info_nce(q, pos, queue, 0.01)
        assert math.isfinite(loss) and loss >= 0.0


class TestInfoNceQueryGrad:
    def test_no_negatives_zero_grad(self):
        q = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(
            info_nce_query_grad(q, q, MemoryQueue.empty(4, 3), 1.0), 0.0, atol=1e-15
        )

    def test_hand_evaluated_instance(self):
        q = np.array([1.0, 0.0, 0.0])
        queue = filled_queue(4, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        grad = info_nce_query_grad(q, q, queue, 1.0)
        np.testing.assert_allclose(grad, [-0.42388, 0.21194, 0.21194], atol=1e-5)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        q = random_unit_rows(1, 8, rng)[0]
        pos = random_unit_rows(1, 8, rng)[0]
        queue = filled_queue(16, random_unit_rows(16, 8, rng))
        analytic = info_nce_query_grad(q, pos, queue, 0.2)

        # perturbing the query breaks unit norm, so diff the raw softmax
        # objective with the same constant keys
        def objective():
            sims = np.concatenate([[np.dot(q, pos)], queue.negatives() @ q]) / 0.2
            peak = sims.max()
            return float(peak + np.log(np.sum(np.exp(sims - peak))) - sims[0])

        numeric = central_difference(objective, [q], step=1e-6)[0]
        assert max_rel_error([analytic], [numeric], floor=1e-3) < 1e-6


class TestSoftmaxEntropy:
    def test_monotone_in_temperature(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            sims = rng.uniform(-1.0, 1.0, size=rng.integers(2, 40))
            grid = [0.01, 0.04, 0.07, 0.1, 0.5, 1.0]
            entropies = [softmax_entropy(sims, t) for t in grid]
            for lo, hi in zip(entropies, entropies[1:]):
                assert hi >= lo - 1e-12

    def test_limits(self):
        sims = np.array([1.0, 0.0, 0.0])
        assert softmax_entropy(sims, 1e-3) == pytest.approx(0.0, abs=1e-6)
        assert softmax_entropy(sims, 1e3) == pytest.approx(math.log(3), abs=1e-3)

    def test_temperature_validation(self):
        with pytest.raises(NonPositiveTemperatureError):
            softmax_entropy(np.array([0.1, 0.2]), -1.0)


class TestBidirectionalLoss:
    def test_identical_towers_empty_queues_zero(self):
        rng = np.random.default_rng(10)
        params = init_params(6, 4, 3, rng)
        state = new_state(params, params.copy(), 0.9, 8, 0.1)
        state.base_b = params.copy()
        state.momentum_a = params.copy()
        state.momentum_b = params.copy()
        batch = [[0, 1], [2, 3]]
        loss = bidirectional_loss(state, batch, batch, Pooling.MEAN)
        assert loss.total == pytest.approx(0.0, abs=1e-12)
        assert loss.forward == pytest.approx(0.0, abs=1e-12)

    def test_total_is_sum_and_nonnegative(self):
        rng = np.random.default_rng(11)
        state = tiny_state(rng)
        batch_a = random_token_batch(rng, 4, 10)
        batch_b = random_token_batch(rng, 4, 10)
        enqueue_batch(state.queue_a, random_unit_rows(16, 8, rng))
        enqueue_batch(state.queue_b, random_unit_rows(16, 8, rng))
        loss = bidirectional_loss(state, batch_a, batch_b, Pooling.MEAN)
        assert loss.total == loss.forward + loss.backward
        assert loss.forward >= 0.0 and loss.backward >= 0.0

    def test_compositional_oracle(self):
        # the batched loss must equal the mean of independent per-pair calls
        rng = np.random.default_rng(12)
        state = tiny_state(rng)
        enqueue_batch(state.queue_a, random_unit_rows(16, 8, rng))
        enqueue_batch(state.queue_b, random_unit_rows(16, 8, rng))
        batch_a = random_token_batch(rng, 4, 10)
        batch_b = random_token_batch(rng, 4, 10)
        loss = bidirectional_loss(state, batch_a, batch_b, Pooling.MEAN)

        fwd = []
        bwd = []
        for sa, sb in zip(batch_a, batch_b):
            qa = encode(state.base_a, sa, Pooling.MEAN)
            qb = encode(state.base_b, sb, Pooling.MEAN)
            ka = encode(state.momentum_a, sa, Pooling.MEAN)
            kb = encode(state.momentum_b, sb, Pooling.MEAN)
            fwd.append(info_nce(qa, kb, state.queue_b, state.temperature))
            bwd.append(info_nce(qb, ka, state.queue_a, state.temperature))
        assert loss.forward == pytest.approx(float(np.mean(fwd)), abs=1e-12)
        assert loss.backward == pytest.approx(float(np.mean(bwd)), abs=1e-12)

    def test_batch_length_mismatch(self):
        rng = np.random.default_rng(13)
        state = tiny_state(rng)
        with pytest.raises(BatchLengthMismatchError):
            bidirectional_loss(state, [[0, 1]], [[0, 1], [2, 3]], Pooling.MEAN)

    def test_language_swap_symmetry(self):
        rng = np.random.default_rng(14)
        state = tiny_state(rng)
        enqueue_batch(state.queue_a, random_unit_rows(10, 8, rng))
        enqueue_batch(state.queue_b, random_unit_rows(7, 8, rng))
        batch_a = random_token_batch(rng, 3, 10)
        batch_b = random_token_batch(rng, 3, 10)
        loss = bidirectional_loss(state, batch_a, batch_b, Pooling.MEAN)

        swapped = DualMocoState(
            base_a=state.base_b,
            base_b=state.base_a,
            momentum_a=state.momentum_b,
            momentum_b=state.momentum_a,
            queue_a=state.queue_b,
            queue_b=state.queue_a,
            temperature=state.temperature,
            momentum=state.momentum,
        )
        mirrored = bidirectional_loss(swapped, batch_b, batch_a, Pooling.MEAN)
        assert mirrored.forward == loss.backward
        assert mirrored.backward == loss.forward

    def test_does_not_mutate_state(self):
        rng = np.random.default_rng(15)
        state = tiny_state(rng)
        before = [a.copy() for a in state.base_a.arrays()] + [state.queue_a.slots.copy()]
        bidirectional_loss(state, random_token_batch(rng, 2, 10), random_token_batch(rng, 2, 10), "mean")
        after = list(state.base_a.arrays()) + [state.queue_a.slots]
        for x, y in zip(before, after):
            np.testing.assert_array_equal(x, y)


class TestMocoStep:
    def test_momentum_constant_at_m_one(self):
        rng = np.random.default_rng(16)
        state = tiny_state(rng, m=1.0)
        batch_a = random_token_batch(rng, 2, 10)
        batch_b = random_token_batch(rng, 2, 10)
        frozen = [a.copy() for a in state.momentum_a.arrays()]
        for _ in range(2):
            moco_step(state, batch_a, batch_b, Pooling.MEAN)
        for a, b in zip(frozen, state.momentum_a.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_queues_grow_by_batch_size(self):
        rng = np.random.default_rng(17)
        state = tiny_state(rng, capacity=16)
        batch_a = random_token_batch(rng, 4, 10)
        batch_b = random_token_batch(rng, 4, 10)
        moco_step(state, batch_a, batch_b, Pooling.MEAN)
        assert state.queue_a.filled == 4 and state.queue_b.filled == 4
        moco_step(state, batch_a, batch_b, Pooling.MEAN)
        assert state.queue_a.filled == 8

    def test_keys_use_updated_momentum_params(self):
        # with m = 0 the EMA collapses onto the base, so the enqueued keys
        # must equal fresh base-encoder outputs, not the old momentum ones
        rng = np.random.default_rng(18)
        state = tiny_state(rng, m=0.0)
        batch_a = random_token_batch(rng, 3, 10)
        batch_b = random_token_batch(rng, 3, 10)
        moco_step(state, batch_a, batch_b, Pooling.MEAN)
        np.testing.assert_array_equal(
            state.queue_a.insertion_order(), encode_batch(state.base_a, batch_a, Pooling.MEAN)
        )

    def test_base_params_untouched(self):
        # advance_state leaves both bases bit-unchanged and mutates only the
        # momentum towers and the queues, in their own buffers
        rng = np.random.default_rng(19)
        state = tiny_state(rng)
        bases = [a.copy() for a in (*state.base_a.arrays(), *state.base_b.arrays())]
        towers = [a.copy() for a in (*state.momentum_a.arrays(), *state.momentum_b.arrays())]
        buffers = [*state.momentum_a.arrays(), *state.momentum_b.arrays()]
        slots = (state.queue_a.slots, state.queue_b.slots)
        advance_state(
            state, random_token_batch(rng, 2, 10), random_token_batch(rng, 2, 10), "mean"
        )
        for a, b in zip(bases, (*state.base_a.arrays(), *state.base_b.arrays())):
            np.testing.assert_array_equal(a, b)
        after = [*state.momentum_a.arrays(), *state.momentum_b.arrays()]
        assert all(a is b for a, b in zip(after, buffers))
        for tower, base, blended in zip(towers, bases, after):
            np.testing.assert_array_equal(blended, 0.9 * tower + (1.0 - 0.9) * base)
        assert state.queue_a.slots is slots[0] and state.queue_b.slots is slots[1]
        assert state.queue_a.filled == state.queue_b.filled == 2
        assert state.queue_a.slots[:2].any() and not state.queue_a.slots[2:].any()

    def test_momentum_perturbation_moves_loss_not_grad_structure(self):
        rng = np.random.default_rng(20)
        state = tiny_state(rng)
        enqueue_batch(state.queue_b, random_unit_rows(8, 8, rng))
        enqueue_batch(state.queue_a, random_unit_rows(8, 8, rng))
        batch_a = random_token_batch(rng, 3, 10)
        batch_b = random_token_batch(rng, 3, 10)
        loss1, ga, gb = loss_and_gradients(state, batch_a, batch_b, "mean")
        # gradients exist only for the two bases; keys are constants
        assert len(ga.arrays()) == 3 and len(gb.arrays()) == 3
        state.momentum_b.embedding += 0.05 * rng.normal(size=(10, 8))
        loss2, _, _ = loss_and_gradients(state, batch_a, batch_b, "mean")
        assert loss1.total != loss2.total

    def test_full_step_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        state = tiny_state(rng)
        enqueue_batch(state.queue_a, random_unit_rows(16, 8, rng))
        enqueue_batch(state.queue_b, random_unit_rows(16, 8, rng))
        batch_a = random_token_batch(rng, 4, 10)
        batch_b = random_token_batch(rng, 4, 10)
        _, grads_a, grads_b = loss_and_gradients(state, batch_a, batch_b, Pooling.MEAN)

        def objective():
            return bidirectional_loss(state, batch_a, batch_b, Pooling.MEAN).total

        numeric_a = central_difference(objective, state.base_a.arrays(), step=1e-6)
        numeric_b = central_difference(objective, state.base_b.arrays(), step=1e-6)
        assert max_rel_error(grads_a.arrays(), numeric_a) < 1e-5
        assert max_rel_error(grads_b.arrays(), numeric_b) < 1e-5


class TestNceKernel:
    """The one-exp kernel against the two-exp reference, over queue fills,
    temperatures and batch sizes; the inputs must come back bit-unchanged."""

    @pytest.mark.parametrize("fill", [0, 37, 256])
    @pytest.mark.parametrize("temperature", [0.01, 0.04, 0.3, 1.0])
    @pytest.mark.parametrize("n", [1, 5, 64, 128])
    def test_matches_two_exp_reference(self, fill, temperature, n):
        rng = np.random.default_rng(1000 * fill + n + int(100 * temperature))
        queue = MemoryQueue.empty(256, 32)
        if fill:
            enqueue_batch(queue, random_unit_rows(fill, 32, rng))
        queries = random_unit_rows(n, 32, rng)
        positives = random_unit_rows(n, 32, rng)
        before = [a.tobytes() for a in (queue.slots, queries, positives)]
        losses, grads = moco._nce_batch(queries, positives, queue.negatives(), temperature)
        assert [a.tobytes() for a in (queue.slots, queries, positives)] == before
        want_losses, want_grads = reference_nce_batch(queries, positives, queue.negatives(), temperature)
        assert losses.shape == (n,) and grads.shape == (n, 32)
        assert np.max(np.abs(losses - want_losses)) <= 1e-12
        assert np.max(np.abs(grads - want_grads)) <= 1e-12

    @pytest.mark.parametrize("fill", [0, 4096])
    @pytest.mark.parametrize("temperature", [0.01, 0.04])
    def test_matches_reference_at_multitask_scale(self, fill, temperature):
        # batch 128 against a full 4,096-entry queue, as `train --nli
        # --batch-size 128 --queue-size 4096` runs it, and against none
        rng = np.random.default_rng(fill + int(1000 * temperature))
        queue = MemoryQueue.empty(4096, 32)
        if fill:
            enqueue_batch(queue, random_unit_rows(fill, 32, rng))
        queries = random_unit_rows(128, 32, rng)
        positives = random_unit_rows(128, 32, rng)
        before = [a.tobytes() for a in (queue.slots, queries, positives)]
        losses, grads = moco._nce_batch(queries, positives, queue.negatives(), temperature)
        assert [a.tobytes() for a in (queue.slots, queries, positives)] == before
        want_losses, want_grads = reference_nce_batch(queries, positives, queue.negatives(), temperature)
        assert np.max(np.abs(losses - want_losses)) <= 1e-12
        assert np.max(np.abs(grads - want_grads)) <= 1e-12

    def test_aliased_inputs_are_only_read(self):
        # queries that are their own positives, negatives that are the queries
        rng = np.random.default_rng(2)
        queries = random_unit_rows(16, 8, rng)
        before = queries.tobytes()
        losses, grads = moco._nce_batch(queries, queries, queries, 0.05)
        assert queries.tobytes() == before
        want_losses, want_grads = reference_nce_batch(queries, queries, queries, 0.05)
        assert np.max(np.abs(losses - want_losses)) <= 1e-12
        assert np.max(np.abs(grads - want_grads)) <= 1e-12


class TestPackedStep:
    @pytest.mark.parametrize("pooling", list(Pooling))
    def test_gradients_equal_token_list_passes_bitwise(self, pooling):
        # loss_and_gradients packs each side once and reuses each query
        # forward pass; the same step from token lists, with encode_backward
        # running its own forward pass, must give the same bits
        rng = np.random.default_rng(30)
        state = tiny_state(rng, vocab=40, d_emb=16, d_out=16, capacity=64, temperature=0.05)
        enqueue_batch(state.queue_a, random_unit_rows(40, 16, rng))
        enqueue_batch(state.queue_b, random_unit_rows(40, 16, rng))
        batch_a = random_token_batch(rng, 24, 40, min_len=1, max_len=12)
        batch_b = random_token_batch(rng, 24, 40, min_len=1, max_len=12)
        loss, grads_a, grads_b = loss_and_gradients(state, batch_a, batch_b, pooling)

        keys_a = encode_batch(state.momentum_a, batch_a, pooling)
        keys_b = encode_batch(state.momentum_b, batch_b, pooling)
        queries_a = encode_batch(state.base_a, batch_a, pooling)
        queries_b = encode_batch(state.base_b, batch_b, pooling)
        fwd, g_a = moco._nce_batch(queries_a, keys_b, state.queue_b.negatives(), state.temperature)
        bwd, g_b = moco._nce_batch(queries_b, keys_a, state.queue_a.negatives(), state.temperature)
        want_a = encode_backward(state.base_a, batch_a, pooling, g_a / 24)
        want_b = encode_backward(state.base_b, batch_b, pooling, g_b / 24)
        assert (loss.forward, loss.backward) == (float(fwd.mean()), float(bwd.mean()))
        for got, want in ((grads_a, want_a), (grads_b, want_b)):
            assert [g.tobytes() for g in got.arrays()] == [w.tobytes() for w in want.arrays()]


class TestStateSerialization:
    def test_temperature_validated(self):
        rng = np.random.default_rng(23)
        params = init_params(4, 3, 2, rng)
        with pytest.raises(NonPositiveTemperatureError):
            new_state(params, params.copy(), 0.9, 4, 0.0)

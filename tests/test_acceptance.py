"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Heavy fixtures (the training runs) are module-scoped and shared
across criteria; every run is deterministic, so the printed numbers are
stable for a given package version.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    central_difference,
    max_rel_error,
    random_token_batch,
    random_unit_rows,
    reference_mine_bitext,
)
from test_evaluation import brute_force_threshold, naive_nn
from test_numerics import rank_formula_rho

from dualmoco import datagen, evaluation, trainer
from dualmoco.encoder import Pooling, encode, encode_batch, init_params
from dualmoco.moco import (
    MemoryQueue,
    bidirectional_loss,
    enqueue_batch,
    loss_and_gradients,
    momentum_update,
    new_state,
    softmax_entropy,
)
from dualmoco.numerics import spearman_correlation

TAU_GRID = (0.01, 0.04, 0.07, 0.1)
QUEUE_GRID = (64, 256, 1024)
SWEEP_EPOCHS = 3  # sweep runs use a shortened schedule; tables are report-only


def report(name, ok, detail):
    print(f"[acceptance] {name}: {detail} -> {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def world():
    lexicon = datagen.make_lexicon(380, 20, seed=0)
    corpus = datagen.gen_parallel_corpus(lexicon, 5000, 500, 1000, seed=1)
    sts = datagen.gen_sts_pairs(lexicon, 500, seed=2)
    nli = datagen.gen_nli_triples(lexicon, 1200, seed=3)
    mining_val = datagen.gen_mining_corpus(lexicon, 400, 400, 0.1, seed=4)
    mining_test = datagen.gen_mining_corpus(lexicon, 400, 400, 0.1, seed=5)
    return lexicon, corpus, sts, nli, mining_val, mining_test


def timed_train(config, corpus, lexicon, **kwargs):
    start = time.perf_counter()
    result = trainer.train(
        config,
        corpus,
        vocab_size_a=lexicon.vocab_size_a,
        vocab_size_b=lexicon.vocab_size_b,
        **kwargs,
    )
    return result, time.perf_counter() - start


def held_out_accuracy(result, corpus, pooling, split="test"):
    pairs = corpus.split(split)
    embs_a = encode_batch(result.state.base_a, [p.tokens_a for p in pairs], pooling)
    embs_b = encode_batch(result.state.base_b, [p.tokens_b for p in pairs], pooling)
    return evaluation.retrieval_accuracy(embs_a, embs_b)


@pytest.fixture(scope="module")
def default_run(world):
    lexicon, corpus, _, _, _, _ = world
    return timed_train(trainer.TrainConfig(), corpus, lexicon)


@pytest.fixture(scope="module")
def nli_run(world):
    lexicon, corpus, _, nli, _, _ = world
    return timed_train(trainer.TrainConfig(), corpus, lexicon, nli_data=nli)


@pytest.fixture(scope="module")
def ablation_run(world):
    lexicon, corpus, _, _, _, _ = world
    return timed_train(trainer.TrainConfig(ablation_no_momentum=True), corpus, lexicon)


# ---------------------------------------------------------------------------
# Criterion: gradient fidelity of the full bidirectional loss
# ---------------------------------------------------------------------------


def test_gradient_fidelity():
    start = time.perf_counter()
    tolerance = 1e-5
    worst = 0.0
    poolings = [Pooling.MEAN, Pooling.MAX, Pooling.FIRST]
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        pooling = poolings[trial % 3]
        state = new_state(
            init_params(10, 8, 8, rng), init_params(10, 8, 8, rng), 0.9, 16, 0.07
        )
        state.momentum_a.embedding += 0.1 * rng.normal(size=(10, 8))
        state.momentum_b.proj_w += 0.1 * rng.normal(size=(8, 8))
        enqueue_batch(state.queue_a, random_unit_rows(16, 8, rng))
        enqueue_batch(state.queue_b, random_unit_rows(16, 8, rng))
        batch_a = random_token_batch(rng, 4, 10)
        batch_b = random_token_batch(rng, 4, 10)

        _, grads_a, grads_b = loss_and_gradients(state, batch_a, batch_b, pooling)

        def objective():
            return bidirectional_loss(state, batch_a, batch_b, pooling).total

        numeric = central_difference(
            objective, list(state.base_a.arrays()) + list(state.base_b.arrays()), step=1e-6
        )
        analytic = list(grads_a.arrays()) + list(grads_b.arrays())
        worst = max(worst, max_rel_error(analytic, numeric, floor=1e-3))
    elapsed = time.perf_counter() - start
    ok = worst < tolerance and elapsed < 30.0
    report(
        "gradient fidelity",
        ok,
        f"max rel err {worst:.3e} over 20 instances (tol {tolerance:.0e}), {elapsed:.1f}s (< 30s)",
    )
    assert worst < tolerance
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# Criterion: EMA closed form
# ---------------------------------------------------------------------------


def test_ema_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    base = init_params(12, 6, 5, rng)  # frozen theta*
    initial = init_params(12, 6, 5, rng)  # theta_0
    m = 0.97
    T = 40
    momentum = initial.copy()
    for _ in range(T):
        momentum_update(base, momentum, m)
    worst = 0.0
    for theta_t, theta_star, theta_0 in zip(momentum.arrays(), base.arrays(), initial.arrays()):
        expected = theta_star + m**T * (theta_0 - theta_star)
        worst = max(worst, float(np.max(np.abs(theta_t - expected))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report("ema exactness", ok, f"max |theta_T - closed form| = {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion: queue semantics against a replay oracle
# ---------------------------------------------------------------------------


def test_queue_semantics_replay():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    capacity = 64
    queue = MemoryQueue.empty(capacity, 8)
    history = []
    enqueued = 0
    checks = 0
    while enqueued < 1000:
        batch = random_unit_rows(int(rng.integers(1, capacity + 1)), 8, rng)
        batch = batch[: 1000 - enqueued]
        enqueue_batch(queue, batch)
        history.extend(batch)
        enqueued += len(batch)
        expected = np.array(history[-capacity:])
        np.testing.assert_array_equal(queue.insertion_order(), expected)
        assert queue.filled == min(enqueued, capacity)
        checks += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    report(
        "queue semantics",
        ok,
        f"1000 enqueues, replay oracle matched after each of {checks} batches, {elapsed:.2f}s (< 1s)",
    )
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion: momentum ablation runs to completion (comparison is report-only)
# ---------------------------------------------------------------------------


def test_momentum_ablation_completes(world, default_run, ablation_run):
    _, corpus, _, _, _, _ = world
    baseline, _ = default_run
    ablated, _ = ablation_run
    config = trainer.TrainConfig()
    assert config.queue_capacity >= 10 * config.batch_size
    assert all(math.isfinite(r["loss_total"]) for r in ablated.step_records)
    acc_with = held_out_accuracy(baseline, corpus, config.pooling)
    acc_without = held_out_accuracy(ablated, corpus, config.pooling)
    # parameter sharing must have held throughout
    for a, b in zip(ablated.state.base_a.arrays(), ablated.state.momentum_a.arrays()):
        np.testing.assert_array_equal(a, b)
    report(
        "momentum ablation",
        True,
        f"run completed; test acc with momentum {acc_with[0]:.3f}/{acc_with[1]:.3f} "
        f"vs without {acc_without[0]:.3f}/{acc_without[1]:.3f} (comparison report-only)",
    )


# ---------------------------------------------------------------------------
# Criterion: synthetic retrieval accuracy
# ---------------------------------------------------------------------------


def test_synthetic_retrieval(world, default_run):
    _, corpus, _, _, _, _ = world
    result, train_seconds = default_run
    start = time.perf_counter()
    acc_ab, acc_ba = held_out_accuracy(result, corpus, trainer.TrainConfig().pooling)
    elapsed = train_seconds + (time.perf_counter() - start)
    ok = acc_ab >= 0.95 and acc_ba >= 0.95 and elapsed < 300.0
    report(
        "synthetic retrieval",
        ok,
        f"held-out acc ab={acc_ab:.4f} ba={acc_ba:.4f} (>= 0.95 both), {elapsed:.0f}s (< 300s)",
    )
    assert acc_ab >= 0.95
    assert acc_ba >= 0.95
    assert elapsed < 300.0


def test_default_run_loss_decreases(default_run):
    result, _ = default_run
    losses = [r["loss_total"] for r in result.step_records]
    early = float(np.mean(losses[:50]))
    late = float(np.mean(losses[-50:]))
    ok = early > late
    report(
        "training signal",
        ok,
        f"mean loss steps 1-50 = {early:.3f} > final 50 = {late:.3f}",
    )
    assert early > late


def test_monolingual_transfer_after_training(world, default_run):
    # |cos(x_i, x_j) - cos(x_i, y_j)| <= 2 ||x_j - y_j||, and training makes
    # the right side small, so same-language similarity tracks the
    # cross-language similarity the loss optimizes directly
    _, corpus, _, _, _, _ = world
    result, _ = default_run
    pooling = trainer.TrainConfig().pooling
    pairs = corpus.split("test")[:200]
    embs_a = encode_batch(result.state.base_a, [p.tokens_a for p in pairs], pooling)
    embs_b = encode_batch(result.state.base_b, [p.tokens_b for p in pairs], pooling)
    gaps = np.linalg.norm(embs_a - embs_b, axis=1)
    xi = embs_a[0]
    worst = 0.0
    for j in range(1, len(pairs)):
        lhs = abs(float(xi @ embs_a[j]) - float(xi @ embs_b[j]))
        assert lhs <= 2.0 * float(gaps[j]) + 1e-12
        worst = max(worst, lhs)
    report(
        "monolingual transfer",
        True,
        f"bound holds; mean pair gap ||h_a - h_b|| = {float(gaps.mean()):.4f}, "
        f"max same-language similarity shift {worst:.4f}",
    )


# ---------------------------------------------------------------------------
# Criterion: synthetic mining with validation-tuned threshold
# ---------------------------------------------------------------------------


def test_synthetic_mining(world, default_run):
    _, _, _, _, mining_val, mining_test = world
    result, _ = default_run
    pooling = trainer.TrainConfig().pooling
    start = time.perf_counter()

    def run_variant(variant):
        val_a = encode_batch(result.state.base_a, mining_val.side_a, pooling)
        val_b = encode_batch(result.state.base_b, mining_val.side_b, pooling)
        scored = evaluation.mine_bitext(val_a, val_b, k=3, variant=variant).scored
        lam, _ = evaluation.search_threshold(scored, mining_val.gold_pairs)
        test_a = encode_batch(result.state.base_a, mining_test.side_a, pooling)
        test_b = encode_batch(result.state.base_b, mining_test.side_b, pooling)
        mined = evaluation.mine_bitext(test_a, test_b, k=3, variant=variant, threshold=lam)
        _, _, score = evaluation.f1(mined.accepted, mining_test.gold_pairs)
        return lam, score

    lam_d, f1_distance = run_variant("distance")
    _, f1_ratio = run_variant("ratio")
    elapsed = time.perf_counter() - start
    ok = f1_distance >= 0.90 and f1_distance >= f1_ratio - 0.02 and elapsed < 120.0
    report(
        "synthetic mining",
        ok,
        f"distance f1={f1_distance:.4f} (>= 0.90, lambda={lam_d:.3f}), ratio f1={f1_ratio:.4f}, "
        f"non-inferiority margin 0.02, {elapsed:.0f}s (< 120s)",
    )
    assert f1_distance >= 0.90
    assert f1_distance >= f1_ratio - 0.02
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# Criterion: synthetic similarity correlation, with and without the
# multitask inference head
# ---------------------------------------------------------------------------


def test_synthetic_sts(world, default_run, nli_run):
    _, _, sts, _, _, _ = world
    base_result, base_seconds = default_run
    nli_result, nli_seconds = nli_run
    pooling = trainer.TrainConfig().pooling
    start = time.perf_counter()
    rho_base = evaluation.sts_eval(base_result.state.base_a, sts, pooling)
    rho_nli = evaluation.sts_eval(nli_result.state.base_a, sts, pooling)
    elapsed = base_seconds + nli_seconds + (time.perf_counter() - start)
    ok = rho_base >= 0.60 and rho_nli >= rho_base - 0.05 and elapsed < 360.0
    report(
        "synthetic sts",
        ok,
        f"spearman={rho_base:.4f} (>= 0.60); with inference head {rho_nli:.4f} "
        f"(>= {rho_base - 0.05:.4f}), {elapsed:.0f}s (< 360s)",
    )
    assert rho_base >= 0.60
    assert rho_nli >= rho_base - 0.05
    assert elapsed < 360.0


# ---------------------------------------------------------------------------
# Criterion: temperature sweep with per-step entropy monotonicity
# ---------------------------------------------------------------------------


def test_temperature_sweep(world):
    lexicon, corpus, sts, _, _, _ = world
    pooling = trainer.TrainConfig().pooling
    rows = []
    total_violations = 0
    total_steps = 0
    for tau in TAU_GRID:
        violations = []

        def probe(step, state, batch_a, batch_b):
            # softmax distribution inside the contrastive loss for the
            # step's first pair, evaluated across the whole grid
            q = encode(state.base_a, batch_a[0], pooling)
            k = encode(state.momentum_b, batch_b[0], pooling)
            sims = np.concatenate([[float(q @ k)], state.queue_b.negatives() @ q])
            entropies = [softmax_entropy(sims, t) for t in TAU_GRID]
            bad = any(hi < lo - 1e-12 for lo, hi in zip(entropies, entropies[1:]))
            violations.append(bad)

        config = trainer.TrainConfig(epochs=SWEEP_EPOCHS, temperature=tau)
        result, _ = timed_train(config, corpus, lexicon, step_probe=probe)
        acc = held_out_accuracy(result, corpus, pooling)
        rho = evaluation.sts_eval(result.state.base_a, sts, pooling)
        rows.append((tau, acc[0], acc[1], rho))
        total_violations += sum(violations)
        total_steps += len(violations)

    print("\n  temperature   acc_ab   acc_ba   sts_spearman   (shortened schedule)")
    for tau, ab, ba, rho in rows:
        print(f"  {tau:<13g} {ab:<8.4f} {ba:<8.4f} {rho:.4f}")
    best_tau = max(rows, key=lambda r: r[3])[0]
    ok = total_violations == 0
    report(
        "temperature sweep",
        ok,
        f"entropy monotone at every one of {total_steps} steps across {len(TAU_GRID)} runs; "
        f"best sts at tau={best_tau:g} (optimum report-only)",
    )
    assert total_violations == 0


# ---------------------------------------------------------------------------
# Criterion: queue-size sweep completes and emits the comparison table
# ---------------------------------------------------------------------------


def test_queue_size_sweep(world):
    lexicon, corpus, _, _, _, _ = world
    pooling = trainer.TrainConfig().pooling
    rows = []
    for capacity in QUEUE_GRID:
        config = trainer.TrainConfig(epochs=SWEEP_EPOCHS, queue_capacity=capacity)
        result, _ = timed_train(config, corpus, lexicon)
        acc = held_out_accuracy(result, corpus, pooling)
        assert all(math.isfinite(r["loss_total"]) for r in result.step_records)
        rows.append((capacity, acc[0], acc[1]))
    print("\n  queue size   acc_ab   acc_ba   (shortened schedule, trend report-only)")
    for capacity, ab, ba in rows:
        print(f"  {capacity:<12d} {ab:<8.4f} {ba:.4f}")
    report(
        "queue-size sweep",
        True,
        "runs completed for K in {64, 256, 1024}; accuracy table emitted",
    )


# ---------------------------------------------------------------------------
# Criterion: oracle equivalences
# ---------------------------------------------------------------------------


def test_oracle_nn_search_vs_naive_loop():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    queries = random_unit_rows(50, 8, rng)
    corpus = random_unit_rows(50, 8, rng)
    for k in (1, 3, 10):
        mine = evaluation.nn_search(queries, corpus, k)
        oracle_idx, oracle_sims = naive_nn(queries, corpus, k)
        np.testing.assert_array_equal(mine.indices, oracle_idx)
        np.testing.assert_allclose(mine.sims, oracle_sims, atol=1e-12)
    elapsed = time.perf_counter() - start
    report("oracle: nn_search", elapsed < 5.0, f"identical to naive loop, {elapsed:.2f}s (< 5s)")
    assert elapsed < 5.0


def test_oracle_threshold_search_vs_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(56)
    for _ in range(30):
        n = int(rng.integers(4, 25))
        scored = [(i, i, float(rng.uniform(-1, 1))) for i in range(n)]
        gold = [(i, i) for i in range(n) if rng.random() < 0.35] or [(0, 0)]
        lam, best = evaluation.search_threshold(scored, gold)
        oracle_lam, oracle_best = brute_force_threshold(scored, gold)
        assert best == pytest.approx(oracle_best, abs=1e-12)
        assert lam == pytest.approx(oracle_lam, abs=1e-12)
    elapsed = time.perf_counter() - start
    report(
        "oracle: search_threshold", elapsed < 5.0, f"matches brute-force sweep, {elapsed:.2f}s (< 5s)"
    )
    assert elapsed < 5.0


def test_oracle_spearman_vs_rank_formula():
    start = time.perf_counter()
    rng = np.random.default_rng(57)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        xs = rng.permutation(n).astype(float)
        ys = rng.permutation(n).astype(float)
        assert spearman_correlation(xs, ys) == pytest.approx(rank_formula_rho(xs, ys), abs=1e-12)
    elapsed = time.perf_counter() - start
    report(
        "oracle: spearman", elapsed < 5.0, f"matches rank-difference formula, {elapsed:.2f}s (< 5s)"
    )
    assert elapsed < 5.0


def test_oracle_exhaustive_vs_union_candidates():
    # on instances whose gold pairs are mutual rank-1 neighbors, mining from
    # the union-of-rank-1 candidate set accepts exactly the same pairs as
    # exhaustive scoring at the validation-tuned threshold
    start = time.perf_counter()
    rng = np.random.default_rng(58)
    instances = 0
    while instances < 5:
        side_a = random_unit_rows(20, 8, rng)
        side_b = random_unit_rows(20, 8, rng)
        gold = [(i, i) for i in range(6)]
        for i, _ in gold:
            mixed = side_a[i] + 0.15 * rng.normal(size=8)
            side_b[i] = mixed / np.linalg.norm(mixed)
        fwd = evaluation.nn_search(side_a, side_b, 1).indices[:, 0]
        bwd = evaluation.nn_search(side_b, side_a, 1).indices[:, 0]
        if not all(fwd[i] == j and bwd[j] == i for i, j in gold):
            continue  # only mutual-rank-1 instances are in scope
        instances += 1
        exhaustive = reference_mine_bitext(side_a, side_b, k=3, exhaustive=True)
        lam, _ = evaluation.search_threshold(exhaustive.scored, gold)
        accepted_exhaustive = {
            (i, j) for i, j, s in exhaustive.scored if s > lam
        }
        union = evaluation.mine_bitext(side_a, side_b, k=3, threshold=lam)
        assert set(union.accepted) == accepted_exhaustive
    elapsed = time.perf_counter() - start
    report(
        "oracle: mining candidates",
        elapsed < 5.0,
        f"union-of-rank-1 equals exhaustive on {instances} mutual-NN instances, "
        f"{elapsed:.2f}s (< 5s)",
    )
    assert elapsed < 5.0

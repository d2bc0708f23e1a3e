"""Every layer boundary the benchmark tracer wraps names a function in dualmoco,
and the top-k span, the mining counters and the EMA span it reads keep their
meaning.

The tracer skips a boundary whose function is gone and reports it as absent,
so a rename would otherwise drop a per-layer metric without failing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from helpers import random_unit_rows

from dualmoco import datagen, evaluation, trainer

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_names_a_dualmoco_callable():
    tracer = load_tracer()
    entries = [entry[:2] for entry in (*tracer.BOUNDARIES, *tracer.COUNT_ONLY)]
    assert len(entries) >= 40
    absent = [
        f"dualmoco.{module_name}.{attr}"
        for module_name, attr in entries
        if not callable(getattr(importlib.import_module(f"dualmoco.{module_name}"), attr, None))
    ]
    assert absent == []


def install_tracer(monkeypatch):
    """Wrap every boundary in a fresh trace; monkeypatch restores the originals."""
    tracer = load_tracer()
    for module_name, attr, *_ in (*tracer.BOUNDARIES, *tracer.COUNT_ONLY):
        module = importlib.import_module(f"dualmoco.{module_name}")
        monkeypatch.setattr(module, attr, getattr(module, attr))
    trace = tracer.Tracer()
    assert tracer.install(trace) == []
    return trace


def test_top_k_is_one_span_per_search_block_and_mining_side(monkeypatch):
    trace = install_tracer(monkeypatch)
    rng = np.random.default_rng(41)
    src, tgt = random_unit_rows(1100, 4, rng), random_unit_rows(1100, 4, rng)
    evaluation.retrieval_accuracy(src, tgt)
    layers = trace.summary()["layers"]
    assert layers["evaluation.nn_search"]["calls"] == 2
    assert layers["evaluation.top_k"]["calls"] == 2 * 3  # 1,100 queries in 512-row blocks, both ways
    evaluation.mine_bitext(random_unit_rows(30, 4, rng), random_unit_rows(25, 4, rng))
    layers = trace.summary()["layers"]
    assert layers["evaluation.nn_search"]["calls"] == 2 + 2  # mining searches each side once
    assert layers["evaluation.top_k"]["calls"] == 2 * 3 + 2


def test_mining_counters_read_whole_candidate_lists(monkeypatch):
    trace = install_tracer(monkeypatch)
    rng = np.random.default_rng(40)
    val = evaluation.mine_bitext(random_unit_rows(30, 6, rng), random_unit_rows(25, 6, rng))
    lam, _ = evaluation.search_threshold(val.scored, [(i, j) for i, j, _ in val.scored[::3]])
    assert np.isfinite(lam)
    test = evaluation.mine_bitext(random_unit_rows(20, 6, rng), random_unit_rows(35, 6, rng), threshold=lam)
    summary = trace.summary()
    mining = summary["layers"]["evaluation.mine_bitext"]
    assert mining["calls"] == 2
    assert mining["candidates"] == len(val.scored) + len(test.scored)
    assert mining["thresholded_candidates"] == len(test.scored)
    assert mining["accepted"] == len(test.accepted)
    assert summary["layers"]["evaluation.search_threshold"]["calls"] == 1
    assert summary["counters"]["evaluation.margin_score_calls"] == 2


def test_one_ema_per_training_step(monkeypatch):
    trace = install_tracer(monkeypatch)
    lexicon = datagen.make_lexicon(40, 4, seed=0)
    corpus = datagen.gen_parallel_corpus(
        lexicon, n_train=64, n_val=16, n_test=16, len_range=(3, 5), seed=1
    )
    config = trainer.TrainConfig(
        epochs=2, batch_size=16, queue_capacity=32, d_emb=4, d_out=4, warmup_steps=1
    )
    trainer.train(config, corpus, vocab_size=lexicon.vocab_size)
    layers = trace.summary()["layers"]
    assert layers["trainer.step"]["calls"] == 2 * 64 // 16
    assert layers["moco.ema"]["calls"] == layers["trainer.step"]["calls"]


def test_batch_counts_read_sequences_of_a_token_table(monkeypatch):
    # a batch is an encoder.TokenTable, whose len() counts its sequences
    trace = install_tracer(monkeypatch)
    lexicon = datagen.make_lexicon(40, 4, seed=0)
    corpus = datagen.gen_parallel_corpus(
        lexicon, n_train=64, n_val=12, n_test=16, len_range=(3, 5), seed=1
    )
    nli = datagen.gen_nli_triples(lexicon, 20, seed=2)
    config = trainer.TrainConfig(
        epochs=2, batch_size=16, queue_capacity=32, d_emb=4, d_out=4, warmup_steps=1, nli_batch_size=6
    )
    trainer.train(config, corpus, nli_data=nli, vocab_size=lexicon.vocab_size)
    summary = trace.summary()
    steps = [counts for name, _, _, _, counts in summary["spans"] if name == "trainer.step"]
    assert steps == [{"pairs": 16}] * (2 * 64 // 16)
    layers = summary["layers"]
    # each step encodes both sides' keys and runs a backward pass over both
    # sides and both inference fields; each epoch encodes both validation sides
    assert summary["step_forward_sents"] == len(steps) * 2 * 16
    assert layers["encoder.forward"]["sents"] == len(steps) * 2 * 16 + 2 * 2 * 12
    assert layers["encoder.backward"]["sents"] == len(steps) * 2 * (16 + 6)

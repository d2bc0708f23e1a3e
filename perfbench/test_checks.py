"""The benchmark's output checks accept a real run and reject broken outputs.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from dualmoco import cli  # noqa: E402
from dualmoco.encoder import encode_batch, init_params  # noqa: E402

EPOCHS, BATCH = 4, 64


@pytest.fixture(scope="module")
def small_run(tmp_path_factory) -> Path:
    """A complete small pipeline run, made once through the CLI."""
    base = tmp_path_factory.mktemp("run")
    d = str(base)
    stages = [
        ["gen-data", "--out", f"{d}/data", "--seed", "3", "--train-pairs", "1280", "--val-pairs", "100",
         "--test-pairs", "200", "--sts-pairs", "100", "--nli-triples", "30",
         "--mining-side-a", "150", "--mining-side-b", "150"],
        ["train", "--data", f"{d}/data", "--out", f"{d}/run", "--epochs", str(EPOCHS)],
        ["embed", "--checkpoint", f"{d}/run/checkpoint.bin", "--data", f"{d}/data", "--split", "test",
         "--out", f"{d}/embs"],
        ["eval-retrieval", "--src", f"{d}/embs/test_a.emb", "--tgt", f"{d}/embs/test_b.emb",
         "--out", f"{d}/retrieval.json"],
        ["mine", "--checkpoint", f"{d}/run/checkpoint.bin", "--data", f"{d}/data", "--out", f"{d}/mining.json"],
        ["eval-sts", "--checkpoint", f"{d}/run/checkpoint.bin", "--data", f"{d}/data", "--out", f"{d}/sts.json"],
    ]
    for argv in stages:
        assert cli.main(argv) == 0, argv
    return base


@pytest.fixture
def run_dir(small_run, tmp_path) -> Path:
    """A private copy of the small run that a test may damage."""
    return Path(shutil.copytree(small_run, tmp_path / "copy"))


def all_checks(d: Path) -> dict:
    splits = checks.read_parallel(d / "data" / "parallel.tsv")
    test_pairs = splits["test"]
    ckpt = d / "run" / "checkpoint.bin"
    return {
        "train": lambda: checks.check_train_metrics(d / "run", len(splits["train"]), BATCH, EPOCHS),
        "emb_files": lambda: checks.check_embedding_files(d / "embs", "test", len(test_pairs)),
        "emb_rows": lambda: checks.check_embedding_rows(d / "embs", "test", test_pairs, ckpt, np.arange(0, 200, 7)),
        "retrieval": lambda: checks.check_retrieval(d / "retrieval.json", d / "embs", "test"),
        "mining_scores": lambda: checks.check_mining_scores(d / "mining.json", d / "data" / "mining_test.json"),
        "mining_margin": lambda: checks.check_mining_margin(d / "mining.json", d / "data" / "mining_test.json", ckpt),
        "sts": lambda: checks.check_sts(d / "sts.json", d / "data" / "sts.tsv", ckpt),
    }


def edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("pooling", ["mean", "max", "first"])
def test_independent_encoder_matches_encode_batch(pooling):
    rng = np.random.default_rng(11)
    params = init_params(60, 16, 12, rng)
    batch = [list(rng.integers(0, 60, size=rng.integers(1, 13))) for _ in range(300)]
    ours = checks.encode(params.arrays(), batch, pooling)
    assert np.max(np.abs(ours - encode_batch(params, batch, pooling))) <= 1e-12


def test_every_check_passes_on_the_unchanged_run(small_run):
    for name, check in all_checks(small_run).items():
        check()


def test_flipped_mining_pair_is_rejected(run_dir):
    doc = json.loads((run_dir / "mining.json").read_text(encoding="utf-8"))
    gold = checks.read_mining(run_dir / "data" / "mining_test.json")["gold"]
    hit = next(k for k, p in enumerate(doc["pairs"]) if tuple(p) in gold)

    def flip(d):
        i, j = d["pairs"][hit]
        d["pairs"][hit] = [j, i]

    edit_json(run_dir / "mining.json", flip)
    found = all_checks(run_dir)
    with pytest.raises(checks.CheckFailed):
        found["mining_scores"]()
    with pytest.raises(checks.CheckFailed):
        found["mining_margin"]()


def test_perturbed_retrieval_json_is_rejected(run_dir):
    edit_json(run_dir / "retrieval.json", lambda d: d.update(acc_forward=d["acc_forward"] - 1 / d["count"]))
    with pytest.raises(checks.CheckFailed):
        all_checks(run_dir)["retrieval"]()


def test_corrupted_embedding_byte_is_rejected(run_dir):
    path = run_dir / "embs" / "test_a.emb"
    raw = bytearray(path.read_bytes())
    raw[100] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(checks.CheckFailed, match="sha256"):
        all_checks(run_dir)["emb_files"]()


def test_shuffled_sts_scores_are_rejected(run_dir):
    first, second, gold = checks.read_sts(run_dir / "data" / "sts.tsv")
    tower_a, _ = checks.read_checkpoint(run_dir / "run" / "checkpoint.bin")
    cosines = np.sum(checks.encode(tower_a, first) * checks.encode(tower_a, second), axis=1)
    shuffled = np.random.default_rng(0).permutation(cosines)
    rho = float(checks.stats.spearmanr(shuffled, gold).statistic)
    edit_json(run_dir / "sts.json", lambda d: d.update(spearman=rho))
    with pytest.raises(checks.CheckFailed):
        all_checks(run_dir)["sts"]()


def test_truncated_training_log_is_rejected(run_dir):
    path = run_dir / "run" / "metrics.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    drop = max(k for k, line in enumerate(lines) if '"step"' in line)
    path.write_text("\n".join(lines[:drop] + lines[drop + 1 :]) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailed):
        all_checks(run_dir)["train"]()

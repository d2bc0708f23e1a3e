import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualmoco
from dualmoco import cli
from dualmoco.errors import NumericalFailureError


def tiny_gen_args(out_dir, seed=0):
    return [
        "gen-data",
        "--out", str(out_dir),
        "--seed", str(seed),
        "--concepts", "80",
        "--noise-tokens", "8",
        "--train-pairs", "200",
        "--val-pairs", "40",
        "--test-pairs", "40",
        "--sts-pairs", "60",
        "--nli-triples", "60",
        "--mining-side-a", "40",
        "--mining-side-b", "40",
        "--mining-parallel-fraction", "0.2",
    ]


def tiny_train_args(data_dir, out_dir, extra=()):
    return [
        "train",
        "--data", str(data_dir),
        "--out", str(out_dir),
        "--epochs", "2",
        "--batch-size", "25",
        "--queue-size", "100",
        "--d-emb", "12",
        "--d-out", "12",
        "--warmup-steps", "2",
        *extra,
    ]


def dir_hashes(root):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(root).iterdir())
        if p.is_file()
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny gen-data + train shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    run = root / "run"
    assert cli.main(tiny_gen_args(data)) == 0
    assert cli.main(tiny_train_args(data, run)) == 0
    return root, data, run


class TestGenData:
    def test_deterministic_outputs(self, tmp_path):
        assert cli.main(tiny_gen_args(tmp_path / "d1", seed=7)) == 0
        assert cli.main(tiny_gen_args(tmp_path / "d2", seed=7)) == 0
        h1 = dir_hashes(tmp_path / "d1")
        h2 = dir_hashes(tmp_path / "d2")
        # resolved configs differ only in out_dir; compare data files
        for name in (
            "parallel.tsv",
            "sts.tsv",
            "nli.tsv",
            "mining_validation.json",
            "mining_test.json",
        ):
            assert h1[name] == h2[name]

    def test_expected_files_written(self, pipeline):
        _, data, _ = pipeline
        for name in (
            "parallel.tsv",
            "sts.tsv",
            "nli.tsv",
            "mining_validation.json",
            "mining_test.json",
            "gen_config.json",
        ):
            assert (data / name).exists()

    def test_resolved_config_records_vocab(self, pipeline):
        _, data, _ = pipeline
        doc = json.loads((data / "gen_config.json").read_text())
        assert doc["vocab_size_a"] == 88
        assert doc["concepts"] == 80


class TestTrain:
    def test_outputs(self, pipeline):
        _, _, run = pipeline
        assert (run / "checkpoint.bin").exists()
        assert (run / "metrics.jsonl").exists()
        assert (run / "train_config.json").exists()

    def test_metrics_jsonl_schema(self, pipeline):
        _, _, run = pipeline
        lines = [json.loads(l) for l in (run / "metrics.jsonl").read_text().splitlines()]
        step_rows = [l for l in lines if "step" in l]
        epoch_rows = [l for l in lines if "epoch" in l]
        assert len(step_rows) == 2 * (200 // 25)
        assert len(epoch_rows) == 2
        assert {"step", "lr", "loss_total", "loss_fwd", "loss_bwd", "loss_nli"} == set(step_rows[0])
        assert {"epoch", "retrieval_acc_ab", "retrieval_acc_ba", "sts_spearman"} == set(
            epoch_rows[0]
        )

    def test_resolved_config_round_trip(self, pipeline, tmp_path):
        # re-running from the emitted config must reproduce outputs bit-for-bit
        root, data, run = pipeline
        config_doc = json.loads((run / "train_config.json").read_text())
        rerun_out = tmp_path / "rerun"
        config_doc["out_dir"] = str(rerun_out)
        config_path = tmp_path / "replay.json"
        config_path.write_text(json.dumps(config_doc))
        assert cli.main(["train", "--config", str(config_path)]) == 0
        assert (rerun_out / "checkpoint.bin").read_bytes() == (run / "checkpoint.bin").read_bytes()
        assert (rerun_out / "metrics.jsonl").read_bytes() == (run / "metrics.jsonl").read_bytes()

    def test_invalid_temperature_names_field(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"data_dir": str(data), "temperature": -1.0}))
        assert cli.main(["train", "--config", str(config)]) == 2
        assert "temperature" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"learning_rate": 0.1}))
        assert cli.main(["train", "--config", str(config)]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_missing_data_dir_is_io_error(self, tmp_path):
        assert cli.main(tiny_train_args(tmp_path / "nowhere", tmp_path / "run")) == 3

    def test_nan_loss_exits_4(self, pipeline, tmp_path, monkeypatch):
        _, data, _ = pipeline

        def explode(*args, **kwargs):
            raise NumericalFailureError("non-finite loss at step 0")

        monkeypatch.setattr(cli.trainer, "train", explode)
        assert cli.main(tiny_train_args(data, tmp_path / "run")) == 4

    def test_nli_flag(self, pipeline, tmp_path):
        _, data, _ = pipeline
        out = tmp_path / "run_nli"
        assert cli.main(tiny_train_args(data, out, extra=["--nli", "--nli-batch-size", "16"])) == 0
        lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert any(l.get("loss_nli", 0.0) > 0.0 for l in lines if "step" in l)

    def test_blas_thread_count_does_not_change_outputs(self, pipeline, tmp_path):
        _, data, _ = pipeline
        src = str(Path(dualmoco.__file__).parents[1])
        outputs = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if threads:
                env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
            out = tmp_path / f"threads_{threads or 'default'}"
            argv = [sys.executable, "-m", "dualmoco.cli", *tiny_train_args(data, out)]
            subprocess.run(argv, env=env, check=True, capture_output=True, timeout=300)
            outputs.append([(out / name).read_bytes() for name in ("checkpoint.bin", "metrics.jsonl")])
        assert outputs[0] == outputs[1]

    def test_ablation_flag_recorded(self, pipeline, tmp_path):
        _, data, _ = pipeline
        out = tmp_path / "run_ablate"
        assert cli.main(tiny_train_args(data, out, extra=["--no-momentum"])) == 0
        doc = json.loads((out / "train_config.json").read_text())
        assert doc["ablation_no_momentum"] is True


class TestEvaluationCommands:
    def test_embed_and_eval_retrieval(self, pipeline, tmp_path):
        _, data, run = pipeline
        emb = tmp_path / "embs"
        assert cli.main([
            "embed",
            "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(data),
            "--split", "test",
            "--out", str(emb),
        ]) == 0
        assert (emb / "test_a.emb").exists() and (emb / "test_b.emb.json").exists()

        out = tmp_path / "retrieval.json"
        assert cli.main([
            "eval-retrieval",
            "--src", str(emb / "test_a.emb"),
            "--tgt", str(emb / "test_b.emb"),
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert {"acc_forward", "acc_backward", "count"} == set(doc)
        assert doc["count"] == 40
        assert 0.0 <= doc["acc_forward"] <= 1.0

    def test_corrupt_embedding_dump_exits_3(self, pipeline, tmp_path, capsys):
        _, data, run = pipeline
        emb = tmp_path / "embs"
        assert cli.main([
            "embed",
            "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(data),
            "--out", str(emb),
        ]) == 0
        dump = emb / "test_a.emb"
        raw = bytearray(dump.read_bytes())
        raw[-1] ^= 0x01
        dump.write_bytes(bytes(raw))
        argv = ["eval-retrieval", "--src", str(dump), "--tgt", str(emb / "test_b.emb"),
                "--out", str(tmp_path / "retrieval.json")]
        assert cli.main(argv) == 3
        assert "checksum" in capsys.readouterr().err
        assert not (tmp_path / "retrieval.json").exists()

    def test_oversized_checkpoint_header_exits_3(self, pipeline, tmp_path):
        _, data, run = pipeline
        raw = (run / "checkpoint.bin").read_bytes()
        bad = tmp_path / "checkpoint.bin"
        bad.write_bytes(raw[:4] + (2**40).to_bytes(8, "little") + raw[12:])
        argv = ["eval-sts", "--checkpoint", str(bad), "--data", str(data),
                "--out", str(tmp_path / "sts.json")]
        assert cli.main(argv) == 3

    def test_mine(self, pipeline, tmp_path):
        _, data, run = pipeline
        out = tmp_path / "mining.json"
        assert cli.main([
            "mine",
            "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(data),
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert {"lambda", "validation_f1", "precision", "recall", "f1", "pairs"} == set(doc)
        assert isinstance(doc["pairs"], list)

    def test_eval_sts(self, pipeline, tmp_path):
        _, data, run = pipeline
        out = tmp_path / "sts.json"
        assert cli.main([
            "eval-sts",
            "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(data),
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert -1.0 <= doc["spearman"] <= 1.0
        assert doc["count"] == 60

    def test_dump_embeddings_manifest(self, pipeline, tmp_path):
        _, data, run = pipeline
        out = tmp_path / "dump"
        assert cli.main([
            "dump-embeddings",
            "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(data),
            "--split", "test",
            "--out", str(out),
        ]) == 0
        manifest = json.loads((out / "test_manifest.json").read_text())
        assert manifest["count"] == 40
        assert len(manifest["concepts"]) == 40

    def test_resolved_config_next_to_outputs(self, pipeline, tmp_path):
        _, data, run = pipeline
        out = tmp_path / "sts.json"
        cli.main([
            "eval-sts",
            "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(data),
            "--out", str(out),
        ])
        sidecar = json.loads((tmp_path / "sts_config.json").read_text())
        assert sidecar["checkpoint"] == str(run / "checkpoint.bin")


class TestEnvAndArgs:
    def test_bad_log_level_exits_2(self, pipeline, monkeypatch, tmp_path):
        _, data, _ = pipeline
        monkeypatch.setenv("DMC_LOG_LEVEL", "verbose")
        assert cli.main(tiny_train_args(data, tmp_path / "run")) == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, key, value",
        [("eval-sts", "pooling", "bogus"), ("mine", "variant", "cosine"), ("embed", "split", "dev")],
    )
    def test_bad_choice_in_config_file_exits_2(self, tmp_path, capsys, command, key, value):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({key: value}))
        assert cli.main([command, "--config", str(config)]) == 2
        assert key in capsys.readouterr().err

    def test_bad_split_choice_exits_2(self, pipeline):
        _, data, run = pipeline
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "embed",
                "--checkpoint", str(run / "checkpoint.bin"),
                "--data", str(data),
                "--split", "dev",
            ])
        assert exc.value.code == 2

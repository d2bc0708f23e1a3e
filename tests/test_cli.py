import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import sequences, write_embedding_dump

import dualmoco
from dualmoco import cli, errors
from dualmoco.datagen import load_sts_tsv, load_tsv, make_lexicon
from dualmoco.encoder import Pooling, encode_batch, load_checkpoint, save_checkpoint
from dualmoco.evaluation import load_embeddings, save_embeddings, sts_eval
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

    def test_mining_sides_without_gold_pairs_exit_2_before_writing(self, tmp_path, capsys):
        # 0.2 of 4 sentences is no gold pair
        argv = tiny_gen_args(tmp_path / "data")
        argv[argv.index("--mining-side-a") + 1] = "4"
        assert cli.main(argv) == 2
        assert "gives no gold pair" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_noise_rate_reaches_similarity_and_inference_files(self, tmp_path):
        # at --noise-rate 0 no sentence holds a noise token of its language
        argv = [*tiny_gen_args(tmp_path / "data"), "--noise-rate", "0"]
        assert cli.main(argv) == 0
        noise = set(make_lexicon(80, 8, seed=0).noise_a.tolist())
        for name in ("sts.tsv", "nli.tsv"):
            for line in (tmp_path / "data" / name).read_text().splitlines():
                sentences = " ".join(line.split("\t")[:2])
                assert not set(map(int, sentences.split())) & noise, (name, line)

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

    def test_infinite_learning_rate_exits_2_before_writing(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        run = tmp_path / "run"
        assert cli.main(tiny_train_args(data, run, extra=["--lr", "inf"])) == 2
        assert "lr_max must be finite" in capsys.readouterr().err
        assert not run.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"learning_rate": 0.1}))
        assert cli.main(["train", "--config", str(config)]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_missing_data_dir_is_io_error(self, tmp_path):
        assert cli.main(tiny_train_args(tmp_path / "nowhere", tmp_path / "run")) == 3

    @pytest.mark.parametrize(
        "content",
        [
            "{bad",
            "[1]",
            '{"vocab_size_a": "x", "vocab_size_b": 200}',
            '{"vocab_size_a": 200, "vocab_size_b": true}',
            '{"vocab_size_a": 0, "vocab_size_b": 200}',
            '{"vocab_size_a": 200, "vocab_size_b": 12.5}',
        ],
    )
    def test_bad_gen_config_exits_3(self, pipeline, tmp_path, capsys, content):
        _, data, _ = pipeline
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        (copy / "gen_config.json").write_text(content)
        assert cli.main(tiny_train_args(copy, tmp_path / "run")) == 3
        assert "gen_config.json" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_gen_config_falls_back_to_corpus_vocab(self, pipeline, tmp_path):
        _, data, _ = pipeline
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        (copy / "gen_config.json").unlink()
        assert cli.main(tiny_train_args(copy, tmp_path / "run")) == 0
        corpus = cli.datagen.load_tsv(str(copy / "parallel.tsv"))
        params_a, params_b = cli.load_checkpoint(str(tmp_path / "run" / "checkpoint.bin"))
        assert params_a.vocab_size == corpus.max_token() + 1
        assert params_b.vocab_size == corpus.max_token() + 1

    @pytest.mark.parametrize(
        "gen_config, size",
        [(None, 50), ('{"vocab_size_a": 120, "vocab_size_b": 95}', 120)],
        ids=["corpus", "gen_config"],
    )
    def test_unequal_vocabularies_train_with_the_larger_size(self, tmp_path, gen_config, size):
        # side A of the corpus holds ids up to 49, side B up to 29; without
        # gen_config.json the sizes come from the corpus
        rng = np.random.default_rng(8)
        data = tmp_path / "data"
        data.mkdir()
        rows = []
        for i in range(300):
            side_a = rng.integers(0, 50, size=rng.integers(3, 8))
            side_b = rng.integers(0, 30, size=rng.integers(3, 8))
            side_a[0], side_b[0] = (49, 29) if i == 0 else (side_a[0], side_b[0])
            split = "train" if i < 250 else "validation"
            rows.append(f"{' '.join(map(str, side_a))}\t{' '.join(map(str, side_b))}\t1 2\t{split}\n")
        (data / "parallel.tsv").write_text("".join(rows))
        if gen_config is not None:
            (data / "gen_config.json").write_text(gen_config)
        run = tmp_path / "run"
        assert cli.main(tiny_train_args(data, run)) == 0
        params_a, params_b = load_checkpoint(str(run / "checkpoint.bin"))
        assert params_a.vocab_size == params_b.vocab_size == size

    @pytest.mark.parametrize(
        "extra, gen_config, sts, message",
        [
            (["--batch-size", "400", "--queue-size", "400"], None, None, "batch_size must be <= 200"),
            ([], '{"vocab_size_a": 50, "vocab_size_b": 50}', None, "outside [0, 50)"),
            (
                [],
                None,
                "1 2\t3 4\t0.5\n5\t6 99999\t0.25\n",
                "second sentence of similarity pair 1: token id 99999 outside [0, 88)",
            ),
            ([], None, "1 2\t3 4\t0.5\n", "similarity pairs: every gold score is 0.5; a rank correlation needs 2"),
            ([], None, "1 2\t3 4\t0.5\n5\t6 7\t0.5\n", "similarity pairs: every gold score is 0.5; "),
        ],
        ids=["batch_size", "gen_config", "sts_id", "sts_one_pair", "sts_constant_gold"],
    )
    def test_input_refused_by_train_leaves_no_run_directory(
        self, pipeline, tmp_path, capsys, extra, gen_config, sts, message
    ):
        _, data, _ = pipeline
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        if gen_config is not None:
            (copy / "gen_config.json").write_text(gen_config)
        if sts is not None:
            (copy / "sts.tsv").write_text(sts)
        run = tmp_path / "run"
        assert cli.main(tiny_train_args(copy, run, extra=extra)) == 2
        assert message in capsys.readouterr().err
        assert not run.exists()

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
            mine = ["mine", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(data)]
            for args in (tiny_train_args(data, out), [*mine, "--out", str(out / "mining.json")]):
                argv = [sys.executable, "-m", "dualmoco.cli", *args]
                subprocess.run(argv, env=env, check=True, capture_output=True, timeout=300)
            outputs.append(
                [(out / name).read_bytes() for name in ("checkpoint.bin", "metrics.jsonl", "mining.json")]
            )
        assert outputs[0] == outputs[1]

    def test_ablation_flag_recorded(self, pipeline, tmp_path, capsys):
        # the momentum ablation is --momentum 0; the old switch is gone
        _, data, _ = pipeline
        out = tmp_path / "run_ablate"
        assert cli.main(tiny_train_args(data, out, extra=["--momentum", "0"])) == 0
        doc = json.loads((out / "train_config.json").read_text())
        assert doc["momentum"] == 0.0 and type(doc["momentum"]) is float
        with pytest.raises(SystemExit) as exc:
            cli.main(tiny_train_args(data, tmp_path / "run_old", extra=["--no-momentum"]))
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-momentum" in capsys.readouterr().err
        config = tmp_path / "old.json"
        config.write_text(json.dumps({"data_dir": str(data), "ablation_no_momentum": True}))
        assert cli.main(["train", "--config", str(config)]) == 2
        assert "unknown config key(s): ablation_no_momentum" in capsys.readouterr().err
        assert not (tmp_path / "run_old").exists()


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

    def test_non_ascii_digit_token_exits_3_naming_the_line(self, pipeline, tmp_path, capsys):
        _, data, run = pipeline
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        path = copy / "parallel.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[4] = "1_7 2 \u0663\t" + lines[4].split("\t", 1)[1]  # int() reads 17, 2 and 3
        path.write_text("".join(lines), encoding="utf-8")
        argv = ["embed", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(copy),
                "--split", "test", "--out", str(tmp_path / "emb")]
        assert cli.main(argv) == 3
        assert "parallel.tsv:5: non-integer token field" in capsys.readouterr().err
        assert not (tmp_path / "emb").exists()

    @pytest.mark.parametrize(
        "name",
        ["parallel.tsv", "sts.tsv", "mining_test.json", "a.emb.json", "gen_config.json", "replay.json"],
    )
    def test_non_utf8_input_exits_naming_the_file(self, pipeline, tmp_path, capsys, name):
        # one byte 0xff appended to the file; a --config file is a config
        # error (exit 2), every other input a corrupt file (exit 3)
        _, data, run = pipeline
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        rng = np.random.default_rng(0)
        for side in "ab":
            save_embeddings(str(tmp_path / f"{side}.emb"), rng.normal(size=(6, 4)))
        out = tmp_path / "out"
        (tmp_path / "replay.json").write_text(json.dumps({"data_dir": str(copy), "out_dir": str(out)}))
        model = ["--checkpoint", str(run / "checkpoint.bin"), "--data", str(copy)]
        commands = {
            "parallel.tsv": ["embed", *model, "--out", str(out)],
            "sts.tsv": ["eval-sts", *model, "--out", str(out / "sts.json")],
            "mining_test.json": ["mine", *model, "--out", str(out / "mining.json")],
            "a.emb.json": ["eval-retrieval", "--src", str(tmp_path / "a.emb"),
                           "--tgt", str(tmp_path / "b.emb"), "--out", str(out / "retrieval.json")],
            "gen_config.json": tiny_train_args(copy, out),
            "replay.json": ["train", "--config", str(tmp_path / "replay.json")],
        }
        path = copy / name if (copy / name).exists() else tmp_path / name
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        assert cli.main(commands[name]) == (2 if name == "replay.json" else 3)
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not out.exists()

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

    def test_nan_in_embedding_dump_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        embs = rng.normal(size=(6, 4))
        embs[3, 1] = np.nan
        write_embedding_dump(str(tmp_path / "a.emb"), embs)
        save_embeddings(str(tmp_path / "b.emb"), rng.normal(size=(6, 4)))
        argv = ["eval-retrieval", "--src", str(tmp_path / "a.emb"), "--tgt", str(tmp_path / "b.emb"),
                "--out", str(tmp_path / "retrieval.json")]
        assert cli.main(argv) == 3
        assert "row 3" in capsys.readouterr().err
        assert not (tmp_path / "retrieval.json").exists()

    @pytest.mark.parametrize("command, out", [
        ("embed", "emb"), ("mine", "mining.json"), ("eval-sts", "sts.json"),
    ], ids=["embed", "mine", "eval-sts"])
    def test_nan_checkpoint_exits_3_without_output(self, pipeline, tmp_path, capsys, command, out):
        _, data, run = pipeline
        params_a, params_b = load_checkpoint(str(run / "checkpoint.bin"))
        params_a.embedding[27, 3] = np.nan
        save_checkpoint(str(tmp_path / "checkpoint.bin"), params_a, params_b)
        argv = [command, "--checkpoint", str(tmp_path / "checkpoint.bin"), "--data", str(data),
                "--out", str(tmp_path / out)]
        assert cli.main(argv) == 3
        assert "tower A embedding holds a NaN or infinite value" in capsys.readouterr().err
        assert not (tmp_path / out).exists()

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

    def test_mine_refuses_malformed_corpus(self, pipeline, tmp_path, capsys):
        # float tokens in the first sentence and a gold pair past both sides
        _, data, run = pipeline
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        path = copy / "mining_test.json"
        doc = json.loads(path.read_text())
        doc["side_a"][0] = [t + 0.9 for t in doc["side_a"][0]]
        doc["gold_pairs"].append([4000, 4000])
        path.write_text(json.dumps(doc))
        out = tmp_path / "mining.json"
        argv = ["mine", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(copy),
                "--out", str(out)]
        assert cli.main(argv) == 3
        assert "mining_test.json: side_a[0] token" in capsys.readouterr().err
        assert not out.exists()
        doc["side_a"][0] = [round(t - 0.9) for t in doc["side_a"][0]]
        path.write_text(json.dumps(doc))
        assert cli.main(argv) == 3
        assert "mining_test.json: gold_pairs" in capsys.readouterr().err

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

    def test_eval_sts_refuses_gold_outside_unit_interval(self, pipeline, tmp_path, capsys):
        # NaN, negative and infinite golds on the first three lines
        _, data, run = pipeline
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        path = copy / "sts.tsv"
        lines = path.read_text().splitlines(keepends=True)
        for i, gold in enumerate(["nan", "-7.5", "inf"]):
            a, b, _ = lines[i].split("\t")
            lines[i] = f"{a}\t{b}\t{gold}\n"
        path.write_text("".join(lines))
        out = tmp_path / "sts.json"
        argv = ["eval-sts", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(copy),
                "--out", str(out)]
        assert cli.main(argv) == 3
        assert "sts.tsv:1: gold similarity 'nan' outside [0, 1]" in capsys.readouterr().err
        assert not out.exists()

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


class TestTrainedPooling:
    """embed, mine and eval-sts encode with the pooling that train recorded."""

    @pytest.fixture(scope="class")
    def max_run(self, pipeline, tmp_path_factory):
        _, data, _ = pipeline
        run = tmp_path_factory.mktemp("max_pooling") / "run"
        assert cli.main(tiny_train_args(data, run, extra=["--pooling", "max"])) == 0
        return data, run

    def test_embed_equals_encode_batch_with_the_trained_pooling(self, max_run, tmp_path):
        data, run = max_run
        emb = tmp_path / "emb"
        argv = ["embed", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(data), "--out", str(emb)]
        assert cli.main(argv) == 0
        towers = load_checkpoint(str(run / "checkpoint.bin"))
        corpus = load_tsv(str(data / "parallel.tsv"))
        rows = corpus.split("test")
        for side, params in zip("ab", towers):
            expected = encode_batch(params, sequences(getattr(corpus, f"tokens_{side}"), rows), Pooling.MAX)
            np.testing.assert_array_equal(load_embeddings(str(emb / f"test_{side}.emb")), expected)
        assert "pooling" not in json.loads((emb / "embed_config.json").read_text())

    def test_eval_sts_equals_sts_eval_with_the_trained_pooling(self, max_run, tmp_path):
        data, run = max_run
        out = tmp_path / "sts.json"
        assert cli.main(["eval-sts", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(data),
                         "--out", str(out)]) == 0
        params_a, _ = load_checkpoint(str(run / "checkpoint.bin"))
        rho = sts_eval(params_a, load_sts_tsv(str(data / "sts.tsv")), Pooling.MAX)
        assert json.loads(out.read_text())["spearman"] == rho

    def test_mine_encodes_with_the_trained_pooling(self, max_run, tmp_path, monkeypatch):
        data, run = max_run
        poolings = []

        def recording_encode_batch(params, sequences, pooling):
            poolings.append(pooling)
            return encode_batch(params, sequences, pooling)

        monkeypatch.setattr(cli, "encode_batch", recording_encode_batch)
        out = tmp_path / "mining.json"
        assert cli.main(["mine", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(data),
                         "--out", str(out)]) == 0
        assert poolings == [Pooling.MAX] * 4
        assert "pooling" not in json.loads((tmp_path / "mining_config.json").read_text())

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "missing"),
            ("{bad", "invalid JSON"),
            ("[1]", "must be a JSON object"),
            ('{"epochs": 2}', "pooling must be one of ['mean', 'max', 'first'] (got None)"),
            ('{"pooling": "bogus"}', "pooling must be one of ['mean', 'max', 'first'] (got 'bogus')"),
            ('{"pooling": 3}', "(got 3)"),
        ],
        ids=["missing", "invalid", "list", "no_key", "unknown", "number"],
    )
    @pytest.mark.parametrize("command, out", [
        ("embed", "emb"), ("mine", "mining.json"), ("eval-sts", "sts.json"),
    ], ids=["embed", "mine", "eval-sts"])
    def test_bad_train_config_exits_3_naming_it(
        self, pipeline, tmp_path, capsys, content, message, command, out
    ):
        _, data, run = pipeline
        model = tmp_path / "model"
        model.mkdir()
        shutil.copy(run / "checkpoint.bin", model)
        if content is not None:
            (model / "train_config.json").write_text(content)
        argv = [command, "--checkpoint", str(model / "checkpoint.bin"), "--data", str(data),
                "--out", str(tmp_path / out)]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model / 'train_config.json'}: ") and message in err
        assert not (tmp_path / out).exists()


ERROR_FAMILIES = [
    (errors.ConfigError, 2),
    (errors.InvalidInputError, 2),
    (errors.CorpusParseError, 3),
    (errors.NumericalFailureError, 4),
]


class TestExitCodes:
    def test_families_are_the_error_classes(self):
        classes = {
            value
            for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, errors.DualMocoError)
        }
        assert classes == {errors.DualMocoError, *(family for family, _ in ERROR_FAMILIES)}

    @pytest.mark.parametrize("family, code", ERROR_FAMILIES, ids=lambda v: getattr(v, "__name__", v))
    def test_each_family_exits_with_its_code_and_message(self, monkeypatch, capsys, family, code):
        message = f"{family.__name__} refused: k=3 not in [1, 2]"

        def refuse(config):
            raise family(message)

        monkeypatch.setattr(cli, "cmd_eval_retrieval", refuse)
        assert cli.main(["eval-retrieval"]) == code
        assert capsys.readouterr().err == f"error: {message}\n"


class TestEnvAndArgs:
    def test_bad_log_level_exits_2(self, pipeline, monkeypatch, tmp_path):
        _, data, _ = pipeline
        monkeypatch.setenv("DMC_LOG_LEVEL", "verbose")
        assert cli.main(tiny_train_args(data, tmp_path / "run")) == 2

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_negative_seed_exits_2_without_output(self, pipeline, tmp_path, capsys, command):
        _, data, _ = pipeline
        out = tmp_path / "out"
        if command == "gen-data":
            argv = tiny_gen_args(out, seed=-1)
        else:
            argv = tiny_train_args(data, out, ["--seed", "-1"])
        assert cli.main(argv) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("train", "pooling", "bogus"),
            # the pooling is read from train_config.json, so it is no setting here
            ("embed", "pooling", "max"),
            ("mine", "variant", "cosine"),
            ("embed", "split", "dev"),
            # values of the wrong JSON type
            ("train", "epochs", "3"),
            ("train", "epochs", 3.0),
            ("train", "momentum", True),
            ("train", "nli_enabled", 1),
            ("train", "pooling", 3),
            ("gen-data", "noise_rate", "0.1"),
            ("mine", "k", True),
            ("eval-retrieval", "src", None),
        ],
    )
    def test_bad_choice_in_config_file_exits_2(self, tmp_path, capsys, command, key, value):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({key: value}))
        assert cli.main([command, "--config", str(config)]) == 2
        assert key in capsys.readouterr().err

    def test_integer_config_value_for_float_field(self, tmp_path):
        config = tmp_path / "ok.json"
        config.write_text(json.dumps({"lr_max": 1, "momentum": 0, "epochs": 3}))
        args = cli.build_parser().parse_args(["train", "--config", str(config)])
        resolved = cli._resolve_config(cli.RunConfig, args)
        assert (resolved.lr_max, resolved.momentum, resolved.epochs) == (1.0, 0.0, 3)
        assert type(resolved.lr_max) is float and type(resolved.momentum) is float

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

"""End-to-end benchmark of the dualmoco CLI pipeline, with output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk_pipeline --seed 1 --seconds 50 --trace 0

Each run generates the workload's dataset from --seed with `gen-data`, then
measures for --seconds. In that window it runs ROUNDS rounds of `train`,
`embed --split test`, `eval-retrieval`, `mine` and `eval-sts`, and the later
SETUP_REPEATS - 1 `gen-data` runs, each due at an even share of the window;
between them it repeats the four evaluation stages. Every stage is its own
`dualmoco` process, run one at a time with one BLAS thread. The outputs are
then checked against independent recomputations (checks.py). Every metric is
a median over the samples of the run.

With --trace 1 the set-up runs once under tracer.py, and each round runs
every stage twice, untraced and then under tracer.py. The run reports the
per-layer metrics of the traced stages and the tracing overhead.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. An operation is a stage or a check. A
stage that exits non-zero ends the run with exit code 1 and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
RUNS = Path(__file__).resolve().parent / "_runs"
# On a shared 2-core machine the same 10 s `train` took 8.5-13.4 s in six
# runs back to back, all of it CPU time, and the evaluation stages, under a
# second each and mostly interpreter start-up, moved by a third within a
# minute. So every time is sampled several times, spread over the run: the
# set-up and the full round a fixed number of times, the evaluation stages
# as often as the run has time for.
SETUP_REPEATS = 3
ROUNDS = 2
SAMPLE_ROWS = 64
# One BLAS thread: at the default thread count a 4-epoch train used about
# twice the CPU time (8.8-10.7 s against 4.5-5.0 s over six runs on 2 cores)
# and its wall time spread wider.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    gen_args: tuple[str, ...]
    train_args: tuple[str, ...]
    epochs: int
    batch_size: int
    gates: bool  # the README's retrieval and similarity gates apply


# Why each workload exists is in BENCHMARK.json and README.md. epochs and
# batch_size restate what `train` is given (the documented defaults for
# desk_pipeline) so the training-log check can count step records.
WORKLOADS = {
    "desk_pipeline": Workload(
        gen_args=(),
        train_args=(),
        epochs=10,
        batch_size=64,
        gates=True,
    ),
    "train_multitask": Workload(
        gen_args=(),
        train_args=("--nli", "--batch-size", "128", "--queue-size", "4096", "--epochs", "8"),
        epochs=8,
        batch_size=128,
        gates=False,
    ),
    "eval_scale": Workload(
        gen_args=(
            "--test-pairs", "2000", "--sts-pairs", "2000",
            "--mining-side-a", "1000", "--mining-side-b", "1000",
        ),
        train_args=("--epochs", "5"),
        epochs=5,
        batch_size=64,
        gates=False,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_pairs_per_s": "pairs/s",
    "encode_sents_per_s": "sentences/s",
    "search_queries_per_s": "queries/s",
    "mine_sents_per_s": "sentences/s",
    "peak_rss_mb": "MB",
    "retrieval_acc": "fraction",
    "mining_f1": "F1",
    "sts_spearman": "rho",
}


class StageFailed(Exception):
    pass


def stage_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _watch_peak_rss(pid: int, done: threading.Event, peak_kb: list[int]) -> None:
    """Poll the child's own high-water RSS (VmHWM) until it exits.

    The rusage from wait4 would not do: exec carries the forking parent's
    peak RSS into the child's ru_maxrss, so it would report this process.
    """
    while not done.is_set():
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kb[0] = max(peak_kb[0], int(line.split()[1]))
        except (OSError, ValueError):
            return
        done.wait(0.01)


def run_process(argv: list[str], log: Path) -> tuple[float, float]:
    """Run one process to its end; return (wall seconds, peak RSS in MB)."""
    peak_kb, done = [0], threading.Event()
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=stage_env(), stdout=fh, stderr=subprocess.STDOUT)
        watcher = threading.Thread(target=_watch_peak_rss, args=(proc.pid, done, peak_kb))
        watcher.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            done.set()
            watcher.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise StageFailed(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{tail}")
    return wall, peak_kb[0] / 1024.0


def environment() -> dict:
    """What the timings depend on; recorded, never gated on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": THREAD_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_lines": src_lines,
    }


class Run:
    """One benchmark run of one workload: paths, operation counts, checks."""

    def __init__(self, name: str, seed: int) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.base = RUNS / name
        self.data = self.base / "data"
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def cli(self, args: list[str], log: str) -> tuple[float, float]:
        self.attempted += 1
        return run_process([sys.executable, "-m", "dualmoco.cli", *args], self.base / f"{log}.log")

    def traced(self, args: list[str], log: str) -> tuple[float, dict]:
        self.attempted += 1
        out = self.base / f"{log}.trace.json"
        wall, _ = run_process(
            [sys.executable, str(Path(__file__).parent / "tracer.py"), "--out", str(out), "--", *args],
            self.base / f"{log}.log",
        )
        return wall, json.loads(out.read_text(encoding="utf-8"))

    def gen_args(self, out: Path) -> list[str]:
        return ["gen-data", "--out", str(out), "--seed", str(self.seed), *self.workload.gen_args]

    def set_up(self, index: int) -> tuple[float, float]:
        """One `gen-data` run; the first writes the pipeline's inputs, later
        ones (timed only) write beside them."""
        return self.cli(self.gen_args(self.data if index == 0 else self.base / f"data{index}"), f"gen_data{index}")

    def load_inputs(self) -> None:
        splits = checks.read_parallel(self.data / "parallel.tsv")
        self.n_train = len(splits["train"])
        self.test_pairs = splits["test"]
        mining = [checks.read_mining(self.data / f"mining_{s}.json") for s in ("validation", "test")]
        self.mining_sents = sum(len(m["side_a"]) + len(m["side_b"]) for m in mining)
        rng = np.random.default_rng(self.seed)
        self.sample = np.sort(rng.choice(len(self.test_pairs), size=SAMPLE_ROWS, replace=False))

    def stages(self, tag: str) -> list[tuple[str, list[str]]]:
        """The five pipeline stages, writing to outputs suffixed by tag."""
        run_dir, emb_dir = self.base / f"run{tag}", self.base / f"embs{tag}"
        ckpt = str(run_dir / "checkpoint.bin")
        data = str(self.data)
        return [
            ("train", ["train", "--data", data, "--out", str(run_dir), *self.workload.train_args]),
            ("embed", ["embed", "--checkpoint", ckpt, "--data", data, "--split", "test", "--out", str(emb_dir)]),
            ("eval_retrieval", ["eval-retrieval", "--src", str(emb_dir / "test_a.emb"),
                                "--tgt", str(emb_dir / "test_b.emb"), "--out", str(self.base / f"retrieval{tag}.json")]),
            ("mine", ["mine", "--checkpoint", ckpt, "--data", data, "--out", str(self.base / f"mining{tag}.json")]),
            ("eval_sts", ["eval-sts", "--checkpoint", ckpt, "--data", data, "--out", str(self.base / f"sts{tag}.json")]),
        ]

    def measure(self, seconds: float) -> dict:
        """Set-up, then a window of `seconds`: ROUNDS rounds of the five
        stages and the other SETUP_REPEATS - 1 set-ups, the k-th of each due
        at k / ROUNDS (or k / SETUP_REPEATS) of the window, with passes of
        the four evaluation stages in between. The outputs are checked once,
        at the end. pipeline_s samples are the rounds' wall times.
        """
        setup = [self.set_up(0)]
        self.load_inputs()
        stages = self.stages("")
        result = {"walls": {stage: [] for stage, _ in stages}, "rss": [setup[0][1]], "pipeline_s": []}

        def sample(stage: str, args: list[str]) -> None:
            wall, rss = self.cli(args, stage)
            result["walls"][stage].append(wall)
            result["rss"].append(rss)

        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(result["pipeline_s"]) < ROUNDS and elapsed >= len(result["pipeline_s"]) * seconds / ROUNDS:
                round_start = time.perf_counter()
                for stage, args in stages:
                    sample(stage, args)
                result["pipeline_s"].append(time.perf_counter() - round_start)
            elif len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
                setup.append(self.set_up(len(setup)))
                result["rss"].append(setup[-1][1])
            elif elapsed < seconds:
                for stage, args in stages[1:]:
                    sample(stage, args)
            else:
                break
        result["setup_walls"] = [wall for wall, _ in setup]
        print(f"evaluation samples {len(result['walls']['embed'])}, rounds {ROUNDS}, set-ups {len(setup)}")
        self.check_outputs("")
        return result

    def traced_pipeline(self) -> tuple[float, float, list[dict]]:
        """Each stage untraced, then traced, back to back, so that drift in
        machine speed hits both alike; both sets of outputs are checked.
        Returns the two pipelines' summed stage walls and the traces."""
        untraced_s, traced_s, traces = 0.0, 0.0, []
        for (stage, args), (_, traced_args) in zip(self.stages(""), self.stages("_traced")):
            untraced_s += self.cli(args, stage)[0]
            wall, summary = self.traced(traced_args, f"{stage}_traced")
            traced_s += wall
            traces.append(summary)
        self.check_outputs("")
        self.check_outputs("_traced")
        return untraced_s, traced_s, traces

    def check_outputs(self, tag: str) -> None:
        wl, base, data = self.workload, self.base, self.data
        run_dir, emb_dir = base / f"run{tag}", base / f"embs{tag}"
        ckpt = run_dir / "checkpoint.bin"
        todo = [
            ("train metrics", lambda: checks.check_train_metrics(run_dir, self.n_train, wl.batch_size, wl.epochs)),
            ("embedding files", lambda: checks.check_embedding_files(emb_dir, "test", len(self.test_pairs))),
            ("embedding rows", lambda: checks.check_embedding_rows(emb_dir, "test", self.test_pairs, ckpt, self.sample)),
            ("retrieval recount", lambda: checks.check_retrieval(base / f"retrieval{tag}.json", emb_dir, "test")),
            ("mining scores", lambda: checks.check_mining_scores(base / f"mining{tag}.json", data / "mining_test.json")),
            ("mining margin", lambda: checks.check_mining_margin(base / f"mining{tag}.json", data / "mining_test.json", ckpt)),
            ("sts spearman", lambda: checks.check_sts(base / f"sts{tag}.json", data / "sts.tsv", ckpt)),
        ]
        if wl.gates:
            todo.append(("readme gates", lambda: checks.check_gates(base / f"retrieval{tag}.json", base / f"sts{tag}.json")))
        for label, check in todo:
            self.attempted += 1
            try:
                detail = check()
            except Exception:  # a malformed output is as wrong as a wrong value
                self.failed += 1
                self.correct = False
                print(f"check {label}{tag}: FAILED\n{traceback.format_exc()}", file=sys.stderr)
            else:
                print(f"check {label}{tag}: ok ({detail})")

    def end_to_end(self, result: dict) -> dict:
        wl = self.workload
        n_test = len(self.test_pairs)
        train_pairs = wl.epochs * (self.n_train // wl.batch_size) * wl.batch_size
        retrieval = json.loads((self.base / "retrieval.json").read_text(encoding="utf-8"))
        mining = json.loads((self.base / "mining.json").read_text(encoding="utf-8"))
        sts = json.loads((self.base / "sts.json").read_text(encoding="utf-8"))

        def rate(work: float, stage: str) -> float:
            return statistics.median(work / wall for wall in result["walls"][stage])

        return {
            "setup_s": statistics.median(result["setup_walls"]),
            "pipeline_s": statistics.median(result["pipeline_s"]),
            "train_pairs_per_s": rate(train_pairs, "train"),
            "encode_sents_per_s": rate(2 * n_test, "embed"),
            "search_queries_per_s": rate(2 * n_test, "eval_retrieval"),
            "mine_sents_per_s": rate(self.mining_sents, "mine"),
            "peak_rss_mb": max(result["rss"]),
            "retrieval_acc": 0.5 * (retrieval["acc_forward"] + retrieval["acc_backward"]),
            "mining_f1": mining["f1"],
            "sts_spearman": sts["spearman"],
        }


def per_layer(traces: list[dict], untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics summed over the traced stages of one round."""
    layers: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    step_sents = 0
    for t in traces:
        for name, values in t["layers"].items():
            merged = layers.setdefault(name, {})
            for key, value in values.items():
                merged[key] = merged.get(key, 0.0) + value
        for name, value in t["counters"].items():
            counters[name] = counters.get(name, 0) + value
        step_sents += t["step_forward_sents"]

    def get(name: str, key: str = "self_s") -> float:
        return layers.get(name, {}).get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "datagen.gen_mining_corpus_s": (get("datagen.gen_mining_corpus"), "s"),
        "datagen.gen_parallel_corpus_s": (get("datagen.gen_parallel_corpus"), "s"),
        "datagen.gen_sts_nli_s": (get("datagen.gen_sts_nli"), "s"),
        "datagen.io_s": (get("datagen.io"), "s"),
        "encoder.forward_s": (get("encoder.forward"), "s"),
        "encoder.forward_sents": (get("encoder.forward", "sents"), "count"),
        "encoder.backward_s": (get("encoder.backward"), "s"),
        "encoder.backward_sents": (get("encoder.backward", "sents"), "count"),
        "encoder.forward_sents_per_train_pair": (ratio(step_sents, get("trainer.step", "pairs")), "sents/pair"),
        "encoder.checkpoint_io_s": (get("encoder.checkpoint_io"), "s"),
        "moco.nce_s": (get("moco.nce"), "s"),
        "moco.negatives_scored": (get("moco.nce", "negatives_scored"), "count"),
        "moco.loss_glue_s": (get("moco.loss_and_gradients"), "s"),
        "moco.ema_s": (get("moco.ema"), "s"),
        "moco.enqueue_s": (get("moco.enqueue"), "s"),
        "trainer.adamw_s": (get("trainer.adamw"), "s"),
        "trainer.clip_s": (get("trainer.clip"), "s"),
        "trainer.epoch_eval_s": (get("trainer.epoch_eval", "inclusive_s"), "s"),
        "trainer.loop_s": (get("trainer.loop"), "s"),
        "trainer.steps": (get("trainer.step", "calls"), "count"),
        # The step's own time outside the contrastive loss and the encoder:
        # the inference head on train_multitask, a few ms of glue elsewhere.
        "trainer.nli_head_s": (get("trainer.nli_head") + get("trainer.step"), "s"),
        "evaluation.top_k_s": (get("evaluation.top_k"), "s"),
        "evaluation.nn_search_s": (get("evaluation.nn_search"), "s"),
        "evaluation.search_queries": (get("evaluation.nn_search", "queries"), "count"),
        "evaluation.mine_bitext_s": (get("evaluation.mine_bitext"), "s"),
        "evaluation.margin_score_calls": (counters.get("evaluation.margin_score_calls", 0), "count"),
        "evaluation.candidates_scored": (get("evaluation.mine_bitext", "candidates"), "count"),
        "evaluation.pairs_accepted_per_candidate": (
            ratio(get("evaluation.mine_bitext", "accepted"), get("evaluation.mine_bitext", "thresholded_candidates")),
            "ratio",
        ),
        "evaluation.search_threshold_s": (get("evaluation.search_threshold"), "s"),
        "evaluation.embeddings_io_s": (get("evaluation.embeddings_io"), "s"),
        "evaluation.sts_eval_s": (get("evaluation.sts_eval"), "s"),
        "numerics.spearman_s": (get("numerics.spearman"), "s"),
        "cli.import_s": (statistics.median(t["import_s"] for t in traces), "s"),
    }
    for stage in ("gen_data", "train", "embed", "eval_retrieval", "mine", "eval_sts"):
        metrics[f"cli.{stage}_s"] = (get(f"cli.{stage}", "inclusive_s"), "s")
    metrics["trace.untraced_pipeline_s"] = (untraced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "fraction")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="dualmoco CLI pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so a running stage is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "dualmoco" / "cli.py").is_file():
        print(f"error: no dualmoco sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    shutil.rmtree(run.base, ignore_errors=True)
    run.base.mkdir(parents=True)
    env = environment()
    (run.base / "env.json").write_text(json.dumps(env, indent=1) + "\n", encoding="utf-8")
    print(f"env {json.dumps(env, sort_keys=True)}")

    try:
        if args.trace:
            _, setup_trace = run.traced(run.gen_args(run.data), "gen_data")
            run.load_inputs()
            layer_rounds = []
            start = time.perf_counter()
            while not layer_rounds or time.perf_counter() - start < args.seconds:
                untraced_s, traced_s, traces = run.traced_pipeline()
                layer_rounds.append(per_layer([setup_trace, *traces], untraced_s, traced_s))
            absent = sorted({a for t in [setup_trace, *traces] for a in t["absent"]})
            if absent:
                print(f"absent boundaries (reported as 0): {', '.join(absent)}")
            metrics = {
                name: {"value": statistics.median(r[name][0] for r in layer_rounds), "unit": unit}
                for name, (_, unit) in layer_rounds[0].items()
            }
        else:
            values = run.end_to_end(run.measure(args.seconds))
            metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in END_TO_END_UNITS}
    except StageFailed as e:
        print(f"error: stage failed: {e}", file=sys.stderr)
        return 1

    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"operations attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

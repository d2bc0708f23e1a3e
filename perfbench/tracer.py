"""Run one `dualmoco` command in-process with spans at the layer boundaries.

Usage: python3 perfbench/tracer.py --out SUMMARY.json -- <dualmoco argv>

The program is not edited: before `dualmoco.cli.main(argv)` runs, the
functions in BOUNDARIES are replaced by timing wrappers on the module whose
namespace the callers look them up in (so `moco.encode_batch` times the
encodes issued by the contrastive step, `cli.encode_batch` those issued by
`embed` and `mine`). Spans record name, parent index, start, end and counts;
the summary holds them all, and per span name the self time (duration minus
the time covered by its children), inclusive time, call count and the
counts the wrappers take from arguments and results. A boundary whose function no longer exists is listed
as absent and skipped.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _n_sents(args, kwargs, result):
    return {"sents": len(args[1])}


def _nce_counts(args, kwargs, result):
    return {"negatives_scored": int(args[0].shape[0] * args[2].shape[0])}


def _search_counts(args, kwargs, result):
    return {"queries": int(result.indices.shape[0])}


def _mine_counts(args, kwargs, result):
    counts = {"candidates": len(result.scored)}
    if math.isfinite(result.threshold):
        counts.update(thresholded_candidates=len(result.scored), accepted=len(result.accepted))
    return counts


def _step_pairs(args, kwargs, result):
    return {"pairs": len(args[1])}


# (module, attribute, span name, counter). A counter of None makes a plain
# span; margin_score is counted without a span because it runs once per
# mining candidate and a span per call would distort mine_bitext's time.
BOUNDARIES = [
    ("datagen", "gen_parallel_corpus", "datagen.gen_parallel_corpus", None),
    ("datagen", "gen_mining_corpus", "datagen.gen_mining_corpus", None),
    ("datagen", "gen_sts_pairs", "datagen.gen_sts_nli", None),
    ("datagen", "gen_nli_triples", "datagen.gen_sts_nli", None),
    *(
        ("datagen", name, "datagen.io", None)
        for name in (
            "save_tsv", "save_sts_tsv", "save_nli_tsv", "save_mining_json",
            "load_tsv", "load_sts_tsv", "load_nli_tsv", "load_mining_json",
        )
    ),
    *((mod, "encode_batch", "encoder.forward", _n_sents) for mod in ("moco", "trainer", "evaluation", "cli")),
    *((mod, "encode_backward", "encoder.backward", _n_sents) for mod in ("moco", "trainer")),
    ("cli", "save_checkpoint", "encoder.checkpoint_io", None),
    ("cli", "load_checkpoint", "encoder.checkpoint_io", None),
    ("moco", "_nce_batch", "moco.nce", _nce_counts),
    ("trainer", "loss_and_gradients", "moco.loss_and_gradients", None),
    ("moco", "momentum_update", "moco.ema", None),
    ("moco", "enqueue_batch", "moco.enqueue", None),
    ("trainer", "advance_state", "moco.advance_state", None),
    ("trainer", "train", "trainer.loop", None),
    ("trainer", "step_gradients", "trainer.step", _step_pairs),
    ("trainer", "clip_gradients", "trainer.clip", None),
    ("trainer", "adamw_step", "trainer.adamw", None),
    ("trainer", "nli_loss_and_grads", "trainer.nli_head", None),
    ("trainer", "_epoch_eval", "trainer.epoch_eval", None),
    ("evaluation", "retrieval_accuracy", "evaluation.retrieval_accuracy", None),
    ("evaluation", "nn_search", "evaluation.nn_search", _search_counts),
    ("evaluation", "top_k_from_sims", "evaluation.top_k", None),
    ("evaluation", "mine_bitext", "evaluation.mine_bitext", _mine_counts),
    ("evaluation", "search_threshold", "evaluation.search_threshold", None),
    ("evaluation", "save_embeddings", "evaluation.embeddings_io", None),
    ("evaluation", "load_embeddings", "evaluation.embeddings_io", None),
    ("evaluation", "sts_eval", "evaluation.sts_eval", None),
    ("evaluation", "spearman_correlation", "numerics.spearman", None),
    *(
        ("cli", f"cmd_{name}", f"cli.{name}", None)
        for name in ("gen_data", "train", "embed", "eval_retrieval", "mine", "eval_sts")
    ),
]
COUNT_ONLY = [("evaluation", "margin_score", "evaluation.margin_score_calls")]

# Forward encodes under these spans belong to training steps (the per-epoch
# evaluation encodes are excluded).
STEP_SPANS = ("trainer.step", "moco.advance_state")


class Tracer:
    """In-memory spans: [name, parent index, start, end, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def span(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, None]
            self.spans.append(record)
            self.stack.append(index)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                record[4] = counter(args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        step_forward_sents = 0
        for index, (name, parent, start, end, counts) in enumerate(self.spans):
            layer = layers[name]
            layer["calls"] += 1
            layer["inclusive_s"] += end - start
            layer["self_s"] += end - start - child_time[index]
            for key, value in (counts or {}).items():
                layer[key] += value
            if name == "encoder.forward" and self._under(parent, STEP_SPANS):
                step_forward_sents += counts["sents"]
        return {
            "layers": {name: dict(values) for name, values in layers.items()},
            "counters": dict(self.counters),
            "step_forward_sents": step_forward_sents,
            "spans": self.spans,
        }

    def _under(self, index: int, names: tuple[str, ...]) -> bool:
        while index >= 0:
            if self.spans[index][0] in names:
                return True
            index = self.spans[index][1]
        return False


def install(tracer: Tracer) -> list[str]:
    """Wrap every boundary that exists; return the ones that do not."""
    absent = []
    for module_name, attr, name, counter in BOUNDARIES:
        module = importlib.import_module(f"dualmoco.{module_name}")
        if callable(getattr(module, attr, None)):
            setattr(module, attr, tracer.span(name, getattr(module, attr), counter))
        else:
            absent.append(f"{module_name}.{attr}")
    for module_name, attr, name in COUNT_ONLY:
        module = importlib.import_module(f"dualmoco.{module_name}")
        if callable(getattr(module, attr, None)):
            setattr(module, attr, tracer.count(name, getattr(module, attr)))
        else:
            absent.append(f"{module_name}.{attr}")
    return absent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="summary JSON to write")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the dualmoco arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    cli = importlib.import_module("dualmoco.cli")
    import_s = time.perf_counter() - start

    tracer = Tracer()
    absent = install(tracer)
    code = cli.main(argv)
    summary = tracer.summary()
    summary.update(import_s=import_s, absent=absent, exit_code=code, argv=argv)
    Path(args.out).write_text(json.dumps(summary, sort_keys=True) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point wiring generation, training, embedding, and
evaluation into reproducible runs.

Every command validates its configuration before touching the filesystem,
writes outputs only under the requested paths, and drops a resolved-config
JSON next to them so any run can be replayed bit-for-bit.

Exit codes: 0 success, 2 invalid arguments or config, 3 I/O failure,
4 numerical failure (non-finite loss).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import datagen, evaluation, trainer
from .encoder import (
    Pooling,
    atomic_write,
    check_ids,
    encode_batch,
    gather_batch,
    load_checkpoint,
    read_json_object,
    save_checkpoint,
)
from .errors import ConfigError, CorpusParseError, DualMocoError

logger = logging.getLogger(__name__)

PARALLEL_FILE = "parallel.tsv"
STS_FILE = "sts.tsv"
NLI_FILE = "nli.tsv"
MINING_VAL_FILE = "mining_validation.json"
MINING_TEST_FILE = "mining_test.json"
GEN_CONFIG_FILE = "gen_config.json"
TRAIN_CONFIG_FILE = "train_config.json"

# Every config field is settable by --config and by its own flag, which is
# --<field name with dashes> unless named here.
FLAG_NAMES = {
    "data_dir": "data",
    "out_dir": "out",
    "lr_max": "lr",
    "queue_capacity": "queue-size",
    "nli_enabled": "nli",
}
FLAG_CHOICES = {
    "pooling": [p.value for p in Pooling],
    "split": list(datagen.SPLITS),
    "variant": list(evaluation.MARGIN_VARIANTS),
}

# JSON config values accepted per field default type, and how to name them;
# str and Pooling fields take strings.
CONFIG_TYPES = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
}


def _write_json(path: str | Path, doc: dict) -> None:
    atomic_write({path: (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")})


def _add_config_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One flag per field of config dataclass `cls`; None means "not given"."""
    parser.add_argument("--config", default=None, help=f"JSON file of {cls.__name__} fields")
    for f in dataclasses.fields(cls):
        flag = "--" + FLAG_NAMES.get(f.name, f.name.replace("_", "-"))
        default = getattr(f.default, "value", f.default)
        common = dict(dest=f.name, default=None, help=f"{f.name} (default: {default})")
        if isinstance(f.default, bool):
            parser.add_argument(flag, action="store_true", **common)
        else:
            choices = FLAG_CHOICES.get(f.name)
            parser.add_argument(flag, type=str if choices else type(f.default), choices=choices, **common)


def _resolve_config(cls, args: argparse.Namespace):
    """The defaults, overridden by the --config file, overridden by each flag given."""
    doc = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as e:  # a JSONDecodeError or a UnicodeDecodeError
                raise ConfigError(f"{args.config}: invalid JSON ({e})") from e
        if not isinstance(doc, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    flags = {name: getattr(args, name) for name in defaults if getattr(args, name) is not None}
    for name, value in doc.items():
        accepted, want = CONFIG_TYPES.get(type(defaults[name]), (str, "a string"))
        if isinstance(value, bool) != (accepted is bool) or not isinstance(value, accepted):
            raise ConfigError(f"{name} must be {want} (got {value!r})")
        if name in FLAG_CHOICES and value not in FLAG_CHOICES[name]:
            raise ConfigError(f"{name} must be one of {FLAG_CHOICES[name]} (got {value!r})")
        if isinstance(defaults[name], float):
            doc[name] = float(value)
    return cls(**{**doc, **flags})


@dataclass
class GenConfig:
    """Resolved parameters for one dataset directory."""

    seed: int = 0
    concepts: int = 380
    noise_tokens: int = 20
    train_pairs: int = 5000
    val_pairs: int = 500
    test_pairs: int = 1000
    len_min: int = 3
    len_max: int = 10
    noise_rate: float = 0.1
    reorder_b: str = "reverse"
    sts_pairs: int = 500
    nli_triples: int = 1200
    mining_side_a: int = 400
    mining_side_b: int = 400
    mining_parallel_fraction: float = 0.1
    out_dir: str = "data"


@dataclass
class RunConfig(trainer.TrainConfig):
    """Resolved parameters for one training run: TrainConfig plus paths."""

    data_dir: str = "data"
    out_dir: str = "run"
    nli_enabled: bool = False


def _setup_logging() -> None:
    level_name = os.environ.get("DMC_LOG_LEVEL", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(f"DMC_LOG_LEVEL must be one of error, info, debug (got {level_name!r})")
    logging.basicConfig(level=levels[level_name], format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(config: GenConfig) -> int:
    lexicon = datagen.make_lexicon(config.concepts, config.noise_tokens, seed=config.seed)
    len_range = (config.len_min, config.len_max)
    corpus = datagen.gen_parallel_corpus(
        lexicon,
        n_train=config.train_pairs,
        n_val=config.val_pairs,
        n_test=config.test_pairs,
        len_range=len_range,
        noise_rate=config.noise_rate,
        seed=config.seed + 1,
        reorder_b=config.reorder_b,
    )
    sts = datagen.gen_sts_pairs(lexicon, config.sts_pairs, seed=config.seed + 2, noise_rate=config.noise_rate)
    nli = datagen.gen_nli_triples(lexicon, config.nli_triples, seed=config.seed + 3, noise_rate=config.noise_rate)
    mining_val, mining_test = (
        datagen.gen_mining_corpus(
            lexicon,
            config.mining_side_a,
            config.mining_side_b,
            config.mining_parallel_fraction,
            seed=config.seed + offset,
            len_range=len_range,
            noise_rate=config.noise_rate,
            reorder_b=config.reorder_b,
        )
        for offset in (4, 5)
    )

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    datagen.save_tsv(corpus, str(out / PARALLEL_FILE))
    datagen.save_sts_tsv(sts, str(out / STS_FILE))
    datagen.save_nli_tsv(nli, str(out / NLI_FILE))
    datagen.save_mining_json(mining_val, str(out / MINING_VAL_FILE))
    datagen.save_mining_json(mining_test, str(out / MINING_TEST_FILE))
    resolved = dataclasses.asdict(config)
    # both keys, equal, so that dataset directories keep one layout across versions
    resolved["vocab_size_a"] = resolved["vocab_size_b"] = lexicon.vocab_size
    _write_json(out / GEN_CONFIG_FILE, resolved)
    logger.info("wrote dataset with %d pairs to %s", len(corpus), out)
    return 0


def _load_vocab_size(data_dir: Path) -> int | None:
    """The larger of the two vocabulary sizes in gen_config.json, or None
    when the file or both keys are absent."""
    path = data_dir / GEN_CONFIG_FILE
    if not path.exists():
        return None
    doc = read_json_object(path)
    sizes = doc.get("vocab_size_a"), doc.get("vocab_size_b")
    for key, size in zip(("vocab_size_a", "vocab_size_b"), sizes):
        if size is not None and (type(size) is not int or size < 1):
            raise CorpusParseError(f"{path}: {key} must be a positive integer (got {size!r})")
    return max((size for size in sizes if size is not None), default=None)


def cmd_train(config: RunConfig) -> int:
    config.validate()

    data_dir = Path(config.data_dir)
    corpus = datagen.load_tsv(str(data_dir / PARALLEL_FILE))
    sts_path = data_dir / STS_FILE
    sts = datagen.load_sts_tsv(str(sts_path)) if sts_path.exists() else None
    nli = None
    if config.nli_enabled:
        nli = datagen.load_nli_tsv(str(data_dir / NLI_FILE))
    vocab_size = _load_vocab_size(data_dir)
    result = trainer.train(config, corpus, nli_data=nli, sts_pairs=sts, vocab_size=vocab_size)

    # made only now, so that a run refused by train leaves no directory behind
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(str(out / "checkpoint.bin"), result.state.base_a, result.state.base_b)
    with open(out / "metrics.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for record in result.records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    _write_json(out / TRAIN_CONFIG_FILE, dataclasses.asdict(config))
    final = result.records[-1]
    print(
        f"trained {config.epochs} epochs: "
        f"acc_ab={final['retrieval_acc_ab']:.4f} acc_ba={final['retrieval_acc_ba']:.4f}"
    )
    return 0


def _trained_pooling(checkpoint: str) -> Pooling:
    """The pooling recorded in train_config.json beside the checkpoint: the
    towers were trained with it, and the corpus cannot tell it."""
    path = Path(checkpoint).parent / TRAIN_CONFIG_FILE
    if not path.exists():
        raise CorpusParseError(f"{path}: missing; it records the pooling the checkpoint was trained with")
    pooling = read_json_object(path).get("pooling")
    if pooling not in FLAG_CHOICES["pooling"]:
        raise CorpusParseError(f"{path}: pooling must be one of {FLAG_CHOICES['pooling']} (got {pooling!r})")
    return Pooling(pooling)


@dataclass
class EmbedConfig:
    checkpoint: str = "run/checkpoint.bin"
    data_dir: str = "data"
    split: str = "test"
    out_dir: str = "embeddings"


def cmd_embed(config: EmbedConfig) -> int:
    params_a, params_b = load_checkpoint(config.checkpoint)
    pooling = _trained_pooling(config.checkpoint)
    corpus = datagen.load_tsv(str(Path(config.data_dir) / PARALLEL_FILE))
    rows = corpus.split(config.split)
    if not len(rows):
        raise CorpusParseError(f"split {config.split!r} has no pairs")
    embs_a = encode_batch(params_a, gather_batch(corpus.tokens_a, rows), pooling)
    embs_b = encode_batch(params_b, gather_batch(corpus.tokens_b, rows), pooling)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    source = str(Path(config.data_dir) / PARALLEL_FILE)
    path_a = out / f"{config.split}_a.emb"
    path_b = out / f"{config.split}_b.emb"
    evaluation.save_embeddings(str(path_a), embs_a, source_corpus=f"{source}#{config.split}/a")
    evaluation.save_embeddings(str(path_b), embs_b, source_corpus=f"{source}#{config.split}/b")
    _write_json(out / "embed_config.json", dataclasses.asdict(config))
    print(f"wrote {len(rows)} embeddings per side: {path_a} {path_b}")
    return 0


@dataclass
class RetrievalConfig:
    src: str = "embeddings/test_a.emb"
    tgt: str = "embeddings/test_b.emb"
    out: str = "retrieval.json"


def cmd_eval_retrieval(config: RetrievalConfig) -> int:
    embs_a = evaluation.load_embeddings(config.src)
    embs_b = evaluation.load_embeddings(config.tgt)
    acc_ab, acc_ba = evaluation.retrieval_accuracy(embs_a, embs_b)
    doc = {"acc_forward": acc_ab, "acc_backward": acc_ba, "count": embs_a.shape[0]}
    _write_json(config.out, doc)
    _write_json(Path(config.out).with_suffix("").as_posix() + "_config.json", dataclasses.asdict(config))
    print(f"retrieval accuracy: forward={acc_ab:.4f} backward={acc_ba:.4f}")
    return 0


@dataclass
class MineConfig:
    checkpoint: str = "run/checkpoint.bin"
    data_dir: str = "data"
    k: int = 3
    variant: str = "distance"
    out: str = "mining.json"


def cmd_mine(config: MineConfig) -> int:
    params_a, params_b = load_checkpoint(config.checkpoint)
    pooling = _trained_pooling(config.checkpoint)
    paths = [str(Path(config.data_dir) / name) for name in (MINING_VAL_FILE, MINING_TEST_FILE)]
    val, test = map(datagen.load_mining_json, paths)
    for path, corpus in zip(paths, (val, test)):
        check_ids(corpus.side_a, params_a.vocab_size, f"{path}: side_a sentence")
        check_ids(corpus.side_b, params_b.vocab_size, f"{path}: side_b sentence")
    (val_a, val_b), (test_a, test_b) = (
        (encode_batch(params_a, corpus.side_a, pooling), encode_batch(params_b, corpus.side_b, pooling))
        for corpus in (val, test)
    )
    val_result = evaluation.mine_bitext(val_a, val_b, k=config.k, variant=config.variant)
    lam, val_f1 = evaluation.search_threshold(val_result.scored, val.gold_pairs)
    test_result = evaluation.mine_bitext(
        test_a, test_b, k=config.k, variant=config.variant, threshold=lam
    )
    precision, recall, score = evaluation.f1(test_result.accepted, test.gold_pairs)
    doc = {
        "lambda": lam,
        "validation_f1": val_f1,
        "precision": precision,
        "recall": recall,
        "f1": score,
        "pairs": [list(p) for p in test_result.accepted],
    }
    _write_json(config.out, doc)
    _write_json(Path(config.out).with_suffix("").as_posix() + "_config.json", dataclasses.asdict(config))
    print(f"mining ({config.variant}): f1={score:.4f} precision={precision:.4f} recall={recall:.4f}")
    return 0


@dataclass
class StsConfig:
    checkpoint: str = "run/checkpoint.bin"
    data_dir: str = "data"
    out: str = "sts.json"


def cmd_eval_sts(config: StsConfig) -> int:
    params_a, _ = load_checkpoint(config.checkpoint)
    pooling = _trained_pooling(config.checkpoint)
    path = str(Path(config.data_dir) / STS_FILE)
    pairs = datagen.load_sts_tsv(path)
    evaluation.check_sts_pairs(pairs, params_a.vocab_size, path)
    rho = evaluation.sts_eval(params_a, pairs, pooling)
    _write_json(config.out, {"spearman": rho, "count": len(pairs)})
    _write_json(Path(config.out).with_suffix("").as_posix() + "_config.json", dataclasses.asdict(config))
    print(f"similarity correlation: spearman={rho:.4f} over {len(pairs)} pairs")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualmoco", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cls, func, help_text in (
        ("gen-data", GenConfig, cmd_gen_data, "generate a synthetic bilingual dataset directory"),
        ("train", RunConfig, cmd_train, "train the dual towers on a dataset directory"),
        ("embed", EmbedConfig, cmd_embed, "encode one split of the parallel corpus to binary dumps"),
        ("eval-retrieval", RetrievalConfig, cmd_eval_retrieval, "rank-1 accuracy between two embedding dumps"),
        ("mine", MineConfig, cmd_mine, "margin-based mining with validation-tuned threshold"),
        ("eval-sts", StsConfig, cmd_eval_sts, "rank correlation against gold similarity"),
    ):
        command = sub.add_parser(name, help=help_text)
        _add_config_flags(command, cls)
        command.set_defaults(func=func, config_cls=cls)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        return args.func(_resolve_config(args.config_cls, args))
    except DualMocoError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

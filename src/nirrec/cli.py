"""Command-line interface: prepare / train / eval / ablate / sweep.

Every command reads an optional flat key=value config file, applies
command-line overrides on top (flag > file > default), derives all
randomness from one --seed, and drops a manifest.json recording input
digests, the effective configuration, and output paths, so any artifact
can be traced back to exactly what produced it.

Exit codes: 0 success, 2 ingestion, 3 training, 4 evaluation, 1 anything
else.  Logging verbosity comes from NIRREC_LOG={error,info,debug}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable

from . import __version__
from .errors import (
    ConfigurationError,
    EvaluationError,
    IngestionError,
    NirRecError,
    TrainingError,
)
from .evaluate import (
    EvalOptions,
    evaluate,
    write_metrics_json,
    write_plotdata_csv,
    write_rankings_csv,
)
from .ingest import PrepareOptions, load_shards, prepare, read_utf8, save_shards
from .model import ABLATIONS, TrainConfig, apply_ablation, config_key, load_params, train

log = logging.getLogger("nirrec")

DEFAULT_SWEEP_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)


# ---------------------------------------------------------------------------
# configuration plumbing


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {raw!r}")


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


# Each stage's dataclass declares its options.  Every field but ``seed`` is
# a config-file key (its ``config_key``) and a command-line flag, converted
# by the type of its default (a None default takes a path); ``seed`` is the
# shared --seed flag instead.  Value checks live in each __post_init__.
STAGES = (TrainConfig, PrepareOptions, EvalOptions)
OPTIONS = {cls: tuple(f for f in fields(cls) if f.name != "seed") for cls in STAGES}
# The flags not spelled after their config key.
FLAGS = {"eval_ks": "--k", "vectors_path": "--vectors"}
_CONVERTERS = {
    int: int, float: float, str: str, type(None): str, bool: _parse_bool, tuple: _parse_ints,
}
ALL_KEYS = {
    config_key(f.name): _CONVERTERS[type(f.default)] for cls in STAGES for f in OPTIONS[cls]
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; unknown keys are fatal."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    out: dict[str, str] = {}
    text = read_utf8(path, ConfigurationError)
    for lineno, line in enumerate(text.splitlines(), start=1):
        bare = line.split("#", 1)[0].strip()
        if not bare:
            continue
        if "=" not in bare:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in bare.split("=", 1))
        if key not in ALL_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value
    return out


def _convert(key: str, raw: str):
    """A config-file value converted by its key's type; a malformed one names both."""
    try:
        return ALL_KEYS[key](raw)
    except (ValueError, ConfigurationError) as e:
        raise ConfigurationError(f"config key {key!r} has a malformed value {raw!r}: {e}") from e


def build_options(cls, args: argparse.Namespace, file_cfg: dict[str, str], base=None):
    """``cls`` with each field taken flag > file > ``base`` (default: the
    field's default); ``seed`` comes from the shared --seed flag."""
    values = {}
    for f in fields(cls):
        flag, key = getattr(args, f.name, None), config_key(f.name)
        if flag is not None:
            values[f.name] = flag
        elif key in file_cfg:
            values[f.name] = _convert(key, file_cfg[key])
    return cls(**values) if base is None else replace(base, **values)


def as_config(*options) -> dict:
    """A manifest's config: every field of each options object under its
    config key, tuples as lists."""
    out = {}
    for opts in options:
        for f in fields(opts):
            value = getattr(opts, f.name)
            out[config_key(f.name)] = list(value) if isinstance(value, tuple) else value
    return out


# ---------------------------------------------------------------------------
# manifest


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_digests(paths: list[Path]) -> dict[str, str]:
    out = {}
    for p in paths:
        if p.is_dir():
            for child in sorted(p.iterdir()):
                # A directory's own manifest carries wall-clock time, so
                # digesting it would make downstream manifests unstable.
                if child.is_file() and child.name != "manifest.json":
                    out[str(child)] = _sha256(child)
        elif p.is_file():
            out[str(p)] = _sha256(p)
    return out


def write_manifest(
    out_dir: Path,
    command: str,
    seed: int,
    config: dict,
    inputs: list[Path],
    outputs: list[Path],
    seconds: float,
) -> None:
    config_blob = json.dumps(config, sort_keys=True)
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": config,
        "config_hash": hashlib.sha256(config_blob.encode()).hexdigest(),
        "inputs": _input_digests(inputs),
        "outputs": [str(p) for p in outputs],
        "seconds": round(seconds, 6),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# commands


def _file_config(args: argparse.Namespace) -> dict[str, str]:
    return parse_config_file(args.config) if args.config else {}


def cmd_prepare(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    opts = build_options(PrepareOptions, args, _file_config(args))
    out = Path(args.out)
    log.info("preparing %s + %s -> %s", args.sessions, args.catalog, out)
    data = prepare(args.sessions, args.catalog, opts)
    save_shards(out, data)
    stats = data.stats
    print("Items            %d" % stats["items"])
    print("Train sessions   %d" % stats["train_sessions"])
    print("Test sessions    %d" % stats["test_sessions"])
    print("Average length   %.4g" % stats["avg_length"])
    write_manifest(
        out, "prepare", args.seed, as_config(opts),
        [Path(p) for p in (args.sessions, args.catalog, opts.vectors_path) if p is not None],
        [out / "shard.bin", out / "index.json"],
        time.perf_counter() - started,
    )
    return 0


def _train_once(shards: Path, cfg: TrainConfig, out: Path) -> tuple[Path, Path]:
    data = load_shards(shards)
    result = train(data, cfg)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "checkpoint.bin"
    result.params.save(ckpt)
    log_path = out / "epochs.jsonl"
    with log_path.open("w", encoding="utf-8") as fh:
        for entry in result.epoch_log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return ckpt, log_path


def cmd_train(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    cfg = build_options(TrainConfig, args, _file_config(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log.info("training on %s (lambda=%g gamma=%g)", args.shards, cfg.lambda_, cfg.gamma)
    ckpt, log_path = _train_once(Path(args.shards), cfg, out)
    write_manifest(
        out, "train", args.seed, as_config(cfg),
        [Path(args.shards)], [ckpt, log_path],
        time.perf_counter() - started,
    )
    print(f"checkpoint written to {ckpt}")
    return 0


def _evaluate_once(
    shards: Path, ckpt: Path, out: Path, ev: EvalOptions,
    configure: Callable[[TrainConfig], TrainConfig] = lambda stored: stored,
):
    """Score a checkpoint under ``ev`` and the config it carries, as
    ``configure`` adjusts it."""
    data = load_shards(shards)
    params, stored = load_params(ckpt, data)
    cfg = configure(stored)
    report = evaluate(params, data, cfg, ev)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.json"
    rankings_path = out / "rankings.csv"
    write_metrics_json(metrics_path, report)
    write_rankings_csv(rankings_path, report.results, data.item_ids)
    return cfg, report, metrics_path, rankings_path


def _print_metrics(report) -> None:
    print(f"{'k':>4}  {'P@k':>10}  {'MRR@k':>10}")
    for k in sorted(report.p):
        print(f"{k:>4}  {report.p[k]:>10.4f}  {report.mrr[k]:>10.4f}")
    print(f"sessions evaluated: {report.sessions}  skipped: {report.skipped}")


def cmd_eval(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    file_cfg = _file_config(args)
    ev = build_options(EvalOptions, args, file_cfg)

    def configure(stored: TrainConfig) -> TrainConfig:
        """--seed, and --k or the file's eval_ks, on the stored config; every
        other training key in the file must agree with it."""
        cfg = build_options(TrainConfig, args, file_cfg, base=stored)
        have = as_config(stored)
        for key, value in as_config(cfg).items():
            if key not in ("seed", "eval_ks") and value != have[key]:
                raise EvaluationError(
                    f"config key {key!r} = {file_cfg[key]} disagrees with the checkpoint's "
                    f"{key} = {have[key]}"
                )
        return cfg

    out = Path(args.out)
    cfg, report, metrics_path, rankings_path = _evaluate_once(
        Path(args.shards), Path(args.checkpoint), out, ev, configure
    )
    _print_metrics(report)
    write_manifest(
        out, "eval", args.seed, as_config(cfg, ev),
        [Path(args.shards), Path(args.checkpoint)],
        [metrics_path, rankings_path],
        time.perf_counter() - started,
    )
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    file_cfg = _file_config(args)
    cfg = apply_ablation(build_options(TrainConfig, args, file_cfg), args.which)
    ev = build_options(EvalOptions, args, file_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log.info("ablation %s on %s", args.which, args.shards)
    ckpt, log_path = _train_once(Path(args.shards), cfg, out)
    _, report, metrics_path, rankings_path = _evaluate_once(Path(args.shards), ckpt, out, ev)
    print(f"ablation {args.which}:")
    _print_metrics(report)
    write_manifest(
        out, "ablate", args.seed, {**as_config(cfg, ev), "ablation": args.which},
        [Path(args.shards)], [ckpt, log_path, metrics_path, rankings_path],
        time.perf_counter() - started,
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    file_cfg = _file_config(args)
    base_cfg = build_options(TrainConfig, args, file_cfg)
    ev = build_options(EvalOptions, args, file_cfg)
    if args.values:
        try:
            values = tuple(float(v) for v in args.values.split(",") if v.strip())
        except ValueError as e:
            raise ConfigurationError(f"bad sweep values {args.values!r}") from e
    else:
        values = DEFAULT_SWEEP_VALUES
    if not values or any(not 0.0 <= v <= 1.0 for v in values):
        raise ConfigurationError(f"sweep values must lie in [0, 1], got {values}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    first_error: NirRecError | None = None
    for value in values:
        if args.param == "lambda":
            cfg = replace(base_cfg, lambda_=value)
        else:
            cfg = replace(base_cfg, gamma=value)
        run_dir = out / f"{args.param}_{value:g}"
        try:
            ckpt, _ = _train_once(Path(args.shards), cfg, run_dir)
            _, report, _, _ = _evaluate_once(
                Path(args.shards), ckpt, run_dir, ev,
                lambda stored: replace(stored, eval_ks=tuple(sorted({*stored.eval_ks, 20}))),
            )
            p20 = report.p[20]
            rows.append({"value": value, "p_at_20": p20, "status": "ok"})
            log.info("%s=%g -> P@20 %.4f", args.param, value, p20)
        except NirRecError as e:
            rows.append({"value": value, "p_at_20": None, "status": f"failed: {e}"})
            if first_error is None:
                first_error = e
    plot_path = out / "plotdata.csv"
    write_plotdata_csv(plot_path, args.param, rows)
    write_manifest(
        out, "sweep", args.seed,
        {**as_config(base_cfg, ev), "param": args.param, "values": list(values)},
        [Path(args.shards)], [plot_path],
        time.perf_counter() - started,
    )
    print(f"sweep rows written to {plot_path}")
    if first_error is not None:
        raise first_error
    return 0


# ---------------------------------------------------------------------------
# argument parsing and exit-code mapping


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", required=True, help="output directory")


def _add_flags(parser: argparse.ArgumentParser, cls, only: tuple[str, ...] = ()) -> None:
    """One flag per option field of ``cls`` (or of the fields in ``only``)."""
    for f in OPTIONS[cls]:
        if only and f.name not in only:
            continue
        key = config_key(f.name)
        flag = FLAGS.get(f.name, "--" + key.replace("_", "-"))
        if type(f.default) is bool:
            parser.add_argument(flag, dest=f.name, action="store_true", default=None)
        else:
            parser.add_argument(flag, dest=f.name, type=ALL_KEYS[key])


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 by ConfigurationError, not 2, the ingestion code."""

    def error(self, message: str):
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nirrec",
        description="Session-based new-item recommender: dataset preparation, "
        "training, evaluation, ablations, and hyperparameter sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest sessions + catalog into shards")
    p.add_argument("sessions")
    p.add_argument("catalog")
    _add_flags(p, PrepareOptions)
    _add_shared(p)
    p.set_defaults(func=cmd_prepare)

    t = sub.add_parser("train", help="train a model on prepared shards")
    t.add_argument("shards")
    _add_flags(t, TrainConfig)
    _add_shared(t)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("shards")
    e.add_argument("checkpoint")
    _add_flags(e, EvalOptions)
    _add_flags(e, TrainConfig, only=("eval_ks",))
    _add_shared(e)
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="train + evaluate one ablation")
    a.add_argument("shards")
    a.add_argument("--which", required=True, choices=ABLATIONS)
    _add_flags(a, TrainConfig)
    _add_flags(a, EvalOptions)
    _add_shared(a)
    a.set_defaults(func=cmd_ablate)

    s = sub.add_parser("sweep", help="train + evaluate across lambda or gamma values")
    s.add_argument("shards")
    s.add_argument("--param", required=True, choices=("lambda", "gamma"))
    s.add_argument("--values", help="comma-separated values (default 0.1,0.3,0.5,0.7,0.9)")
    _add_flags(s, TrainConfig)
    _add_flags(s, EvalOptions)
    _add_shared(s)
    s.set_defaults(func=cmd_sweep)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("NIRREC_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        level_name, logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            if args.command != "eval":
                parser.error(f"unrecognized arguments: {' '.join(unknown)}")
            raise EvaluationError(
                f"unrecognized arguments {' '.join(unknown)}: eval takes the model "
                "definition from the checkpoint"
            )
        return args.func(args)
    except IngestionError as e:
        print(f"ingestion error: {e}", file=sys.stderr)
        return 2
    except TrainingError as e:
        print(f"training error: {e}", file=sys.stderr)
        return 3
    except EvaluationError as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return 4
    except NirRecError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()

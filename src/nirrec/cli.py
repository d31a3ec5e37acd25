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

from . import __version__
from .errors import (
    ConfigurationError,
    EvaluationError,
    IngestionError,
    NirRecError,
    TrainingError,
)
from .evaluate import (
    evaluate,
    evaluate_sampled,
    write_metrics_json,
    write_plotdata_csv,
    write_rankings_csv,
)
from .ingest import PrepareOptions, load_shards, prepare, save_shards
from .model import (
    ABLATIONS,
    CANDIDATE_MODES,
    TrainConfig,
    apply_ablation,
    config_key,
    load_params,
    train,
)

log = logging.getLogger("nirrec")

DEFAULT_SWEEP_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)
EVAL_MODES = ("mean", "sampled")


# ---------------------------------------------------------------------------
# configuration plumbing


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {raw!r}")


def _parse_ks(raw: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in str(raw).split(",") if part.strip())
    except ValueError as e:
        raise ConfigurationError(f"bad k list {raw!r}") from e
    if not ks:
        raise ConfigurationError("k list is empty")
    return ks


def _parse_levels(raw: str) -> tuple[int, int, int]:
    parts = [p for p in str(raw).split(",") if p.strip()]
    if len(parts) != 3:
        raise ConfigurationError(f"levels must be three integers k1,k2,k3, got {raw!r}")
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


# The TrainConfig fields are the training schema: each one is a config-file
# key (its ``config_key``) and a command-line flag, converted by the type of
# its default.  ``seed`` is the shared --seed flag instead.
TRAIN_FIELDS = tuple(f for f in fields(TrainConfig) if f.name != "seed")
_CONVERTERS = {int: int, float: float, str: str, bool: _parse_bool, tuple: _parse_ks}
TRAIN_KEYS = {config_key(f.name): _CONVERTERS[type(f.default)] for f in TRAIN_FIELDS}
PREPARE_KEYS = {
    "levels": _parse_levels,
    "attr_mode": str,
    "vectors_path": str,
    "boundary_days": float,
    "label_vector_dim": int,
}
EVAL_KEYS = {
    "eval_mode": str,
    "repeats": int,
    "strict_precision": _parse_bool,
}
ALL_KEYS = {**TRAIN_KEYS, **PREPARE_KEYS, **EVAL_KEYS}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; unknown keys are fatal."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
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


def _layered(key: str, flag_value, file_cfg: dict[str, str], default):
    """flag > file > default, with type conversion for file values."""
    if flag_value is not None:
        return flag_value
    if key in file_cfg:
        return _convert(key, file_cfg[key])
    return default


def build_train_config(args: argparse.Namespace, file_cfg: dict[str, str]) -> TrainConfig:
    return TrainConfig(
        seed=args.seed,
        **{
            f.name: _layered(config_key(f.name), getattr(args, f.name), file_cfg, f.default)
            for f in TRAIN_FIELDS
        },
    )


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


def cmd_prepare(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    file_cfg = parse_config_file(args.config) if args.config else {}
    opts = PrepareOptions(
        level_sizes=_layered("levels", args.levels, file_cfg, PrepareOptions().level_sizes),
        attr_mode=_layered("attr_mode", args.attr_mode, file_cfg, "trainable"),
        vectors_path=_layered("vectors_path", args.vectors, file_cfg, None),
        boundary_days=_layered("boundary_days", args.boundary_days, file_cfg, 7.0),
        label_vector_dim=_layered("label_vector_dim", None, file_cfg, 16),
        seed=args.seed,
    )
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
        out,
        "prepare",
        args.seed,
        {
            "levels": list(opts.level_sizes),
            "attr_mode": opts.attr_mode,
            "vectors_path": opts.vectors_path,
            "boundary_days": opts.boundary_days,
            "label_vector_dim": opts.label_vector_dim,
        },
        [Path(args.sessions), Path(args.catalog)],
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
    file_cfg = parse_config_file(args.config) if args.config else {}
    cfg = apply_ablation(build_train_config(args, file_cfg), args.ablate)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log.info("training on %s (lambda=%g gamma=%g)", args.shards, cfg.lambda_, cfg.gamma)
    ckpt, log_path = _train_once(Path(args.shards), cfg, out)
    write_manifest(
        out, "train", args.seed, cfg.to_dict(),
        [Path(args.shards)], [ckpt, log_path],
        time.perf_counter() - started,
    )
    print(f"checkpoint written to {ckpt}")
    return 0


def _evaluate_once(
    shards: Path, ckpt: Path, out: Path, seed: int, file_cfg: dict[str, str] | None = None,
    ks: tuple[int, ...] | None = None, eval_mode: str = "mean", repeats: int = 1,
    strict: bool = False,
):
    """Score a checkpoint under the config it carries.  Keys of ``file_cfg``
    must agree with that config, except eval_ks, which evaluation sets."""
    data = load_shards(shards)
    params, stored = load_params(ckpt, data)
    file_cfg = file_cfg or {}
    stored_values = stored.to_dict()
    for key, raw in file_cfg.items():
        if key in TRAIN_KEYS and key != "eval_ks" and _convert(key, raw) != stored_values[key]:
            raise EvaluationError(
                f"config key {key!r} = {raw} disagrees with the checkpoint's "
                f"{key} = {stored_values[key]}"
            )
    cfg = replace(stored, seed=seed, eval_ks=_layered("eval_ks", ks, file_cfg, stored.eval_ks))
    if eval_mode == "sampled":
        report = evaluate_sampled(params, data, cfg, repeats=repeats, strict_precision=strict)
    else:
        report = evaluate(params, data, cfg, strict_precision=strict)
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
    file_cfg = parse_config_file(args.config) if args.config else {}
    eval_mode = _layered("eval_mode", args.eval_mode, file_cfg, "mean")
    if eval_mode not in EVAL_MODES:
        modes = " or ".join(EVAL_MODES)
        raise ConfigurationError(f"eval_mode must be {modes}, got {eval_mode!r}")
    repeats = _layered("repeats", args.repeats, file_cfg, 5)
    strict = _layered("strict_precision", args.strict_precision or None, file_cfg, False)
    out = Path(args.out)
    cfg, report, metrics_path, rankings_path = _evaluate_once(
        Path(args.shards), Path(args.checkpoint), out, args.seed, file_cfg, args.eval_ks,
        eval_mode, repeats, strict,
    )
    _print_metrics(report)
    write_manifest(
        out, "eval", args.seed,
        {**cfg.to_dict(), "eval_mode": eval_mode, "repeats": repeats,
         "strict_precision": strict},
        [Path(args.shards), Path(args.checkpoint)],
        [metrics_path, rankings_path],
        time.perf_counter() - started,
    )
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    file_cfg = parse_config_file(args.config) if args.config else {}
    cfg = apply_ablation(build_train_config(args, file_cfg), args.which)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log.info("ablation %s on %s", args.which, args.shards)
    ckpt, log_path = _train_once(Path(args.shards), cfg, out)
    _, report, metrics_path, rankings_path = _evaluate_once(
        Path(args.shards), ckpt, out, args.seed
    )
    print(f"ablation {args.which}:")
    _print_metrics(report)
    write_manifest(
        out, "ablate", args.seed, {**cfg.to_dict(), "ablation": args.which},
        [Path(args.shards)], [ckpt, log_path, metrics_path, rankings_path],
        time.perf_counter() - started,
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    file_cfg = parse_config_file(args.config) if args.config else {}
    base_cfg = build_train_config(args, file_cfg)
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
                Path(args.shards), ckpt, run_dir, args.seed, ks=tuple(sorted({*cfg.eval_ks, 20}))
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
        {**base_cfg.to_dict(), "param": args.param, "values": list(values)},
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


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    for f in TRAIN_FIELDS:
        key = config_key(f.name)
        flag = "--k" if key == "eval_ks" else "--" + key.replace("_", "-")
        if type(f.default) is bool:
            parser.add_argument(flag, dest=f.name, action="store_true", default=None)
        else:
            parser.add_argument(
                flag, dest=f.name, type=TRAIN_KEYS[key],
                choices=CANDIDATE_MODES if key == "candidate_mode" else None,
            )


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
    p.add_argument("--levels", type=_parse_levels, help="taxonomy cluster sizes k1,k2,k3")
    p.add_argument("--attr-mode", dest="attr_mode", choices=("trainable", "pretrained"))
    p.add_argument("--vectors", help="pretrained token vector file")
    p.add_argument("--boundary-days", dest="boundary_days", type=float)
    _add_shared(p)
    p.set_defaults(func=cmd_prepare)

    t = sub.add_parser("train", help="train a model on prepared shards")
    t.add_argument("shards")
    t.add_argument("--ablate", choices=ABLATIONS)
    _add_train_flags(t)
    _add_shared(t)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("shards")
    e.add_argument("checkpoint")
    e.add_argument("--eval-mode", dest="eval_mode", choices=EVAL_MODES)
    e.add_argument("--repeats", type=int)
    e.add_argument("--strict-precision", dest="strict_precision", action="store_true")
    e.add_argument("--k", dest="eval_ks", type=_parse_ks, help="comma-separated cutoffs")
    _add_shared(e)
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="train + evaluate one ablation")
    a.add_argument("shards")
    a.add_argument("--which", required=True, choices=ABLATIONS)
    _add_train_flags(a)
    _add_shared(a)
    a.set_defaults(func=cmd_ablate)

    s = sub.add_parser("sweep", help="train + evaluate across lambda or gamma values")
    s.add_argument("shards")
    s.add_argument("--param", required=True, choices=("lambda", "gamma"))
    s.add_argument("--values", help="comma-separated values (default 0.1,0.3,0.5,0.7,0.9)")
    _add_train_flags(s)
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

"""Command-line interface tests: exit codes, config layering, manifests,
artifact determinism, and the sweep/ablation surface."""

import csv
import hashlib
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import nirrec.cli as cli
from nirrec.autodiff import load_tensors, save_tensors
from nirrec.cli import DEFAULT_SWEEP_VALUES, main, parse_config_file
from nirrec.datagen import write_toy_dataset
from nirrec.errors import ConfigurationError, EvaluationError, IngestionError, TrainingError
from nirrec.evaluate import EvalOptions, evaluate, write_rankings_csv
from nirrec.ingest import PrepareOptions, load_sessions, load_shards
from nirrec.model import TrainConfig, load_params
from nirrec.model import train as real_train


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    sessions, catalog = write_toy_dataset(root)
    return sessions, catalog


@pytest.fixture(scope="module")
def shards(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("shards")
    sessions, catalog = corpus
    assert main(["prepare", str(sessions), str(catalog), "--out", str(out), "--seed", "0"]) == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, shards):
    out = tmp_path_factory.mktemp("run")
    argv = ["train", str(shards), "--out", str(out), "--epochs", "2", "--d", "16",
            "--seed", "3"]
    assert main(argv) == 0
    return out / "checkpoint.bin"


# Every option field with its dataclass, command-line flag, config-file key,
# a value other than its default (as typed on the command line;
# `vectors_path`'s value names a vector file the test writes), and a value
# of the wrong type for the library.
SCHEMA = {
    "d": (TrainConfig, "--d", "d", "8", 8.5),
    "d_a": (TrainConfig, "--d-a", "d_a", "5", "5"),
    "h": (TrainConfig, "--h", "h", "7", 7.0),
    "t_steps": (TrainConfig, "--t-steps", "t_steps", "2", True),
    "lambda_": (TrainConfig, "--lambda", "lambda", "0.25", "0.25"),
    "gamma": (TrainConfig, "--gamma", "gamma", "0.75", True),
    "lr": (TrainConfig, "--lr", "lr", "0.01", "0.01"),
    "epochs": (TrainConfig, "--epochs", "epochs", "3", 3.0),
    "batch_size": (TrainConfig, "--batch-size", "batch_size", "4", "4"),
    "beta_seed": (TrainConfig, "--beta-seed", "beta_seed", "6", 6.5),
    "candidate_mode": (TrainConfig, "--candidate-mode", "candidate_mode", "sampled", 1),
    "negatives": (TrainConfig, "--negatives", "negatives", "9", 9.5),
    "eval_ks": (TrainConfig, "--k", "eval_ks", "1,5", (1, 5.0)),
    "propagate_taxonomy": (
        TrainConfig, "--propagate-taxonomy", "propagate_taxonomy", "true", "no"
    ),
    "levels": (PrepareOptions, "--levels", "levels", "4,3,2", "4,3,2"),
    "attr_mode": (PrepareOptions, "--attr-mode", "attr_mode", "pretrained", None),
    "vectors_path": (PrepareOptions, "--vectors", "vectors_path", "other.vec", 3),
    "boundary_days": (PrepareOptions, "--boundary-days", "boundary_days", "6.5", "7"),
    "label_vector_dim": (PrepareOptions, "--label-vector-dim", "label_vector_dim", "4", 4.0),
    "eval_mode": (EvalOptions, "--eval-mode", "eval_mode", "sampled", ["sampled"]),
    "repeats": (EvalOptions, "--repeats", "repeats", "2", True),
    "strict_precision": (EvalOptions, "--strict-precision", "strict_precision", "true", 1),
}
COMMAND_OF = {PrepareOptions: "prepare", TrainConfig: "train", EvalOptions: "eval"}


def write_token_vectors(path, catalog):
    """A pretrained vector file covering every attribute token of ``catalog``."""
    tokens = sorted({
        tok for line in Path(catalog).read_text().splitlines()
        for tok in json.loads(line)["attributes"]
    })
    path.write_text("".join(f"{t} {i}.0 1.0\n" for i, t in enumerate(tokens)))
    return path


class TestTrainSchema:
    """The fields of PrepareOptions, TrainConfig and EvalOptions drive the
    flags, the config keys and each command's manifest."""

    def test_every_field_is_covered(self):
        declared = {(cls, f.name) for cls in COMMAND_OF for f in fields(cls) if f.name != "seed"}
        assert {(cls, name) for name, (cls, *_) in SCHEMA.items()} == declared
        assert {key for _, _, key, *_ in SCHEMA.values()} == set(cli.ALL_KEYS)

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("Config keys accepted in `--config` files:", 1)[1]
        listed = re.findall(r"`(\w+)`", section.split("\n\n", 1)[0])
        assert listed == list(cli.ALL_KEYS)

    @pytest.mark.parametrize("name", sorted(SCHEMA))
    def test_field_through_flag_file_and_round_trip(
        self, name, tmp_path, corpus, shards, checkpoint
    ):
        cls, flag, key, raw, _ = SCHEMA[name]
        if name == "vectors_path":
            raw = str(write_token_vectors(tmp_path / raw, corpus[1]))
        command = COMMAND_OF[cls]
        # Flags each command is run with, unless the field under test is one.
        fixed = {
            "prepare": [*map(str, corpus), "--vectors",
                        str(write_token_vectors(tmp_path / "tokens.vec", corpus[1]))],
            "train": [str(shards), "--epochs", "1", "--d", "8"],
            "eval": [str(shards), str(checkpoint)],
        }[command]
        if flag in fixed:
            del fixed[fixed.index(flag):fixed.index(flag) + 2]
        base = [command, *fixed, "--seed", "2", "--out", str(tmp_path / "parsed")]
        flag_argv = [flag] if raw == "true" else [flag, raw]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {raw}\n")
        parser = cli.build_parser()
        from_flag = cli.build_options(cls, parser.parse_args(base + flag_argv), {})
        from_file = cli.build_options(cls, parser.parse_args(base), parse_config_file(cfg_file))
        assert getattr(from_flag, name) != getattr(cls(), name)
        assert from_flag == from_file
        assert getattr(from_flag, "seed", 2) == 2
        if cls is TrainConfig:
            assert TrainConfig.from_dict(cli.as_config(from_flag)) == from_flag
        recorded = []
        for label, argv in (("flag", base + flag_argv), ("file", base + ["--config", str(cfg_file)])):
            out = tmp_path / label
            assert main(argv + ["--out", str(out)]) == 0
            recorded.append(json.loads((out / "manifest.json").read_text())["config"][key])
        assert recorded == [cli.as_config(from_flag)[key]] * 2
        assert recorded[0] != cli.as_config(cls())[key]

    @pytest.mark.parametrize("name", sorted(SCHEMA))
    def test_wrong_type_is_a_configuration_error_naming_the_key(self, name):
        """Every field is checked against its default's type, whoever
        builds the options."""
        cls, _, key, _, wrong = SCHEMA[name]
        with pytest.raises(ConfigurationError, match=rf"^{key} must be "):
            cls(**{name: wrong})


class TestConfigFile:
    """Flat key=value config parsing and flag > file > default layering."""

    def test_parses_values_and_ignores_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nepochs = 4\n\nlambda=0.25  # trailing\n")
        assert parse_config_file(cfg) == {"epochs": "4", "lambda": "0.25"}

    def test_unknown_key_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        with pytest.raises(ConfigurationError, match="mystery"):
            parse_config_file(cfg)

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            parse_config_file(tmp_path / "absent.cfg")

    def test_line_without_equals_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs 4\n")
        with pytest.raises(ConfigurationError, match="key=value"):
            parse_config_file(cfg)

    def test_flag_beats_file_beats_default(self, tmp_path, shards):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 4\ngamma = 0.7\n")
        out = tmp_path / "out"
        argv = ["train", str(shards), "--config", str(cfg), "--epochs", "2",
                "--d", "16", "--out", str(out)]
        assert main(argv) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["epochs"] == 2
        assert config["gamma"] == 0.7
        assert config["lr"] == 1e-3


class TestExitCodes:
    """0 success, 2 ingestion, 3 training, 4 evaluation, 1 anything else."""

    def test_success_returns_zero(self, shards, checkpoint, tmp_path):
        argv = ["eval", str(shards), str(checkpoint), "--out", str(tmp_path / "e")]
        assert main(argv) == 0

    def test_missing_catalog_returns_two_and_names_file(self, corpus, tmp_path, capsys):
        sessions, _ = corpus
        missing = tmp_path / "nope.jsonl"
        argv = ["prepare", str(sessions), str(missing), "--out", str(tmp_path / "s")]
        assert main(argv) == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_vector_file_is_always_read(self, corpus, shards, tmp_path, capsys):
        """The toy catalog (trainable, explicit taxonomies) uses no vectors,
        but a given vector file is still read: a missing or malformed one
        exits 2 naming it, and a good one is digested among the manifest's
        inputs and leaves the shards as they are without it."""
        sessions, catalog = corpus
        base = ["prepare", str(sessions), str(catalog), "--out", str(tmp_path / "o")]
        bad = tmp_path / "bad.vec"
        bad.write_text("tok 1.0 x\n")
        for path in (tmp_path / "missing.vec", bad):
            assert main(base + ["--vectors", str(path)]) == 2
            assert str(path) in capsys.readouterr().err
        good = write_token_vectors(tmp_path / "tokens.vec", catalog)
        assert main(base + ["--vectors", str(good)]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["inputs"][str(good)] == sha(good)
        for name in ("shard.bin", "index.json"):
            assert sha(tmp_path / "o" / name) == sha(shards / name)

    def test_vocab_mismatch_returns_four(self, corpus, checkpoint, tmp_path):
        sessions, catalog = corpus
        rows = [json.loads(line) for line in Path(catalog).read_text().splitlines()]
        keep = {r["item"] for r in rows[:15]}
        small_cat = tmp_path / "cat.jsonl"
        small_cat.write_text("\n".join(json.dumps(r) for r in rows[:15]) + "\n")
        small_sess = tmp_path / "sess.jsonl"
        kept_lines = []
        for line in Path(sessions).read_text().splitlines():
            s = json.loads(line)
            s["events"] = [e for e in s["events"] if e["item"] in keep]
            if len(s["events"]) >= 2:
                kept_lines.append(json.dumps(s))
        small_sess.write_text("\n".join(kept_lines) + "\n")
        shards2 = tmp_path / "shards2"
        assert main(["prepare", str(small_sess), str(small_cat), "--out", str(shards2)]) == 0
        argv = ["eval", str(shards2), str(checkpoint), "--out", str(tmp_path / "e")]
        assert main(argv) == 4

    @pytest.mark.parametrize("which", ["sessions", "catalog", "vectors"])
    def test_input_not_utf8_returns_two_naming_file_and_offset(
        self, corpus, tmp_path, capsys, which
    ):
        """A file that starts with the bytes ff fe (a UTF-16 mark) is an
        ingestion fault at byte 0, not a UnicodeDecodeError."""
        sessions, catalog = corpus
        paths = {"sessions": Path(sessions), "catalog": Path(catalog)}
        paths["vectors"] = write_token_vectors(tmp_path / "tokens.vec", catalog)
        bad = tmp_path / f"bad-{which}"
        bad.write_bytes(b"\xff\xfe" + paths[which].read_bytes())
        paths[which] = bad
        argv = ["prepare", str(paths["sessions"]), str(paths["catalog"]),
                "--vectors", str(paths["vectors"]), "--out", str(tmp_path / "s")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text at byte 0" in err

    def test_decode_fault_names_the_byte_offset_past_the_first_block(self, corpus, tmp_path):
        """The offset is the file's, not that of the block a text-mode read
        was decoding."""
        sessions, _ = corpus
        text = Path(sessions).read_bytes() + b"\n" * 10_000
        bad = tmp_path / "late.jsonl"
        bad.write_bytes(text + b"\xff\n")
        with pytest.raises(IngestionError) as info:
            load_sessions(bad)
        assert str(info.value).startswith(f"{bad}: not UTF-8 text at byte {len(text)}")

    def test_shard_index_not_utf8_returns_two(self, shards, tmp_path, capsys):
        copy = tmp_path / "shards"
        copy.mkdir()
        for name in ("shard.bin", "index.json"):
            (copy / name).write_bytes((shards / name).read_bytes())
        index = copy / "index.json"
        index.write_bytes(b"\xff\xfe" + index.read_bytes())
        argv = ["train", str(copy), "--out", str(tmp_path / "t"), "--epochs", "1"]
        assert main(argv) == 2
        assert f"{index}: not UTF-8 text at byte 0" in capsys.readouterr().err

    def test_config_file_not_utf8_returns_one(self, shards, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfeepochs = 1\n")
        argv = ["train", str(shards), "--config", str(cfg), "--out", str(tmp_path / "t")]
        assert main(argv) == 1
        assert f"{cfg}: not UTF-8 text at byte 0" in capsys.readouterr().err

    def test_training_error_returns_three(self, shards, tmp_path, monkeypatch):
        def explode(data, cfg, params=None, progress=None):
            raise TrainingError("session 'boom' produced a non-finite loss")

        monkeypatch.setattr(cli, "train", explode)
        argv = ["train", str(shards), "--out", str(tmp_path / "t"), "--epochs", "1"]
        assert main(argv) == 3

    def test_non_finite_gradient_returns_three_and_writes_no_checkpoint(
        self, shards, tmp_path, monkeypatch, capsys
    ):
        """Huge item rows keep the forward finite but not the gradients:
        Adam refuses them, so no parameter is written."""
        import nirrec.model as model_mod

        real = model_mod.init_params

        def poisoned(data, cfg):
            params = real(data, cfg)
            params.encoder.item_table.data[5] = 1e300
            return params

        monkeypatch.setattr(model_mod, "init_params", poisoned)
        out = tmp_path / "t"
        assert main(["train", str(shards), "--out", str(out), "--epochs", "1", "--d", "8"]) == 3
        assert "non-finite gradient" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()

    def test_bad_config_key_returns_one(self, shards, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 3\n")
        argv = ["train", str(shards), "--config", str(cfg), "--out", str(tmp_path / "t")]
        assert main(argv) == 1

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_returns_one(self, shards, tmp_path, capsys, lr):
        """A NaN or infinite lr is a configuration error, not a data fault."""
        argv = ["train", str(shards), "--lr", lr, "--out", str(tmp_path / "t")]
        assert main(argv) == 1
        assert "lr must be finite and positive" in capsys.readouterr().err

    def test_sweep_value_out_of_range_returns_one(self, shards, tmp_path):
        argv = ["sweep", str(shards), "--param", "lambda", "--values", "0.5,1.5",
                "--out", str(tmp_path / "s")]
        assert main(argv) == 1

    @pytest.mark.parametrize("command, line", [
        ("prepare", "levels = 4,x,2"),
        ("train", "d = abc"),
        ("eval", "d = abc"),
    ])
    def test_malformed_config_value_returns_one_and_names_it(
        self, corpus, shards, checkpoint, tmp_path, capsys, command, line
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        inputs = {
            "prepare": [str(corpus[0]), str(corpus[1])],
            "train": [str(shards)],
            "eval": [str(shards), str(checkpoint)],
        }[command]
        argv = [command, *inputs, "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        key, value = (part.strip() for part in line.split("="))
        err = capsys.readouterr().err
        assert repr(key) in err and repr(value) in err

    @pytest.mark.parametrize("command, extra", [
        ("train", ["--bogus"]),
        ("train", ["--d", "abc"]),
        ("prepare", ["--levels", "4,x,2"]),
        ("train", ["--ablate", "no_beta"]),
    ])
    def test_usage_error_returns_one(self, corpus, shards, tmp_path, command, extra):
        """A malformed command line is not an ingestion error (2)."""
        inputs = {"prepare": [str(corpus[0]), str(corpus[1])], "train": [str(shards)]}[command]
        assert main([command, *inputs, *extra, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("line", [
        "boundary_days = nan",
        "boundary_days = inf",
        "levels = 1,2,3",
        "levels = 3,2",
        "label_vector_dim = 0",
        "label_vector_dim = -2",
    ])
    def test_bad_prepare_option_returns_one_and_names_it(
        self, corpus, tmp_path, capsys, line
    ):
        """Checked before any input is read, for a catalog with explicit
        taxonomies and for one with flat labels alike."""
        sessions, catalog = corpus
        labelled = tmp_path / "labelled.jsonl"
        rows = [json.loads(row) for row in Path(catalog).read_text().splitlines()]
        labelled.write_text("".join(
            json.dumps({**r, "taxonomy": None, "labels": r["taxonomy"][1:]}) + "\n"
            for r in rows
        ))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        key = line.split(" = ")[0]
        for cat in (catalog, labelled):
            argv = ["prepare", str(sessions), str(cat), "--config", str(cfg),
                    "--out", str(tmp_path / "o")]
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command, key, flag, value", [
        ("prepare", "levels", "--levels", "1,2,3"),
        ("prepare", "attr_mode", "--attr-mode", "dense"),
        ("prepare", "vectors_path", "--attr-mode", "pretrained"),
        ("prepare", "boundary_days", "--boundary-days", "nan"),
        ("prepare", "label_vector_dim", "--label-vector-dim", "0"),
        ("train", "d", "--d", "0"),
        ("train", "d_a", "--d-a", "0"),
        ("train", "h", "--h", "-1"),
        ("train", "t_steps", "--t-steps", "0"),
        ("train", "lambda", "--lambda", "1.5"),
        ("train", "gamma", "--gamma", "1.5"),
        ("train", "lr", "--lr", "0"),
        ("train", "epochs", "--epochs", "0"),
        ("train", "batch_size", "--batch-size", "0"),
        ("train", "candidate_mode", "--candidate-mode", "all"),
        ("train", "negatives", "--negatives", "0"),
        ("train", "eval_ks", "--k", "0"),
        ("eval", "eval_mode", "--eval-mode", "median"),
        ("eval", "repeats", "--repeats", "0"),
        ("eval", "eval_ks", "--k", "0"),
    ])
    def test_bad_option_fails_before_any_input_is_read(
        self, tmp_path, capsys, command, key, flag, value, source
    ):
        """Every option with a choice or a range, given a bad one from a
        flag or from the file, exits 1 naming its key, though no input
        exists.  (``vectors_path`` is named when pretrained has none.)"""
        inputs = [str(tmp_path / name) for name in {
            "prepare": ("sessions.jsonl", "catalog.jsonl"),
            "train": ("shards",),
            "eval": ("shards", "checkpoint.bin"),
        }[command]]
        if source == "flag":
            extra = [flag, value]
        else:
            file_key = {"--k": "eval_ks"}.get(flag, flag[2:].replace("-", "_"))
            (tmp_path / "bad.cfg").write_text(f"{file_key} = {value}\n")
            extra = ["--config", str(tmp_path / "bad.cfg")]
        assert main([command, *inputs, *extra, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    @pytest.mark.parametrize("mode", ["mean", "sampled"])
    @pytest.mark.parametrize("command", ["eval", "ablate", "sweep"])
    def test_bad_repeats_returns_one_and_names_it(
        self, shards, checkpoint, tmp_path, capsys, command, mode, repeats
    ):
        """Checked before any work, whether or not the mode uses it."""
        inputs = {
            "eval": [str(shards), str(checkpoint)],
            "ablate": [str(shards), "--which", "no_beta"],
            "sweep": [str(shards), "--param", "gamma", "--values", "0.5"],
        }[command]
        argv = [command, *inputs, "--eval-mode", mode, "--repeats", repeats,
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "repeats" in err
        assert not (tmp_path / "o").exists()


class TestManifests:
    """Each command emits exactly one manifest tying outputs to inputs."""

    def test_train_manifest_contents(self, shards, tmp_path):
        out = tmp_path / "run"
        argv = ["train", str(shards), "--out", str(out), "--epochs", "1",
                "--d", "16", "--seed", "7"]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 7
        assert manifest["seconds"] > 0
        assert len(manifest["config_hash"]) == 64
        for path, digest in manifest["inputs"].items():
            assert sha(path) == digest
        for path in manifest["outputs"]:
            assert Path(path).exists()

    def test_input_digests_cover_shard_files(self, shards, tmp_path):
        out = tmp_path / "run"
        assert main(["train", str(shards), "--out", str(out), "--epochs", "1",
                     "--d", "16"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        names = {Path(p).name for p in manifest["inputs"]}
        assert {"shard.bin", "index.json"} <= names
        assert "manifest.json" not in names

    def test_each_command_writes_one_manifest(self, corpus, shards, checkpoint, tmp_path):
        sessions, catalog = corpus
        runs = {
            "prepare": ["prepare", str(sessions), str(catalog),
                        "--out", str(tmp_path / "p")],
            "eval": ["eval", str(shards), str(checkpoint), "--out", str(tmp_path / "e")],
            "ablate": ["ablate", str(shards), "--which", "no_lzero", "--epochs", "1",
                       "--d", "16", "--out", str(tmp_path / "a")],
            "sweep": ["sweep", str(shards), "--param", "gamma", "--values", "0.5",
                      "--epochs", "1", "--d", "16", "--out", str(tmp_path / "w")],
        }
        for command, argv in runs.items():
            assert main(argv) == 0, command
            found = list(Path(argv[-1]).rglob("manifest.json"))
            assert len(found) == 1, command
            assert json.loads(found[0].read_text())["command"] == command

    @pytest.mark.parametrize("command", ["ablate", "sweep"])
    def test_training_commands_read_eval_keys(self, shards, tmp_path, command):
        """ablate and sweep score their runs under the file's eval keys, as
        eval does, and record them."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eval_mode = sampled\nrepeats = 2\nstrict_precision = true\n")
        out = tmp_path / "o"
        extra = {"ablate": ["--which", "no_beta"], "sweep": ["--param", "gamma", "--values", "0.5"]}
        argv = [command, str(shards), *extra[command], "--epochs", "1", "--d", "16",
                "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        run = out if command == "ablate" else out / "gamma_0.5"
        metrics = json.loads((run / "metrics.json").read_text())
        assert metrics["precision_convention"] == "strict"
        assert "p_std" in metrics and "mrr_std" in metrics
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["eval_mode"], config["repeats"], config["strict_precision"]) == (
            "sampled", 2, True
        )


class TestDeterminism:
    """Reruns over the same inputs and seed reproduce artifacts byte for byte."""

    def test_prepare_is_byte_deterministic(self, corpus, tmp_path):
        sessions, catalog = corpus
        for name in ("one", "two"):
            argv = ["prepare", str(sessions), str(catalog),
                    "--out", str(tmp_path / name), "--seed", "4"]
            assert main(argv) == 0
        assert sha(tmp_path / "one" / "shard.bin") == sha(tmp_path / "two" / "shard.bin")
        assert sha(tmp_path / "one" / "index.json") == sha(tmp_path / "two" / "index.json")

    def test_train_same_seed_same_checkpoint(self, shards, tmp_path):
        for name in ("one", "two"):
            argv = ["train", str(shards), "--out", str(tmp_path / name),
                    "--epochs", "2", "--d", "16", "--seed", "9"]
            assert main(argv) == 0
        assert sha(tmp_path / "one" / "checkpoint.bin") == sha(tmp_path / "two" / "checkpoint.bin")

    def test_train_seed_changes_checkpoint(self, shards, tmp_path):
        for name, seed in (("one", "9"), ("two", "10")):
            argv = ["train", str(shards), "--out", str(tmp_path / name),
                    "--epochs", "2", "--d", "16", "--seed", seed]
            assert main(argv) == 0
        assert sha(tmp_path / "one" / "checkpoint.bin") != sha(tmp_path / "two" / "checkpoint.bin")

    def test_eval_metrics_are_byte_deterministic(self, shards, checkpoint, tmp_path):
        for name in ("one", "two"):
            argv = ["eval", str(shards), str(checkpoint), "--out", str(tmp_path / name)]
            assert main(argv) == 0
        assert sha(tmp_path / "one" / "metrics.json") == sha(tmp_path / "two" / "metrics.json")
        assert sha(tmp_path / "one" / "rankings.csv") == sha(tmp_path / "two" / "rankings.csv")

    def test_lambda_one_flag_equals_no_beta_ablation(self, shards, tmp_path):
        base = ["--epochs", "2", "--d", "16", "--seed", "5"]
        argv_a = ["train", str(shards), "--out", str(tmp_path / "lam"),
                  "--lambda", "1.0", *base]
        argv_b = ["ablate", str(shards), "--out", str(tmp_path / "abl"),
                  "--which", "no_beta", *base]
        assert main(argv_a) == 0
        assert main(argv_b) == 0
        assert sha(tmp_path / "lam" / "checkpoint.bin") == sha(tmp_path / "abl" / "checkpoint.bin")


class TestPrepareOutput:
    """Dataset statistics echo what the shards record."""

    def test_stats_table_matches_index(self, corpus, tmp_path, capsys):
        sessions, catalog = corpus
        out = tmp_path / "shards"
        assert main(["prepare", str(sessions), str(catalog), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        stats = json.loads((out / "index.json").read_text())["stats"]
        assert f"Items            {stats['items']}" in printed
        assert f"Train sessions   {stats['train_sessions']}" in printed
        assert f"Test sessions    {stats['test_sessions']}" in printed
        assert "Average length" in printed

    def test_prepare_does_not_mutate_inputs(self, corpus, tmp_path):
        sessions, catalog = corpus
        before = (sha(sessions), sha(catalog))
        assert main(["prepare", str(sessions), str(catalog),
                     "--out", str(tmp_path / "s")]) == 0
        assert (sha(sessions), sha(catalog)) == before


class TestEvalCommand:
    def test_k_override_controls_metric_columns(self, shards, checkpoint, tmp_path):
        out = tmp_path / "e"
        argv = ["eval", str(shards), str(checkpoint), "--k", "1,5", "--out", str(out)]
        assert main(argv) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["p"]) == {"1", "5"}
        assert set(metrics["mrr"]) == {"1", "5"}

    def test_rankings_csv_has_one_row_per_session(self, shards, checkpoint, tmp_path):
        out = tmp_path / "e"
        assert main(["eval", str(shards), str(checkpoint), "--out", str(out)]) == 0
        with (out / "rankings.csv").open() as fh:
            rows = list(csv.reader(fh))
        metrics = json.loads((out / "metrics.json").read_text())
        assert rows[0] == ["session_id", "gt_item", "gt_rank", "top20"]
        assert len(rows) - 1 == metrics["sessions"]

    def test_metrics_table_is_printed(self, shards, checkpoint, tmp_path, capsys):
        assert main(["eval", str(shards), str(checkpoint),
                     "--out", str(tmp_path / "e")]) == 0
        printed = capsys.readouterr().out
        assert "P@k" in printed and "MRR@k" in printed

    def test_sampled_mode_reports_spread(self, shards, checkpoint, tmp_path):
        out = tmp_path / "e"
        argv = ["eval", str(shards), str(checkpoint), "--eval-mode", "sampled",
                "--repeats", "2", "--out", str(out)]
        assert main(argv) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "p_std" in metrics and "mrr_std" in metrics

    def test_sampled_mode_honours_strict_precision(self, shards, checkpoint, tmp_path):
        """Strict P@k is the hit rate divided by k in sampled mode too."""
        metrics = {}
        for label, extra in (("hit_rate", []), ("strict", ["--strict-precision"])):
            out = tmp_path / label
            argv = ["eval", str(shards), str(checkpoint), "--eval-mode", "sampled",
                    "--repeats", "2", "--k", "5,20", "--out", str(out), *extra]
            assert main(argv) == 0
            metrics[label] = json.loads((out / "metrics.json").read_text())
            assert metrics[label]["precision_convention"] == label
        hit, strict = metrics["hit_rate"], metrics["strict"]
        assert hit["p"]["20"] > 0
        for k in ("5", "20"):
            assert strict["p"][k] == pytest.approx(hit["p"][k] / int(k), rel=1e-12)
            assert strict["p_std"][k] == pytest.approx(hit["p_std"][k] / int(k), rel=1e-12)
            assert strict["mrr"][k] == hit["mrr"][k]


@pytest.fixture(scope="module")
def model_run(tmp_path_factory, shards):
    """A checkpoint whose architecture differs from the TrainConfig defaults."""
    out = tmp_path_factory.mktemp("model_run")
    argv = ["train", str(shards), "--out", str(out), "--epochs", "2", "--d", "16",
            "--seed", "3", "--t-steps", "2", "--lambda", "0.2", "--propagate-taxonomy"]
    assert main(argv) == 0
    return out / "checkpoint.bin"


class TestCheckpointConfig:
    """eval reads the model definition from the checkpoint, and every
    checkpoint fault exits 4."""

    def test_eval_without_model_flags_ranks_as_trained(self, shards, model_run, tmp_path):
        out = tmp_path / "e"
        assert main(["eval", str(shards), str(model_run), "--out", str(out)]) == 0
        trained = TrainConfig(d=16, epochs=2, seed=3, t_steps=2, lambda_=0.2,
                              propagate_taxonomy=True)
        data = load_shards(shards)
        params, stored = load_params(model_run, data)
        assert stored == trained
        assert params.encoder.ggnn.steps == trained.t_steps
        want = tmp_path / "want.csv"
        write_rankings_csv(want, evaluate(params, data, trained).results, data.item_ids)
        assert (out / "rankings.csv").read_bytes() == want.read_bytes()

    def test_agreeing_config_keys_accepted(self, shards, model_run, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 0.2\nt_steps = 2\npropagate_taxonomy = true\n"
                       "eval_ks = 1,5\nlevels = 4,3,2\n")
        out = tmp_path / "e"
        argv = ["eval", str(shards), str(model_run), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        assert set(json.loads((out / "metrics.json").read_text())["p"]) == {"1", "5"}

    def test_conflicting_config_key_returns_four(self, shards, model_run, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_steps = 1\n")
        argv = ["eval", str(shards), str(model_run), "--config", str(cfg),
                "--out", str(tmp_path / "e")]
        assert main(argv) == 4
        assert "'t_steps'" in capsys.readouterr().err

    def test_model_flag_on_eval_returns_four(self, shards, model_run, tmp_path):
        argv = ["eval", str(shards), str(model_run), "--t-steps", "2",
                "--out", str(tmp_path / "e")]
        assert main(argv) == 4

    def test_truncated_checkpoint_returns_four(self, shards, model_run, tmp_path, capsys):
        cut = tmp_path / "cut.bin"
        cut.write_bytes(model_run.read_bytes()[:-100])
        assert main(["eval", str(shards), str(cut), "--out", str(tmp_path / "e")]) == 4
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["meta.config", "meta.vocab_sha256", "proj.W_I"])
    def test_missing_entry_returns_four(self, shards, model_run, tmp_path, entry):
        raw = load_tensors(model_run)
        del raw[entry]
        partial = tmp_path / "partial.bin"
        save_tensors(partial, raw)
        assert main(["eval", str(shards), str(partial), "--out", str(tmp_path / "e")]) == 4

    @pytest.mark.parametrize("name, corrupt", [
        ("zeroshot.theta.o_b", lambda a: a[:1]),
        ("proj.W_I", lambda a: a.T),
        ("intent.W3", lambda a: np.append(a.ravel()[:-1], np.nan).reshape(a.shape)),
        ("enc.ggnn.H", None),
    ], ids=["cut", "transposed", "nan", "missing"])
    def test_malformed_tensor_returns_four_and_names_it(
        self, shards, model_run, tmp_path, capsys, name, corrupt
    ):
        raw = load_tensors(model_run)
        if corrupt is None:
            del raw[name]
        else:
            raw[name] = corrupt(raw[name])
        bad = tmp_path / "bad.bin"
        save_tensors(bad, raw)
        with pytest.raises(EvaluationError, match=re.escape(repr(name))):
            load_params(bad, load_shards(shards))
        assert main(["eval", str(shards), str(bad), "--out", str(tmp_path / "e")]) == 4
        assert repr(name) in capsys.readouterr().err

    @pytest.mark.parametrize("entry, mutate", [
        ("meta.vocab_sha256", lambda a: a[0] + 256),
        ("meta.config", lambda a: 1e20),
        ("meta.config", lambda a: a[0] + 0.5),
        ("meta.vocab_sha256", lambda a: np.nan),
    ], ids=["wraps-to-same-byte", "overflows-cast", "fraction", "nan"])
    def test_metadata_value_not_a_byte_returns_four_and_names_it(
        self, shards, model_run, tmp_path, capsys, entry, mutate
    ):
        """A cast to uint8 would wrap 256 + x to x, or warn on a value out
        of range; each entry is checked before it is read as bytes."""
        raw = load_tensors(model_run)
        raw[entry][0] = mutate(raw[entry])
        bad = tmp_path / "bad.bin"
        save_tensors(bad, raw)
        with pytest.raises(EvaluationError, match=re.escape(repr(entry))):
            load_params(bad, load_shards(shards))
        assert main(["eval", str(shards), str(bad), "--out", str(tmp_path / "e")]) == 4
        err = capsys.readouterr().err
        assert repr(entry) in err and str(bad) in err

    def test_unknown_entry_returns_four_and_names_it(self, shards, model_run, tmp_path, capsys):
        raw = load_tensors(model_run)
        raw["enc.unknown_extra"] = np.zeros(3)
        extra = tmp_path / "extra.bin"
        save_tensors(extra, raw)
        with pytest.raises(EvaluationError, match="'enc.unknown_extra'"):
            load_params(extra, load_shards(shards))
        assert main(["eval", str(shards), str(extra), "--out", str(tmp_path / "e")]) == 4
        assert "'enc.unknown_extra'" in capsys.readouterr().err

    @pytest.mark.parametrize("scale, where", [
        ({"proj.W_I": 1e307}, "the chunk of sessions [{first}"),
        ({"zeroshot.theta.h_w": 1e300, "zeroshot.theta.o_w": 1e308}, "the catalog table"),
    ], ids=["chunk", "catalog"])
    def test_overflowing_checkpoint_returns_four_naming_where(
        self, shards, tmp_path, capsys, scale, where
    ):
        """Finite weights whose products overflow, in a chunk's scores or in
        θ over the catalog: evaluation names where, and no NumPy overflow
        warning surfaces first."""
        run = tmp_path / "run"
        assert main(["train", str(shards), "--out", str(run), "--epochs", "1", "--d", "8"]) == 0
        raw = load_tensors(run / "checkpoint.bin")
        for name, factor in scale.items():
            raw[name] = raw[name] * factor
        bad = tmp_path / "overflow.bin"
        save_tensors(bad, raw)
        data = load_shards(shards)
        params, cfg = load_params(bad, data)
        where = where.format(first=repr(data.test[0].session_id))
        with pytest.raises(EvaluationError, match=re.escape(f"non-finite value in {where}")):
            evaluate(params, data, cfg)
        assert main(["eval", str(shards), str(bad), "--out", str(tmp_path / "e")]) == 4
        assert f"evaluation error: non-finite value in {where}" in capsys.readouterr().err

    def test_unknown_config_key_returns_four_and_names_it(
        self, shards, model_run, tmp_path, capsys
    ):
        raw = load_tensors(model_run)
        config = json.loads(raw["meta.config"].astype(np.uint8).tobytes())
        config["dropout"] = 0.5
        blob = json.dumps(config, sort_keys=True).encode("utf-8")
        raw["meta.config"] = np.frombuffer(blob, dtype=np.uint8).astype(np.float64)
        extra = tmp_path / "extra.bin"
        save_tensors(extra, raw)
        with pytest.raises(ConfigurationError, match="'dropout'"):
            TrainConfig.from_dict(config)
        with pytest.raises(EvaluationError, match="'dropout'"):
            load_params(extra, load_shards(shards))
        assert main(["eval", str(shards), str(extra), "--out", str(tmp_path / "e")]) == 4
        assert "'dropout'" in capsys.readouterr().err

    def test_missing_config_keys_return_four_and_are_listed(
        self, shards, model_run, tmp_path, capsys
    ):
        raw = load_tensors(model_run)
        config = json.loads(raw["meta.config"].astype(np.uint8).tobytes())
        del config["lr"], config["d_a"]
        blob = json.dumps(config, sort_keys=True).encode("utf-8")
        raw["meta.config"] = np.frombuffer(blob, dtype=np.uint8).astype(np.float64)
        short = tmp_path / "short.bin"
        save_tensors(short, raw)
        with pytest.raises(ConfigurationError, match=re.escape("missing config keys ['d_a', 'lr']")):
            TrainConfig.from_dict(config)
        with pytest.raises(ConfigurationError, match="missing config keys"):
            TrainConfig.from_dict({"d": 8})
        with pytest.raises(EvaluationError, match=re.escape("['d_a', 'lr']")):
            load_params(short, load_shards(shards))
        assert main(["eval", str(shards), str(short), "--out", str(tmp_path / "e")]) == 4
        assert "missing config keys ['d_a', 'lr']" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("d", 8.5), ("d", "8"), ("t_steps", 1.5), ("propagate_taxonomy", "no"),
        ("eval_ks", [1.7]), ("lr", True),
    ])
    def test_mistyped_config_value_returns_four_and_names_it(
        self, shards, model_run, tmp_path, capsys, key, value
    ):
        raw = load_tensors(model_run)
        config = json.loads(raw["meta.config"].astype(np.uint8).tobytes())
        config[key] = value
        blob = json.dumps(config, sort_keys=True).encode("utf-8")
        raw["meta.config"] = np.frombuffer(blob, dtype=np.uint8).astype(np.float64)
        bad = tmp_path / "bad.bin"
        save_tensors(bad, raw)
        with pytest.raises(ConfigurationError, match=rf"^{key} must be "):
            TrainConfig.from_dict(config)
        assert main(["eval", str(shards), str(bad), "--out", str(tmp_path / "e")]) == 4
        assert f"{key} must be " in capsys.readouterr().err

    def test_same_size_vocabulary_with_renamed_item_returns_four(
        self, corpus, shards, model_run, tmp_path, capsys
    ):
        sessions, catalog = corpus
        rows = [json.loads(line) for line in Path(catalog).read_text().splitlines()]
        old = rows[0]["item"]
        rows[0]["item"] = old + "-renamed"
        cat = tmp_path / "cat.jsonl"
        cat.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        sess_lines = []
        for line in Path(sessions).read_text().splitlines():
            s = json.loads(line)
            for e in s["events"]:
                if e["item"] == old:
                    e["item"] = rows[0]["item"]
            sess_lines.append(json.dumps(s))
        sess = tmp_path / "sess.jsonl"
        sess.write_text("\n".join(sess_lines) + "\n")
        renamed = tmp_path / "renamed"
        assert main(["prepare", str(sess), str(cat), "--out", str(renamed)]) == 0
        assert load_shards(renamed).n_items == load_shards(shards).n_items
        argv = ["eval", str(renamed), str(model_run), "--out", str(tmp_path / "e")]
        assert main(argv) == 4
        assert "vocabularies" in capsys.readouterr().err


def _cut(name):
    return lambda index, t: t.update({name: t[name][:-1]})


def _set(name, pos, value):
    def apply(index, t):
        t[name] = t[name].copy()
        t[name][pos] = value(index, t) if callable(value) else value
    return apply


def _dense_attributes(index, t):
    """Rewrite the attributes in the dense format of earlier shards."""
    indptr, cols = t.pop("attr_indptr").astype(int), t.pop("attr_cols").astype(int)
    matrix = np.zeros((len(index["item_ids"]), len(index["attr_tokens"])))
    for i in range(len(indptr) - 1):
        row = cols[indptr[i] : indptr[i + 1]]
        np.add.at(matrix[i], row, 1.0 / len(row))
    t["attr_matrix"] = matrix


# Each case damages a valid shard directory. The error must name the file
# (index.json for a fault of the index alone, else shard.bin) and the key or
# tensor.
SHARD_FAULTS = {
    "missing_train_ids": (lambda index, t: index.pop("train_ids"), "index.json", "'train_ids'"),
    "missing_attr_tokens": (
        lambda index, t: index.pop("attr_tokens"), "index.json", "'attr_tokens'"
    ),
    "tax_vocab_levels": (lambda index, t: index["tax_vocab"].pop(), "index.json", "'tax_vocab'"),
    "short_item_ids": (lambda index, t: index["item_ids"].pop(), "shard.bin", "'attr_indptr'"),
    "short_attr_matrix": (_cut("attr_indptr"), "shard.bin", "'attr_indptr'"),
    "dense_attr_matrix": (_dense_attributes, "shard.bin", "['attr_indptr', 'attr_cols']"),
    "falling_attr_indptr": (
        _set("attr_indptr", 2, lambda index, t: t["attr_indptr"][1]),
        "shard.bin", "'attr_indptr'",
    ),
    "attr_col_past_vocab": (
        _set("attr_cols", 0, lambda index, t: len(index["attr_tokens"])),
        "shard.bin", "'attr_cols'",
    ),
    "gt_in_history": (
        _set("train_items", 0, lambda index, t: t["train_gts"][0]),
        "shard.bin", "'train_gts'",
    ),
    "short_tax_paths": (_cut("tax_paths"), "shard.bin", "'tax_paths'"),
    "dropped_train_offset": (_cut("train_offsets"), "shard.bin", "'train_offsets'"),
    "short_test_gts": (_cut("test_gts"), "shard.bin", "'test_gts'"),
    "fractional_train_items": (
        lambda index, t: t.update(train_items=t["train_items"] + 0.5),
        "shard.bin", "'train_items'",
    ),
    "fractional_item_in_range": (_set("train_items", 0, 1.5), "shard.bin", "'train_items'"),
    "unknown_item": (_set("test_items", 0, 0.0), "shard.bin", "'test_items'"),
    "gt_past_catalog": (
        _set("train_gts", 0, lambda index, t: len(index["item_ids"])),
        "shard.bin", "'train_gts'",
    ),
    "empty_session": (_set("train_offsets", 1, 0.0), "shard.bin", "'train_offsets'"),
    "falling_offsets": (
        _set("train_offsets", 1, lambda index, t: t["train_offsets"][2] + 1),
        "shard.bin", "'train_offsets'",
    ),
    "tax_id_past_vocab": (
        _set("tax_paths", (1, 2), lambda index, t: len(index["tax_vocab"][2])),
        "shard.bin", "'tax_paths[:, 2]'",
    ),
    "attr_vectors_rows": (
        lambda index, t: t.update(attr_vectors=np.ones((len(index["attr_tokens"]) - 1, 2))),
        "shard.bin", "'attr_vectors'",
    ),
}


class TestShardFaults:
    """A shard whose tensors disagree with index.json exits 2 naming the file
    and the key or tensor, before any training."""

    @pytest.mark.parametrize("fault", sorted(SHARD_FAULTS))
    def test_inconsistent_shard_returns_two(self, shards, tmp_path, capsys, fault):
        damage, where, needle = SHARD_FAULTS[fault]
        index = json.loads((shards / "index.json").read_text())
        tensors = load_tensors(shards / "shard.bin")
        damage(index, tensors)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "index.json").write_text(json.dumps(index))
        save_tensors(bad / "shard.bin", tensors)
        assert main(["train", str(bad), "--out", str(tmp_path / "t"), "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert needle in err and str(bad / where) in err


class TestSweep:
    def test_default_grid_has_five_sorted_rows(self, shards, tmp_path):
        out = tmp_path / "s"
        argv = ["sweep", str(shards), "--param", "lambda", "--epochs", "1",
                "--d", "16", "--out", str(out)]
        assert main(argv) == 0
        with (out / "plotdata.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "p_at_20", "status"]
        values = [float(r[0]) for r in rows[1:]]
        assert values == sorted(values)
        assert tuple(values) == DEFAULT_SWEEP_VALUES
        assert all(r[2] == "ok" for r in rows[1:])

    def test_unsorted_custom_values_come_out_sorted(self, shards, tmp_path):
        out = tmp_path / "s"
        argv = ["sweep", str(shards), "--param", "gamma", "--values", "0.9,0.1",
                "--epochs", "1", "--d", "16", "--out", str(out)]
        assert main(argv) == 0
        with (out / "plotdata.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["0.1", "0.9"]

    def test_p_at_20_column_is_p_at_20_under_other_ks(self, shards, tmp_path):
        out = tmp_path / "s"
        argv = ["sweep", str(shards), "--param", "lambda", "--values", "0.5", "--k", "1,5",
                "--epochs", "1", "--d", "16", "--out", str(out)]
        assert main(argv) == 0
        with (out / "plotdata.csv").open() as fh:
            rows = list(csv.reader(fh))
        run = out / "lambda_0.5"
        assert set(json.loads((run / "metrics.json").read_text())["p"]) == {"1", "5", "20"}
        again = tmp_path / "e"
        argv = ["eval", str(shards), str(run / "checkpoint.bin"), "--k", "5,20",
                "--out", str(again)]
        assert main(argv) == 0
        p = json.loads((again / "metrics.json").read_text())["p"]
        assert p["5"] != p["20"]
        assert rows[1] == ["0.5", f"{p['20']:.6f}", "ok"]

    def test_failed_value_keeps_partial_rows_and_propagates(self, shards, tmp_path,
                                                            monkeypatch):
        def sometimes(data, cfg, params=None, progress=None):
            if cfg.lambda_ > 0.8:
                raise TrainingError("session 's9' produced a non-finite loss")
            return real_train(data, cfg, params=params, progress=progress)

        monkeypatch.setattr(cli, "train", sometimes)
        out = tmp_path / "s"
        argv = ["sweep", str(shards), "--param", "lambda", "--values", "0.2,0.9",
                "--epochs", "1", "--d", "16", "--out", str(out)]
        assert main(argv) == 3
        with (out / "plotdata.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == "0.2" and rows[1][2] == "ok" and rows[1][1] != ""
        assert rows[2][0] == "0.9" and rows[2][2].startswith("failed") and rows[2][1] == ""


class TestLogging:
    def test_log_levels_accepted(self, shards, checkpoint, tmp_path, monkeypatch):
        for level in ("error", "info", "debug", "bogus"):
            monkeypatch.setenv("NIRREC_LOG", level)
            argv = ["eval", str(shards), str(checkpoint),
                    "--out", str(tmp_path / f"e_{level}")]
            assert main(argv) == 0

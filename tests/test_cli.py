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
from nirrec.errors import ConfigurationError, EvaluationError, TrainingError
from nirrec.evaluate import evaluate, write_rankings_csv
from nirrec.ingest import load_shards
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


# Every TrainConfig field with its command-line flag, config-file key and a
# value other than its default (as typed on the command line).
SCHEMA = {
    "d": ("--d", "d", "8"),
    "d_a": ("--d-a", "d_a", "5"),
    "h": ("--h", "h", "7"),
    "t_steps": ("--t-steps", "t_steps", "2"),
    "lambda_": ("--lambda", "lambda", "0.25"),
    "gamma": ("--gamma", "gamma", "0.75"),
    "lr": ("--lr", "lr", "0.01"),
    "epochs": ("--epochs", "epochs", "3"),
    "batch_size": ("--batch-size", "batch_size", "4"),
    "beta_seed": ("--beta-seed", "beta_seed", "6"),
    "candidate_mode": ("--candidate-mode", "candidate_mode", "sampled"),
    "negatives": ("--negatives", "negatives", "9"),
    "eval_ks": ("--k", "eval_ks", "1,5"),
    "propagate_taxonomy": ("--propagate-taxonomy", "propagate_taxonomy", "true"),
}


class TestTrainSchema:
    """The TrainConfig fields drive the flags, the config keys and to_dict."""

    def test_every_field_is_covered(self):
        assert set(SCHEMA) == {f.name for f in fields(TrainConfig)} - {"seed"}
        assert {key for _, key, _ in SCHEMA.values()} <= set(cli.ALL_KEYS)

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("Config keys accepted in `--config` files:", 1)[1]
        listed = re.findall(r"`(\w+)`", section.split("\n\n", 1)[0])
        assert listed == list(cli.ALL_KEYS)

    @pytest.mark.parametrize("name", sorted(SCHEMA))
    def test_field_through_flag_file_and_round_trip(self, name, tmp_path):
        flag, key, raw = SCHEMA[name]
        parser = cli.build_parser()
        base = ["train", "shards", "--out", str(tmp_path / "o"), "--seed", "2"]
        flag_argv = [flag] if raw == "true" else [flag, raw]
        from_flag = cli.build_train_config(parser.parse_args(base + flag_argv), {})
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {raw}\n")
        from_file = cli.build_train_config(parser.parse_args(base), parse_config_file(cfg_file))
        default = getattr(TrainConfig(), name)
        assert getattr(from_flag, name) != default
        assert getattr(from_flag, name) == getattr(from_file, name)
        assert from_flag == from_file
        assert from_flag.seed == 2
        assert from_flag.to_dict()[key] == from_file.to_dict()[key]
        assert TrainConfig.from_dict(from_flag.to_dict()) == from_flag


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

    def test_training_error_returns_three(self, shards, tmp_path, monkeypatch):
        def explode(data, cfg, params=None, progress=None):
            raise TrainingError("session 'boom' produced a non-finite loss")

        monkeypatch.setattr(cli, "train", explode)
        argv = ["train", str(shards), "--out", str(tmp_path / "t"), "--epochs", "1"]
        assert main(argv) == 3

    def test_bad_config_key_returns_one(self, shards, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 3\n")
        argv = ["train", str(shards), "--config", str(cfg), "--out", str(tmp_path / "t")]
        assert main(argv) == 1

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
    ])
    def test_usage_error_returns_one(self, corpus, shards, tmp_path, command, extra):
        """A malformed command line is not an ingestion error (2)."""
        inputs = {"prepare": [str(corpus[0]), str(corpus[1])], "train": [str(shards)]}[command]
        assert main([command, *inputs, *extra, "--out", str(tmp_path / "o")]) == 1


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
        argv_b = ["train", str(shards), "--out", str(tmp_path / "abl"),
                  "--ablate", "no_beta", *base]
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

    def test_unknown_entry_returns_four_and_names_it(self, shards, model_run, tmp_path, capsys):
        raw = load_tensors(model_run)
        raw["enc.unknown_extra"] = np.zeros(3)
        extra = tmp_path / "extra.bin"
        save_tensors(extra, raw)
        with pytest.raises(EvaluationError, match="'enc.unknown_extra'"):
            load_params(extra, load_shards(shards))
        assert main(["eval", str(shards), str(extra), "--out", str(tmp_path / "e")]) == 4
        assert "'enc.unknown_extra'" in capsys.readouterr().err

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

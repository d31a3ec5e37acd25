"""Benchmark for nirrec: set-up, training, evaluation and recommend latency
on synthetic corpora, with output checks and an optional per-layer trace.

Run one workload from the repository root:

    python3 perfbench/run.py --workload wide-catalog --seed 1 --seconds 25 --trace 0

or every workload, each in its own process, with ``--workload all``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See
perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import os

# The CLI promises one worker thread by default (``--threads``), but the
# library never bounds BLAS; its default pool spins a second thread
# without making any phase faster. Bound it before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The recommend p90 needs ten samples beyond it.
MIN_RECOMMEND_SAMPLES = 100
# Set-up runs this many times before the rounds, then once more after
# each round while set-up has taken less than SETUP_SHARE of the timed
# seconds, so that its samples spread over the run like the others.
SETUP_REPS = 3
SETUP_SHARE = 0.1
# exp() leaves the normal float64 range below -708. A ground truth whose
# logit lies this far below the best candidate's gets a subnormal or zero
# softmax probability, tied with others that `evaluate` then orders by
# item id: the known softmax-rounding fault. Such sessions are left out of
# the seeded request stream (and counted); the fixed probe request hits
# the fault in every round.
SOFTMAX_SAFE_RANGE = 700.0


@dataclass(frozen=True)
class Workload:
    why: str
    candidate_mode: str
    train_per_round: int
    eval_per_round: int
    recommend_per_round: int
    probe: bool


WORKLOADS = {
    "wide-catalog": Workload(
        "2,000-item catalog, short sessions: theta over every candidate dominates "
        "training and evaluation",
        "full_vocab", 32, 16, 16, True,
    ),
    "long-sessions": Workload(
        "200 items, 25-60 events per session: the graph, encoder, intent and "
        "L_zero path dominates; theta is small",
        "full_vocab", 32, 50, 25, False,
    ),
    "sampled-wide": Workload(
        "5,000 items trained on 100 sampled negatives: candidate selection and "
        "the dense attribute shard dominate",
        "sampled", 32, 3, 10, True,
    ),
}

END_TO_END = {
    "setup_s": "s",
    "train_sessions_per_s": "sessions/s",
    "eval_sessions_per_s": "sessions/s",
    "recommend_p50_ms": "ms",
    "recommend_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "shard_bytes": "bytes",
}

# Layers reported per phase; the order is the report order.
SETUP_LAYERS = ["ingest.prepare", "ingest.save_shards", "ingest.load_shards", "model.init_params"]
SESSION_LAYERS = [
    "sessiongraph.build_graph",
    "encoder.embed_session",
    "intent.compute_intent",
    "model.candidates",
    "zeroshot.theta_candidates",
    "model.score_candidates",
]
PHASE_LAYERS = {
    "train": ["model.train_self", "model.session_loss"]
    + SESSION_LAYERS
    + ["zeroshot.l_zero", "autodiff.backward", "autodiff.adam_step"],
    "eval": ["evaluate.self"] + SESSION_LAYERS,
    "recommend": ["evaluate.self"] + SESSION_LAYERS,
}
PHASE_COUNTS = {
    "train": ["sessiongraph.nodes", "zeroshot.theta_candidate_rows", "autodiff.tape_ops"],
    "eval": ["sessiongraph.nodes", "zeroshot.theta_candidate_rows"],
    "recommend": ["sessiongraph.nodes", "zeroshot.theta_candidate_rows"],
}
OP_UNIT = {"train": "session", "eval": "session", "recommend": "request"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"setup.{layer}_s": "s" for layer in SETUP_LAYERS}
    units["setup.ingest.attr_bytes"] = "bytes"
    units["setup.unattributed_s"] = "s"
    for phase, layers in PHASE_LAYERS.items():
        op = OP_UNIT[phase]
        for layer in layers:
            units[f"{phase}.{layer}_s"] = f"s/{op}"
            units[f"{phase}.{layer}_calls"] = f"calls/{op}"
        for name in PHASE_COUNTS[phase]:
            # tape length is per backward call; the others per operation
            units[f"{phase}.{name}"] = "ops/call" if name == "autodiff.tape_ops" else f"count/{op}"
        units[f"{phase}.unattributed_s"] = f"s/{op}"
        units[f"{phase}.trace_overhead_pct"] = "%"
    return units


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
    }


@dataclass
class Counter:
    """Attempted and failed operations of one kind."""

    attempted: int = 0
    failed: int = 0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import checks
    import corpus
    from nirrec import evaluate, ingest, model
    from nirrec.errors import NirRecError
    from nirrec.ingest import EncodedSession
    from layertrace import Tracer

    wl = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if trace else None
    try:
        if tracer is not None:
            tracer.install()
        sessions_path, catalog_path = corpus.write_corpus(name, seed, work / "corpus")
        cfg = model.TrainConfig(epochs=1, seed=seed, candidate_mode=wl.candidate_mode)

        # -- set-up: corpus files to a model ready to train
        setup_times: list[float] = []
        setup_phase_s = 0.0

        def setup(timed: bool = True):
            nonlocal setup_phase_s
            if tracer is not None and timed:
                tracer.phase = "setup"
            start = time.perf_counter()
            data = ingest.prepare(sessions_path, catalog_path)
            ingest.save_shards(work / "shard", data)
            data = ingest.load_shards(work / "shard")
            params = model.init_params(data, cfg)
            if timed:
                setup_times.append(time.perf_counter() - start)
                setup_phase_s += setup_times[-1]
            if tracer is not None:
                tracer.phase = None
            return data, params

        setup(timed=False)  # warm-up: imports, allocator, page cache
        for _ in range(SETUP_REPS):
            data = params = None  # free the previous set-up first
            data, params = setup()
        shard_bytes = sum(p.stat().st_size for p in (work / "shard").iterdir())

        correct = True
        problems: list[str] = []

        # -- first Adam step against finite differences (untimed)
        step = checks.first_step_check(replace(data, train=data.train[:4]), cfg)
        if step.mismatches:
            correct = False
            problems += [f"first step: {m}" for m in step.mismatches]

        # -- fixed probe: a single-node history on a fixed small corpus, so
        # the Beta std is 0 and the softmax underflows for every input seed
        probe_data = probe_params = probe_sess = None
        if wl.probe:
            p_sessions, p_catalog = corpus.write_corpus("probe", 0, work / "probe")
            probe_data = ingest.prepare(p_sessions, p_catalog)
            probe_params = model.init_params(probe_data, model.TrainConfig(seed=0))
            probe_sess = EncodedSession("probe-single-node", [1, 1], probe_data.n_items - 1)
            probe_data = replace(probe_data, test=[probe_sess])
            probe_table = checks.theta_table(probe_params, probe_data)
            probe_logits = checks.intent_logits(
                probe_params, probe_data, cfg, probe_sess, probe_table
            )

        ops = {"train_session": Counter(), "eval_session": Counter(), "recommend_request": Counter()}
        left_out = 0
        train_cursor = 0
        test_cursor = 0

        def next_sessions(n: int, table) -> list:
            """The next ``n`` test sessions outside the softmax-fault range,
            each with its reference logits."""
            nonlocal test_cursor, left_out
            out = []
            scanned = 0
            while len(out) < n:
                if scanned > len(data.test):
                    raise RuntimeError("every test session lies in the softmax-fault range")
                sess = data.test[test_cursor % len(data.test)]
                test_cursor += 1
                scanned += 1
                logits = checks.intent_logits(params, data, cfg, sess, table)
                cand = np.setdiff1d(np.arange(1, data.n_items), sess.history)
                if logits[cand].max() - logits[sess.gt] > SOFTMAX_SAFE_RANGE:
                    left_out += 1
                    continue
                out.append((sess, logits))
            return out

        def check_result(result, sess, logits, counter: Counter, n_items: int) -> None:
            counter.attempted += 1
            reason = checks.check_ranked(result, sess, n_items, logits)
            if reason is not None:
                counter.failed += 1
                problems.append(f"{sess.session_id}: {reason}")

        def one_round(timed: bool, traced: bool) -> dict:
            nonlocal train_cursor, correct
            out = {}
            # train: one call of model.train over the next chunk
            chunk = [
                data.train[(train_cursor + i) % len(data.train)]
                for i in range(wl.train_per_round)
            ]
            train_cursor += wl.train_per_round
            if traced:
                tracer.phase = "train"
            start = time.perf_counter()
            try:
                result = model.train(replace(data, train=chunk), cfg, params=params)
                ok = all(math.isfinite(e["loss_ce"]) for e in result.epoch_log)
            except NirRecError as e:
                ok = False
                problems.append(f"train: {e}")
            out["train"] = time.perf_counter() - start
            if tracer is not None:
                tracer.phase = None
            if timed:
                ops["train_session"].attempted += len(chunk)
                ops["train_session"].failed += 0 if ok else len(chunk)

            table = checks.theta_table(params, data)
            # eval: one evaluate call over a batch of test sessions
            picked = next_sessions(wl.eval_per_round, table)
            if traced:
                tracer.phase = "eval"
            start = time.perf_counter()
            report = evaluate.evaluate(params, replace(data, test=[s for s, _ in picked]), cfg)
            out["eval"] = time.perf_counter() - start
            if tracer is not None:
                tracer.phase = None
            if timed:
                for (sess, logits), res in zip(picked, report.results):
                    check_result(res, sess, logits, ops["eval_session"], data.n_items)
                errors = checks.metric_errors(report, cfg.eval_ks)
                if errors or report.skipped or len(report.results) != len(picked):
                    correct = False
                    problems.extend(errors or ["evaluate skipped a session"])

            # recommend: one evaluate call per single-session request
            latencies = []
            for sess, logits in next_sessions(wl.recommend_per_round, table):
                if traced:
                    tracer.phase = "recommend"
                start = time.perf_counter()
                res = evaluate.evaluate(params, replace(data, test=[sess]), cfg).results[0]
                latencies.append(time.perf_counter() - start)
                if tracer is not None:
                    tracer.phase = None
                if timed:
                    check_result(res, sess, logits, ops["recommend_request"], data.n_items)
            out["recommend"] = latencies
            if wl.probe and timed:
                res = evaluate.evaluate(probe_params, probe_data, cfg).results[0]
                check_result(
                    res, probe_sess, probe_logits, ops["recommend_request"], probe_data.n_items
                )
            return out

        one_round(timed=False, traced=False)  # warm-up
        rounds: list[tuple[bool, dict]] = []
        measured = 0.0
        min_rounds = math.ceil(MIN_RECOMMEND_SAMPLES / wl.recommend_per_round)
        while measured < seconds or len(rounds) < min_rounds:
            traced = trace and len(rounds) % 2 == 0
            r = one_round(timed=True, traced=traced)
            rounds.append((traced, r))
            measured += r["train"] + r["eval"] + sum(r["recommend"])
            if sum(setup_times) < SETUP_SHARE * measured:
                # the set-up is deterministic, so its data replaces the
                # data in use; the trained parameters carry on
                data = None
                data, _ = setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    for kind, c in ops.items():
        print(f"ops {kind}: attempted {c.attempted} failed {c.failed}")
    print(f"left out: {left_out} test sessions in the softmax-fault range")
    for p in problems[:10]:
        print(f"problem: {p}")

    untraced = [r for traced, r in rounds if not traced]
    if trace:
        metrics = layer_metrics(tracer, rounds, untraced, wl, setup_times, setup_phase_s, data)
    else:
        latencies = [x for r in untraced for x in r["recommend"]]
        values = {
            "setup_s": statistics.median(setup_times),
            "train_sessions_per_s": wl.train_per_round
            * len(untraced)
            / sum(r["train"] for r in untraced),
            "eval_sessions_per_s": wl.eval_per_round
            * len(untraced)
            / sum(r["eval"] for r in untraced),
            "recommend_p50_ms": 1000 * float(np.percentile(latencies, 50)),
            "recommend_p90_ms": 1000 * float(np.percentile(latencies, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "shard_bytes": shard_bytes,
        }
        print(
            f"samples: {len(setup_times)} set-ups, {len(untraced)} rounds, "
            f"{len(latencies)} recommend requests"
        )
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {
        "correct": correct,
        "attempted": sum(c.attempted for c in ops.values()),
        "failed": sum(c.failed for c in ops.values()),
        "metrics": metrics,
    }


def layer_metrics(tracer, rounds, untraced, wl, setup_times, setup_phase_s, data) -> dict:
    traced = [r for t, r in rounds if t]
    n_ops = {
        "setup": len(setup_times),
        "train": wl.train_per_round * len(traced),
        "eval": wl.eval_per_round * len(traced),
        "recommend": wl.recommend_per_round * len(traced),
    }
    phase_s = {
        "setup": setup_phase_s,
        "train": sum(r["train"] for r in traced),
        "eval": sum(r["eval"] for r in traced),
        "recommend": sum(sum(r["recommend"]) for r in traced),
    }
    values: dict[str, float] = {}
    for layer in SETUP_LAYERS:
        values[f"setup.{layer}_s"] = tracer.self_s["setup", layer] / n_ops["setup"]
    values["setup.ingest.attr_bytes"] = float(data.attr_matrix.nbytes)
    values["setup.unattributed_s"] = (
        phase_s["setup"] - sum(s for (p, _), s in tracer.self_s.items() if p == "setup")
    ) / n_ops["setup"]
    for phase, layers in PHASE_LAYERS.items():
        n = n_ops[phase]
        for layer in layers:
            values[f"{phase}.{layer}_s"] = tracer.self_s[phase, layer] / n
            values[f"{phase}.{layer}_calls"] = tracer.calls[phase, layer] / n
        for name in PHASE_COUNTS[phase]:
            per = tracer.calls[phase, "autodiff.backward"] if name == "autodiff.tape_ops" else n
            values[f"{phase}.{name}"] = tracer.counts[phase, name] / per
        attributed = sum(s for (p, _), s in tracer.self_s.items() if p == phase)
        values[f"{phase}.unattributed_s"] = (phase_s[phase] - attributed) / n
        # per-operation time of traced rounds over untraced rounds
        per_op = {
            "train": lambda r: r["train"] / wl.train_per_round,
            "eval": lambda r: r["eval"] / wl.eval_per_round,
            "recommend": lambda r: statistics.median(r["recommend"]),
        }[phase]
        on = statistics.median(per_op(r) for r in traced)
        off = statistics.median(per_op(r) for r in untraced)
        values[f"{phase}.trace_overhead_pct"] = 100.0 * (on / off - 1.0)
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nirrec" / "__init__.py").is_file():
        print(f"error: no nirrec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    print("environment: " + json.dumps(environment(), sort_keys=True))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

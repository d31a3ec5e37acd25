"""Per-layer tracing by wrapping the library's public functions.

Each layer is a module of ``nirrec``. The tracer replaces the names the
library calls through (``nirrec.model.build_graph``, ``Tape.backward``,
...) with wrappers that time the call and note who called it, so a
layer's self time is its span minus the spans of the layers it called.
Nothing under ``src/`` changes; :meth:`Tracer.uninstall` restores the
original objects.

Spans are aggregated in memory per phase: self seconds, call count and
per-layer counts (graph nodes, θ rows, tape length).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable

from nirrec import autodiff, evaluate, ingest, model

# (owner object, attribute, layer name, count name, count of one call)
Count = Callable[[tuple, object], float]
TARGETS: list[tuple[object, str, str, str | None, Count | None]] = [
    (ingest, "prepare", "ingest.prepare", None, None),
    (ingest, "save_shards", "ingest.save_shards", None, None),
    (ingest, "load_shards", "ingest.load_shards", None, None),
    (model, "init_params", "model.init_params", None, None),
    (model, "train", "model.train_self", None, None),
    (model, "session_loss", "model.session_loss", None, None),
    (model, "build_graph", "sessiongraph.build_graph", "sessiongraph.nodes", lambda a, r: r.n),
    (model, "embed_session", "encoder.embed_session", None, None),
    (model, "compute_intent", "intent.compute_intent", None, None),
    (model, "infer_candidate_embeddings", "zeroshot.theta_candidates",
     "zeroshot.theta_candidate_rows", lambda a, r: len(a[2])),
    (evaluate, "infer_candidate_embeddings", "zeroshot.theta_candidates",
     "zeroshot.theta_candidate_rows", lambda a, r: len(a[2])),
    (model, "l_zero", "zeroshot.l_zero", None, None),
    (model, "candidate_ids", "model.candidates", None, None),
    (model, "sampled_candidate_ids", "model.candidates", None, None),
    (evaluate, "candidate_ids", "model.candidates", None, None),
    (model, "score_candidates", "model.score_candidates", None, None),
    (evaluate, "score_candidates", "model.score_candidates", None, None),
    (autodiff.Tape, "backward", "autodiff.backward", "autodiff.tape_ops", lambda a, r: len(a[0])),
    (autodiff.Adam, "step", "autodiff.adam_step", None, None),
    (evaluate, "evaluate", "evaluate.self", None, None),
]


class Tracer:
    """Aggregates span self times per (phase, layer) while ``phase`` is set."""

    def __init__(self) -> None:
        self.phase: str | None = None
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._open: list[float] = []  # child seconds of each open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, count_name: str | None, count: Count | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                child = self._open.pop()
                self.self_s[phase, layer] += span - child
                self.calls[phase, layer] += 1
                if self._open:
                    self._open[-1] += span
            if count_name is not None:
                self.counts[phase, count_name] += count(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, layer, count_name, count in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, count_name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

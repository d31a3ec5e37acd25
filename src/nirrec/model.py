"""Full model assembly: forward pass, candidate scoring, joint loss, and
the training loop with ablation switches.

A session flows through the pipeline as

    graph -> GGNN node embeddings (v, t) -> dual-intent vector I (2d)
          -> projection u = I @ W_I (d) -> logits against inferred
             candidate embeddings theta(attr)

and trains on the joint objective

    L = gamma * (logsumexp(logits) - logit[ground truth])
        + (1 - gamma) * sum_i BC(v_i, theta(atr_i))

where the second term ties each session node's graph embedding to the
embedding inferred from its attributes, which is what lets never-seen
items be scored through the same theta map at recommendation time.

Sessions run in chunks: the disjoint union of a chunk's session graphs
goes through the pipeline as one graph, with one intent row, one logit
row and one loss term per session.  A chunk's pass splits where the
Beta draw enters: :func:`encode_chunk` builds the graphs, their union and
the node embeddings, which depend on the histories alone, and
:meth:`EncodedChunk.intent` draws the β attention and fuses the intents,
so sampled evaluation encodes a chunk once for all its passes.  A single
session is a chunk of one.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Rng, Tensor, load_tensors, save_tensors, zero_grads
from .encoder import EncoderParams, embed_session, init_encoder
from .errors import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    IngestionError,
    NonFiniteError,
    TrainingError,
)
from .ingest import PreparedData
from .intent import IntentParams, IntentResult, compute_intent, init_intent
from .options import as_config, check_types, config_key
from .sessiongraph import GraphUnion, build_graph, union_graphs
from .zeroshot import ThetaParams, init_theta, l_zero, theta_forward

ABLATIONS = ("no_alpha", "no_beta", "no_lzero")
CANDIDATE_MODES = ("full_vocab", "sampled")
CONFIG_ENTRY = "meta.config"
DIGEST_ENTRY = "meta.vocab_sha256"


@dataclass
class TrainConfig:
    """Hyperparameters for one training/evaluation run.

    ``h`` is the width of theta's hidden layer (0 means the 2d default),
    ``t_steps`` the number of GGNN propagation steps, ``lambda_`` the
    alpha/beta fusion weight, and ``gamma`` the cross-entropy share of the
    joint loss.
    """

    d: int = 64
    d_a: int = 32
    h: int = 0
    t_steps: int = 1
    lambda_: float = 0.5
    gamma: float = 0.3
    lr: float = 1e-3
    epochs: int = 5
    batch_size: int = 32
    seed: int = 0
    beta_seed: int = -1
    candidate_mode: str = "full_vocab"
    negatives: int = 99
    eval_ks: tuple[int, ...] = (10, 20)
    propagate_taxonomy: bool = False

    def __post_init__(self) -> None:
        check_types(self)
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ConfigurationError(f"lambda must lie in [0, 1], got {self.lambda_}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError(f"gamma must lie in [0, 1], got {self.gamma}")
        for name in ("d", "d_a", "t_steps", "epochs", "batch_size", "negatives"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.h < 0:
            raise ConfigurationError(f"h must be non-negative, got {self.h}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigurationError(f"lr must be finite and positive, got {self.lr}")
        if self.candidate_mode not in CANDIDATE_MODES:
            raise ConfigurationError(
                f"candidate_mode must be full_vocab or sampled, got {self.candidate_mode!r}"
            )
        if not self.eval_ks or min(self.eval_ks) < 1:
            raise ConfigurationError(f"eval_ks must be positive integers, got {self.eval_ks}")

    @property
    def beta_seed_effective(self) -> int:
        """The β sampler draws from its own stream so the no-β ablation can
        prove it never consumes randomness; -1 means follow the main seed."""
        return self.seed if self.beta_seed < 0 else self.beta_seed

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        keys = {config_key(f.name) for f in fields(cls)}
        unknown = sorted(set(raw) - keys)
        if unknown:
            raise ConfigurationError(f"unknown config keys {unknown}")
        missing = sorted(keys - set(raw))
        if missing:
            raise ConfigurationError(f"missing config keys {missing}")
        return cls(**{f.name: raw[config_key(f.name)] for f in fields(cls)})


def apply_ablation(cfg: TrainConfig, which: str) -> TrainConfig:
    """Map an ablation switch onto the equivalent hyperparameter setting."""
    if which == "no_alpha":
        return replace(cfg, lambda_=0.0)
    if which == "no_beta":
        return replace(cfg, lambda_=1.0)
    if which == "no_lzero":
        return replace(cfg, gamma=1.0)
    raise ConfigurationError(f"unknown ablation {which!r}; choose from {ABLATIONS}")


@dataclass
class ModelParams:
    """Every trainable tensor, each registered under a unique checkpoint name."""

    encoder: EncoderParams
    intent: IntentParams
    theta: ThetaParams
    w_proj: Tensor
    attr_table: Tensor
    config: TrainConfig
    vocab_digest: bytes
    # nirrec.evaluate's CatalogIndex: θ over the catalog and the stamp it
    # was mapped from, rebuilt whenever the stamp stops matching.
    catalog_index: Any = field(default=None, init=False, repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.encoder.d

    def named(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for part in (self.encoder.named(), self.intent.named(), self.theta.named()):
            for name, tensor in part.items():
                if name in out:
                    raise ConfigurationError(f"duplicate checkpoint name {name!r}")
            out.update(part)
        out["proj.W_I"] = self.w_proj
        out["attr.table"] = self.attr_table
        return out

    def trainable(self) -> dict[str, Tensor]:
        return {name: t for name, t in self.named().items() if t.requires_grad}

    def save(self, path: str | Path) -> None:
        """Write every tensor plus the config and vocabulary digest that
        define the model, so evaluation needs nothing else."""
        config = json.dumps(as_config(self.config), sort_keys=True, separators=(",", ":"))
        save_tensors(path, {
            **{k: v.data for k, v in self.named().items()},
            CONFIG_ENTRY: _bytes_to_vector(config.encode("utf-8")),
            DIGEST_ENTRY: _bytes_to_vector(self.vocab_digest),
        })


def _bytes_to_vector(raw: bytes) -> np.ndarray:
    return np.frombuffer(raw, dtype=np.uint8).astype(np.float64)


def _vector_to_bytes(vec: np.ndarray, path: str | Path, entry: str) -> bytes:
    """The bytes a metadata entry stores, one per value; a value that is
    not an integer in 0–255 is an EvaluationError, not a wrapped cast."""
    if not np.all((vec >= 0) & (vec <= 255) & (vec == np.round(vec))):
        raise EvaluationError(
            f"checkpoint {path}: {entry!r} holds values that are not integers in 0-255"
        )
    return vec.astype(np.uint8).tobytes()


def vocab_digest(data: PreparedData) -> bytes:
    """SHA-256 over the item, taxonomy and attribute vocabularies."""
    blob = json.dumps([data.item_ids, [list(v) for v in data.tax_vocab], data.attr_tokens])
    return hashlib.sha256(blob.encode("utf-8")).digest()


def init_params(data: PreparedData, cfg: TrainConfig) -> ModelParams:
    """Seeded initialization of every table and weight."""
    rng = Rng(cfg.seed, "init")
    d = cfg.d
    encoder = init_encoder(
        data.n_items, data.tax_sizes, d, rng.derive("encoder"), steps=cfg.t_steps
    )
    intent = init_intent(d, rng.derive("intent"))
    d_a = data.pretrained_d_a or cfg.d_a
    hidden = cfg.h if cfg.h > 0 else 2 * d
    theta = init_theta(d_a, d, rng.derive("theta"), hidden=hidden)
    bound = 1.0 / np.sqrt(d)
    w_proj = Tensor(
        rng.derive("proj").uniform(-bound, bound, size=(2 * d, d)), requires_grad=True
    )
    if data.attr_vectors is not None:
        attr_table = Tensor(data.attr_vectors)
    else:
        attr_table = Tensor(
            rng.derive("attr").normal(0.0, 0.1, size=(len(data.attr_tokens), cfg.d_a)),
            requires_grad=True,
        )
    return ModelParams(
        encoder=encoder,
        intent=intent,
        theta=theta,
        w_proj=w_proj,
        attr_table=attr_table,
        config=cfg,
        vocab_digest=vocab_digest(data),
    )


def load_params(path: str | Path, data: PreparedData) -> tuple[ModelParams, TrainConfig]:
    """Load a checkpoint into the model :func:`init_params` builds for its
    stored config, and return it with that :class:`TrainConfig`.  Every
    fault (unreadable container, missing metadata or metadata values that
    are not bytes, a vocabulary other than ``data``'s, a tensor that is
    missing, unknown to the model, differently shaped or not finite) is an
    EvaluationError."""
    try:
        raw = load_tensors(path)
    except IngestionError as e:
        raise EvaluationError(f"checkpoint {e}") from e
    missing = sorted({CONFIG_ENTRY, DIGEST_ENTRY} - set(raw))
    if missing:
        raise EvaluationError(f"checkpoint {path} is missing tensors {missing}")
    try:
        config = _vector_to_bytes(raw[CONFIG_ENTRY], path, CONFIG_ENTRY)
        cfg = TrainConfig.from_dict(json.loads(config))
    except (ValueError, KeyError, TypeError, ConfigurationError) as e:
        raise EvaluationError(f"checkpoint {path} has an unreadable config: {e}") from e
    params = init_params(data, cfg)
    if _vector_to_bytes(raw[DIGEST_ENTRY], path, DIGEST_ENTRY) != params.vocab_digest:
        raise EvaluationError(
            f"checkpoint {path} was trained on other item, taxonomy or attribute "
            "vocabularies than the shards"
        )
    named = params.named()
    missing = [name for name in named if name not in raw]
    if missing:
        raise EvaluationError(f"checkpoint {path} is missing tensors {missing}")
    unknown = sorted(set(raw) - set(named) - {CONFIG_ENTRY, DIGEST_ENTRY})
    if unknown:
        raise EvaluationError(
            f"checkpoint {path} holds tensors this model does not name: {unknown}"
        )
    for name, tensor in named.items():
        value = raw[name]
        if value.shape != tensor.shape:
            raise EvaluationError(
                f"checkpoint {path}: tensor {name!r} has shape {value.shape}, "
                f"its stored config builds {tensor.shape}"
            )
        if not np.isfinite(value).all():
            raise EvaluationError(f"checkpoint {path}: tensor {name!r} holds non-finite values")
        tensor.data = value
    return params, cfg


# ---------------------------------------------------------------------------
# forward pass and scoring

# Graph nodes per chunk: training and evaluation run the sessions of a
# batch in chunks of at most this many nodes together, each as one graph
# (a session with more nodes is a chunk of its own).  A chunk's tape
# holds about 30 ops whatever its size, so a chunk costs about what one
# session did; its activations grow with its nodes: after its forward
# pass a training chunk's tape holds about 15 kB per node at d = 64 on
# long sessions, 27 kB on short ones (tracemalloc; 17 and 29 kB before θ
# was one op).  128 trained about 10% faster than 96, but raised the
# peak RSS of perfbench's long-sessions workload by 5%, against 2% at 96,
# when a node held about 40 kB (before the fused GGNN step).
CHUNK_NODES = 96


def chunk_slices(histories: Sequence[Sequence[int]]) -> Iterator[slice]:
    """Consecutive runs of sessions whose graphs hold at most
    :data:`CHUNK_NODES` nodes together, in order."""
    lo = nodes = 0
    for i, history in enumerate(histories):
        size = len(set(history))
        if i > lo and nodes + size > CHUNK_NODES:
            yield slice(lo, i)
            lo, nodes = i, 0
        nodes += size
    if lo < len(histories):
        yield slice(lo, len(histories))


@dataclass
class EncodedChunk:
    """A chunk up to the Beta draw: the union of its session graphs and
    its node embeddings ``v`` and ``t``.  They depend on the histories
    alone, so one encoding serves every pass of sampled attention."""

    graph: GraphUnion
    v: Tensor
    t: Tensor

    def intent(
        self, params: ModelParams, lam: float, rng: Sequence[Rng] | None = None,
        beta_mode: str = "sample", draws: np.ndarray | None = None,
    ) -> IntentResult:
        """The fused intent, one row per session, under each session's Beta
        stream ``rng`` ("sample" mode) or every node's ``draws`` ("fixed")."""
        return compute_intent(
            self.v, self.t, self.graph.segments, params.intent, lam,
            rng=rng, beta_mode=beta_mode, draws=draws,
        )


def encode_chunk(
    histories: Sequence[list[int]], params: ModelParams, data: PreparedData,
    propagate_taxonomy: bool = False, session_ids: Sequence[str] | None = None,
) -> EncodedChunk:
    """Session graphs -> their union -> node embeddings."""
    ids = session_ids if session_ids is not None else [""] * len(histories)
    graph = union_graphs([build_graph(h, session_id=sid) for h, sid in zip(histories, ids)])
    v, t = embed_session(
        graph, params.encoder, data.tax_paths, propagate_taxonomy=propagate_taxonomy
    )
    return EncodedChunk(graph, v, t)


@dataclass
class ForwardResult:
    # Kept only for perfbench/checks.py: the intent, and its row as a vector.
    intent: IntentResult
    i: Tensor


def forward(
    history: list[int],
    params: ModelParams,
    data: PreparedData,
    lam: float,
    rng: Rng | None = None,
    beta_mode: str = "sample",
    propagate_taxonomy: bool = False,
    session_id: str = "",
    draws: np.ndarray | None = None,
) -> ForwardResult:
    """One session encoded as a chunk of one, with its intent row
    returned as a vector.

    ``draws`` replays fixed per-node Beta draws (beta_mode="fixed"), which
    keeps the stochastic branch exactly reproducible for gradient checks.
    """
    enc = encode_chunk([history], params, data, propagate_taxonomy, [session_id])
    intent = enc.intent(params, lam, rng=[rng], beta_mode=beta_mode, draws=draws)
    return ForwardResult(intent=intent, i=ad.reshape(intent.i, (intent.i.shape[1],)))


def candidate_ids(n_items: int, history: list[int], gt: int | None = None) -> np.ndarray:
    """Full-vocabulary candidate pool: every real item not in the history,
    ascending by id (index 0 is the reserved UNKNOWN entry, never scored)."""
    keep = np.ones(n_items, dtype=bool)
    keep[0] = False
    keep[np.asarray(history, dtype=np.int64)] = False
    if gt is not None and not (0 < gt < n_items and keep[gt]):
        raise DomainError(f"ground truth {gt} excluded from the candidate pool")
    return np.flatnonzero(keep)


def sampled_candidate_ids(
    n_items: int, history: list[int], gt: int, negatives: int, rng: Rng
) -> np.ndarray:
    """Ground truth plus uniform negatives from the eligible pool, sorted."""
    pool = candidate_ids(n_items, history, gt)
    others = pool[pool != gt]
    take = min(negatives, len(others))
    negs = rng.choice(others, size=take, replace=False) if take else np.zeros(0, dtype=np.int64)
    return np.sort(np.concatenate([[gt], negs.astype(np.int64)]))


def session_candidates(
    history: list[int], gt: int, n_items: int, cfg: TrainConfig, neg_rng: Rng | None
) -> np.ndarray:
    """The training candidate ids of one session under ``cfg.candidate_mode``."""
    if cfg.candidate_mode == "sampled":
        if neg_rng is None:
            raise ConfigurationError("sampled candidate mode needs a negatives rng")
        return sampled_candidate_ids(n_items, history, gt, cfg.negatives, neg_rng)
    return candidate_ids(n_items, history, gt)


def infer_candidate_embeddings(
    params: ModelParams, data: PreparedData, cand: np.ndarray
) -> Tensor:
    """theta(attribute embedding) for each candidate: the zero-shot path.

    Never touches the item embedding table, so items outside it score the
    same way as catalog veterans.
    """
    atr = ad.segment_mean(params.attr_table, *data.attr_matrix.gather(cand))
    return theta_forward(params.theta, atr)


def score_candidates(i_rows: Tensor, w_proj: Tensor, cand_emb: Tensor) -> Tensor:
    """Logit per session and candidate: (I @ W_I) . c_i, a (sessions,
    candidates) matrix for a chunk's intent rows."""
    if cand_emb.data.shape[0] == 0:
        raise DomainError("cannot score an empty candidate set")
    # candidates × sessions, then transposed: a copy the size of the
    # logits, not of the candidate table.
    return ad.transpose(ad.matmul(cand_emb, ad.transpose(ad.matmul(i_rows, w_proj))))


@dataclass
class SessionLossParts:
    loss: Tensor
    ce: float
    lz: float
    pdf_clamped: int


def session_loss(
    history: list[int] | Sequence[list[int]],
    gt: int | Sequence[int],
    params: ModelParams,
    data: PreparedData,
    cfg: TrainConfig,
    rng: Rng | Sequence[Rng] | None,
    beta_mode: str = "sample",
    session_id: str | Sequence[str] = "",
    draws: np.ndarray | Sequence[np.ndarray] | None = None,
    neg_rng: Rng | Sequence[Rng | None] | None = None,
    cand: np.ndarray | Sequence[np.ndarray] | None = None,
    table: tuple[np.ndarray, Tensor] | None = None,
) -> SessionLossParts:
    """Joint loss of one session, or the summed loss of a chunk of them:
    weighted cross-entropy plus the node-level embedding-agreement term
    (skipped entirely at gamma = 1).  ``ce`` and ``lz`` are the chunk's
    sums.

    A session is a chunk of one.  For a chunk, ``history`` is a list of
    histories, and ``gt``, ``rng``, ``session_id`` and, when given,
    ``draws``, ``neg_rng`` and ``cand`` hold one entry per session.

    ``cand`` is each session's candidate ids.  When it is omitted they
    are drawn here, in sampled mode from ``neg_rng``, never from the Beta
    stream ``rng``.
    ``table`` is ``(rows, emb)``: θ embeddings ``emb`` of the sorted item
    ids ``rows``, a superset of every ``cand`` that a batch shares.
    Without it the table is θ over the chunk's candidates, on the caller's
    tape.
    """
    if isinstance(gt, (int, np.integer)):
        history, gt, rng, session_id = [history], [gt], [rng], [session_id]
        neg_rng = [neg_rng]
        cand = None if cand is None else [cand]
    elif draws is not None:
        draws = np.concatenate(draws)
    enc = encode_chunk(history, params, data, cfg.propagate_taxonomy, session_id)
    intent = enc.intent(params, cfg.lambda_, rng=rng, beta_mode=beta_mode, draws=draws)
    if cand is None:
        negs = neg_rng or [None] * len(gt)
        cand = [
            session_candidates(h, g, data.n_items, cfg, nr)
            for h, g, nr in zip(history, gt, negs)
        ]
    if table is None:
        rows = reduce(np.union1d, cand)
        table = (rows, infer_candidate_embeddings(params, data, rows))
    rows, emb = table
    # Score every table row, then mask each session's row down to its
    # candidates: cheaper than gathering, and scattering back, their
    # embedding rows.
    logits = score_candidates(intent.i, params.w_proj, emb)
    mask = np.zeros(logits.shape, dtype=bool)
    for r, c in enumerate(cand):
        mask[r, np.searchsorted(rows, c)] = True
    ce = ad.reduce_sum(ad.masked_cross_entropy(logits, mask, np.searchsorted(rows, gt)))

    if cfg.gamma >= 1.0:
        return SessionLossParts(ce, float(ce.data), 0.0, intent.clamped)

    nodes = np.asarray(enc.graph.nodes, dtype=np.int64)
    atr = ad.segment_mean(params.attr_table, *data.attr_matrix.gather(nodes))
    lz = l_zero(enc.v, atr, params.theta)
    loss = ad.mix(ce, lz, cfg.gamma)
    return SessionLossParts(loss, float(ce.data), float(lz.data), intent.clamped)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    params: ModelParams
    epoch_log: list[dict]


def train(
    data: PreparedData,
    cfg: TrainConfig,
    params: ModelParams | None = None,
    progress: Callable[[dict], None] | None = None,
) -> TrainResult:
    """Seeded mini-batch training over the prepared train split.

    θ does not depend on the session, so each batch maps it once over the
    sorted union of its sessions' candidate ids, on a tape of its own,
    into a leaf copy of the table.  The batch's sessions then run in
    chunks of at most :data:`CHUNK_NODES` graph nodes: each chunk runs
    one forward and one backward pass on one tape, over the disjoint
    union of its session graphs, scores the table, and backpropagates
    its summed loss with seed 1/batch_len.  One backward through θ then
    carries the summed table gradient, and one Adam step is taken per
    batch.  The gradient is the mean of the per-session gradients, and
    each session draws its Beta points from its own stream, so the
    chunking does not change what is computed.

    A non-finite value aborts naming the session: the failed chunk's
    sessions are run again one at a time to find it.  A fault in the
    shared θ pass, or a non-finite gradient (which Adam refuses before it
    changes any parameter), names the batch's sessions.  NumPy's overflow
    and invalid-value warnings are silenced meanwhile, as in
    :func:`nirrec.evaluate.evaluate`, so an overflow ends in this
    TrainingError, not in a warning turned error.
    """
    if not data.train:
        raise TrainingError("training split is empty")
    params = params or init_params(data, cfg)
    trainable = params.trainable()
    opt = Adam(lr=cfg.lr)
    root = Rng(cfg.seed, "train")
    beta_root = Rng(cfg.beta_seed_effective, "beta")
    epoch_log: list[dict] = []
    n = len(data.train)
    sampled = cfg.candidate_mode == "sampled"
    draws_beta = cfg.lambda_ < 1.0

    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        order = root.derive("shuffle", epoch).permutation(n)
        ce_sum = 0.0
        lz_sum = 0.0
        pdf_clamped = 0
        theta_rows = 0
        # Every op checks its output and Adam its gradients, so NumPy's
        # overflow warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, cfg.batch_size):
                batch = [data.train[int(idx)] for idx in order[lo : lo + cfg.batch_size]]
                zero_grads(trainable)
                # A stream is derived only where it is drawn from: negatives in
                # sampled mode, Beta points below λ = 1.
                cands = [
                    session_candidates(
                        sess.history, sess.gt, data.n_items, cfg,
                        root.derive("negatives", epoch, sess.session_id) if sampled else None,
                    )
                    for sess in batch
                ]
                in_rows = np.zeros(data.n_items, dtype=bool)
                for cand in cands:
                    in_rows[cand] = True
                rows = np.flatnonzero(in_rows)
                try:
                    with ad.Tape() as theta_tape:
                        emb = infer_candidate_embeddings(params, data, rows)
                except NonFiniteError as e:
                    ids = ", ".join(f"'{sess.session_id}'" for sess in batch)
                    raise TrainingError(
                        f"non-finite value in the shared θ pass of the batch of sessions "
                        f"[{ids}] (epoch {epoch}): {e}"
                    ) from e
                table = Tensor(emb.data, requires_grad=True)
                theta_rows += len(rows)
                seed = np.float64(1.0 / len(batch))

                def step(part: slice) -> SessionLossParts:
                    """Forward and backward of the batch's sessions ``part``."""
                    beta_rngs = None
                    if draws_beta:
                        beta_rngs = [
                            beta_root.derive(epoch, sess.session_id) for sess in batch[part]
                        ]
                    with ad.Tape() as tape:
                        parts = session_loss(
                            [sess.history for sess in batch[part]],
                            [sess.gt for sess in batch[part]],
                            params,
                            data,
                            cfg,
                            rng=beta_rngs,
                            beta_mode="sample",
                            session_id=[sess.session_id for sess in batch[part]],
                            cand=cands[part],
                            table=(rows, table),
                        )
                        tape.backward(parts.loss, seed=seed)
                    return parts

                for part in chunk_slices([sess.history for sess in batch]):
                    try:
                        parts = step(part)
                    except NonFiniteError as e:
                        # Find the session: the cost falls on this path only.
                        for k in range(part.start, part.stop):
                            try:
                                step(slice(k, k + 1))
                            except NonFiniteError as alone:
                                raise TrainingError(
                                    f"non-finite value in session '{batch[k].session_id}' "
                                    f"(epoch {epoch}): {alone}"
                                ) from alone
                        ids = ", ".join(f"'{sess.session_id}'" for sess in batch[part])
                        raise TrainingError(
                            f"non-finite value in the chunk of sessions [{ids}] "
                            f"(epoch {epoch}): {e}"
                        ) from e
                    ce_sum += parts.ce
                    lz_sum += parts.lz
                    pdf_clamped += parts.pdf_clamped
                theta_tape.backward(emb, seed=table.grad)
                try:
                    opt.step(trainable)
                except NonFiniteError as e:
                    ids = ", ".join(f"'{sess.session_id}'" for sess in batch)
                    raise TrainingError(
                        f"non-finite gradient from the batch of sessions [{ids}] "
                        f"(epoch {epoch}): {e}"
                    ) from e
        seconds = time.perf_counter() - started
        entry = {
            "epoch": epoch,
            "loss_ce": ce_sum / n,
            "loss_zero": lz_sum / n,
            "pdf_clamped": pdf_clamped,
            "theta_rows": theta_rows,
            "seconds": round(seconds, 6),
            "sessions_per_s": round(n / seconds, 3),
        }
        epoch_log.append(entry)
        if progress is not None:
            progress(entry)
    return TrainResult(params=params, epoch_log=epoch_log)

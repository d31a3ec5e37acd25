"""Full model assembly: forward pass, candidate scoring, joint loss, and
the training loop with ablation switches.

A session flows through the pipeline as

    graph -> GGNN node embeddings (v, t) -> dual-intent vector I (2d)
          -> projection u = I @ W_I (d) -> logits against inferred
             candidate embeddings theta(attr) -> softmax scores

and trains on the joint objective

    L = gamma * (-log score[ground truth]) + (1 - gamma) * sum_i BC(v_i, theta(atr_i))

where the second term ties each session node's graph embedding to the
embedding inferred from its attributes, which is what lets never-seen
items be scored through the same theta map at recommendation time.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Rng, Tensor, load_tensors, save_tensors, zero_grads
from .encoder import EncoderParams, GgnnParams, embed_session, init_encoder
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
from .sessiongraph import SessionGraph, build_graph
from .zeroshot import ThetaParams, init_theta, l_zero, theta_forward

PROB_FLOOR = 1e-300
ABLATIONS = ("no_alpha", "no_beta", "no_lzero")
CANDIDATE_MODES = ("full_vocab", "sampled")
CONFIG_ENTRY = "meta.config"
DIGEST_ENTRY = "meta.vocab_sha256"


def config_key(name: str) -> str:
    """Config-file and JSON spelling of a :class:`TrainConfig` field
    (``lambda_`` is ``lambda``)."""
    return name.rstrip("_")


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
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ConfigurationError(f"lambda must lie in [0, 1], got {self.lambda_}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError(f"gamma must lie in [0, 1], got {self.gamma}")
        for name in ("d", "d_a", "t_steps", "epochs", "batch_size", "negatives"):
            if int(getattr(self, name)) < 1:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.h < 0:
            raise ConfigurationError(f"h must be non-negative, got {self.h}")
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")
        if self.candidate_mode not in CANDIDATE_MODES:
            raise ConfigurationError(
                f"candidate_mode must be full_vocab or sampled, got {self.candidate_mode!r}"
            )
        if not self.eval_ks or any(int(k) < 1 for k in self.eval_ks):
            raise ConfigurationError(f"eval_ks must be positive, got {self.eval_ks}")
        self.eval_ks = tuple(int(k) for k in self.eval_ks)

    @property
    def beta_seed_effective(self) -> int:
        """The β sampler draws from its own stream so the no-β ablation can
        prove it never consumes randomness; -1 means follow the main seed."""
        return self.seed if self.beta_seed < 0 else self.beta_seed

    def to_dict(self) -> dict:
        out = {config_key(f.name): getattr(self, f.name) for f in fields(self)}
        out["eval_ks"] = list(self.eval_ks)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        return cls(**{f.name: raw[config_key(f.name)] for f in fields(cls)})


def apply_ablation(cfg: TrainConfig, which: str | None) -> TrainConfig:
    """Map an ablation switch onto the equivalent hyperparameter setting."""
    if which is None:
        return cfg
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
    attr_trainable: bool = True

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
        out = self.named()
        if not self.attr_trainable:
            del out["attr.table"]
        return out

    def save(self, path: str | Path) -> None:
        """Write every tensor plus the config and vocabulary digest that
        define the model, so evaluation needs nothing else."""
        config = json.dumps(self.config.to_dict(), sort_keys=True, separators=(",", ":"))
        save_tensors(path, {
            **{k: v.data for k, v in self.named().items()},
            CONFIG_ENTRY: _bytes_to_vector(config.encode("utf-8")),
            DIGEST_ENTRY: _bytes_to_vector(self.vocab_digest),
        })


def _bytes_to_vector(raw: bytes) -> np.ndarray:
    return np.frombuffer(raw, dtype=np.uint8).astype(np.float64)


def _vector_to_bytes(vec: np.ndarray) -> bytes:
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
        attr_trainable = False
    else:
        attr_table = Tensor(
            rng.derive("attr").normal(0.0, 0.1, size=(len(data.attr_tokens), cfg.d_a)),
            requires_grad=True,
        )
        attr_trainable = True
    return ModelParams(
        encoder=encoder,
        intent=intent,
        theta=theta,
        w_proj=w_proj,
        attr_table=attr_table,
        config=cfg,
        vocab_digest=vocab_digest(data),
        attr_trainable=attr_trainable,
    )


def load_params(path: str | Path, data: PreparedData) -> tuple[ModelParams, TrainConfig]:
    """Rebuild :class:`ModelParams` and its :class:`TrainConfig` from a
    checkpoint file.  Every fault (unreadable container, missing tensor or
    metadata, a vocabulary other than ``data``'s) is an EvaluationError."""
    try:
        raw = load_tensors(path)
    except IngestionError as e:
        raise EvaluationError(f"checkpoint {e}") from e
    required = {
        "enc.item_table", "enc.tax1", "enc.tax2", "enc.tax3", "enc.Wtax", "enc.Wtax_b",
        "enc.ggnn.H", "enc.ggnn.b", "enc.ggnn.Wz", "enc.ggnn.Uz", "enc.ggnn.Wr",
        "enc.ggnn.Ur", "enc.ggnn.Wo", "enc.ggnn.Uo",
        "intent.W1", "intent.W2", "intent.W3",
        "zeroshot.theta.h_w", "zeroshot.theta.h_b", "zeroshot.theta.o_w", "zeroshot.theta.o_b",
        "proj.W_I", "attr.table", CONFIG_ENTRY, DIGEST_ENTRY,
    }
    missing = required - set(raw)
    if missing:
        raise EvaluationError(f"checkpoint {path} is missing tensors {sorted(missing)}")
    try:
        cfg = TrainConfig.from_dict(json.loads(_vector_to_bytes(raw[CONFIG_ENTRY])))
    except (ValueError, KeyError, TypeError, ConfigurationError) as e:
        raise EvaluationError(f"checkpoint {path} has an unreadable config: {e}") from e
    digest = _vector_to_bytes(raw[DIGEST_ENTRY])
    if digest != vocab_digest(data):
        raise EvaluationError(
            f"checkpoint {path} was trained on other item, taxonomy or attribute "
            "vocabularies than the shards"
        )
    attr_trainable = data.attr_vectors is None

    def t(name: str, trainable: bool = True) -> Tensor:
        return Tensor(raw[name], requires_grad=trainable)

    encoder = EncoderParams(
        item_table=t("enc.item_table"),
        tax1=t("enc.tax1"),
        tax2=t("enc.tax2"),
        tax3=t("enc.tax3"),
        w_tax=t("enc.Wtax"),
        b_tax=t("enc.Wtax_b"),
        ggnn=GgnnParams(
            h=t("enc.ggnn.H"),
            b=t("enc.ggnn.b"),
            wz=t("enc.ggnn.Wz"),
            uz=t("enc.ggnn.Uz"),
            wr=t("enc.ggnn.Wr"),
            ur=t("enc.ggnn.Ur"),
            wo=t("enc.ggnn.Wo"),
            uo=t("enc.ggnn.Uo"),
            steps=cfg.t_steps,
        ),
    )
    return ModelParams(
        encoder=encoder,
        intent=IntentParams(w1=t("intent.W1"), w2=t("intent.W2"), w3=t("intent.W3")),
        theta=ThetaParams(
            h_w=t("zeroshot.theta.h_w"),
            h_b=t("zeroshot.theta.h_b"),
            o_w=t("zeroshot.theta.o_w"),
            o_b=t("zeroshot.theta.o_b"),
        ),
        w_proj=t("proj.W_I"),
        attr_table=t("attr.table", trainable=attr_trainable),
        config=cfg,
        vocab_digest=digest,
        attr_trainable=attr_trainable,
    ), cfg


# ---------------------------------------------------------------------------
# forward pass and scoring


@dataclass
class ForwardResult:
    graph: SessionGraph
    v: Tensor
    t: Tensor
    intent: IntentResult

    @property
    def i(self) -> Tensor:
        return self.intent.i


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
    """Session graph -> node embeddings -> fused intent vector.

    ``draws`` replays fixed per-node Beta draws (beta_mode="fixed"), which
    keeps the stochastic branch exactly reproducible for gradient checks.
    """
    graph = build_graph(history, session_id=session_id)
    v, t = embed_session(
        graph, params.encoder, data.tax_paths, propagate_taxonomy=propagate_taxonomy
    )
    intent = compute_intent(
        v, t, graph.last_index, params.intent, lam, rng=rng, beta_mode=beta_mode, draws=draws
    )
    return ForwardResult(graph=graph, v=v, t=t, intent=intent)


def candidate_ids(n_items: int, history: list[int], gt: int | None = None) -> np.ndarray:
    """Full-vocabulary candidate pool: every real item not in the history,
    ascending by id (index 0 is the reserved UNKNOWN entry, never scored)."""
    pool = np.setdiff1d(np.arange(1, n_items, dtype=np.int64), np.asarray(history, dtype=np.int64))
    if gt is not None and gt not in pool:
        raise DomainError(f"ground truth {gt} excluded from the candidate pool")
    return pool


def sampled_candidate_ids(
    n_items: int, history: list[int], gt: int, negatives: int, rng: Rng
) -> np.ndarray:
    """Ground truth plus uniform negatives from the eligible pool, sorted."""
    pool = candidate_ids(n_items, history, gt)
    others = pool[pool != gt]
    take = min(negatives, len(others))
    negs = rng.choice(others, size=take, replace=False) if take else np.zeros(0, dtype=np.int64)
    return np.sort(np.concatenate([[gt], negs.astype(np.int64)]))


def infer_candidate_embeddings(
    params: ModelParams, data: PreparedData, cand: np.ndarray
) -> Tensor:
    """theta(attribute embedding) for each candidate: the zero-shot path.

    Never touches the item embedding table, so items outside it score the
    same way as catalog veterans.
    """
    atr = ad.matmul(Tensor(data.attr_matrix[cand]), params.attr_table)
    return theta_forward(params.theta, atr)


def score_candidates(i_vec: Tensor, w_proj: Tensor, cand_emb: Tensor) -> tuple[Tensor, Tensor]:
    """Probability vector over candidates: softmax of (I @ W_I) . c_i."""
    if cand_emb.data.shape[0] == 0:
        raise DomainError("cannot score an empty candidate set")
    u = ad.matmul(ad.reshape(i_vec, (1, i_vec.data.shape[0])), w_proj)
    logits = ad.reshape(ad.matmul(cand_emb, ad.transpose(u)), (cand_emb.data.shape[0],))
    return ad.softmax(logits), logits


@dataclass
class SessionLossParts:
    loss: Tensor
    ce: float
    lz: float
    prob_clamped: int
    pdf_clamped: int


def session_loss(
    sess_history: list[int],
    sess_gt: int,
    params: ModelParams,
    data: PreparedData,
    cfg: TrainConfig,
    rng: Rng | None,
    beta_mode: str = "sample",
    session_id: str = "",
    draws: np.ndarray | None = None,
    neg_rng: Rng | None = None,
) -> SessionLossParts:
    """Joint loss for one session: weighted cross-entropy plus the
    node-level embedding-agreement term (skipped entirely at gamma = 1)."""
    fwd = forward(
        sess_history,
        params,
        data,
        cfg.lambda_,
        rng=rng,
        beta_mode=beta_mode,
        propagate_taxonomy=cfg.propagate_taxonomy,
        session_id=session_id,
        draws=draws,
    )
    if cfg.candidate_mode == "sampled":
        neg_rng = neg_rng or rng
        if neg_rng is None:
            raise ConfigurationError("sampled candidate mode needs an rng")
        cand = sampled_candidate_ids(
            data.n_items, sess_history, sess_gt, cfg.negatives, neg_rng
        )
    else:
        cand = candidate_ids(data.n_items, sess_history, sess_gt)
    cand_emb = infer_candidate_embeddings(params, data, cand)
    z_hat, _ = score_candidates(fwd.i, params.w_proj, cand_emb)
    pos = int(np.searchsorted(cand, sess_gt))
    p_gt = ad.pick(z_hat, pos)
    prob_clamped = int(float(p_gt.data) < PROB_FLOOR)
    ce = ad.neg(ad.log(ad.clamp_min(p_gt, PROB_FLOOR)))
    pdf_clamped = fwd.intent.clamped

    if cfg.gamma >= 1.0:
        return SessionLossParts(ce, float(ce.data), 0.0, prob_clamped, pdf_clamped)

    atr = ad.matmul(Tensor(data.attr_matrix[fwd.graph.nodes]), params.attr_table)
    lz = l_zero(fwd.v, atr, params.theta)
    loss = ad.add(
        ad.mul(Tensor(cfg.gamma), ce), ad.mul(Tensor(1.0 - cfg.gamma), lz)
    )
    return SessionLossParts(loss, float(ce.data), float(lz.data), prob_clamped, pdf_clamped)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    params: ModelParams
    epoch_log: list[dict]
    counters: dict[str, int] = field(default_factory=dict)


def train(
    data: PreparedData,
    cfg: TrainConfig,
    params: ModelParams | None = None,
    progress: Callable[[dict], None] | None = None,
) -> TrainResult:
    """Seeded mini-batch training over the prepared train split.

    Gradients for a batch are the mean of per-session gradients (each
    session's backward pass is seeded with 1/batch_len); one Adam step is
    taken per batch.  Any non-finite value aborts with the offending
    session id.
    """
    if not data.train:
        raise TrainingError("training split is empty")
    params = params or init_params(data, cfg)
    trainable = params.trainable()
    opt = Adam(lr=cfg.lr)
    root = Rng(cfg.seed, "train")
    beta_root = Rng(cfg.beta_seed_effective, "beta")
    counters = {"prob_clamped": 0, "pdf_clamped": 0}
    epoch_log: list[dict] = []
    n = len(data.train)

    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        order = root.derive("shuffle", epoch).permutation(n)
        ce_sum = 0.0
        lz_sum = 0.0
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            zero_grads(trainable)
            for idx in batch:
                sess = data.train[int(idx)]
                srng = beta_root.derive(epoch, sess.session_id)
                try:
                    with ad.Tape() as tape:
                        parts = session_loss(
                            sess.history,
                            sess.gt,
                            params,
                            data,
                            cfg,
                            rng=srng,
                            beta_mode="sample",
                            session_id=sess.session_id,
                            neg_rng=root.derive("negatives", epoch, sess.session_id),
                        )
                        tape.backward(parts.loss, seed=np.float64(1.0 / len(batch)))
                except NonFiniteError as e:
                    raise TrainingError(
                        f"non-finite value in session '{sess.session_id}' "
                        f"(epoch {epoch}): {e}"
                    ) from e
                ce_sum += parts.ce
                lz_sum += parts.lz
                counters["prob_clamped"] += parts.prob_clamped
                counters["pdf_clamped"] += parts.pdf_clamped
            opt.step(trainable)
        entry = {
            "epoch": epoch,
            "loss_ce": ce_sum / n,
            "loss_zero": lz_sum / n,
            "seconds": round(time.perf_counter() - started, 6),
        }
        epoch_log.append(entry)
        if progress is not None:
            progress(entry)
    return TrainResult(params=params, epoch_log=epoch_log, counters=counters)


def ablate(data: PreparedData, cfg: TrainConfig, which: str) -> TrainResult:
    """Train with one component switched off; pipeline otherwise identical."""
    return train(data, apply_ablation(cfg, which))

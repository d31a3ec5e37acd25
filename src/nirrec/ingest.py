"""Dataset ingestion: session/catalog loading, 7-day time split, taxonomy
synthesis for flat catalogs, attribute encoding, and shard serialization.

The pipeline turns two JSON-lines files (sessions and an item catalog)
into a self-contained shard directory:

* item, taxonomy-node, and attribute-token vocabularies (index 0 of every
  vocabulary is the reserved UNKNOWN entry);
* a 3-level taxonomy path per item, taken verbatim from the catalog when
  present, or synthesized from flat labels by staged k-means++ clustering
  (labels -> k1 fine groups -> k2 -> k3, fine-to-coarse mapping to levels
  t3 -> t1);
* an item×token averaging matrix in CSR form, so an item's attribute
  embedding is the mean of its token vectors (trainable table or
  pretrained vectors);
* train/test splits of ground-truth-masked sessions, split at the last
  event's timestamp with a 7-day holdout boundary.

Everything downstream of the seed is deterministic: rerunning `prepare`
over the same inputs reproduces identical shard bytes.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .autodiff import Rng, load_tensors, save_tensors
from .errors import ConfigurationError, DomainError, IngestionError
from .sessiongraph import Session, mask_ground_truth

UNKNOWN = "<unk>"
SECONDS_PER_DAY = 86_400


# ---------------------------------------------------------------------------
# raw file loading


@dataclass(frozen=True)
class CatalogRecord:
    item: str
    taxonomy: tuple[str, str, str] | None
    labels: tuple[str, ...] | None
    attributes: tuple[str, ...]


def _string_list(value, where: str, key: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise IngestionError(f"{where}: '{key}' must be a list of strings")
    return value


def _json_lines(path: Path) -> Iterator[tuple[str, object]]:
    """``(where, object)`` for each non-blank line of a JSON-lines file,
    read one line at a time; ``where`` is ``path:line``."""
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise IngestionError(f"{where}: invalid JSON ({e.msg})") from e
            yield where, obj


def load_sessions(path: str | Path) -> tuple[list[Session], dict[str, int]]:
    """Parse a sessions JSON-lines file.

    Returns the sessions plus warning counters: events arriving out of
    time order are auto-sorted (stable) and counted, and sessions with
    fewer than two events are skipped and counted rather than fatal.
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"sessions file not found: {path}")
    sessions: list[Session] = []
    counters = {"unsorted_sessions": 0, "too_short_sessions": 0}
    seen: set[str] = set()
    for where, obj in _json_lines(path):
        if not isinstance(obj, dict) or "session_id" not in obj or "events" not in obj:
            raise IngestionError(f"{where}: expected keys 'session_id' and 'events'")
        sid = obj["session_id"]
        if not isinstance(sid, str):
            raise IngestionError(f"{where}: session_id must be a string")
        if sid in seen:
            raise IngestionError(f"{where}: duplicate session_id '{sid}'")
        seen.add(sid)
        raw_events = obj["events"]
        if not isinstance(raw_events, list):
            raise IngestionError(f"{where}: 'events' must be a list")
        events: list[tuple[str, int]] = []
        for k, ev in enumerate(raw_events):
            if not isinstance(ev, dict) or "item" not in ev or "ts" not in ev:
                raise IngestionError(f"{where}: event {k} needs 'item' and 'ts'")
            if not isinstance(ev["item"], str):
                raise IngestionError(f"{where}: event {k} item must be a string")
            if not isinstance(ev["ts"], int) or isinstance(ev["ts"], bool):
                raise IngestionError(f"{where}: event {k} ts must be an integer")
            events.append((ev["item"], ev["ts"]))
        stamps = [ts for _, ts in events]
        if any(b < a for a, b in zip(stamps, stamps[1:])):
            counters["unsorted_sessions"] += 1
            events.sort(key=lambda e: e[1])  # stable: preserves order at ties
        if len(events) < 2:
            counters["too_short_sessions"] += 1
            continue
        sessions.append(Session(sid, tuple(events)))
    return sessions, counters


def load_catalog(path: str | Path) -> list[CatalogRecord]:
    """Parse a catalog JSON-lines file into validated records."""
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"catalog file not found: {path}")
    records: list[CatalogRecord] = []
    seen: set[str] = set()
    for where, obj in _json_lines(path):
        if not isinstance(obj, dict) or "item" not in obj or "attributes" not in obj:
            raise IngestionError(f"{where}: expected keys 'item' and 'attributes'")
        item = obj["item"]
        if not isinstance(item, str):
            raise IngestionError(f"{where}: item must be a string")
        if item in seen:
            raise IngestionError(f"{where}: duplicate catalog item '{item}'")
        seen.add(item)
        taxonomy = obj.get("taxonomy")
        if taxonomy is not None:
            taxonomy = _string_list(taxonomy, where, "taxonomy")
            if len(taxonomy) != 3:
                raise IngestionError(f"{where}: taxonomy must have exactly 3 levels")
            taxonomy = tuple(taxonomy)
        labels = obj.get("labels")
        if labels is not None:
            labels = tuple(_string_list(labels, where, "labels"))
        attributes = tuple(_string_list(obj["attributes"], where, "attributes"))
        records.append(CatalogRecord(item, taxonomy, labels, attributes))
    return records


# ---------------------------------------------------------------------------
# time split


def time_split(
    sessions: Sequence[Session], boundary_days: float = 7.0
) -> tuple[list[Session], list[Session], int]:
    """Partition by last-event timestamp: the final ``boundary_days`` of
    activity become the test set (≥ boundary); everything earlier trains."""
    if not sessions:
        raise ConfigurationError("cannot split an empty session list")
    latest = max(s.last_timestamp for s in sessions)
    boundary = latest - int(round(boundary_days * SECONDS_PER_DAY))
    train = [s for s in sessions if s.last_timestamp < boundary]
    test = [s for s in sessions if s.last_timestamp >= boundary]
    if not train or not test:
        raise ConfigurationError(
            f"degenerate time split at boundary {boundary}: "
            f"{len(train)} train / {len(test)} test sessions"
        )
    return train, test, boundary


# ---------------------------------------------------------------------------
# clustering


def kmeanspp(
    points: np.ndarray, k: int, rng: Rng, max_iters: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ (D² seeding) followed by Lloyd iterations to a fixpoint.

    Deterministic given the rng; ties in assignment go to the lowest
    centroid index; an emptied cluster keeps its previous centroid.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DomainError(f"points must be a 2-d array, got shape {pts.shape}")
    n = pts.shape[0]
    if k <= 0:
        raise DomainError(f"k must be positive, got {k}")
    if n < k:
        raise DomainError(f"need at least k={k} points, got {n}")

    chosen = [int(rng.integers(0, n))]
    best_d2 = np.sum((pts - pts[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(best_d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(0, n))
        else:
            r = float(rng.uniform(0.0, total))
            idx = int(min(np.searchsorted(np.cumsum(best_d2), r, side="right"), n - 1))
        chosen.append(idx)
        best_d2 = np.minimum(best_d2, np.sum((pts - pts[idx]) ** 2, axis=1))

    centroids = pts[chosen].copy()
    assign = _nearest(pts, centroids)
    for _ in range(max_iters):
        for j in range(k):
            members = pts[assign == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
        new_assign = _nearest(pts, centroids)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign, centroids


def _nearest(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def build_taxonomy_tree(
    flat_labels: Mapping[str, Sequence[str]],
    vectors: Mapping[str, np.ndarray],
    level_sizes: tuple[int, int, int],
    rng: Rng,
) -> tuple[dict[str, tuple[str, str, str]], dict[str, int]]:
    """Synthesize 3-level taxonomy paths from flat labels by staged k-means++.

    Stage 1 clusters label vectors into k1 fine groups (level 3 nodes);
    stage 2 clusters those centroids into k2 (level 2); stage 3 into k3
    (level 1).  An item follows the chain of the fine cluster holding the
    majority of its labels (ties to the lowest cluster id).  Oversized k's
    are clamped to the available group count, with warning counters.
    """
    k1, k2, k3 = (int(k) for k in level_sizes)
    if not (k1 > k2 > k3 >= 1):
        raise ConfigurationError(f"level sizes must satisfy k1 > k2 > k3 >= 1, got {level_sizes}")
    labels = sorted({lab for labs in flat_labels.values() for lab in labs})
    if not labels:
        raise ConfigurationError("no labels to cluster")
    missing = [lab for lab in labels if lab not in vectors]
    if missing:
        raise IngestionError(f"label '{missing[0]}' has no vector (and {len(missing) - 1} more)")
    mat = np.stack([np.asarray(vectors[lab], dtype=np.float64) for lab in labels])
    if mat.ndim != 2:
        raise IngestionError("label vectors must share one dimension")

    warnings: dict[str, int] = {}
    if k1 > len(labels):
        k1 = len(labels)
        warnings["k1_clamped"] = k1
    if k2 > k1:
        k2 = k1
        warnings["k2_clamped"] = k2
    if k3 > k2:
        k3 = k2
        warnings["k3_clamped"] = k3

    a1, cent1 = kmeanspp(mat, k1, rng.derive("tax-stage1"))
    a2, cent2 = kmeanspp(cent1, k2, rng.derive("tax-stage2"))
    a3, _ = kmeanspp(cent2, k3, rng.derive("tax-stage3"))

    label_pos = {lab: i for i, lab in enumerate(labels)}
    paths: dict[str, tuple[str, str, str]] = {}
    for item in flat_labels:
        fines = [int(a1[label_pos[lab]]) for lab in flat_labels[item]]
        counts = Counter(fines)
        top = max(counts.values())
        fine = min(c for c, cnt in counts.items() if cnt == top)
        mid = int(a2[fine])
        coarse = int(a3[mid])
        paths[item] = (f"auto:L1_{coarse}", f"auto:L2_{mid}", f"auto:L3_{fine}")
    return paths, warnings


# ---------------------------------------------------------------------------
# attribute encoding


def load_vector_file(path: str | Path) -> tuple[dict[str, np.ndarray], int]:
    """Parse a text vector file: one "token v1 v2 … v_da" line per token."""
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"vector file not found: {path}")
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) < 2:
                raise IngestionError(f"{path}:{lineno}: expected 'token v1 v2 …'")
            token = parts[0]
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as e:
                raise IngestionError(f"{path}:{lineno}: non-numeric vector component") from e
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise IngestionError(
                    f"{path}:{lineno}: vector has {vec.size} components, expected {dim}"
                )
            vectors[token] = vec
    if dim is None:
        raise IngestionError(f"{path}: vector file is empty")
    return vectors, dim


class AttributeMatrix:
    """The item×token averaging matrix in CSR form.

    Row i lists item i's token columns ``cols[indptr[i] : indptr[i + 1]]``
    in catalog order, a token listed twice appearing twice; its weights
    are implied as 1/row length, so ``matrix @ token_table`` is the
    mean-of-token-vectors embedding of every item.  Every row is
    non-empty.  The arrays are read-only, so the matrix's identity stands
    for its content: the θ catalog index of :mod:`nirrec.evaluate` keeps a
    weak reference to it.
    """

    def __init__(self, indptr: np.ndarray, cols: np.ndarray, n_tokens: int) -> None:
        self.indptr = np.array(indptr, dtype=np.int64)
        self.cols = np.array(cols, dtype=np.int64)
        self.n_tokens = int(n_tokens)
        self._lengths = np.diff(self.indptr)
        for arr in (self.indptr, self.cols, self._lengths):
            arr.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.indptr) - 1, self.n_tokens)

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.cols.nbytes

    def gather(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cols, starts, seg)`` of ``rows`` in order, the arguments of
        :func:`nirrec.autodiff.segment_mean`: their token columns, where
        each row's run begins, and the row position of every column."""
        rows = np.asarray(rows, dtype=np.int64)
        lengths = self._lengths[rows]
        starts = np.cumsum(lengths) - lengths
        seg = np.repeat(np.arange(len(rows)), lengths)
        return self.cols[(self.indptr[rows] - starts)[seg] + np.arange(len(seg))], starts, seg

    def __matmul__(self, table: np.ndarray) -> np.ndarray:
        """The attribute embedding of every item under ``table``, in plain
        NumPy, apart from the autodiff op the model trains through."""
        sums = np.add.reduceat(np.asarray(table)[self.cols], self.indptr[:-1], axis=0)
        return sums / self._lengths[:, None]


@dataclass
class AttributeSpec:
    """Token vocabulary, the item×token averaging matrix, optional fixed
    vectors.  Items with no usable tokens average the UNKNOWN column alone
    and are listed in ``no_attr_items``."""

    tokens: list[str]
    matrix: AttributeMatrix
    vectors: np.ndarray | None
    mode: str
    no_attr_items: list[int] = field(default_factory=list)


def encode_attributes(
    records: Sequence[CatalogRecord],
    item_index: Mapping[str, int],
    n_items: int,
    mode: str = "trainable",
    vector_file: tuple[dict[str, np.ndarray], int] | None = None,
) -> AttributeSpec:
    """Build the attribute vocabulary and the item×token averaging matrix.

    ``trainable`` allocates columns for every catalog token (the embedding
    table itself is a model parameter).  ``pretrained`` takes a vector
    file as :func:`load_vector_file` parses it, requires ≥95% token
    coverage, and maps missing tokens to the UNKNOWN column whose vector
    is zero.
    """
    if mode not in ("trainable", "pretrained"):
        raise ConfigurationError(f"attribute mode must be trainable or pretrained, got {mode!r}")
    all_tokens = sorted({tok for rec in records for tok in rec.attributes})
    if mode == "pretrained":
        if vector_file is None:
            raise ConfigurationError("pretrained attribute mode requires a vector file")
        file_vectors, dim = vector_file
        if all_tokens:
            covered = sum(1 for tok in all_tokens if tok in file_vectors)
            frac = covered / len(all_tokens)
            if frac < 0.95:
                raise IngestionError(
                    f"vector file covers {frac:.1%} of catalog tokens; need at least 95%"
                )
        tokens = [UNKNOWN] + [tok for tok in all_tokens if tok in file_vectors]
        vectors = np.zeros((len(tokens), dim), dtype=np.float64)
        for col, tok in enumerate(tokens[1:], start=1):
            vectors[col] = file_vectors[tok]
    else:
        tokens = [UNKNOWN] + all_tokens
        vectors = None

    col_index = {tok: i for i, tok in enumerate(tokens)}
    # The UNKNOWN item, and any item without tokens, averages the UNKNOWN
    # column alone.
    item_cols: list[list[int]] = [[0] for _ in range(n_items)]
    no_attr: list[int] = []
    for rec in records:
        row = item_index[rec.item]
        if rec.attributes:
            item_cols[row] = [col_index.get(tok, 0) for tok in rec.attributes]
        else:
            no_attr.append(row)
    indptr = np.zeros(n_items + 1, dtype=np.int64)
    np.cumsum([len(c) for c in item_cols], out=indptr[1:])
    cols = np.fromiter((c for row in item_cols for c in row), dtype=np.int64, count=indptr[-1])
    matrix = AttributeMatrix(indptr, cols, len(tokens))
    return AttributeSpec(tokens=tokens, matrix=matrix, vectors=vectors, mode=mode, no_attr_items=no_attr)


# ---------------------------------------------------------------------------
# full preparation pipeline


@dataclass
class PrepareOptions:
    level_sizes: tuple[int, int, int] = (100, 50, 10)
    attr_mode: str = "trainable"
    vectors_path: str | None = None
    boundary_days: float = 7.0
    seed: int = 0
    label_vector_dim: int = 16


@dataclass
class EncodedSession:
    session_id: str
    history: list[int]
    gt: int


@dataclass
class PreparedData:
    """Everything training and evaluation need, fully index-encoded."""

    item_ids: list[str]
    tax_vocab: tuple[list[str], list[str], list[str]]
    tax_paths: np.ndarray
    attr_tokens: list[str]
    attr_matrix: AttributeMatrix
    attr_vectors: np.ndarray | None
    attr_mode: str
    no_attr_items: list[int]
    train: list[EncodedSession]
    test: list[EncodedSession]
    counts: dict[str, int]
    stats: dict

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def tax_sizes(self) -> tuple[int, int, int]:
        return tuple(len(v) for v in self.tax_vocab)  # type: ignore[return-value]

    @property
    def pretrained_d_a(self) -> int | None:
        return None if self.attr_vectors is None else int(self.attr_vectors.shape[1])


def _synth_label_vectors(
    labels: set[str], opts: PrepareOptions, file_vectors: dict[str, np.ndarray] | None
) -> dict[str, np.ndarray]:
    """Vectors for taxonomy clustering.

    With a vector file: exact match first, else the mean of the label's
    known word vectors (multi-word labels average their words).  Labels the
    file cannot cover, or all labels in trainable mode, get deterministic
    per-label pseudo-vectors.
    """
    out: dict[str, np.ndarray] = {}
    for lab in labels:
        vec = None
        if file_vectors is not None:
            if lab in file_vectors:
                vec = file_vectors[lab]
            else:
                words = [file_vectors[w] for w in lab.split() if w in file_vectors]
                if words:
                    vec = np.mean(words, axis=0)
        if vec is None:
            vec = Rng(opts.seed, "labelvec", lab).normal(size=opts.label_vector_dim)
        out[lab] = vec
    dims = {v.size for v in out.values()}
    if len(dims) > 1:
        # mixed file/synthetic dims: fall back to all-synthetic for consistency
        out = {
            lab: Rng(opts.seed, "labelvec", lab).normal(size=opts.label_vector_dim)
            for lab in labels
        }
    return out


def prepare(
    sessions_path: str | Path,
    catalog_path: str | Path,
    opts: PrepareOptions | None = None,
) -> PreparedData:
    """Run the whole ingestion pipeline; see the module docstring."""
    opts = opts or PrepareOptions()
    sessions, counters = load_sessions(sessions_path)
    records = load_catalog(catalog_path)
    if not records:
        raise IngestionError(f"catalog {catalog_path} has no items")
    if not sessions:
        raise IngestionError(f"sessions file {sessions_path} has no usable sessions")

    item_ids = [UNKNOWN] + sorted(rec.item for rec in records)
    item_index = {item: i for i, item in enumerate(item_ids)}
    for s in sessions:
        for item, _ in s.events:
            if item not in item_index:
                raise IngestionError(
                    f"session '{s.session_id}' references item '{item}' absent from the catalog"
                )

    # taxonomy paths: explicit, clustered from labels, or UNKNOWN
    paths: dict[str, tuple[str, str, str]] = {}
    flat_labels = {rec.item: rec.labels for rec in records if rec.taxonomy is None and rec.labels}
    # The label vectors and the pretrained attribute vectors share one parse.
    vector_file = None
    if opts.vectors_path is not None and (flat_labels or opts.attr_mode == "pretrained"):
        vector_file = load_vector_file(opts.vectors_path)
    if flat_labels:
        label_set = {lab for labs in flat_labels.values() for lab in labs}
        file_vectors = None if vector_file is None else vector_file[0]
        vectors = _synth_label_vectors(label_set, opts, file_vectors)
        clustered, clamp_warnings = build_taxonomy_tree(
            flat_labels, vectors, opts.level_sizes, Rng(opts.seed, "taxonomy")
        )
        paths.update(clustered)
        counters.update(clamp_warnings)
    for rec in records:
        if rec.taxonomy is not None:
            paths[rec.item] = rec.taxonomy

    level_names: list[list[str]] = []
    for level in range(3):
        names = sorted({p[level] for p in paths.values()})
        level_names.append([UNKNOWN] + names)
    tax_vocab = (level_names[0], level_names[1], level_names[2])
    tax_index = [{name: i for i, name in enumerate(names)} for names in level_names]
    tax_paths = np.zeros((len(item_ids), 3), dtype=np.int64)
    for rec in records:
        row = item_index[rec.item]
        p = paths.get(rec.item)
        if p is not None:
            tax_paths[row] = [tax_index[level][p[level]] for level in range(3)]
    counters["items_without_taxonomy"] = sum(
        1 for rec in records if rec.item not in paths
    )

    attr = encode_attributes(
        records, item_index, len(item_ids), mode=opts.attr_mode, vector_file=vector_file
    )

    train_raw, test_raw, boundary = time_split(sessions, opts.boundary_days)

    def encode(raw: list[Session], skip_key: str) -> list[EncodedSession]:
        out = []
        for s in raw:
            masked = mask_ground_truth(s)
            if masked is None:
                counters[skip_key] = counters.get(skip_key, 0) + 1
                continue
            history, gt = masked
            out.append(
                EncodedSession(
                    session_id=s.session_id,
                    history=[item_index[i] for i in history],
                    gt=item_index[gt],
                )
            )
        return out

    train = encode(train_raw, "masked_empty_train")
    test = encode(test_raw, "masked_empty_test")
    if not train or not test:
        raise ConfigurationError(
            f"masking left {len(train)} train / {len(test)} test sessions; need both non-empty"
        )

    retained = [s for s in train_raw + test_raw]
    stats = {
        "items": len(item_ids) - 1,
        "train_sessions": len(train),
        "test_sessions": len(test),
        "avg_length": round(float(np.mean([len(s.events) for s in retained])), 4),
        "split_boundary": boundary,
    }
    return PreparedData(
        item_ids=item_ids,
        tax_vocab=tax_vocab,
        tax_paths=tax_paths,
        attr_tokens=attr.tokens,
        attr_matrix=attr.matrix,
        attr_vectors=attr.vectors,
        attr_mode=attr.mode,
        no_attr_items=attr.no_attr_items,
        train=train,
        test=test,
        counts=dict(counters),
        stats=stats,
    )


# ---------------------------------------------------------------------------
# shard serialization


SHARD_BIN = "shard.bin"
SHARD_INDEX = "index.json"
INDEX_KEYS = ("item_ids", "tax_vocab", "attr_tokens", "attr_mode", "no_attr_items", "counts",
              "stats", "train_ids", "test_ids")
SHARD_TENSORS = ("tax_paths", "attr_indptr", "attr_cols", "train_offsets", "train_items",
                 "train_gts", "test_offsets", "test_items", "test_gts")


def _pack_sessions(sessions: list[EncodedSession]):
    offsets = np.zeros(len(sessions) + 1, dtype=np.int64)
    for i, s in enumerate(sessions):
        offsets[i + 1] = offsets[i] + len(s.history)
    items = np.concatenate([np.asarray(s.history, dtype=np.int64) for s in sessions]) if sessions else np.zeros(0, dtype=np.int64)
    gts = np.array([s.gt for s in sessions], dtype=np.int64)
    ids = [s.session_id for s in sessions]
    return offsets, items, gts, ids


def save_shards(out_dir: str | Path, data: PreparedData) -> None:
    """Write shard.bin (tensor container) and index.json (vocab tables)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tr_off, tr_items, tr_gts, tr_ids = _pack_sessions(data.train)
    te_off, te_items, te_gts, te_ids = _pack_sessions(data.test)
    tensors = {
        "tax_paths": data.tax_paths.astype(np.float64),
        "attr_indptr": data.attr_matrix.indptr.astype(np.float64),
        "attr_cols": data.attr_matrix.cols.astype(np.float64),
        "train_offsets": tr_off.astype(np.float64),
        "train_items": tr_items.astype(np.float64),
        "train_gts": tr_gts.astype(np.float64),
        "test_offsets": te_off.astype(np.float64),
        "test_items": te_items.astype(np.float64),
        "test_gts": te_gts.astype(np.float64),
    }
    if data.attr_vectors is not None:
        tensors["attr_vectors"] = data.attr_vectors
    save_tensors(out / SHARD_BIN, tensors)
    index = {
        "format": 1,
        "item_ids": data.item_ids,
        "tax_vocab": [list(v) for v in data.tax_vocab],
        "attr_tokens": data.attr_tokens,
        "attr_mode": data.attr_mode,
        "no_attr_items": list(data.no_attr_items),
        "counts": data.counts,
        "stats": data.stats,
        "train_ids": tr_ids,
        "test_ids": te_ids,
    }
    (out / SHARD_INDEX).write_text(
        json.dumps(index, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


def _check_shape(path: Path, name: str, arr: np.ndarray, shape: tuple[int, ...]) -> None:
    if arr.shape != shape:
        raise IngestionError(
            f"{path}: tensor {name!r} has shape {arr.shape}, {SHARD_INDEX} implies {shape}"
        )


def _check_ids(path: Path, name: str, arr: np.ndarray, lo: int, hi: int) -> None:
    """Every value of ``arr`` must be an integer in ``lo..hi``."""
    if arr.size and not (np.all(arr == np.round(arr)) and lo <= arr.min() and arr.max() <= hi):
        raise IngestionError(f"{path}: tensor {name!r} holds values other than integers {lo}..{hi}")


def _check_offsets(path: Path, name: str, arr: np.ndarray, total: int) -> None:
    """``arr`` must be integers rising strictly from 0 to ``total``."""
    _check_ids(path, name, arr, 0, total)
    if arr[0] != 0 or arr[-1] != total or np.any(np.diff(arr) <= 0):
        raise IngestionError(f"{path}: tensor {name!r} does not rise strictly from 0 to {total}")


def load_shards(shard_dir: str | Path) -> PreparedData:
    """Reload a shard directory written by :func:`save_shards`.

    Every tensor is checked against ``index.json`` (shapes, id ranges,
    attribute-row and session offsets, ground truths outside their
    histories) before use; a disagreement is an IngestionError naming the
    file and the key or tensor.
    """
    shard_dir = Path(shard_dir)
    index_path = shard_dir / SHARD_INDEX
    bin_path = shard_dir / SHARD_BIN
    if not index_path.exists() or not bin_path.exists():
        raise IngestionError(f"{shard_dir} is not a shard directory (missing index or container)")
    try:
        index = json.loads(index_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise IngestionError(f"{index_path}: invalid JSON ({e.msg})") from e
    missing = [key for key in INDEX_KEYS if key not in index]
    if missing:
        raise IngestionError(f"{index_path}: missing keys {missing}")
    if len(index["tax_vocab"]) != 3:
        raise IngestionError(f"{index_path}: key 'tax_vocab' must have 3 levels")
    tensors = load_tensors(bin_path)
    missing = [name for name in SHARD_TENSORS if name not in tensors]
    if missing:
        dense = "attr_matrix" in tensors
        hint = "; it holds a dense 'attr_matrix', so run prepare again" if dense else ""
        raise IngestionError(f"{bin_path}: missing tensors {missing}{hint}")
    n_items, n_tokens = len(index["item_ids"]), len(index["attr_tokens"])
    attr_indptr, attr_cols = tensors["attr_indptr"], tensors["attr_cols"]
    _check_shape(bin_path, "attr_indptr", attr_indptr, (n_items + 1,))
    _check_shape(bin_path, "attr_cols", attr_cols, (attr_cols.size,))
    _check_ids(bin_path, "attr_cols", attr_cols, 0, n_tokens - 1)
    _check_offsets(bin_path, "attr_indptr", attr_indptr, attr_cols.size)
    tax_paths = tensors["tax_paths"]
    _check_shape(bin_path, "tax_paths", tax_paths, (n_items, 3))
    for level, vocab in enumerate(index["tax_vocab"]):
        _check_ids(bin_path, f"tax_paths[:, {level}]", tax_paths[:, level], 0, len(vocab) - 1)
    attr_vectors = tensors.get("attr_vectors")
    if attr_vectors is not None and (attr_vectors.ndim != 2 or len(attr_vectors) != n_tokens):
        raise IngestionError(
            f"{bin_path}: tensor 'attr_vectors' has shape {attr_vectors.shape}, "
            f"expected {n_tokens} rows"
        )

    def split(name: str) -> list[EncodedSession]:
        ids = index[f"{name}_ids"]
        offsets, items, gts = (tensors[f"{name}_{part}"] for part in ("offsets", "items", "gts"))
        _check_shape(bin_path, f"{name}_offsets", offsets, (len(ids) + 1,))
        _check_shape(bin_path, f"{name}_items", items, (items.size,))
        _check_shape(bin_path, f"{name}_gts", gts, (len(ids),))
        _check_ids(bin_path, f"{name}_items", items, 1, n_items - 1)
        _check_ids(bin_path, f"{name}_gts", gts, 1, n_items - 1)
        _check_offsets(bin_path, f"{name}_offsets", offsets, items.size)
        bounds, history = offsets.astype(np.int64), items.astype(np.int64)
        out = []
        for i, sid in enumerate(ids):
            sess = EncodedSession(sid, history[bounds[i] : bounds[i + 1]].tolist(), int(gts[i]))
            if sess.gt in sess.history:
                raise IngestionError(
                    f"{bin_path}: tensor '{name}_gts' holds ground truth {sess.gt} of "
                    f"session '{sid}', which is in its own history"
                )
            out.append(sess)
        return out

    return PreparedData(
        item_ids=list(index["item_ids"]),
        tax_vocab=tuple(list(v) for v in index["tax_vocab"]),  # type: ignore[arg-type]
        tax_paths=tax_paths.astype(np.int64),
        attr_tokens=list(index["attr_tokens"]),
        attr_matrix=AttributeMatrix(attr_indptr, attr_cols, n_tokens),
        attr_vectors=attr_vectors,
        attr_mode=index["attr_mode"],
        no_attr_items=[int(x) for x in index["no_attr_items"]],
        train=split("train"),
        test=split("test"),
        counts={k: int(v) for k, v in index["counts"].items()},
        stats=index["stats"],
    )

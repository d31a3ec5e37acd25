"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is deliberately small: a :class:`Tensor` wraps a NumPy array, a
:class:`Tape` records every operation executed while it is active, and
``Tape.backward`` replays the record in reverse, accumulating gradients by
summation so shared subexpressions are handled correctly.  All math is
64-bit; every constructed tensor is checked for NaN/Inf so non-finite
values surface as errors instead of propagating silently.

Gradients only flow for operations executed inside a ``with Tape() as
tape:`` block and only into tensors whose ``requires_grad`` flag is set
(directly for leaves, transitively for intermediates).

The per-segment ops take their row layout (a chunk's session rows, an
attribute gather's token columns) as one :class:`Segments`, checked when
it is built; each op checks only that it spans the op's rows.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import DimensionError, DomainError, NonFiniteError
from .special import digamma as _digamma_arr
from .special import log_gamma as _log_gamma_arr

__all__ = [
    "Tensor",
    "Tape",
    "Segments",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "exp",
    "log",
    "sqrt",
    "sigmoid",
    "tanh",
    "softplus",
    "clamp_min",
    "log_gamma",
    "log_beta_density",
    "beta_shapes",
    "beta_density",
    "gated_graph_step",
    "attention_readout",
    "standardized_readout",
    "path_embedding",
    "mix",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "softmax",
    "take_rows",
    "segment_mean",
    "segment_std",
    "masked_cross_entropy",
    "pick",
    "reduce_sum",
    "reduce_mean",
    "reduce_std",
    "reduce_max",
]


def all_finite(arr: np.ndarray) -> bool:
    """Whether every element of a float array is finite.  Elementwise, so
    finite values whose sum would overflow pass without a warning."""
    return bool(np.isfinite(arr).all())


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False) -> None:
        arr = np.asarray(data, dtype=np.float64, order="C")
        if not all_finite(arr):
            raise NonFiniteError("tensor contains NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


_TAPE_STACK: list["Tape"] = []


def _active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Ordered record of executed ops; execution order is topological order."""

    def __init__(self) -> None:
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor, seed: np.ndarray | None = None) -> None:
        """Propagate d(loss)/d(x) into every recorded ancestor of ``loss``.

        ``seed`` overrides the initial gradient (defaults to ones, which for
        a scalar loss is the conventional 1.0).  Each recorded node is
        visited exactly once, in reverse execution order, and its gradient
        is dropped once its rule has passed it on, so a long tape holds
        only the gradients still to be propagated.  Leaves keep theirs.
        """
        if seed is None:
            seed_arr = np.ones_like(loss.data)
        else:
            seed_arr = np.asarray(seed, dtype=np.float64)
            if seed_arr.shape != loss.data.shape:
                raise DimensionError(
                    f"backward seed shape {seed_arr.shape} != loss shape {loss.data.shape}"
                )
        _accumulate(loss, seed_arr)
        for out, rule in reversed(self._nodes):
            if out.grad is not None:
                rule(out.grad)
                out.grad = None


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad = t.grad + g


def _grad_buffer(t: Tensor) -> np.ndarray | None:
    """``t``'s gradient as a C-contiguous array that a rule may add into in
    place, created as zeros when missing; None when ``t`` takes no
    gradient.  For rules whose gradient touches few rows of a large
    table, where a table-sized temporary per call would cost more than
    the scatter.  Gradients stay owned by their tensor: a caller that
    keeps ``t.grad`` across backward calls should copy it."""
    if not t.requires_grad:
        return None
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    elif not t.grad.flags.c_contiguous or not t.grad.flags.writeable:
        t.grad = np.array(t.grad, dtype=np.float64, order="C")
    return t.grad


def _record(out: Tensor, inputs: Sequence[Tensor], rule: Callable[[np.ndarray], None]) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._nodes.append((out, rule))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing NumPy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcast_check(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: cannot broadcast shapes {a.shape} and {b.shape}") from None


# ---------------------------------------------------------------------------
# row segments


class Segments:
    """Segment r owns the ``lengths[r]`` rows from ``starts[r]`` up to the
    next start, the last up to ``n``; with ``last_rows``, its anchor (a
    session's most recent history item) is row ``last_rows[r]``.

    Segments start at row 0, are non-empty and cover the n rows, and each
    anchor lies inside its segment, or DimensionError is raised; no
    segments over no rows is the empty layout.  The arrays are read-only.
    The reductions below work on whole segments at once, so nothing grows
    with segments × rows."""

    def __init__(
        self, starts: Sequence[int], n: int, last_rows: Sequence[int] | None = None
    ) -> None:
        self.starts = np.array(starts, dtype=np.int64)
        self.n = int(n)
        if self.starts.ndim != 1:
            raise DimensionError(f"expected 1-d segment starts, got shape {self.starts.shape}")
        self.lengths = np.diff(self.starts, append=self.n)
        if self.starts[:1].any() or (self.lengths < 1).any() or self.lengths.sum() != self.n:
            raise DimensionError(f"segments must start at 0 and be non-empty over {self.n} rows")
        self.last_rows: np.ndarray | None = None
        if last_rows is not None:
            self.last_rows = np.array(last_rows, dtype=np.int64)
            if self.last_rows.shape != self.starts.shape or (
                (self.last_rows < self.starts) | (self.last_rows >= self.starts + self.lengths)
            ).any():
                raise DimensionError("need one last row inside each segment")
            self.last_rows.flags.writeable = False
        self.starts.flags.writeable = False
        self.lengths.flags.writeable = False

    def __len__(self) -> int:
        return len(self.starts)

    def check(self, op: str, n: int, anchored: bool = False) -> None:
        """DimensionError unless these segments span ``n`` rows and, when
        ``anchored``, have last rows."""
        if self.n != n:
            raise DimensionError(f"{op}: segments over {self.n} rows given {n}")
        if anchored and self.last_rows is None:
            raise DimensionError(f"{op}: segments without last rows")

    @property
    def ids(self) -> np.ndarray:
        """The segment of every row."""
        return np.repeat(np.arange(len(self)), self.lengths)

    def sum(self, x: np.ndarray) -> np.ndarray:
        """Each segment's rows of ``x`` added in row order, one row per
        segment."""
        return np.add.reduceat(x, self.starts, axis=0)

    def spread(self, y: np.ndarray) -> np.ndarray:
        """Each segment's row of ``y`` repeated over the segment's rows."""
        return np.repeat(y, self.lengths, axis=0)

    def gather_sum(self, table: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Row r is ``table[cols[starts[r]]] + table[cols[starts[r] + 1]] +
        ...`` over segment r's positions of ``cols``, added left to right.

        One vectorised step per position: every segment takes its p-th
        column at step p, so the work is the n gathered rows plus one pass
        per position over the segments still that long, found once by
        sorting the segments past the shortest length.  ``np.add.reduceat``
        instead loops per segment and per column."""
        starts, lengths = self.starts, self.lengths
        out = table[cols[starts]]
        short = int(lengths.min())
        for p in range(1, short):
            out += table[cols[starts + p]]
        longer = np.flatnonzero(lengths > short)
        if longer.size:
            longer = longer[np.argsort(-lengths[longer], kind="stable")]
            neg_len = -lengths[longer]  # ascending
            for p in range(short, int(lengths.max())):
                rows = longer[: int(np.searchsorted(neg_len, -p))]  # length > p
                out[rows] += table[cols[starts[rows] + p]]
        return out


# ---------------------------------------------------------------------------
# elementwise binary ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "add")
    out = Tensor(a.data + b.data)

    def rule(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _record(out, (a, b), rule)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "sub")
    out = Tensor(a.data - b.data)

    def rule(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _record(out, (a, b), rule)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "mul")
    out = Tensor(a.data * b.data)

    def rule(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), rule)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "div")
    if b.data.size == 0 or np.any(b.data == 0.0):
        raise DomainError("div: division by zero")
    out = Tensor(a.data / b.data)

    def rule(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g / b.data, a.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _record(out, (a, b), rule)


# ---------------------------------------------------------------------------
# elementwise unary ops


def neg(t) -> Tensor:
    t = _as_tensor(t)
    out = Tensor(-t.data)

    def rule(g: np.ndarray) -> None:
        _accumulate(t, -g)

    return _record(out, (t,), rule)


def exp(t) -> Tensor:
    t = _as_tensor(t)
    out = Tensor(np.exp(t.data))

    def rule(g: np.ndarray, y: np.ndarray = out.data) -> None:
        _accumulate(t, g * y)

    return _record(out, (t,), rule)


def log(t) -> Tensor:
    t = _as_tensor(t)
    if t.data.size and np.any(t.data <= 0.0):
        raise DomainError("log: input must be strictly positive")
    out = Tensor(np.log(t.data))

    def rule(g: np.ndarray) -> None:
        _accumulate(t, g / t.data)

    return _record(out, (t,), rule)


def sqrt(t) -> Tensor:
    t = _as_tensor(t)
    if t.data.size and np.any(t.data <= 0.0):
        raise DomainError("sqrt: input must be strictly positive")
    out = Tensor(np.sqrt(t.data))

    def rule(g: np.ndarray, y: np.ndarray = out.data) -> None:
        _accumulate(t, g * 0.5 / y)

    return _record(out, (t,), rule)


def sigmoid(t) -> Tensor:
    t = _as_tensor(t)
    # tanh half-angle form is stable in both tails.
    out = Tensor(0.5 * (1.0 + np.tanh(0.5 * t.data)))

    def rule(g: np.ndarray, y: np.ndarray = out.data) -> None:
        _accumulate(t, g * y * (1.0 - y))

    return _record(out, (t,), rule)


def tanh(t) -> Tensor:
    t = _as_tensor(t)
    out = Tensor(np.tanh(t.data))

    def rule(g: np.ndarray, y: np.ndarray = out.data) -> None:
        _accumulate(t, g * (1.0 - y * y))

    return _record(out, (t,), rule)


def softplus(t) -> Tensor:
    t = _as_tensor(t)
    out = Tensor(np.logaddexp(0.0, t.data))

    def rule(g: np.ndarray) -> None:
        _accumulate(t, g * 0.5 * (1.0 + np.tanh(0.5 * t.data)))

    return _record(out, (t,), rule)


def clamp_min(t, lo: float) -> Tensor:
    """Elementwise max(t, lo); gradient passes only where t > lo."""
    t = _as_tensor(t)
    lo = float(lo)
    out = Tensor(np.maximum(t.data, lo))

    def rule(g: np.ndarray) -> None:
        _accumulate(t, g * (t.data > lo))

    return _record(out, (t,), rule)


def log_gamma(t) -> Tensor:
    """ln Γ(t) elementwise for t > 0; gradient is the digamma function."""
    t = _as_tensor(t)
    out = Tensor(_log_gamma_arr(t.data))

    def rule(g: np.ndarray) -> None:
        _accumulate(t, g * _digamma_arr(t.data))

    return _record(out, (t,), rule)


def log_beta_density(a, c, x) -> Tensor:
    """ln Beta(x; a, c) elementwise: ln Γ(a+c) − (ln Γ(a) + ln Γ(c)) +
    ((a−1) ln x + (c−1) ln(1−x)), for 1-d shapes ``a``, ``c`` > 0 and
    constant points ``x``.  A point outside (0, 1) makes the value
    non-finite, which raises NonFiniteError as the chain did.

    One op for the chain of :func:`log_gamma`, :func:`add`, :func:`mul`
    and :func:`sub` that spells the formula, with the same additions in
    the same order, so its values are bit-identical to that chain's.  The
    three log-gammas are one Lanczos call on the stacked ``[a+c, a, c]``,
    and backward is one digamma call on the same stack:
    ∂/∂a = ψ(a+c) − ψ(a) + ln x, ∂/∂c = ψ(a+c) − ψ(c) + ln(1−x).
    """
    a, c = _as_tensor(a), _as_tensor(c)
    x = np.asarray(x, dtype=np.float64)
    if a.ndim != 1 or c.shape != a.shape or x.shape != a.shape:
        raise DimensionError(
            f"log_beta_density: expected equal 1-d shapes, got {a.shape}, {c.shape} and {x.shape}"
        )
    stack, log_x, log_1mx, value = _log_beta(a.data, c.data, x)
    out = Tensor(value)

    def rule(g: np.ndarray) -> None:
        d_a, d_c = _log_beta_grads(g, stack, log_x, log_1mx)
        _accumulate(a, d_a)
        _accumulate(c, d_c)

    return _record(out, (a, c), rule)


def _log_beta(a: np.ndarray, c: np.ndarray, x: np.ndarray):
    """The stack ``[a+c, a, c]``, ln x, ln(1−x) and ln Beta(x; a, c)."""
    stack = np.stack([a + c, a, c])
    lg = _log_gamma_arr(stack)
    log_x, log_1mx = np.log(x), np.log1p(-x)
    value = (lg[0] - (lg[1] + lg[2])) + ((a - 1.0) * log_x + (c - 1.0) * log_1mx)
    return stack, log_x, log_1mx, value


def _log_beta_grads(g, stack, log_x, log_1mx) -> tuple[np.ndarray, np.ndarray]:
    psi = _digamma_arr(stack)
    return g * (psi[0] - psi[1] + log_x), g * (psi[0] - psi[2] + log_1mx)


def beta_shapes(v, t) -> Tensor:
    """Beta shapes of n node rows from two n-row blocks, as a 2 × n tensor:
    row 0 holds a_i = φ(mean_k ϱ(v_ik)), row 1 c_i = φ(mean_k ϱ(t_ik)),
    with φ = ϱ = softplus.

    One op for the two chains of :func:`softplus`, :func:`reduce_mean` and
    :func:`softplus`, with the same NumPy calls in the same order, so its
    rows are bit-identical to theirs.  Softplus saturates nothing, so an
    overflowed mean shows in the output, which is checked as every op's is.
    """
    v, t = _as_tensor(v), _as_tensor(t)
    if v.ndim != 2 or t.ndim != 2 or v.shape[0] != t.shape[0]:
        raise DimensionError(
            f"beta_shapes: expected two 2-d blocks of equal rows, got {v.shape} and {t.shape}"
        )
    if not (v.shape[1] and t.shape[1]):
        raise DomainError("beta_shapes: empty reduction along axis 1")
    means = [np.logaddexp(0.0, block.data).mean(axis=1) for block in (v, t)]
    out = Tensor(np.stack([np.logaddexp(0.0, m) for m in means]))

    def rule(g: np.ndarray) -> None:
        # softplus' = σ, in the tanh half-angle form of sigmoid().
        for block, m, g_shape in zip((v, t), means, g):
            d_mean = g_shape * 0.5 * (1.0 + np.tanh(0.5 * m)) / block.shape[1]
            _accumulate(block, d_mean[:, None] * (0.5 * (1.0 + np.tanh(0.5 * block.data))))

    return _record(out, (v, t), rule)


def beta_density(shapes, x) -> Tensor:
    """Beta(x; a, c) elementwise for the 2 × n ``shapes`` of
    :func:`beta_shapes` (rows a and c, > 0) and constant points ``x``.

    One op for :func:`exp` of :func:`log_beta_density`, with the same
    NumPy calls, so its values are bit-identical to that pair's.  The
    log-density is checked for NaN and Inf, which exp would map to a
    finite 0 (a point outside (0, 1)); an overflowed density fails the
    output's own check.
    """
    shapes = _as_tensor(shapes)
    x = np.asarray(x, dtype=np.float64)
    if shapes.ndim != 2 or shapes.shape[0] != 2 or x.shape != shapes.shape[1:]:
        raise DimensionError(
            f"beta_density: expected 2 × n shapes and n points, got {shapes.shape} and {x.shape}"
        )
    stack, log_x, log_1mx, log_pdf = _log_beta(shapes.data[0], shapes.data[1], x)
    if not all_finite(log_pdf):
        raise NonFiniteError("beta_density: the log-density contains NaN or Inf")
    out = Tensor(np.exp(log_pdf))

    def rule(g: np.ndarray, y: np.ndarray = out.data) -> None:
        _accumulate(shapes, np.stack(_log_beta_grads(g * y, stack, log_x, log_1mx)))

    return _record(out, (shapes,), rule)


def gated_graph_step(adj_out, adj_in, v, h, b, wz, uz, wr, ur, wo, uo) -> Tensor:
    """One GRU-style gated propagation step over a graph (GGNN):

        a = [A_out·v ; A_in·v]·hᵀ + b
        z = σ(a·wz + v·uz),  r = σ(a·wr + v·ur)
        ṽ = tanh(a·wo + (r ⊙ v)·uo)
        v' = (1 − z) ⊙ v + z ⊙ ṽ

    for n node rows ``v`` (n × d), constant n × n adjacencies, ``h``
    d × 2d, ``b`` of length d and the six gate maps d × d.

    One op for the 23 that spell it: the forward makes the same NumPy
    calls in the same order, so its values are bit-identical to theirs,
    but the tape holds one entry and keeps only what the hand-derived
    backward reads (the messages, a, z, r and ṽ).  Like every op, it
    raises NonFiniteError on a non-finite value: the three gate
    pre-activations are checked, since σ and tanh would saturate an
    overflow upstream of them into a finite output.
    """
    v, h, b, wz, uz, wr, ur, wo, uo = map(_as_tensor, (v, h, b, wz, uz, wr, ur, wo, uo))
    a_out = np.asarray(adj_out, dtype=np.float64)
    a_in = np.asarray(adj_in, dtype=np.float64)
    if v.ndim != 2:
        raise DimensionError(f"gated_graph_step: expected (n, d) node rows, got {v.shape}")
    n, d = v.shape
    if a_out.shape != (n, n) or a_in.shape != (n, n):
        raise DimensionError(
            f"gated_graph_step: adjacency {a_out.shape}/{a_in.shape} does not match {n} nodes"
        )
    if h.shape != (d, 2 * d) or b.shape != (d,) or any(
        w.shape != (d, d) for w in (wz, uz, wr, ur, wo, uo)
    ):
        raise DimensionError(f"gated_graph_step: weights do not fit {d}-wide node rows")
    vd = v.data
    msg = np.concatenate([a_out @ vd, a_in @ vd], axis=-1)
    a = msg @ np.ascontiguousarray(h.data.T) + b.data
    pre = [a @ wz.data + vd @ uz.data, a @ wr.data + vd @ ur.data]
    z, r = (0.5 * (1.0 + np.tanh(0.5 * p)) for p in pre)
    pre.append(a @ wo.data + (r * vd) @ uo.data)
    if not all(map(all_finite, pre)):
        raise NonFiniteError("gated_graph_step: a gate pre-activation contains NaN or Inf")
    cand = np.tanh(pre[2])
    out = Tensor((1.0 - z) * vd + z * cand)

    def rule(g: np.ndarray) -> None:
        d_cand = g * z * (1.0 - cand * cand)
        d_z = g * (cand - vd) * z * (1.0 - z)
        d_rv = d_cand @ uo.data.T
        d_r = d_rv * vd * r * (1.0 - r)
        d_a = d_z @ wz.data.T + d_r @ wr.data.T + d_cand @ wo.data.T
        for w, lhs, dp in (
            (wz, a, d_z), (uz, vd, d_z), (wr, a, d_r), (ur, vd, d_r),
            (wo, a, d_cand), (uo, r * vd, d_cand),
        ):
            _accumulate(w, lhs.T @ dp)
        _accumulate(b, d_a.sum(axis=0))
        _accumulate(h, d_a.T @ msg)
        d_msg = d_a @ h.data
        _accumulate(
            v,
            g * (1.0 - z) + d_rv * r + d_z @ uz.data.T + d_r @ ur.data.T
            + a_out.T @ d_msg[:, :d] + a_in.T @ d_msg[:, d:],
        )

    return _record(out, (v, h, b, wz, uz, wr, ur, wo, uo), rule)


def attention_readout(e, w1, w2, segs: Segments) -> tuple[Tensor, np.ndarray]:
    """Soft attention over n node rows ``e`` (n × m), read out as one row
    per segment of ``segs``:

        g_i = σ(e_i·w1 + e_l·w2),   out_r = Σ_{i in r} g_i e_i

    for ``w1`` and ``w2`` m × 1, where l = ``segs.last_rows[r]`` is
    segment r's anchor row.  Returns the readout and the gates g, an n × 1
    array that takes no gradient.

    One op for the seven :func:`matmul`, :func:`add`, :func:`sigmoid` and
    :func:`mul` that spell it with 0/1 segment matrices: the anchor is a
    gather, so the gates are bit-identical to that chain's, and the sums
    run in row order (``np.add.reduceat``), so the readout and gradients
    agree with it to rounding, within 1e-14 of their largest magnitude.
    The gate pre-activation is checked for NaN and Inf, which σ would
    saturate into a finite gate.
    """
    e, w1, w2 = map(_as_tensor, (e, w1, w2))
    if e.ndim != 2:
        raise DimensionError(f"attention_readout: expected (n, m) node rows, got {e.shape}")
    n, m = e.shape
    segs.check("attention_readout", n, anchored=True)
    if w1.shape != (m, 1) or w2.shape != (m, 1):
        raise DimensionError(f"attention_readout: weights do not fit {m}-wide rows")
    ed, last_rows = e.data, segs.last_rows
    # Gathered after the product, so that the gates are the chain's bit for bit.
    logits = ed @ w1.data + segs.spread((ed @ w2.data)[last_rows])
    if not all_finite(logits):
        raise NonFiniteError("attention_readout: a gate pre-activation contains NaN or Inf")
    gates = 0.5 * (1.0 + np.tanh(0.5 * logits))
    out = Tensor(segs.sum(gates * ed))

    def rule(g: np.ndarray) -> None:
        d_ge = segs.spread(g)
        d_logits = (d_ge * ed).sum(axis=1, keepdims=True) * gates * (1.0 - gates)
        d_anchor = segs.sum(d_logits)
        _accumulate(w1, ed.T @ d_logits)
        _accumulate(w2, ed[last_rows].T @ d_anchor)
        d_e = d_ge * gates + d_logits @ w1.data.T
        d_e[last_rows] += d_anchor @ w2.data.T
        _accumulate(e, d_e)

    return _record(out, (e, w1, w2), rule), gates


def standardized_readout(e, b, w3, segs: Segments, eps: float) -> tuple[Tensor, np.ndarray]:
    """Node rows ``e`` (n × m) weighted by ``b`` (length n), standardized
    per segment of ``segs`` and read out as one row per segment:

        x_i = b_i e_i,   y_i = (x_i + x_l − mean_j x_j) / (s + eps),
        β_i = y_i·w3,    out_r = Σ_{i in r} β_i e_i

    where l = ``segs.last_rows[r]`` is segment r's anchor row, the mean is
    over its rows and s is the population std of its weights
    (:func:`segment_std`).
    Returns the readout and the scores β, an n × 1 array that takes no
    gradient.

    One op for the thirteen (:func:`reshape`, :func:`mul`, :func:`matmul`,
    :func:`segment_std`, :func:`add` and :func:`div`) that spell it with
    0/1 segment matrices.  Its sums run in row order (``np.add.reduceat``),
    so the scores, readout and gradients agree with that chain's to
    rounding, within 1e-14 of their largest magnitude, not bit for bit.
    The std is checked for NaN and Inf, which the division would turn into
    a finite 0.
    """
    e, b, w3 = map(_as_tensor, (e, b, w3))
    if e.ndim != 2 or b.shape != e.shape[:1]:
        raise DimensionError(
            f"standardized_readout: expected (n, m) rows and n weights, got {e.shape} and {b.shape}"
        )
    n, m = e.shape
    segs.check("standardized_readout", n, anchored=True)
    if w3.shape != (m, 1):
        raise DimensionError(f"standardized_readout: weights do not fit {m}-wide rows")
    ed, bd = e.data, b.data
    last_rows, lengths = segs.last_rows, segs.lengths
    b_col = bd.reshape(n, 1)
    scaled = b_col * ed
    shift = scaled[last_rows] - segs.sum(scaled) / lengths[:, None]
    dev, s = _segment_std(bd, segs)
    if not all_finite(s):
        raise NonFiniteError("standardized_readout: a weight std contains NaN or Inf")
    num = scaled + segs.spread(shift)
    den = segs.spread((s + eps)[:, None])
    standardized = num / den
    scores = standardized @ w3.data
    out = Tensor(segs.sum(scores * ed))

    def rule(g: np.ndarray) -> None:
        d_se = segs.spread(g)
        d_scores = (d_se * ed).sum(axis=1, keepdims=True)
        _accumulate(w3, standardized.T @ d_scores)
        d_num = (d_scores @ w3.data.T) / den
        d_den = -(d_num * standardized).sum(axis=1)
        d_shift = segs.sum(d_num)
        d_scaled = d_num - segs.spread(d_shift / lengths[:, None])
        d_scaled[last_rows] += d_shift
        d_s = segs.sum(d_den)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(s > 0.0, d_s / (lengths * s), 0.0)
        _accumulate(b, (d_scaled * ed).sum(axis=1) + dev * segs.spread(scale))
        _accumulate(e, d_se * scores + d_scaled * b_col)

    return _record(out, (e, b, w3), rule), scores


def path_embedding(tables, ids, w, b) -> Tensor:
    """tanh((T_1[p_1] ⊕ … ⊕ T_k[p_k])·w + b) for each row (p_1, …, p_k)
    of the n × k integer ``ids``: a row of each of the k ``tables``,
    concatenated and mapped through one tanh layer (``w`` of as many rows
    as the tables are wide together, ``b`` one entry per column of ``w``).

    One op for the chain of k :func:`take_rows`, a :func:`concat`,
    :func:`matmul`, :func:`add` and :func:`tanh`, with the same NumPy
    calls in the same order, so its values are bit-identical to that
    chain's.  Backward scatter-adds into each table's gradient buffer, as
    :func:`take_rows` does.  The pre-activation is checked for NaN and
    Inf, which tanh would saturate into a finite output.
    """
    tables = [_as_tensor(t) for t in tables]
    w, b = _as_tensor(w), _as_tensor(b)
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != len(tables) or any(t.ndim != 2 for t in tables):
        raise DimensionError(
            f"path_embedding: expected (n, {len(tables)}) ids into 2-d tables, got {idx.shape}"
        )
    widths = [t.shape[1] for t in tables]
    if w.ndim != 2 or w.shape[0] != sum(widths) or b.shape != w.shape[1:]:
        raise DimensionError(
            f"path_embedding: weights {w.shape} and bias {b.shape} do not fit "
            f"{sum(widths)}-wide rows"
        )
    for t, col in zip(tables, idx.T):
        rows = t.shape[0]
        if col.size and (col.min() < 0 or col.max() >= rows):
            bad = int(col[(col < 0) | (col >= rows)][0])
            raise DomainError(f"path_embedding: index {bad} out of range for {rows} rows")
    gathered = np.concatenate([t.data[idx[:, k]] for k, t in enumerate(tables)], axis=-1)
    pre = gathered @ w.data + b.data
    if not all_finite(pre):
        raise NonFiniteError("path_embedding: the pre-activation contains NaN or Inf")
    out = Tensor(np.tanh(pre))

    def rule(g: np.ndarray, y: np.ndarray = out.data) -> None:
        d_pre = g * (1.0 - y * y)
        _accumulate(w, gathered.T @ d_pre)
        _accumulate(b, d_pre.sum(axis=0))
        d_rows = d_pre @ w.data.T
        lo = 0
        for k, (t, width) in enumerate(zip(tables, widths)):
            if t.requires_grad:
                # In place, as take_rows: a lookup touches a few table rows.
                np.add.at(_grad_buffer(t), idx[:, k], d_rows[:, lo : lo + width])
            lo += width

    return _record(out, (*tables, w, b), rule)


def mix(a, b, w: float) -> Tensor:
    """w·a + (1 − w)·b for equal shapes and a constant weight ``w``: one
    op for ``add(mul(a, w), mul(b, 1 − w))``, bit-identical to it."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"mix: shapes {a.shape} and {b.shape} differ")
    w = float(w)
    out = Tensor(a.data * w + b.data * (1.0 - w))

    def rule(g: np.ndarray) -> None:
        _accumulate(a, g * w)
        _accumulate(b, g * (1.0 - w))

    return _record(out, (a, b), rule)


# ---------------------------------------------------------------------------
# linear algebra and structure


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul: expected 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree, {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data)

    def rule(g: np.ndarray) -> None:
        # A constant operand (gathered attribute rows, say) can be as wide
        # as the catalog: skip its product instead of discarding it.
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _record(out, (a, b), rule)


def transpose(t) -> Tensor:
    t = _as_tensor(t)
    if t.ndim != 2:
        raise DimensionError(f"transpose: expected a 2-d tensor, got shape {t.shape}")
    out = Tensor(t.data.T)

    def rule(g: np.ndarray) -> None:
        _accumulate(t, g.T)

    return _record(out, (t,), rule)


def reshape(t, shape: Sequence[int]) -> Tensor:
    t = _as_tensor(t)
    new_shape = tuple(int(s) for s in shape)
    if int(np.prod(new_shape, dtype=np.int64)) != t.size:
        raise DimensionError(f"reshape: cannot view shape {t.shape} as {new_shape}")
    out = Tensor(t.data.reshape(new_shape))

    def rule(g: np.ndarray) -> None:
        _accumulate(t, g.reshape(t.shape))

    return _record(out, (t,), rule)


def concat(tensors: Sequence) -> Tensor:
    """Concatenate along the last axis; leading dimensions must agree."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise DimensionError("concat: need at least one tensor")
    lead = ts[0].shape[:-1]
    ndim = ts[0].ndim
    for t in ts[1:]:
        if t.ndim != ndim or t.shape[:-1] != lead:
            raise DimensionError(
                f"concat: leading dimensions disagree, {ts[0].shape} vs {t.shape}"
            )
    out = Tensor(np.concatenate([t.data for t in ts], axis=-1))
    widths = [t.shape[-1] for t in ts]

    def rule(g: np.ndarray) -> None:
        start = 0
        for t, w in zip(ts, widths):
            _accumulate(t, g[..., start : start + w])
            start += w

    return _record(out, ts, rule)


def softmax(t) -> Tensor:
    """Probabilities along the last axis of a 1-d or 2-d tensor, max-shifted for stability."""
    t = _as_tensor(t)
    if t.ndim not in (1, 2):
        raise DimensionError(f"softmax: expected a 1-d or 2-d tensor, got shape {t.shape}")
    if t.size == 0:
        raise DomainError("softmax: empty input")
    e = np.exp(t.data - np.max(t.data, axis=-1, keepdims=True))
    out = Tensor(e / np.sum(e, axis=-1, keepdims=True))

    def rule(g: np.ndarray, y: np.ndarray = out.data) -> None:
        _accumulate(t, y * (g - np.sum(g * y, axis=-1, keepdims=True)))

    return _record(out, (t,), rule)


def take_rows(t, indices) -> Tensor:
    """Select rows ``t[indices]``; backward scatter-adds into the source."""
    t = _as_tensor(t)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"take_rows: indices must be 1-d, got shape {idx.shape}")
    if t.ndim < 1:
        raise DimensionError("take_rows: source must have at least one axis")
    n = t.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        bad = int(idx[(idx < 0) | (idx >= n)][0])
        raise DomainError(f"take_rows: index {bad} out of range for {n} rows")
    out = Tensor(t.data[idx])

    def rule(g: np.ndarray) -> None:
        # In place: the source is often a whole embedding table, of which
        # a lookup touches a few rows.
        np.add.at(_grad_buffer(t), idx, g)

    return _record(out, (t,), rule)


def segment_mean(table, cols, segs: Segments) -> Tensor:
    """Row r is the mean of ``table[cols[i]]`` over the positions i of
    segment r of ``segs``, as :meth:`nirrec.ingest.AttributeMatrix.gather`
    returns them.

    That is the product with ``table`` of a sparse matrix whose row r puts
    weight 1/length on each column of segment r, so a column listed twice
    weighs twice.  Forward sums the gathered rows one position at a time
    (:meth:`Segments.gather_sum`), backward is one ``np.add.at`` scatter
    into ``table``'s gradient buffer.
    """
    table = _as_tensor(table)
    cols = np.asarray(cols, dtype=np.int64)
    if table.ndim != 2 or cols.ndim != 1:
        raise DimensionError(
            f"segment_mean: expected a 2-d table and 1-d cols, got {table.shape} and {cols.shape}"
        )
    segs.check("segment_mean", cols.size)
    n = table.shape[0]
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        bad = int(cols[(cols < 0) | (cols >= n)][0])
        raise DomainError(f"segment_mean: column {bad} out of range for {n} rows")
    if not len(segs):
        return Tensor(np.zeros((0, table.shape[1])))
    lengths = segs.lengths[:, None]
    sums = segs.gather_sum(table.data, cols)
    sums /= lengths
    out = Tensor(sums)

    def rule(g: np.ndarray) -> None:
        d = table.shape[1]
        # Through a flat view: np.add.at over whole rows is several times
        # slower.
        flat = (cols[:, None] * d + np.arange(d)).ravel()
        np.add.at(_grad_buffer(table).reshape(-1), flat, (g / lengths)[segs.ids].ravel())

    return _record(out, (table,), rule)


def pick(t, index: int) -> Tensor:
    """Scalar element ``t[index]`` of a 1-d tensor."""
    t = _as_tensor(t)
    if t.ndim != 1:
        raise DimensionError(f"pick: expected a 1-d tensor, got shape {t.shape}")
    i = int(index)
    if not 0 <= i < t.size:
        raise DomainError(f"pick: index {i} out of range for length {t.size}")
    out = Tensor(t.data[i])

    def rule(g: np.ndarray) -> None:
        acc = np.zeros_like(t.data)
        acc[i] = g
        _accumulate(t, acc)

    return _record(out, (t,), rule)


# ---------------------------------------------------------------------------
# reductions


def _check_reduce(t: Tensor, axis: int | None, op: str) -> None:
    if axis is None:
        if t.size == 0:
            raise DomainError(f"{op}: empty reduction")
        return
    if not -t.ndim <= axis < t.ndim:
        raise DimensionError(f"{op}: axis {axis} invalid for shape {t.shape}")
    if t.shape[axis] == 0:
        raise DomainError(f"{op}: empty reduction along axis {axis}")


def reduce_sum(t, axis: int | None = None) -> Tensor:
    t = _as_tensor(t)
    _check_reduce(t, axis, "reduce_sum")
    out = Tensor(t.data.sum(axis=axis))

    def rule(g: np.ndarray) -> None:
        if axis is None:
            _accumulate(t, np.broadcast_to(g, t.shape))
        else:
            _accumulate(t, np.broadcast_to(np.expand_dims(g, axis), t.shape))

    return _record(out, (t,), rule)


def reduce_mean(t, axis: int | None = None) -> Tensor:
    t = _as_tensor(t)
    _check_reduce(t, axis, "reduce_mean")
    n = t.size if axis is None else t.shape[axis]
    out = Tensor(t.data.mean(axis=axis))

    def rule(g: np.ndarray) -> None:
        if axis is None:
            _accumulate(t, np.broadcast_to(g / n, t.shape))
        else:
            _accumulate(t, np.broadcast_to(np.expand_dims(g, axis) / n, t.shape))

    return _record(out, (t,), rule)


def reduce_std(t) -> Tensor:
    """Population standard deviation over all elements (divisor n)."""
    t = _as_tensor(t)
    _check_reduce(t, None, "reduce_std")
    m = t.data.mean()
    s = float(np.sqrt(np.mean((t.data - m) ** 2)))
    out = Tensor(s)

    def rule(g: np.ndarray) -> None:
        # d s / d x_j = (x_j - m) / (n s); flat at a constant input.
        if s == 0.0:
            _accumulate(t, np.zeros_like(t.data))
        else:
            _accumulate(t, g * (t.data - m) / (t.size * s))

    return _record(out, (t,), rule)


def segment_std(t, segs: Segments) -> Tensor:
    """Population standard deviation of each segment of ``segs`` over a
    1-d tensor.  The :func:`reduce_std` rule per segment, flat where a
    segment is constant."""
    t = _as_tensor(t)
    if t.ndim != 1:
        raise DimensionError(f"segment_std: expected a 1-d tensor, got {t.shape}")
    segs.check("segment_std", t.size)
    dev, s = _segment_std(t.data, segs)
    out = Tensor(s)

    def rule(g: np.ndarray) -> None:
        # d s_r / d x_j = (x_j - m_r) / (n_r s_r) for j in segment r.
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(s > 0.0, g / (segs.lengths * s), 0.0)
        _accumulate(t, dev * segs.spread(scale))

    return _record(out, (t,), rule)


def _segment_std(x: np.ndarray, segs: Segments):
    """Each entry's deviation from its segment's mean, and each segment's
    population std."""
    m = segs.sum(x) / segs.lengths
    dev = x - segs.spread(m)
    return dev, np.sqrt(segs.sum(dev * dev) / segs.lengths)


def masked_cross_entropy(logits, mask, targets) -> Tensor:
    """Cross-entropy of each row of a 2-d tensor over its ``mask``ed
    entries: ``logsumexp(logits[r, mask[r]]) - logits[r, targets[r]]``.

    The max shift is held constant, so the gradient is exactly softmax
    over the row's masked entries minus the one-hot target; unmasked
    entries take none.  Every target must lie inside its row's mask."""
    logits = _as_tensor(logits)
    mask = np.asarray(mask, dtype=bool)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or mask.shape != logits.shape or targets.shape != logits.shape[:1]:
        raise DimensionError(
            f"masked_cross_entropy: expected (B, R) logits and mask and B targets, got "
            f"{logits.shape}, {mask.shape} and {targets.shape}"
        )
    rows = np.arange(len(targets))
    if targets.size and (
        targets.min() < 0 or targets.max() >= logits.shape[1] or not mask[rows, targets].all()
    ):
        raise DomainError("masked_cross_entropy: a target lies outside its row's mask")
    shifted = np.where(mask, logits.data, -np.inf)
    top = shifted.max(axis=1, keepdims=True)
    ex = np.exp(shifted - top)
    total = ex.sum(axis=1, keepdims=True)
    out = Tensor(np.log(total[:, 0]) + top[:, 0] - logits.data[rows, targets])

    def rule(g: np.ndarray) -> None:
        grad = ex / total
        grad[rows, targets] -= 1.0
        _accumulate(logits, grad * g[:, None])

    return _record(out, (logits,), rule)


def reduce_max(t, axis: int | None = None) -> Tensor:
    t = _as_tensor(t)
    _check_reduce(t, axis, "reduce_max")
    out = Tensor(t.data.max(axis=axis))

    def rule(g: np.ndarray) -> None:
        # Route the gradient to the first maximum along the reduced axis.
        acc = np.zeros_like(t.data)
        if axis is None:
            acc.reshape(-1)[int(t.data.argmax())] = g
        else:
            idx = np.expand_dims(t.data.argmax(axis=axis), axis)
            np.put_along_axis(acc, idx, np.expand_dims(g, axis), axis)
        _accumulate(t, acc)

    return _record(out, (t,), rule)

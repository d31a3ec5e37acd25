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
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..errors import DimensionError, DomainError, NonFiniteError
from .special import digamma as _digamma_arr
from .special import log_gamma as _log_gamma_arr

__all__ = [
    "Tensor",
    "Tape",
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
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "softmax",
    "take_rows",
    "segment_mean",
    "pick",
    "reduce_sum",
    "reduce_mean",
    "reduce_std",
    "reduce_max",
]


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False) -> None:
        arr = np.asarray(data, dtype=np.float64, order="C")
        # A finite sum means every element is finite; a sum that overflows
        # (NumPy warns) falls back to the elementwise check.
        if not (math.isfinite(arr.sum()) or np.isfinite(arr).all()):
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
        visited exactly once, in reverse execution order.
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


def segment_mean(table, cols, starts, seg) -> Tensor:
    """Row r is the mean of ``table[cols[starts[r] : starts[r + 1]]]``; the
    last segment runs to the end of ``cols``.  ``seg`` is the segment of
    each entry of ``cols``, as :meth:`nirrec.ingest.AttributeMatrix.gather`
    returns it.

    That is the product with ``table`` of a sparse matrix whose row r puts
    weight 1/length on each column of segment r, so a column listed twice
    weighs twice.  Forward sums the gathered rows one position at a time
    (:func:`_segment_sums`), backward is one ``np.add.at`` scatter into
    ``table``'s gradient buffer.  Segments must be non-empty.
    """
    table = _as_tensor(table)
    cols = np.asarray(cols, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    seg = np.asarray(seg, dtype=np.int64)
    if table.ndim != 2 or cols.ndim != 1 or starts.ndim != 1 or seg.shape != cols.shape:
        raise DimensionError(
            f"segment_mean: expected a 2-d table, 1-d cols and starts and one segment "
            f"id per column, got {table.shape}, {cols.shape}, {starts.shape} and {seg.shape}"
        )
    n = table.shape[0]
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        bad = int(cols[(cols < 0) | (cols >= n)][0])
        raise DomainError(f"segment_mean: column {bad} out of range for {n} rows")
    if not starts.size:
        return Tensor(np.zeros((0, table.shape[1])))
    lengths = np.empty((len(starts), 1), dtype=np.int64)
    lengths[:-1, 0] = starts[1:] - starts[:-1]
    lengths[-1, 0] = cols.size - starts[-1]
    if starts[0] != 0 or lengths.min() < 1:
        raise DomainError("segment_mean: segments must start at 0 and be non-empty")
    sums = _segment_sums(table.data, cols, starts, lengths[:, 0])
    sums /= lengths
    out = Tensor(sums)

    def rule(g: np.ndarray) -> None:
        d = table.shape[1]
        # Through a flat view: np.add.at over whole rows is several times
        # slower.
        flat = (cols[:, None] * d + np.arange(d)).ravel()
        np.add.at(_grad_buffer(table).reshape(-1), flat, (g / lengths)[seg].ravel())

    return _record(out, (table,), rule)


def _segment_sums(table: np.ndarray, cols, starts, lengths) -> np.ndarray:
    """Row r is ``table[cols[starts[r]]] + table[cols[starts[r] + 1]] + ...``
    over its ``lengths[r]`` positions, added left to right.

    One vectorised step per position: every row takes its p-th column at
    step p, so the work is the nnz gathered rows plus one pass per
    position over the rows still that long, found once by sorting the
    rows past the shortest length.  ``np.add.reduceat`` instead loops
    per segment and per column."""
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

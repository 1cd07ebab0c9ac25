"""Reverse-mode automatic differentiation over float64 numpy arrays.

A small tape: every operation records its parent tensors and a closure that
maps the output gradient to parent gradients. Only the operations the toy
transformer and its losses need are implemented. The correctness contract is
agreement with central finite differences (see ``central_difference``), not
any property of the internals.

All arithmetic is float64. Graphs are only recorded when some input has
``requires_grad`` set, so evaluation with frozen parameters pays no tape
cost and follows the exact same floating-point path as training. In a
recorded graph, the binary operations compute no gradient for an operand
whose ``requires_grad`` is off when ``backward`` runs: a frozen weight costs
its forward product only.

``expert_mix`` is one node for a whole MoE layer: row ``r`` of its result
is ``sum_j weights[r, j] * E[indices[r, j]](x[r])`` for SiLU-gated FFN
experts ``E(v) = (silu(v @ gate) * (v @ up)) @ down``. It runs each expert
once on its rows, in ascending order, with the same arithmetic per element
as composing the ops above. A ``bypass`` row uses expert 0 alone with weight
exactly 1.0 and gives its routing weights a zero gradient. The backward
returns ``None`` for a frozen expert weight and skips an expert's inner
gradients when neither ``x`` nor that expert's ``gate``/``up`` needs one.

``attention`` and ``rms_norm`` are one node each for a transformer block's
causal multi-head attention and for an RMS norm. Their forward runs the
numpy operations of the composed form in the same order, so their outputs
are bit-identical to it; without a tape they keep no intermediates. Their
hand-written backward returns ``None`` for a frozen operand, and attention
skips the q/k/v branch when ``x``, ``wq``, ``wk`` and ``wv`` are all frozen.
Each sums the gradient of ``x`` in the order the composed tape did (q, then
k, then v; the norm's ``x * r`` term before the two of ``x * x``), so
training stays bit-identical too.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..errors import NumericalFailureError

__all__ = [
    "Tensor",
    "as_tensor",
    "attention",
    "expert_mix",
    "rms_norm",
    "softmax",
    "log_softmax",
    "silu",
    "embedding",
    "take_along",
    "take_pairs",
    "stack_columns",
    "zero_grads",
    "value_and_grad",
    "central_difference",
]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array plus an optional gradient tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    # -- plumbing ----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- autograd ----------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate gradients of ``self`` into every reachable leaf."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed gradient needs a scalar")
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = grad if self.grad is None else self.grad + grad
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            for parent, pgrad in zip(node._parents, node._backward(node.grad)):
                if pgrad is None or not parent.requires_grad:
                    continue
                parent.grad = pgrad if parent.grad is None else parent.grad + pgrad

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = _node(self.data + other.data, (self, other))
        if out._parents:
            a, b = self, other
            out._backward = lambda g: (
                _unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None,
            )
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _node(-self.data, (self,))
        if out._parents:
            out._backward = lambda g: (-g,)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        out = _node(self.data * other.data, (self, other))
        if out._parents:
            a, b = self, other
            out._backward = lambda g: (
                _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
            )
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out = _node(self.data / other.data, (self, other))
        if out._parents:
            a, b = self, other
            out._backward = lambda g: (
                _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None,
                (
                    _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
                    if b.requires_grad
                    else None
                ),
            )
        return out

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = _node(self.data**exponent, (self,))
        if out._parents:
            a = self
            out._backward = lambda g: (g * exponent * a.data ** (exponent - 1),)
        return out

    def __matmul__(self, other):
        other = as_tensor(other)
        out = _node(self.data @ other.data, (self, other))
        if out._parents:
            a, b = self, other
            out._backward = lambda g: (
                (
                    _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
                    if a.requires_grad
                    else None
                ),
                (
                    _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
                    if b.requires_grad
                    else None
                ),
            )
        return out

    # -- shape ops ---------------------------------------------------------

    def reshape(self, shape) -> "Tensor":
        out = _node(self.data.reshape(shape), (self,))
        if out._parents:
            old = self.data.shape
            out._backward = lambda g: (g.reshape(old),)
        return out

    def transpose(self, axes) -> "Tensor":
        out = _node(np.transpose(self.data, axes), (self,))
        if out._parents:
            inverse = tuple(np.argsort(axes))
            out._backward = lambda g: (np.transpose(g, inverse),)
        return out

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = _node(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out._parents:
            shape = self.data.shape

            def bw(g):
                if axis is None:
                    return (np.broadcast_to(g, shape).copy(),)
                if not keepdims:
                    g = np.expand_dims(g, axis)
                return (np.broadcast_to(g, shape).copy(),)

            out._backward = bw
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise functions ----------------------------------------------

    def log(self) -> "Tensor":
        out = _node(np.log(self.data), (self,))
        if out._parents:
            a = self
            out._backward = lambda g: (g / a.data,)
        return out

    def exp(self) -> "Tensor":
        out = _node(np.exp(self.data), (self,))
        if out._parents:
            out._backward = lambda g: (g * out.data,)
        return out


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data: np.ndarray, parents: tuple) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    # never overflows. Computing both branches everywhere costs less than
    # splitting the array by a mask and gives each element the same bits.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def silu(t: Tensor) -> Tensor:
    """x * sigmoid(x), the gate activation used by the experts."""
    s = _sigmoid(t.data)
    out = _node(t.data * s, (t,))
    if out._parents:
        out._backward = lambda g: (g * (s * (1.0 + t.data * (1.0 - s))),)
    return out


def _softmax(a: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    return (g - (g * y).sum(axis=axis, keepdims=True)) * y


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along ``axis``."""
    y = _softmax(t.data, axis)
    out = _node(y, (t,))
    if out._parents:
        out._backward = lambda g: (_softmax_grad(g, y, axis),)
    return out


def rms_norm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """``x * (mean(x * x, -1) + eps) ** -0.5 * gain`` as one node (module docstring)."""
    h = x.data.shape[-1]
    me = (x.data * x.data).sum(axis=-1, keepdims=True) * (1.0 / h) + eps
    r = me**-0.5
    xr = x.data * r
    out = _node(xr * gain.data, (x, gain))
    if out._parents:

        def bw(g):
            dgain = _unbroadcast(g * xr, gain.data.shape) if gain.requires_grad else None
            if not x.requires_grad:
                return None, dgain
            dxr = g * gain.data
            dr = _unbroadcast(dxr * x.data, r.shape)
            dsq = dr * -0.5 * me**-1.5 * (1.0 / h) * x.data
            # The tape's order: x * r first, then both operands of x * x.
            return dxr * r + dsq + dsq, dgain

        out._backward = bw
    return out


def attention(
    x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, mask: np.ndarray, heads: int
) -> Tensor:
    """Multi-head attention of a (batch, length, hidden) ``x`` as one node:
    ``softmax(q @ k.T * dh**-0.5 + mask) @ v`` per head, then ``@ wo``."""
    b, t, h = x.data.shape
    dh = h // heads
    scale = dh**-0.5
    flat = x.data.reshape((b * t, h))

    def split(w):
        return (flat @ w.data).reshape((b, t, heads, dh)).transpose((0, 2, 1, 3))

    q, k, v = split(wq), split(wk), split(wv)
    att = _softmax(q @ np.swapaxes(k, -1, -2) * scale + mask, -1)
    ctx = np.transpose(att @ v, (0, 2, 1, 3)).reshape((b * t, h))
    out = _node((ctx @ wo.data).reshape((b, t, h)), (x, wq, wk, wv, wo))
    if out._parents:

        def merge(d, w):
            """Gradients of ``flat`` and ``w`` from that of the head view of ``flat @ w``."""
            dproj = np.transpose(d, (0, 2, 1, 3)).reshape((b * t, h))
            dw = np.swapaxes(flat, -1, -2) @ dproj if w.requires_grad else None
            return (dproj @ np.swapaxes(w.data, -1, -2) if x.requires_grad else None), dw

        def bw(g):
            dout = g.reshape((b * t, h))
            dwo = np.swapaxes(ctx, -1, -2) @ dout if wo.requires_grad else None
            if not (x.requires_grad or wq.requires_grad or wk.requires_grad or wv.requires_grad):
                return None, None, None, None, dwo
            dc = (dout @ np.swapaxes(wo.data, -1, -2)).reshape((b, t, heads, dh))
            dc = np.transpose(dc, (0, 2, 1, 3))
            dfq = dfk = dwq = dwk = None
            if x.requires_grad or wq.requires_grad or wk.requires_grad:
                ds = _softmax_grad(dc @ np.swapaxes(v, -1, -2), att, -1) * scale
                dfq, dwq = merge(ds @ k, wq)
                dfk, dwk = merge(np.swapaxes(np.swapaxes(q, -1, -2) @ ds, -1, -2), wk)
            dfv, dwv = merge(np.swapaxes(att, -1, -2) @ dc, wv)
            # ``flat`` sums its three consumers in the tape's order: q, k, v.
            dx = ((dfq + dfk) + dfv).reshape((b, t, h)) if x.requires_grad else None
            return dx, dwq, dwk, dwv, dwo

        out._backward = bw
    return out


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = _node(y, (t,))
    if out._parents:
        out._backward = lambda g: (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)
    return out


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: result shape = ids.shape + (width,)."""
    ids = np.asarray(ids)
    out = _node(weight.data[ids], (weight,))
    if out._parents:
        width = weight.data.shape[-1]

        def bw(g):
            gw = np.zeros_like(weight.data)
            np.add.at(gw, ids.reshape(-1), g.reshape(-1, width))
            return (gw,)

        out._backward = bw
    return out


def take_along(t: Tensor, indices: np.ndarray) -> Tensor:
    """Gather along the last axis of a 2-d tensor; indices has the output shape."""
    indices = np.asarray(indices)
    out = _node(np.take_along_axis(t.data, indices, axis=1), (t,))
    if out._parents:
        rows = np.arange(t.data.shape[0])[:, None]

        def bw(g):
            gt = np.zeros_like(t.data)
            np.add.at(gt, (rows, indices), g)
            return (gt,)

        out._backward = bw
    return out


def take_pairs(t: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Gather scalar entries (rows[i], cols[i]) of a 2-d tensor."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    out = _node(t.data[rows, cols], (t,))
    if out._parents:

        def bw(g):
            gt = np.zeros_like(t.data)
            np.add.at(gt, (rows, cols), g)
            return (gt,)

        out._backward = bw
    return out


def _slot_sum(values: np.ndarray, pairs: np.ndarray, n: int, k: int) -> np.ndarray:
    """Put values[i] at flat (row, slot) pairs[i] of zeros (n, k, w); sum the slots."""
    slots = np.zeros((n * k, values.shape[1]))
    slots[pairs] = values
    return slots.reshape(n, k, -1).sum(axis=1)


def expert_mix(
    x: Tensor, weights: Tensor, indices: np.ndarray, experts: Sequence, bypass=None
) -> Tensor:
    """Weighted SiLU-FFN expert mix (module docstring); ``bypass``: (n,) bool rows."""
    indices = np.asarray(indices)
    n, k = indices.shape
    if weights.data.shape != (n, k) or x.data.shape[0] != n:
        raise ValueError("x, weights and indices disagree on rows or slots")
    chosen, w, active = indices.copy(), weights.data.copy(), np.ones((n, k), dtype=bool)
    if bypass is not None:
        chosen[bypass, 0] = 0
        w[bypass, 0] = 1.0
        active[bypass, 1:] = False
    pairs = np.flatnonzero(active)
    owner = chosen.reshape(-1)[pairs]
    # Stable, so each expert's rows stay in ascending order.
    pairs = pairs[np.argsort(owner, kind="stable")]
    ends = np.cumsum(np.bincount(owner, minlength=len(experts)))
    rows, ws = pairs // k, w.reshape(-1)[pairs][:, None]
    xs = x.data[rows]
    ys = np.empty((pairs.size, experts[0].down.data.shape[1]))
    params = tuple(p for ex in experts for p in (ex.gate, ex.up, ex.down))
    # Without a tape, drop each expert's intermediates as soon as it is done.
    tape = x.requires_grad or weights.requires_grad or any(p.requires_grad for p in params)
    blocks = []
    for e, (start, end) in enumerate(zip(np.concatenate(([0], ends[:-1])), ends)):
        if end > start:
            ex = experts[e]
            a = xs[start:end] @ ex.gate.data
            s = _sigmoid(a)
            sa = a * s
            u = xs[start:end] @ ex.up.data
            m = sa * u
            ys[start:end] = m @ ex.down.data
            if tape:
                blocks.append((e, start, end, a, s, sa, u, m))
    out = _node(_slot_sum(ys * ws, pairs, n, k), (x, weights) + params)
    if out._parents:

        def bw(g):
            gs = g[rows]
            dw = None
            if weights.requires_grad:
                dw = np.zeros((n, k))
                dw.reshape(-1)[pairs] = (gs * ys).sum(axis=1)
                if bypass is not None:
                    dw[bypass] = 0.0
            gys = gs * ws
            dxs = np.empty_like(xs) if x.requires_grad else None
            dparams: list = [None] * len(params)
            for e, start, end, a, s, sa, u, m in blocks:
                ex, gy, xe = experts[e], gys[start:end], xs[start:end]
                if ex.down.requires_grad:
                    dparams[3 * e + 2] = m.T @ gy
                if dxs is None and not (ex.gate.requires_grad or ex.up.requires_grad):
                    continue
                dm = gy @ ex.down.data.T
                du = dm * sa
                da = (dm * u) * (s * (1.0 + a * (1.0 - s)))
                if ex.gate.requires_grad:
                    dparams[3 * e] = xe.T @ da
                if ex.up.requires_grad:
                    dparams[3 * e + 1] = xe.T @ du
                if dxs is not None:
                    dxs[start:end] = da @ ex.gate.data.T + du @ ex.up.data.T
            dx = None if dxs is None else _slot_sum(dxs, pairs, n, k)
            return (dx, dw, *dparams)

        out._backward = bw
    return out


def stack_columns(columns: Sequence[Tensor]) -> Tensor:
    """Stack 1-d tensors of length h into an (h, n) matrix."""
    out = _node(np.stack([c.data for c in columns], axis=1), tuple(columns))
    if out._parents:
        out._backward = lambda g: tuple(g[:, i] for i in range(len(columns)))
    return out


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def value_and_grad(
    loss_fn: Callable[[], Tensor], params: Mapping[str, Tensor]
) -> tuple[float, dict[str, np.ndarray]]:
    """Evaluate a scalar loss and return its gradient for every named parameter.

    Parameters not touched by the loss get zero gradients. Raises
    NumericalFailureError if the loss is non-finite.
    """
    previous = {name: p.requires_grad for name, p in params.items()}
    try:
        for p in params.values():
            p.requires_grad = True
            p.grad = None
        loss = loss_fn()
        value = loss.item()
        if not np.isfinite(value):
            raise NumericalFailureError(f"loss is not finite: {value}")
        loss.backward()
        grads = {
            name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()
        }
        return value, grads
    finally:
        for name, p in params.items():
            p.requires_grad = previous[name]
            p.grad = None


def central_difference(
    loss_fn: Callable[[], Tensor], params: Mapping[str, Tensor], eps: float = 1e-5
) -> dict[str, np.ndarray]:
    """Finite-difference gradients, (f(p+eps) - f(p-eps)) / (2 eps) per entry.

    Only evaluates the forward pass, so it is independent of the tape and
    serves as the oracle for ``value_and_grad``.
    """
    grads: dict[str, np.ndarray] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        grad = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = loss_fn().item()
            flat[i] = original - eps
            minus = loss_fn().item()
            flat[i] = original
            grad[i] = (plus - minus) / (2.0 * eps)
        grads[name] = grad.reshape(p.data.shape)
    return grads

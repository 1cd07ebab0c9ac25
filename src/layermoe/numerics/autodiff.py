"""Reverse-mode automatic differentiation over float64 numpy arrays.

A small tape: every operation records its parent tensors and a closure that
maps the output gradient to parent gradients. Only the operations the toy
transformer and its losses need are implemented. The correctness contract is
agreement with central finite differences (the tests' oracle), not any
property of the internals. A graph is walked once: ``backward`` frees each
interior node's gradient, closure, parents and, unless the caller holds the
node, its data as it passes it, so a second walk through a freed node raises.

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

With a tape the backward reads every intermediate, so ``a = x @ gate``,
``u = x @ up``, ``s = sigmoid(a)``, ``sa = a * s`` and ``m = sa * u`` are
each one ``(pairs, ffn)`` array for the layer, one row per routed (row,
slot) pair, grouped by expert. Each expert's products go into its block of
rows with ``matmul(out=)``, which gives the bytes of ``@``; then each
elementwise step runs once for the layer instead of once per expert on
blocks of a few rows. The backward does the same: each expert's
``gy @ down.T`` goes into one ``dm``, and ``du`` and ``da`` run once over
the experts that need inner gradients. The matmuls stay one per expert;
every grouped form measured was slower. Without a tape (inference,
evaluation, profiling) each expert's block is still built in place and
dropped: serving batches route about 1,920 rows, whose layer-wide arrays
fall out of cache, and grouping that path too cut ``serve_gated``
throughput by about 10%. Output rows are gathered, not scattered into a
zero-filled (row, slot) buffer: ``slots[r, j]`` is the pair row of row
``r``'s slot ``j``, and an inactive bypass slot points at one extra zero
row. Row ``r`` of the output, and of the gradient of ``x``, is
``0 + v[slots[r, 0]] + v[slots[r, 1]] + ...`` in slot order. For k <= 7
that is numpy's middle-axis reduce bit for bit, signed zeros included;
from 8 slots numpy may sum pairwise (it does at width 1), and this order
stays the same for every k. ``_slot_sum`` starts from slot 0's rows and
adds +0 last, which gives those bits without a zero-filled buffer (its
docstring says why). The pairs are grouped by a stable sort of their
experts' ids as the smallest unsigned type that holds them, which numpy
sorts by radix, and a bypass is built with ``np.where`` and slices, not
boolean-mask scatters.

``route`` is an MoE layer's router as two nodes. ``scores`` is the softmax
of ``x @ stack(columns)`` over every expert. ``weights`` holds each row's
top-k scores, renormalised to sum to 1. The top-k comes from k ``argmax``
passes, the first over the scores and each later one over a copy in which
the earlier picks are -inf. ``argmax`` takes the first of tied maxima, so
this is the order of a stable sort of ``-scores``: experts whose zero
router columns tie go lowest id first. Softmax gives NaN only as whole
rows, and on such a row ``argmax`` gives 0, 1, ... as the sort does.
There are two nodes because two kinds of reader need them: the balance and
prior-routing losses read ``scores``, and ``expert_mix`` reads ``weights``,
whose gradient flows back through ``scores``. The columns stay one tensor
per expert (the freeze rules and checkpoints name each), and the backward
of ``scores`` returns ``None`` for a frozen one. Forward and backward run
the numpy operations of the softmax, gather and division they replace, in
the same order, so routing and training keep their bits.

``attention`` and ``rms_norm`` are one node each for a transformer block's
causal multi-head attention and for an RMS norm. Their forward runs the
numpy operations of the composed form in the same order, so their outputs
are bit-identical to it; without a tape they keep no intermediates. Their
hand-written backward returns ``None`` for a frozen operand, and attention
skips the q/k/v branch when ``x``, ``wq``, ``wk`` and ``wv`` are all frozen.
Each sums the gradient of ``x`` in the order the composed tape did (q, then
k, then v; the norm's ``x * r`` term before the two of ``x * x``), so
training stays bit-identical too.

The elementwise kernels are written for speed but keep the bits of their
plain numpy forms, which the tests keep as references. ``_sigmoid`` divides
once by ``1 + e`` (its comment says why that is exact). ``_softmax`` takes
each row's max with one ``maximum`` per column instead of one reduction per
short row; max does not round, and a tie between +0 and -0 cannot change
``exp(a - max)``. It keeps numpy's own row sum, whose pairwise order defines
the bits, and works over its input to avoid temporaries. ``attention``
scales and masks its new score array in place. It keeps ``q @ k.T`` on the
strided view of ``k``: a contiguous copy of ``k.T`` runs faster but changes
the bits for some head widths (16, at lengths such as 9). Without a tape,
``expert_mix`` builds each expert's ``silu(a) * u`` in place and writes its
product with ``down`` straight into the output rows; a product does not
depend on the order of its operands. Masked attention scores cost ``exp``
about three times an ordinary one, but clamping them first is slower still,
so they stay.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "attention",
    "expert_mix",
    "rms_norm",
    "log_softmax",
    "silu",
    "embedding",
    "route",
    "take_pairs",
    "zero_grads",
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

    # -- autograd ----------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate gradients of ``self`` into every reachable leaf."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed gradient needs a scalar")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.data.shape:
            raise ValueError(f"seed gradient shape {np.shape(grad)} != tensor shape {self.data.shape}")
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
            if node._backward is _walked:
                _walked(None)
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = grad if self.grad is None else self.grad + grad
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                for parent, pgrad in zip(node._parents, node._backward(node.grad)):
                    if pgrad is None or not parent.requires_grad:
                        continue
                    parent.grad = pgrad if parent.grad is None else parent.grad + pgrad
            if node is not self:
                node.grad = None
            node._backward, node._parents = _walked, ()

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

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None) -> "Tensor":
        out = _node(self.data.sum(axis=axis), (self,))
        if out._parents:
            shape = self.data.shape

            def bw(g):
                if axis is not None:
                    g = np.expand_dims(g, axis)
                return (np.broadcast_to(g, shape).copy(),)

            out._backward = bw
        return out

    def mean(self, axis=None) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / count)

    # -- elementwise functions ----------------------------------------------

    def log(self) -> "Tensor":
        out = _node(np.log(self.data), (self,))
        if out._parents:
            a = self
            out._backward = lambda g: (g / a.data,)
        return out


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _walked(grad):
    raise ValueError("backward already ran through this node")


def _node(data: np.ndarray, parents: tuple) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    # never overflows. Each element gets the bits of its branch alone: the
    # numerator max(e, x >= 0) is exactly 1.0 where x >= 0 (there e <= 1) and
    # exactly e below, because max returns one of its operands, and e + 1.0
    # is 1.0 + e. NaN stays NaN. One division replaces np.where between two
    # quotients, whose data-dependent select cost more than the arithmetic;
    # reusing e's buffer saves two temporaries the size of x.
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, x >= 0)
    e += 1.0
    num /= e
    return num


def silu(t: Tensor) -> Tensor:
    """x * sigmoid(x), the gate activation used by the experts."""
    s = _sigmoid(t.data)
    out = _node(t.data * s, (t,))
    if out._parents:
        out._backward = lambda g: (g * (s * (1.0 + t.data * (1.0 - s))),)
    return out


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)`` as a ``maximum`` over the columns:
    one pass per column instead of one reduction per short row. Max does not
    round, so the value is the same; a tie between +0 and -0 may pick the
    other zero, which no later ``a - m`` can tell apart through ``exp``."""
    m = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(m, a[..., j : j + 1], out=m)
    return m


def _softmax(a: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis, written over ``a``. The sum
    keeps numpy's pairwise order over each row, which defines the bits."""
    a -= _row_max(a)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    return a


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (g - (g * y).sum(axis=-1, keepdims=True)) * y


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
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= scale
    scores += mask
    att = _softmax(scores)
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
                ds = _softmax_grad(dc @ np.swapaxes(v, -1, -2), att) * scale
                dfq, dwq = merge(ds @ k, wq)
                dfk, dwk = merge(np.swapaxes(np.swapaxes(q, -1, -2) @ ds, -1, -2), wk)
            dfv, dwv = merge(np.swapaxes(att, -1, -2) @ dc, wv)
            # ``flat`` sums its three consumers in the tape's order: q, k, v.
            dx = ((dfq + dfk) + dfv).reshape((b, t, h)) if x.requires_grad else None
            return dx, dwq, dwk, dwv, dwo

        out._backward = bw
    return out


def log_softmax(t: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    shifted = t.data - t.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    out = _node(y, (t,))
    if out._parents:
        out._backward = lambda g: (g - np.exp(y) * g.sum(axis=-1, keepdims=True),)
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


def take_pairs(t: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Gather entries ``t[rows, cols]`` of a 2-d tensor. ``rows`` and ``cols``
    broadcast against each other, so an ``(n, 1)`` column of row numbers with
    ``(n, k)`` columns picks ``k`` entries per row."""
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


def _slot_sum(values: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Row ``r`` is ``0 + values[slots[r, 0]] + values[slots[r, 1]] + ...``, in
    slot order, computed as ``values[slots[r, 0]] + ... + 0`` without a zero
    buffer. The bits agree: the two running sums differ at most in the sign
    of a zero, until one of them is nonzero and both are the same from then
    on, and a sum started from +0 is never -0; adding +0 last turns -0 into
    +0 and keeps every other value."""
    out = np.take(values, slots[:, 0], axis=0)
    for j in range(1, slots.shape[1]):
        out += np.take(values, slots[:, j], axis=0)
    out += 0.0
    return out


def expert_mix(
    x: Tensor, weights: Tensor, indices: np.ndarray, experts: Sequence, bypass=None
) -> Tensor:
    """Weighted SiLU-FFN expert mix (module docstring); ``bypass``: (n,) bool rows."""
    indices = np.asarray(indices)
    n, k = indices.shape
    if weights.data.shape != (n, k) or x.data.shape[0] != n:
        raise ValueError("x, weights and indices disagree on rows or slots")
    chosen, w, pairs = indices, weights.data, np.arange(n * k)
    if bypass is not None:
        chosen, w, active = indices.copy(), w.copy(), np.empty((n, k), dtype=bool)
        chosen[:, 0] = np.where(bypass, 0, indices[:, 0])
        w[:, 0] = np.where(bypass, 1.0, w[:, 0])
        active[:, 0] = True
        active[:, 1:] = ~bypass[:, None]
        pairs = np.flatnonzero(active)
    owner = chosen.reshape(-1)[pairs]
    # Stable, so each expert's rows stay in ascending order; numpy sorts a
    # key of 16 bits or fewer by radix.
    owner_key = owner.astype(np.min_scalar_type(len(experts) - 1))
    pairs = pairs[np.argsort(owner_key, kind="stable")]
    counts = np.bincount(owner, minlength=len(experts))
    ends = np.cumsum(counts).tolist()
    # Each expert with rows, and its block of the pair axis, as Python ints.
    spans = [(e, ends[e] - c, ends[e]) for e, c in enumerate(counts.tolist()) if c]
    npairs = pairs.size
    rows, ws = pairs // k, np.append(w.reshape(-1)[pairs], 0.0)[:, None]
    # Each (row, slot)'s row of ys; an inactive bypass slot reads the zero row npairs.
    slots = np.full(n * k, npairs)
    slots[pairs] = np.arange(npairs)
    slots = slots.reshape(n, k)
    xs = np.take(x.data, rows, axis=0)
    ys = np.empty((npairs + 1, experts[0].down.data.shape[1]))
    ys[npairs] = 0.0
    params = tuple(p for ex in experts for p in (ex.gate, ex.up, ex.down))
    tape = x.requires_grad or weights.requires_grad or any(p.requires_grad for p in params)
    if tape:
        # The backward reads every factor, so each is one (pairs, ffn) array
        # and its elementwise math runs once for the layer.
        a, u = (np.empty((npairs, experts[0].gate.data.shape[1])) for _ in range(2))
        for e, start, end in spans:
            np.matmul(xs[start:end], experts[e].gate.data, out=a[start:end])
            np.matmul(xs[start:end], experts[e].up.data, out=u[start:end])
        s = _sigmoid(a)
        sa = a * s
        m = sa * u
        for e, start, end in spans:
            np.matmul(m[start:end], experts[e].down.data, out=ys[start:end])
    else:
        # Drop each expert's intermediates as soon as it is done.
        for e, start, end in spans:
            ex = experts[e]
            a = xs[start:end] @ ex.gate.data
            m = _sigmoid(a)
            u = xs[start:end] @ ex.up.data
            # s * a is a * s bit for bit.
            m *= a
            m *= u
            np.matmul(m, ex.down.data, out=ys[start:end])
    # The backward reads the unweighted ys; without one, weight them in place.
    weighted = ys * ws if tape else np.multiply(ys, ws, out=ys)
    out = _node(_slot_sum(weighted, slots), (x, weights) + params)
    if out._parents:

        def bw(g):
            gs = g[rows]
            dw = None
            if weights.requires_grad:
                dw = np.append((gs * ys[:npairs]).sum(axis=1), 0.0)[slots]
                if bypass is not None:
                    dw[bypass] = 0.0
            gys = gs * ws[:npairs]
            dparams: list = [None] * len(params)
            for e, start, end in spans:
                if experts[e].down.requires_grad:
                    dparams[3 * e + 2] = m[start:end].T @ gys[start:end]
            inner = [
                (e, start, end)
                for e, start, end in spans
                if x.requires_grad or experts[e].gate.requires_grad or experts[e].up.requires_grad
            ]
            if not inner:
                return (None, dw, *dparams)
            # One elementwise pass over the pairs from the first expert that
            # needs inner gradients to the last (every expert when x does).
            lo, hi = inner[0][1], inner[-1][2]
            dm = np.empty((hi - lo, a.shape[1]))
            for e, start, end in spans:
                if lo <= start < hi:
                    np.matmul(gys[start:end], experts[e].down.data.T, out=dm[start - lo : end - lo])
            du = dm * sa[lo:hi]
            da = (dm * u[lo:hi]) * (s[lo:hi] * (1.0 + a[lo:hi] * (1.0 - s[lo:hi])))
            dxs = None
            if x.requires_grad:
                dxs = np.empty((npairs + 1, xs.shape[1]))
                dxs[npairs] = 0.0
            for e, start, end in inner:
                ex, xe, at = experts[e], xs[start:end], slice(start - lo, end - lo)
                if ex.gate.requires_grad:
                    dparams[3 * e] = xe.T @ da[at]
                if ex.up.requires_grad:
                    dparams[3 * e + 1] = xe.T @ du[at]
                if dxs is not None:
                    np.matmul(da[at], ex.gate.data.T, out=dxs[start:end])
                    dxs[start:end] += du[at] @ ex.up.data.T
            dx = None if dxs is None else _slot_sum(dxs, slots)
            return (dx, dw, *dparams)

        out._backward = bw
    return out


def route(x: Tensor, columns: Sequence[Tensor], top_k: int) -> tuple[Tensor, np.ndarray, Tensor]:
    """Router of one MoE layer (module docstring): ``scores``, the softmax of
    ``x @ stack(columns)``; ``indices``, each row's ``top_k`` best experts,
    best first; and ``weights``, their scores renormalised to sum to 1."""
    w = np.stack([c.data for c in columns], axis=1)
    y = _softmax(x.data @ w)
    n, k = y.shape[0], min(top_k, y.shape[1])
    # k argmax passes pick what a stable sort of -y picks (module docstring).
    flat, picks = np.arange(n), np.empty((k, n), dtype=np.intp)
    y.argmax(axis=1, out=picks[0])
    if k > 1:
        rest = y.copy()
        for j in range(1, k):
            rest[flat, picks[j - 1]] = -np.inf
            rest.argmax(axis=1, out=picks[j])
    # C order, so that each row's top-k sum below runs in numpy's row order.
    indices = picks.T.copy()
    rows = flat[:, None]
    selected = y[rows, indices]
    total = selected.sum(axis=1, keepdims=True)
    scores = _node(y, (x, *columns))
    if scores._parents:

        def scores_bw(g):
            d = _softmax_grad(g, y)
            dx = d @ w.T if x.requires_grad else None
            dw = x.data.T @ d if any(c.requires_grad for c in columns) else None
            return (dx, *(dw[:, e] if c.requires_grad else None for e, c in enumerate(columns)))

        scores._backward = scores_bw
    weights = _node(selected / total, (scores,))
    if weights._parents:

        def weights_bw(g):
            # The quotient's two terms, summed as the composed tape sums them.
            dtotal = _unbroadcast(-g * selected / (total * total), total.shape)
            dsel = g / total + np.broadcast_to(dtotal, selected.shape)
            ds = np.zeros_like(y)
            np.add.at(ds, (rows, indices), dsel)
            return (ds,)

        weights._backward = weights_bw
    return scores, indices, weights


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None

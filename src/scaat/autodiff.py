"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed engine: each operation records its parents and a
backward closure, ``backward()`` walks the graph once in reverse
topological order. The primitive set is only what the image classifiers
need: add, mul, matmul, conv2d, relu, max_pool2d, reshape, sum, mean,
softmax, log, and conv2d_bias_relu_pool, the CNN's conv + bias + ReLU +
max-pool as one node.

All values are float64. Gradients are only computed for branches that
lead to a leaf with ``requires_grad=True``; constant subtrees cost
nothing on the backward pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

LOG_FLOOR = 1e-12  # floor applied inside every log argument


class Tensor:
    """A dense n-d array node in a gradient graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._consumed = False

    # -- introspection -------------------------------------------------

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
        return float(self.data)

    def detach(self) -> "Tensor":
        """Same values, no graph, no gradient request. Shares the buffer."""
        t = Tensor.__new__(Tensor)
        t.data = self.data
        t.requires_grad = False
        t.grad = None
        t._parents = ()
        t._backward = None
        t._consumed = False
        return t

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction --------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))

    def _accum(self, g: np.ndarray) -> None:
        # Backward closures may hand the same buffer to several nodes (add
        # gives both parents g, reshape a view of it), so the first
        # contribution is kept uncopied and later ones are added out of
        # place: no node's gradient is ever written through.
        if self.grad is None:
            g = np.asarray(g, dtype=np.float64)
            if g.shape != self.data.shape:
                g = np.broadcast_to(g, self.data.shape).copy()
            self.grad = g
        else:
            self.grad = self.grad + g

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return add(self, Tensor._lift(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, Tensor._lift(other))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __sub__(self, other):
        return add(self, -Tensor._lift(other))

    def __rsub__(self, other):
        return add(Tensor._lift(other), -self)

    def __matmul__(self, other):
        return matmul(self, Tensor._lift(other))

    # -- backward pass ---------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar root.

        Visits each reachable grad-requiring node exactly once. A graph
        can be swept only once; a second call raises.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        if self._consumed:
            raise RuntimeError("backward() called twice on a consumed graph")

        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in order:
            if node._backward is not None:
                node._backward(node.grad)
                node._backward = None
                node._parents = ()
            node._consumed = True


def _toposort(root: Tensor) -> list[Tensor]:
    """Reverse topological order of grad-requiring nodes, iteratively."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    order.reverse()
    return order


def backward_grad(loss: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of a scalar loss with respect to each leaf.

    Leaves that the loss does not depend on get exact zero gradients.
    """
    loss.backward()
    return [
        leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        for leaf in leaves
    ]


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(p.requires_grad for p in parents)
    out.grad = None
    out._consumed = False
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting introduced."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g.reshape(shape)


# -- primitives ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for 1-D or 2-D operands."""
    data = a.data @ b.data

    def bwd(g):
        ad, bd = a.data, b.data
        if a.requires_grad:
            if bd.ndim == 1:
                a._accum(g * bd if ad.ndim == 1 else np.outer(g, bd))
            else:
                a._accum(g @ bd.T)
        if b.requires_grad:
            if ad.ndim == 1:
                b._accum(g * ad if bd.ndim == 1 else np.outer(ad, g))
            else:
                b._accum(ad.T @ g)

    return _make(data, (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def bwd(g):
        a._accum(g * (a.data > 0.0))

    return _make(data, (a,), bwd)


def tlog(a: Tensor) -> Tensor:
    """Natural log with the argument floored at LOG_FLOOR."""
    floored = np.maximum(a.data, LOG_FLOOR)
    data = np.log(floored)

    def bwd(g):
        a._accum(g * (a.data > LOG_FLOOR) / floored)

    return _make(data, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def bwd(g):
        a._accum(g.reshape(a.data.shape))

    return _make(data, (a,), bwd)


def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            a._accum(np.broadcast_to(g, a.data.shape).copy())
        else:
            a._accum(np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _make(np.asarray(data), (a,), bwd)


def tmean(a: Tensor, axis=None) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    data = a.data.mean(axis=axis)

    def bwd(g):
        if axis is None:
            a._accum(np.broadcast_to(g / n, a.data.shape).copy())
        else:
            a._accum(np.broadcast_to(np.expand_dims(g / n, axis), a.data.shape).copy())

    return _make(np.asarray(data), (a,), bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    data = softmax_np(a.data, axis=axis)

    def bwd(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        a._accum(data * (g - dot))

    return _make(data, (a,), bwd)


def softmax_np(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax on plain arrays."""
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


# -- convolution and pooling ----------------------------------------------


def _pad_hw(x: np.ndarray, padding: int) -> np.ndarray:
    if not padding:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    out[:, :, padding : padding + h, padding : padding + w] = x
    return out


def _shifted_view(xp: np.ndarray, dy: int, dx: int, ho: int, wo: int, stride: int):
    return xp[:, :, dy : dy + (ho - 1) * stride + 1 : stride, dx : dx + (wo - 1) * stride + 1 : stride]


def _unfold(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """Offset-major unfold: rows are (dy, dx, channel), columns (n, ho, wo).

    Built from kh*kw cheap strided block copies; the layout feeds one
    large contiguous GEMM per conv (numpy's matmul drops off the BLAS
    path entirely for non-contiguous operands).
    """
    n, c = x.shape[0], x.shape[1]
    xp = _pad_hw(x, padding)
    ho = (xp.shape[2] - kh) // stride + 1
    wo = (xp.shape[3] - kw) // stride + 1
    cols = np.empty((kh * kw * c, n * ho * wo))
    k = 0
    for dy in range(kh):
        for dx in range(kw):
            xs = _shifted_view(xp, dy, dx, ho, wo, stride)
            np.copyto(cols[k : k + c].reshape(c, n, ho, wo), xs.transpose(1, 0, 2, 3))
            k += c
    return cols, ho, wo


def _kernel_matrix(w: np.ndarray) -> np.ndarray:
    f, c, kh, kw = w.shape
    return np.ascontiguousarray(w.transpose(0, 2, 3, 1)).reshape(f, kh * kw * c)


def _conv2d_forward(x: np.ndarray, w: np.ndarray, stride: int, padding: int):
    """The conv output channel-major, (F, N, Ho, Wo), and the unfold."""
    n = x.shape[0]
    f, _, kh, kw = w.shape
    cols, ho, wo = _unfold(x, kh, kw, stride, padding)
    return (_kernel_matrix(w) @ cols).reshape(f, n, ho, wo), cols


def _nchw(x: np.ndarray) -> np.ndarray:
    """A contiguous copy with the first two axes swapped: (F, N, ...) to
    (N, F, ...) and back."""
    return np.ascontiguousarray(x.swapaxes(0, 1))


def _conv2d_backward(gm: np.ndarray, a: Tensor, w: Tensor, cols, stride: int, padding: int) -> None:
    """Both conv gradients from the channel-major output gradient ``gm``,
    (F, N, Ho, Wo) and contiguous."""
    f, c, kh, kw = w.data.shape
    n, _, h, wd = a.data.shape
    _, _, ho, wo = gm.shape
    gm = gm.reshape(f, n * ho * wo)
    if w.requires_grad:
        dwm = gm @ cols.T
        w._accum(np.ascontiguousarray(dwm.reshape(f, kh, kw, c).transpose(0, 3, 1, 2)))
    if a.requires_grad:
        # per kernel offset, one transposed GEMM scatter-added into the
        # padded input buffer
        dxq = np.zeros((c, n, h + 2 * padding, wd + 2 * padding))
        for dy in range(kh):
            for dx in range(kw):
                wk = np.ascontiguousarray(w.data[:, :, dy, dx])
                contrib = (wk.T @ gm).reshape(c, n, ho, wo)
                dxq[:, :, dy : dy + (ho - 1) * stride + 1 : stride,
                    dx : dx + (wo - 1) * stride + 1 : stride] += contrib
        if padding:
            dxq = dxq[:, :, padding : padding + h, padding : padding + wd]
        a._accum(_nchw(dxq))


def conv2d(a: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of (N,C,H,W) input with (F,C,kh,kw) filters."""
    out, cols = _conv2d_forward(a.data, w.data, stride, padding)
    cols = cols if w.requires_grad else None  # only dW reads the unfold

    def bwd(g):
        _conv2d_backward(_nchw(g), a, w, cols, stride, padding)

    return _make(_nchw(out), (a, w), bwd)


def _pool_views(x: np.ndarray, k: int):
    """The k*k strided views of non-overlapping k x k windows, one per
    window offset, in row-major order within the window."""
    return [x[:, :, dy::k, dx::k] for dy in range(k) for dx in range(k)]


def _pool_max(x: np.ndarray, k: int) -> np.ndarray:
    """Non-overlapping k x k max over the last two axes of a 4-D array."""
    h, w = x.shape[2:]
    if h % k or w % k:
        raise ValueError(f"pool size {k} must divide spatial extents {(h, w)}")
    views = _pool_views(x, k)
    out = views[0].copy()
    for v in views[1:]:
        # np.maximum returns its second operand on ties, so the running
        # maximum keeps the earliest of equal values (signed zeros too)
        np.maximum(v, out, out=out)
    return out


def _route_first_max(
    x: np.ndarray, out: np.ndarray, g: np.ndarray, k: int, dx: np.ndarray, relu: bool = False
) -> np.ndarray:
    """Write the gradient of ``out = _pool_max(x, k)`` for upstream ``g``
    into ``dx``, an array of x's shape that may be x itself, and return it.

    Each window's gradient goes to the first view equal to its maximum (in
    a NaN window, to its first NaN). With ``relu``, ``out`` is that maximum
    clamped at 0, and a window clamped to 0 routes to its first slot, as
    the all-zero tie of its ReLU'd values would. The views tile dx, and
    each is written after its last read of x: g's bit pattern where hit,
    all-zero bits (+0.0) elsewhere. This select is exact for every g,
    where g * hit would give -0.0 for a negative g and NaN for an
    infinite one.
    """
    g_bits = g.view(np.int64)
    has_nan = bool(np.isnan(out).any())
    views, dviews = _pool_views(x, k), _pool_views(dx.view(np.int64), k)
    free = np.ones(out.shape, dtype=bool)  # windows not yet routed
    for i, (v, dv) in enumerate(zip(views[:-1], dviews[:-1])):
        hit = v == out
        if relu and i == 0:
            hit |= out == 0.0
        if has_nan:
            hit |= np.isnan(v)
        hit &= free
        free ^= hit
        np.bitwise_and(g_bits, -hit.view(np.int8), out=dv)
    # every window holds its maximum (or a NaN), so the windows still free
    # route to the last view
    np.bitwise_and(g_bits, -free.view(np.int8), out=dviews[-1])
    return dx


def max_pool2d(a: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k max pooling; ties route to the first maximum
    in row-major window order, and a window holding a NaN pools to NaN."""
    out = _pool_max(a.data, k)

    def bwd(g):
        a._accum(_route_first_max(a.data, out, g, k, np.empty(a.data.shape)))

    return _make(out, (a,), bwd)


def conv2d_bias_relu_pool(a: Tensor, w: Tensor, b: Tensor, padding: int = 0, k: int = 2) -> Tensor:
    """``max_pool2d(relu(conv2d(a, w, padding=padding) + b[None, :, None,
    None]), k)`` as one node, bit for bit.

    The full-size pre-activation stays channel-major, (F, N, H, W), as the
    GEMM writes it, and the bias is added in place. The max commutes with
    the ReLU, so the ReLU clamps the pooled output, k*k times smaller,
    which alone is transposed to NCHW. The graph keeps the pre-activation
    and the pooled output; the backward routes its gradient into the
    pre-activation's buffer, which it reads for the last time.
    """
    act, cols = _conv2d_forward(a.data, w.data, 1, padding)
    cols = cols if w.requires_grad else None  # only dW reads the unfold
    act += b.data.reshape(-1, 1, 1, 1)
    pooled = _pool_max(act, k)
    np.maximum(pooled, 0.0, out=pooled)
    out = _nchw(pooled)

    def bwd(g):
        # A routed slot holds its window's maximum, so its ReLU passes
        # gradient exactly where the pooled value is > 0 (NaN fails both);
        # masking g at pooled size gives the same bits as masking the
        # routed gradient, whose other slots stay +0.0 either way.
        out_cm = out.swapaxes(0, 1)
        gm = _route_first_max(act, out_cm, g.swapaxes(0, 1) * (out_cm > 0.0), k, act, relu=True)
        if b.requires_grad:
            # numpy's multi-axis sum order follows the layout, so the bias
            # sums an NCHW copy, as add's backward would; a (1, F, 1, 1) g
            # is passed on unsummed, which keeps a lone -0.0
            g_b = _unbroadcast(_nchw(gm), (1, gm.shape[0], 1, 1))
            b._accum(g_b.reshape(b.data.shape))
        _conv2d_backward(gm, a, w, cols, 1, padding)

    return _make(out, (a, w, b), bwd)


# -- composite losses ------------------------------------------------------


def cross_entropy_rows(probs: Tensor, labels) -> Tensor:
    """Per-row cross-entropy, -log probs[i, labels[i]], of an (N, C)
    probability matrix; the log argument is floored like ``tlog``."""
    n, n_classes = probs.data.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"label out of range for {n_classes} classes")
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0
    return -tsum(mul(tlog(probs), Tensor(onehot)), axis=1)


def cross_entropy(scores: Tensor, label: int) -> Tensor:
    """Negative log softmax probability of ``label`` for a 1-D score vector."""
    if scores.data.ndim != 1:
        raise ValueError(f"cross_entropy expects a 1-D score vector, got {scores.shape}")
    return tsum(cross_entropy_rows(softmax(reshape(scores, (1, -1))), [label]))

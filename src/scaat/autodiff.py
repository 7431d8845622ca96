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
        return Tensor(self.data)

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
            if id(p) not in seen:
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
    """A node holding ``data``; it keeps only the parents that require
    grad, the only ones a sweep visits, and its backward only if any do."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._consumed = False
    out._parents = tuple(p for p in parents if p.requires_grad)
    out.requires_grad = bool(out._parents)
    out._backward = backward if out.requires_grad else None
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
    """Matrix product of 2-D operands."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul takes 2-D operands, got shapes {a.shape} and {b.shape}")
    data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

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
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    out[:, :, padding : padding + h, padding : padding + w] = x
    return out


def _unfold(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Offset-major unfold of a padded input: rows are (dy, dx, channel),
    columns (n, ho, wo).

    Built from kh*kw cheap strided block copies; the layout feeds one
    large contiguous GEMM per conv (numpy's matmul drops off the BLAS
    path entirely for non-contiguous operands).
    """
    n, c = xp.shape[0], xp.shape[1]
    ho = xp.shape[2] - kh + 1
    wo = xp.shape[3] - kw + 1
    cols = np.empty((kh * kw * c, n * ho * wo))
    k = 0
    for dy in range(kh):
        for dx in range(kw):
            xs = xp[:, :, dy : dy + ho, dx : dx + wo]
            np.copyto(cols[k : k + c].reshape(c, n, ho, wo), xs.transpose(1, 0, 2, 3))
            k += c
    return cols


def _kernel_matrix(w: np.ndarray) -> np.ndarray:
    f, c, kh, kw = w.shape
    return np.ascontiguousarray(w.transpose(0, 2, 3, 1)).reshape(f, kh * kw * c)


def _conv2d_forward(a: Tensor, w: Tensor, padding: int):
    """The conv output channel-major, (F, N, Ho, Wo), and what the node
    keeps for dW, the only reader of the unfold.

    With frozen weights that is nothing. When the input needs no
    gradient (the first conv, fed the batch or ``x + delta``), it is the
    private padded copy the unfold is built from, nearly kh*kw times
    smaller, which ``_conv2d_dw`` unfolds again; being a copy, it neither
    pins the caller's array nor sees later writes into it. Otherwise it
    is the unfold. The padded copy is dropped before the GEMM unless it
    is kept.
    """
    n = a.data.shape[0]
    f, _, kh, kw = w.data.shape
    xp = _pad_hw(a.data, padding)
    ho, wo = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    cols = _unfold(xp, kh, kw)
    if not w.requires_grad:
        kept = None
    elif a.requires_grad:
        kept = cols
    else:
        kept = xp
    del xp
    return (_kernel_matrix(w.data) @ cols).reshape(f, n, ho, wo), kept


def _nchw(x: np.ndarray) -> np.ndarray:
    """A contiguous copy with the first two axes swapped: (F, N, ...) to
    (N, F, ...) and back."""
    return np.ascontiguousarray(x.swapaxes(0, 1))


def _conv2d_dw(gm: np.ndarray, kept: np.ndarray, w_shape) -> np.ndarray:
    """The filter gradient, (F, C, kh, kw), from the channel-major output
    gradient ``gm``, (F, N, Ho, Wo) and contiguous, and what
    ``_conv2d_forward`` kept: the unfold, or the padded input, which is
    unfolded again here and dropped on return."""
    f, c, kh, kw = w_shape
    cols = kept if kept.ndim == 2 else _unfold(kept, kh, kw)
    dwm = gm.reshape(f, -1) @ cols.T
    return np.ascontiguousarray(dwm.reshape(f, kh, kw, c).transpose(0, 3, 1, 2))


DX_CHUNK = 16  # samples per stacked GEMM of the conv input gradient


def _stacks_exactly(w: np.ndarray, padding: int) -> bool:
    """Whether ``_conv2d_dx_stacked`` gives ``_conv2d_dx_per_offset``'s
    bits, as a property test over this domain shows on OpenBLAS's Haswell
    kernels: 3x3 kernels, padding 1, at least two input channels and
    finite weights. With one input channel OpenBLAS runs the per-offset
    product as a GEMV, which rounds differently; a non-finite weight
    turns the stacked product's padding terms from exact zeros into NaN."""
    _, c, kh, kw = w.shape
    return (kh, kw, padding) == (3, 3, 1) and c >= 2 and bool(np.isfinite(w).all())


def _conv2d_dx(gm: np.ndarray, w: np.ndarray, x_shape, padding: int) -> np.ndarray:
    """The input gradient, NCHW, from the channel-major output gradient
    ``gm``, (F, N, Ho, Wo) and contiguous: stacked per chunk of samples
    where that is exact, per kernel offset elsewhere."""
    if _stacks_exactly(w, padding):
        return _conv2d_dx_stacked(gm, w, x_shape, padding)
    return _conv2d_dx_per_offset(gm, w, x_shape, padding)


def _conv2d_dx_stacked(gm: np.ndarray, w: np.ndarray, x_shape, padding: int) -> np.ndarray:
    """``_conv2d_dx`` per chunk of ``DX_CHUNK`` samples.

    The chunk's ``gm`` is laid on the padded input grid, zero outside
    its (Ho, Wo) corner, so one GEMM of the stacked transposed kernels,
    rows (dy, dx, c), gives each kernel offset's terms at a flat shift of
    ``dy * Wp + dx`` from their input element. The fold then adds one
    contiguous run per offset and channel, in (dy, dx) order, into a
    zeroed padded buffer, and the cropped, transposed buffer is copied
    into the output. The terms from the grid's zero padding are exact
    zeros for finite weights, and adding a zero never changes a sum that
    starts at +0.0, so each input element gets the per-offset kernel's
    bits. All three buffers are the size of a chunk and reused across
    chunks.
    """
    f, c, kh, kw = w.shape
    n, _, h, wd = x_shape
    _, _, ho, wo = gm.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    wt = np.ascontiguousarray(_kernel_matrix(w).T)
    dx_out = np.empty(x_shape)
    nb = min(n, DX_CHUNK)
    grid_buf = np.zeros(f * nb * hp * wp)
    prod_buf = np.empty(kh * kw * c * nb * hp * wp)
    pad_buf = np.empty(c * nb * hp * wp)
    for s in range(0, n, DX_CHUNK):
        m = min(DX_CHUNK, n - s)
        size = m * hp * wp
        grid = grid_buf[: f * size].reshape(f, m, hp, wp)
        if m < nb:
            grid.fill(0.0)  # a shorter chunk's layout puts earlier values in its padding
        grid[:, :, :ho, :wo] = gm[:, s : s + m]
        prod = prod_buf[: kh * kw * c * size].reshape(kh * kw * c, size)
        np.matmul(wt, grid.reshape(f, size), out=prod)
        prod = prod.reshape(kh, kw, c, size)
        dxq = pad_buf[: c * size].reshape(c, size)
        dxq.fill(0.0)
        for dy in range(kh):
            for dx in range(kw):
                shift = dy * wp + dx
                dxq[:, shift:] += prod[dy, dx, :, : size - shift]
        dxq = dxq.reshape(c, m, hp, wp)
        np.copyto(dx_out[s : s + m], dxq[:, :, padding : padding + h, padding : padding + wd].swapaxes(0, 1))
    return dx_out


def _conv2d_dx_per_offset(gm: np.ndarray, w: np.ndarray, x_shape, padding: int) -> np.ndarray:
    """``_conv2d_dx`` for the whole batch: per kernel offset, one
    transposed GEMM scatter-added into the padded input buffer."""
    f, c, kh, kw = w.shape
    n, _, h, wd = x_shape
    _, _, ho, wo = gm.shape
    gm = gm.reshape(f, n * ho * wo)
    dxq = np.zeros((c, n, h + 2 * padding, wd + 2 * padding))
    for dy in range(kh):
        for dx in range(kw):
            wk = np.ascontiguousarray(w[:, :, dy, dx])
            contrib = (wk.T @ gm).reshape(c, n, ho, wo)
            dxq[:, :, dy : dy + ho, dx : dx + wo] += contrib
    return _nchw(dxq[:, :, padding : padding + h, padding : padding + wd])


def conv2d(a: Tensor, w: Tensor, padding: int = 0) -> Tensor:
    """Stride-1 cross-correlation of (N,C,H,W) input with (F,C,kh,kw) filters.

    For dW the node keeps what ``_conv2d_forward`` chooses, and drops it
    once the backward has taken dW, before dX; it keeps the input only
    when the input requires grad.
    """
    out, kept = _conv2d_forward(a, w, padding)
    x_shape = a.data.shape
    a_kept = a if a.requires_grad else None

    def bwd(g):
        nonlocal kept
        gm = _nchw(g)
        if kept is not None:
            w._accum(_conv2d_dw(gm, kept, w.data.shape))
            kept = None  # dW was its last read: a graph is swept once
        if a_kept is not None:
            a_kept._accum(_conv2d_dx(gm, w.data, x_shape, padding))

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


def _first_max_code(x: np.ndarray, out: np.ndarray, k: int, relu: bool = False) -> np.ndarray:
    """For ``out = _pool_max(x, k)``, the index of the view in
    ``_pool_views(x, k)`` each window's gradient routes to, as ``uint8``.

    That is the first view equal to the window's maximum, or in a NaN
    window its first NaN. With ``relu``, ``out`` is that maximum clamped
    at 0, and a window clamped to 0 routes to its first slot, as the
    all-zero tie of its ReLU'd values would. A window's code counts the
    views it passes while still unrouted, so every window that no earlier
    view claims (it holds its maximum, or a NaN) ends at the last view.
    """
    has_nan = bool(np.isnan(out).any())
    views = _pool_views(x, k)
    free = np.ones(out.shape, dtype=bool)  # windows not yet routed
    code = np.zeros(out.shape, dtype=np.uint8)
    for i, v in enumerate(views[:-1]):
        hit = v == out
        if relu and i == 0:
            hit |= out == 0.0
        if has_nan:
            hit |= np.isnan(v)
        hit &= free
        free ^= hit
        code += free
    return code


def _route_code(code: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """The gradient of a k x k max pool for upstream ``g``, routed by
    ``_first_max_code``'s ``code``: g's bit pattern at each window's coded
    slot, all-zero bits (+0.0) elsewhere. This select is exact for every
    g, where g * hit would give -0.0 for a negative g and NaN for an
    infinite one.
    """
    dx = np.empty((*code.shape[:2], code.shape[2] * k, code.shape[3] * k))
    g_bits = g.view(np.int64)
    for i, dv in enumerate(_pool_views(dx.view(np.int64), k)):
        np.bitwise_and(g_bits, -(code == i).view(np.int8), out=dv)
    return dx


def max_pool2d(a: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k max pooling; ties route to the first maximum
    in row-major window order, and a window holding a NaN pools to NaN."""
    out = _pool_max(a.data, k)
    code = _first_max_code(a.data, out, k) if a.requires_grad else None

    def bwd(g):
        a._accum(_route_code(code, g, k))

    return _make(out, (a,), bwd)


def conv2d_bias_relu_pool(a: Tensor, w: Tensor, b: Tensor, padding: int = 0, k: int = 2) -> Tensor:
    """``max_pool2d(relu(conv2d(a, w, padding=padding) + b[None, :, None,
    None]), k)`` as one node, bit for bit.

    The full-size pre-activation stays channel-major, (F, N, H, W), as the
    GEMM writes it, and the bias is added in place. The max commutes with
    the ReLU, so the ReLU clamps the pooled output, k*k times smaller,
    which alone is transposed to NCHW. The forward records each window's
    routed slot as a ``uint8`` code, so the graph keeps the pooled output
    and one byte per pooled element, not the pre-activation, plus what
    ``_conv2d_forward`` keeps for dW, and the input only when it requires
    grad. The backward routes the gradient, takes dW and drops what it
    kept for dW, then sums the bias gradient and takes dX, so the unfold
    is never held beside dX's buffers.
    """
    act, kept = _conv2d_forward(a, w, padding)
    act += b.data.reshape(-1, 1, 1, 1)
    pooled = _pool_max(act, k)
    np.maximum(pooled, 0.0, out=pooled)
    needs_grad = a.requires_grad or w.requires_grad or b.requires_grad
    code = _first_max_code(act, pooled, k, relu=True) if needs_grad else None
    del act
    out = _nchw(pooled)
    x_shape = a.data.shape
    a_kept = a if a.requires_grad else None

    def bwd(g):
        nonlocal kept
        # A routed slot holds its window's maximum, so its ReLU passes
        # gradient exactly where the pooled value is > 0 (NaN fails both);
        # masking g at pooled size gives the same bits as masking the
        # routed gradient, whose other slots stay +0.0 either way. The
        # masked product is written channel-major and contiguous, so the
        # routing reads it in order.
        out_cm = out.swapaxes(0, 1)
        gm = _route_code(code, np.multiply(g.swapaxes(0, 1), out_cm > 0.0, order="C"), k)
        if kept is not None:
            w._accum(_conv2d_dw(gm, kept, w.data.shape))
            kept = None  # dW was its last read: a graph is swept once
        if b.requires_grad:
            # numpy's multi-axis sum order follows the layout, so the bias
            # sums an NCHW copy, as add's backward would; a (1, F, 1, 1) g
            # is passed on unsummed, which keeps a lone -0.0
            g_b = _unbroadcast(_nchw(gm), (1, gm.shape[0], 1, 1))
            b._accum(g_b.reshape(b.data.shape))
        if a_kept is not None:
            a_kept._accum(_conv2d_dx(gm, w.data, x_shape, padding))

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

"""Small image classifiers: an MLP and a two-block CNN.

``forward_eval`` is the one forward: it takes an (N, C, H, W) batch,
emits raw class scores and builds a gradient graph when a parameter or
the input requires one. ``scores_np`` and ``predict_proba`` each call it
on the frozen parameters, where no graph is recorded; they also take one
(C, H, W) sample. Package code calls ``predict_proba``; ``scores_np`` is
kept for callers outside it. ``_nested_scorer`` gives ``predict_proba``'s
output for a CNN's nested perturbations of one sample, a perturbation
curve's rows, from the clean sample's activations.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import seeds
from .autodiff import (
    Tensor,
    _kernel_matrix,
    _pad_hw,
    _pool_max,
    _unfold,
    conv2d_bias_relu_pool,
    matmul,
    relu,
    reshape,
    softmax_np,
)

ARCHS = ("mlp", "cnn")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture tag plus the shapes that pin every parameter."""

    arch: str = "cnn"
    input_shape: tuple[int, int, int] = (3, 32, 32)
    n_classes: int = 10
    hidden: tuple[int, ...] = (64,)
    channels: tuple[int, int] = (16, 32)
    seed: int = 0

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ValueError(f"unknown architecture {self.arch!r}, expected one of {ARCHS}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if len(self.input_shape) != 3 or any(int(e) <= 0 for e in self.input_shape):
            raise ValueError(f"input_shape must be 3 positive extents, got {self.input_shape}")
        object.__setattr__(self, "input_shape", tuple(int(e) for e in self.input_shape))
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        if self.arch == "cnn":
            _, h, w = self.input_shape
            if h % 4 or w % 4:
                raise ValueError(f"cnn needs spatial extents divisible by 4, got {(h, w)}")
            if len(self.channels) != 2:
                raise ValueError("cnn takes exactly two conv channel counts")

    @property
    def n_features(self) -> int:
        c, h, w = self.input_shape
        return c * h * w


class ParamSet:
    """Named parameter tensors of one model, in a fixed order."""

    def __init__(self, spec: ModelSpec, tensors: "OrderedDict[str, Tensor]"):
        self.spec = spec
        self.tensors = tensors
        self._frozen: ParamSet | None = None

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def frozen(self) -> "ParamSet":
        """Detached view sharing the same buffers; built once, reused.

        In-place parameter updates stay visible through the view, so the
        trainer can keep handing it to saliency/perturbation passes.
        """
        if self._frozen is None:
            det = OrderedDict((k, t.detach()) for k, t in self.tensors.items())
            self._frozen = ParamSet(self.spec, det)
        return self._frozen

    def arrays(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((k, t.data) for k, t in self.tensors.items())

    @classmethod
    def from_arrays(cls, spec: ModelSpec, arrays) -> "ParamSet":
        """Parameters from named arrays, which must follow ``init_model``'s
        layout for ``spec``: same names, order and shapes."""
        layout = [(name, shape) for name, shape, _ in _layout(spec)]
        given = [(name, np.shape(v)) for name, v in arrays.items()]
        for i, (want, got) in enumerate(zip_longest(layout, given)):
            if want != got:
                raise ValueError(f"parameter {i} does not fit the {spec.arch} layout: expected {want}, got {got}")
        od = OrderedDict(
            (k, Tensor(np.asarray(v, dtype=np.float64), requires_grad=True))
            for k, v in arrays.items()
        )
        ps = cls(spec, od)
        for name, t in ps.tensors.items():
            if not np.all(np.isfinite(t.data)):
                raise ValueError(f"parameter {name!r} contains non-finite values")
        return ps


def _uniform_fan_in(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _layout(spec: ModelSpec) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan-in) of every parameter, in storage order."""
    if spec.arch == "mlp":
        dims = [spec.n_features, *spec.hidden, spec.n_classes]
        if any(d <= 0 for d in dims):
            raise ValueError(f"zero-sized layer in mlp dims {dims}")
        layout = []
        for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
            layout += [(f"fc{i}.w", (din, dout), din), (f"fc{i}.b", (dout,), din)]
        return layout
    c, h, w = spec.input_shape
    c1, c2 = spec.channels
    if c1 <= 0 or c2 <= 0:
        raise ValueError(f"zero-sized conv layer in channels {spec.channels}")
    flat = c2 * (h // 4) * (w // 4)
    return [
        ("conv1.w", (c1, c, 3, 3), c * 9),
        ("conv1.b", (c1,), c * 9),
        ("conv2.w", (c2, c1, 3, 3), c1 * 9),
        ("conv2.b", (c2,), c1 * 9),
        ("fc.w", (flat, spec.n_classes), flat),
        ("fc.b", (spec.n_classes,), flat),
    ]


def init_model(spec: ModelSpec) -> ParamSet:
    """Fan-in scaled uniform init, deterministic in ``spec.seed``."""
    rng = seeds.stream(spec.seed, seeds.INIT)
    return ParamSet(
        spec,
        OrderedDict(
            (name, Tensor(_uniform_fan_in(rng, fan_in, shape), requires_grad=True))
            for name, shape, fan_in in _layout(spec)
        ),
    )


def forward_eval(params: ParamSet, x) -> Tensor:
    """Raw (N, n_classes) class scores of an (N, C, H, W) batch, given as
    a Tensor or an array, with a gradient graph."""
    spec = params.spec
    h = x if isinstance(x, Tensor) else Tensor(x)
    if h.shape[1:] != spec.input_shape:
        raise ValueError(f"shape mismatch: expected {spec.input_shape} batched as (N, C, H, W), got {h.shape}")
    n = h.shape[0]

    if spec.arch == "mlp":
        h = reshape(h, (n, spec.n_features))
        n_layers = len(spec.hidden) + 1
        for i in range(n_layers):
            h = matmul(h, params[f"fc{i}.w"]) + params[f"fc{i}.b"]
            if i < n_layers - 1:
                h = relu(h)
    else:
        h = conv2d_bias_relu_pool(h, params["conv1.w"], params["conv1.b"], padding=1)
        h = conv2d_bias_relu_pool(h, params["conv2.w"], params["conv2.b"], padding=1)
        h = reshape(h, (n, -1))
        h = matmul(h, params["fc.w"]) + params["fc.b"]
    return h


def _scores(params: ParamSet, x) -> np.ndarray:
    if np.shape(x) == params.spec.input_shape:
        return forward_eval(params.frozen(), np.asarray(x)[None]).data[0]
    return forward_eval(params.frozen(), x).data


def scores_np(params: ParamSet, x: np.ndarray) -> np.ndarray:
    """Raw class scores as an array: ``forward_eval`` on the frozen
    parameters, so no graph is recorded. One (C, H, W) sample gives a
    (n_classes,) vector."""
    return _scores(params, x)


def predict_proba(params: ParamSet, x: np.ndarray) -> np.ndarray:
    """Softmax class probabilities, without a graph: ``forward_eval`` on
    the frozen parameters. One (C, H, W) sample gives a (n_classes,)
    vector."""
    return softmax_np(_scores(params, x), axis=-1)


# -- nested rows ---------------------------------------------------------------


def _border(a: np.ndarray, value) -> np.ndarray:
    """``a`` inside a one-cell border of ``value`` on its last two axes."""
    out = np.full((*a.shape[:-2], a.shape[-2] + 2, a.shape[-1] + 2), value, dtype=a.dtype)
    out[..., 1:-1, 1:-1] = a
    return out


def _dilate(m: np.ndarray) -> np.ndarray:
    """The (R, h, w) positions whose 3x3 window touches ``m``."""
    _, h, w = m.shape
    p = _border(m, False)
    out = np.zeros_like(m)
    for dy in range(3):
        for dx in range(3):
            out |= p[:, dy : dy + h, dx : dx + w]
    return out


def _pooled(m: np.ndarray) -> np.ndarray:
    """The (R, h/2, w/2) 2x2 windows that hold a position of ``m``."""
    return m[:, ::2, ::2] | m[:, ::2, 1::2] | m[:, 1::2, ::2] | m[:, 1::2, 1::2]


def _sources(changed: np.ndarray, n_clean: int) -> np.ndarray:
    """Each (row, position)'s column in a table of ``n_clean`` clean
    columns, one per position, followed by the ``changed`` entries in
    row-major order: the latest entry for that position at or before the
    row, else its clean column."""
    flat = changed.reshape(len(changed), -1)
    src = np.tile(np.arange(flat.shape[1]), (len(flat), 1))
    src[flat] = n_clean + np.arange(np.count_nonzero(flat))   # above every clean column
    return np.maximum.accumulate(src, axis=0).reshape(changed.shape)


def _patch_index(src: np.ndarray, changed: np.ndarray, stride: int, channels: int) -> np.ndarray:
    """Gather index of each changed position's 3x3 patch from a table
    with ``stride`` entries per channel, whose (R, h + 2, w + 2) padded
    source map is ``src``. Rows are (dy, dx, channel) as ``_unfold``
    lays them; the columns are padded to a multiple of 8 with copies of
    entry 0, whose outputs are dropped."""
    _, h, w = changed.shape
    r, y, x = np.nonzero(changed)
    corner = (r * (h + 2) + y) * (w + 2) + x
    offsets = np.arange(3)[:, None] * (w + 2) + np.arange(3)
    idx = np.empty((9, channels, -(-len(r) // 8) * 8), dtype=np.int64)
    idx[:, :, : len(r)] = src.take(offsets.reshape(9, 1, 1) + corner) + stride * np.arange(channels)[:, None]
    idx[:, :, len(r) :] = 0
    return idx.reshape(9 * channels, -1)


def _window_index(src: np.ndarray, changed: np.ndarray, stride: int, channels: int) -> np.ndarray:
    """Gather index, (F, n, 2, 2), of the four positions of each changed
    2x2 window from a table with ``stride`` entries per channel, whose
    (R, h, w) source map is ``src``."""
    r, y, x = (a[:, None, None] for a in np.nonzero(changed))
    idx = src[r, 2 * y + np.arange(2)[:, None], 2 * x + np.arange(2)]
    return idx + stride * np.arange(channels)[:, None, None, None]


def _relu_pool(act: np.ndarray) -> np.ndarray:
    """The 2x2 max pool, then ReLU, of conv2d_bias_relu_pool."""
    pooled = _pool_max(act, 2)
    np.maximum(pooled, 0.0, out=pooled)
    return pooled


def _nested_scorer(params: ParamSet, x: np.ndarray, masks: np.ndarray):
    """``predict_proba`` for CNN rows that are nested perturbations of
    one (C, H, W) sample ``x``, as a function of the fill: row r of
    ``score(fill)`` scores ``np.where(masks[r], fill, x)``, where each of
    the (R, H, W) ``masks`` holds the one before it.

    Row r differs from row r - 1 only at its new pixels, so a conv
    output changes only where its 3x3 window touches them, a pooled
    value only where its window holds such an output, and so on through
    both blocks. Each position's source is its clean value or the latest
    row that recomputed it; ``score`` runs one GEMM per conv over only
    the recomputed columns, assembles each layer from its sources with
    one ``take`` and runs the fc on all R rows at once, as
    ``forward_eval`` does. Every GEMM's columns are padded to a multiple
    of 8, so OpenBLAS rounds each through its full-width kernel.
    """
    if x.shape != params.spec.input_shape:
        raise ValueError(f"shape mismatch: expected {params.spec.input_shape}, got {x.shape}")
    arrays = {k: t.data for k, t in params.items()}
    (c1, c, _, _), (c2, _, _, _) = arrays["conv1.w"].shape, arrays["conv2.w"].shape
    k1, k2 = _kernel_matrix(arrays["conv1.w"]), _kernel_matrix(arrays["conv2.w"])
    b1, b2 = arrays["conv1.b"][:, None], arrays["conv2.b"][:, None]
    rows, h, w = masks.shape
    h2, w2 = h // 2, w // 2

    def clean(a, k, b):
        cols = _unfold(_pad_hw(a, 1), 3, 3)
        n = cols.shape[1]
        if n % 8:
            cols = np.concatenate([cols, np.zeros((len(cols), -n % 8))], axis=1)
        return (k @ cols)[:, :n] + b

    # the clean sample's pre-activations and pooled outputs, (F, 1, h, w)
    xp = _pad_hw(x[None], 1)
    a1 = clean(x[None], k1, b1).reshape(c1, 1, h, w)
    p1 = _relu_pool(a1)
    a2 = clean(p1.swapaxes(0, 1), k2, b2).reshape(c2, 1, h2, w2)
    p2 = _relu_pool(a2)

    # which positions each row recomputes, and where every value comes from
    new = masks.copy()
    new[1:] &= ~masks[:-1]
    ch1 = _dilate(new)
    chp1 = _pooled(ch1)
    ch2 = _dilate(chp1)
    chp2 = _pooled(ch2)
    n1, np1, n2 = (int(np.count_nonzero(m)) for m in (ch1, chp1, ch2))
    plane = (h + 2) * (w + 2)
    img = np.arange(plane).reshape(h + 2, w + 2) + c * plane * _border(masks, False)
    g1 = _patch_index(img, ch1, plane, c)
    s1 = _sources(ch1, h * w)
    gp1 = _window_index(s1, chp1, h * w + n1, c1)
    zero = h2 * w2 + np1               # column of zeros after the pooled table
    sp1 = _border(_sources(chp1, h2 * w2), zero)
    g2 = _patch_index(sp1, ch2, zero + 1, c1)
    s2 = _sources(ch2, h2 * w2)
    gp2 = _window_index(s2, chp2, h2 * w2 + n2, c2)
    sp2 = _sources(chp2, h2 * w2 // 4).reshape(rows, -1)
    gfc = sp2[:, None, :] + (h2 * w2 // 4 + np.count_nonzero(chp2)) * np.arange(c2)[:, None]

    a1, p1, a2, p2 = (a.reshape(len(a), -1) for a in (a1, p1, a2, p2))
    zeros = np.zeros((c1, 1))
    fc_w, fc_b = arrays["fc.w"], arrays["fc.b"]

    def score(fill: np.ndarray) -> np.ndarray:
        src = np.concatenate([xp.ravel(), _pad_hw(fill[None], 1).ravel()])
        t1 = np.concatenate([a1, (k1 @ src.take(g1))[:, :n1] + b1], axis=1)
        t2 = np.concatenate([p1, _relu_pool(t1.take(gp1)).reshape(c1, -1), zeros], axis=1)
        t3 = np.concatenate([a2, (k2 @ t2.take(g2))[:, :n2] + b2], axis=1)
        t4 = np.concatenate([p2, _relu_pool(t3.take(gp2)).reshape(c2, -1)], axis=1)
        return softmax_np(t4.take(gfc).reshape(rows, -1) @ fc_w + fc_b, axis=-1)

    return score

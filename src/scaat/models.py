"""Small image classifiers: an MLP and a two-block CNN.

``forward_eval`` is the one forward: it takes an (N, C, H, W) batch,
emits raw class scores and builds a gradient graph when a parameter or
the input requires one. ``scores_np`` and ``predict_proba`` each call it
on the frozen parameters, where no graph is recorded; they also take one
(C, H, W) sample. Package code calls ``predict_proba``; ``scores_np`` is
kept for callers outside it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import seeds
from .autodiff import Tensor, conv2d_bias_relu_pool, matmul, relu, reshape, softmax_np

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

"""Dataset ingestion: IDX files, CIFAR binary batches, and a synthetic
generator whose class signal lives in a known, recorded pixel subset.

All loaders normalize pixels to [0, 1], keep a deterministic sample
order, and fail atomically: a malformed file raises one of the distinct
error types below and never yields a partial dataset.
"""

from __future__ import annotations

import inspect
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import seeds


class DataFormatError(ValueError):
    """Base class for dataset parsing failures."""


class MagicNumberError(DataFormatError):
    pass


class TruncatedFileError(DataFormatError):
    pass


class LabelRangeError(DataFormatError):
    pass


@dataclass
class Dataset:
    images: np.ndarray          # (N, C, H, W) float64 in [0, 1]
    labels: np.ndarray          # (N,) int64
    n_classes: int
    split: str
    provenance: str
    meta: dict | None = None

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise DataFormatError(f"images must be (N,C,H,W), got shape {self.images.shape}")
        if len(self.labels) != self.images.shape[0]:
            raise DataFormatError(
                f"{self.images.shape[0]} images but {len(self.labels)} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise LabelRangeError(
                f"labels must lie in [0, {self.n_classes}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )
        if self.images.size and not (self.images.min() >= 0.0 and self.images.max() <= 1.0):
            raise DataFormatError("pixel values must lie in [0, 1] after normalization")

    def __len__(self) -> int:
        return self.images.shape[0]

    def take(self, n: int | None) -> "Dataset":
        if n is None or n >= len(self):
            return self
        meta = None
        if self.meta:
            meta = {k: v[:n] if isinstance(v, np.ndarray) else v for k, v in self.meta.items()}
        return Dataset(self.images[:n], self.labels[:n], self.n_classes, self.split,
                       self.provenance, meta)


# -- IDX -------------------------------------------------------------------

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _read_exact(f, count: int, what: str) -> bytes:
    # count may come from a corrupt header: check it against the bytes the
    # file has left before asking read() for that many
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count > left:
        raise TruncatedFileError(f"{what}: expected {count} bytes, {left} left in the file")
    buf = f.read(count)
    if len(buf) != count:
        raise TruncatedFileError(f"{what}: expected {count} bytes, got {len(buf)}")
    return buf


def _read_to_end(f, count: int, what: str) -> bytes:
    extra = os.fstat(f.fileno()).st_size - f.tell() - count
    if extra > 0:
        raise DataFormatError(f"{what}: {extra} trailing bytes after the declared {count}")
    return _read_exact(f, count, what)


def load_idx(images_path, labels_path=None, n_classes: int = 10, split: str = "train") -> Dataset:
    """MNIST-style big-endian IDX pair; labels path derived when omitted."""
    images_path = Path(images_path)
    if labels_path is None:
        derived = str(images_path).replace("images-idx3", "labels-idx1")
        if derived == str(images_path):
            raise DataFormatError(
                f"cannot derive labels path from {images_path}; pass labels_path"
            )
        labels_path = derived

    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "idx image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise MagicNumberError(
                f"idx image magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        if not rows or not cols:
            raise DataFormatError(f"idx image header: {'cols' if rows else 'rows'} is 0")
        raw = _read_to_end(f, count * rows * cols, "idx image data")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, 1, rows, cols) / 255.0

    with open(labels_path, "rb") as f:
        magic, lcount = struct.unpack(">II", _read_exact(f, 8, "idx label header"))
        if magic != IDX_LABELS_MAGIC:
            raise MagicNumberError(
                f"idx label magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
            )
        labels = np.frombuffer(_read_to_end(f, lcount, "idx label data"), dtype=np.uint8)
    if lcount != count:
        raise DataFormatError(f"{count} images but {lcount} labels in idx pair")

    return Dataset(images, labels, n_classes, split, provenance=f"idx:{images_path}")


# -- CIFAR binary ------------------------------------------------------------

_CIFAR_RECORD = 1 + 3 * 32 * 32


def load_cifar_binary(path, n_classes: int = 10, split: str = "train") -> Dataset:
    """One CIFAR-10 binary batch file: 3073-byte label+pixels records."""
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) == 0 or len(buf) % _CIFAR_RECORD:
        raise TruncatedFileError(
            f"cifar batch size {len(buf)} is not a positive multiple of {_CIFAR_RECORD}"
        )
    rec = np.frombuffer(buf, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    labels = rec[:, 0].astype(np.int64)
    if labels.max() >= n_classes:
        raise LabelRangeError(f"cifar label {labels.max()} out of range [0, {n_classes})")
    images = rec[:, 1:].reshape(-1, 3, 32, 32) / 255.0
    return Dataset(images, labels, n_classes, split, provenance=f"cifar-binary:{path}")


# -- synthetic ----------------------------------------------------------------


_SPEC_KEYS = {"task_seed": "task"}  # generator parameter -> spec key, where they differ


def parse_synthetic_spec(spec: str) -> dict:
    """Parse a compact generator spec, e.g.
    ``half-informative,n=2000,size=16,classes=2,ratios=0.25:0.75,seed=0``,
    into keyword arguments of ``generate_half_informative``. Each key's
    type and default come from that function's signature."""
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    if not parts or parts[0] != "half-informative":
        raise DataFormatError(f"unknown synthetic family in spec {spec!r}")
    sig = inspect.signature(generate_half_informative).parameters
    opts = {name: p.default for name, p in sig.items() if name not in ("split", "provenance")}
    names = {_SPEC_KEYS.get(name, name): name for name in opts}
    for part in parts[1:]:
        if "=" not in part:
            raise DataFormatError(f"bad synthetic spec entry {part!r}")
        key, val = (s.strip() for s in part.split("=", 1))
        if key not in names:
            raise DataFormatError(f"unknown synthetic spec key {key!r}")
        name = names[key]
        try:
            if isinstance(opts[name], tuple):
                opts[name] = tuple(float(v) for v in val.split(":"))
            else:
                opts[name] = type(opts[name])(val)
        except ValueError:
            kind = type(opts[name]).__name__
            raise DataFormatError(f"synthetic spec key {key!r}: cannot read {val!r} as {kind}") from None
    return opts


def _patch_dims(area: int, size: int) -> tuple[int, int]:
    """Rectangle close to ``area`` pixels that fits in a size x size grid."""
    best = (1, min(size, area))
    h0 = int(round(np.sqrt(area)))
    for h in range(max(1, h0 - 2), min(size, h0 + 2) + 1):
        w = int(np.clip(round(area / h), 1, size))
        if abs(h * w - area) < abs(best[0] * best[1] - area):
            best = (h, w)
    return best


def generate_half_informative(
    n: int = 2000,
    size: int = 16,
    channels: int = 1,
    classes: int = 2,
    ratios=(0.25, 0.75),
    amp: float = 0.18,
    noise: float = 0.1,
    spurious: float = 0.0,
    seed: int = 0,
    task_seed: int = 0,
    split: str = "train",
    provenance: str | None = None,
) -> Dataset:
    """Images whose class signal lives only in a textured rectangular
    patch at a random position; everything outside is uniform noise.
    Each sample's irrelevant-pixel ratio is drawn from ``ratios``; the
    requested ratio and the ground-truth patch mask land in ``meta``.

    With ``spurious`` > 0 the background noise additionally carries a
    faint copy of the class texture. A plainly trained model picks that
    shortcut up and becomes sensitive to background perturbations, the
    condition under which low-saliency adversarial training has
    faithfulness headroom to demonstrate.

    The class textures derive from ``task_seed`` alone, so train and
    test splits generated with different ``seed`` values share the same
    classification task. The patch carries a per-class texture that
    convolutional features can localize, so gradient saliency has
    something real to find. Per-pixel amplitude scales inversely with
    patch area (every sample carries the same total class signal;
    otherwise small-patch samples are uniformly harder, which swamps
    any effect of the ratio itself), noise is bounded uniform, and
    amplitudes are capped so the signal never hits the [0, 1] clip,
    which would weaken one group only.
    """
    n_pixels = size * size
    for key, value, ok, rule in (
        ("n", n, n >= 0, ">= 0"),
        ("size", size, size >= 1, ">= 1"),
        ("channels", channels, channels >= 1, ">= 1"),
        ("classes", classes, classes >= 1, ">= 1"),
        # a ratio that rounds to the whole image leaves an empty patch
        ("ratios", ratios, len(ratios) and all(0.0 <= r < 1.0 and round(r * n_pixels) < n_pixels for r in ratios),
         f"in [0, 1), leaving at least one of the {n_pixels} pixels in the patch"),
        # patch pixels 0.5 +- amp_i + U(-noise, noise), amp_i <= 0.5 - noise
        ("amp", amp, amp >= 0.0, ">= 0"),
        ("noise", noise, 0.0 <= noise <= 0.5, "in [0, 0.5]"),
        # the shifted background is clipped: at 1 it is the bare texture
        ("spurious", spurious, 0.0 <= spurious <= 1.0, "in [0, 1]"),
        ("seed", seed, seed >= 0, ">= 0"),
        ("task", task_seed, task_seed >= 0, ">= 0"),
    ):
        if not ok:
            raise DataFormatError(f"synthetic spec key {key!r}: must be {rule}, got {value!r}")
    rng = seeds.stream(seed, seeds.SYNTH)
    tile = 4
    textures = seeds.stream(task_seed, seeds.SYNTH, 7).choice(
        [-1.0, 1.0], size=(classes, channels, tile, tile)
    )

    images = rng.uniform(0.0, 1.0, size=(n, channels, size, size))
    labels = rng.integers(0, classes, size=n)
    ratio_arr = np.asarray(ratios)[rng.integers(0, len(ratios), size=n)]
    relevant = np.zeros((n, size, size), dtype=bool)

    reps = -(-size // tile)
    full_textures = np.tile(textures, (1, 1, reps, reps))[:, :, :size, :size]
    for i in range(n):
        area = n_pixels - int(round(ratio_arr[i] * n_pixels))
        ph, pw = _patch_dims(area, size)
        top = int(rng.integers(0, size - ph + 1))
        left = int(rng.integers(0, size - pw + 1))
        relevant[i, top : top + ph, left : left + pw] = True
        if spurious:
            images[i] = np.clip(images[i] + spurious * full_textures[labels[i]], 0.0, 1.0)
        amp_i = min(amp * (0.5 * n_pixels) / (ph * pw), 0.5 - noise)
        patch = (
            0.5
            + amp_i * full_textures[labels[i], :, :ph, :pw]
            + rng.uniform(-noise, noise, (channels, ph, pw))
        )
        images[i, :, top : top + ph, left : left + pw] = patch

    return Dataset(
        images,
        labels,
        classes,
        split,
        provenance=provenance or f"half-informative(n={n},size={size},classes={classes},seed={seed})",
        meta={"relevant_mask": relevant, "irrelevant_ratio": ratio_arr},
    )


def load_dataset(
    path: str, format: str, split: str = "train", labels_path: str | None = None, n_classes: int = 10
) -> Dataset:
    """Dispatch on format: ``idx`` | ``cifar-binary`` | ``synthetic-spec``.

    For ``synthetic-spec`` the path argument is the generator spec string,
    which sets the class count; ``labels_path`` is read by ``idx`` only.
    """
    if format == "idx":
        return load_idx(path, labels_path, n_classes, split)
    if format == "cifar-binary":
        return load_cifar_binary(path, n_classes, split)
    if format == "synthetic-spec":
        return generate_half_informative(**parse_synthetic_spec(path), split=split, provenance=path)
    raise DataFormatError(f"unknown dataset format {format!r}")

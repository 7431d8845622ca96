"""Run configuration: one versioned JSON document pins a whole run.

The top-level seed is the single source of randomness; it is copied
into the model init and training streams so a run is reproducible from
the config file alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .adversarial import AdvConfig
from .data import Dataset, load_dataset
from .metrics import EvalProtocol
from .models import ModelSpec
from .reports import write_json
from .training import TrainConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DataConfig:
    format: str = "synthetic-spec"
    train: str = "half-informative,n=2000,size=16,classes=2,ratios=0.25:0.75,seed=0"
    test: str | None = None
    labels_train: str | None = None
    labels_test: str | None = None
    n_train: int | None = None
    n_test: int | None = None
    n_classes: int = 2

    def load_split(self, split: str) -> Dataset:
        source = self.train if split == "train" else self.test
        if source is None:
            raise ConfigError(f"no {split!r} source in data config")
        kwargs = {}
        if self.format == "idx":
            kwargs["labels_path"] = self.labels_train if split == "train" else self.labels_test
            kwargs["n_classes"] = self.n_classes
        elif self.format == "cifar-binary":
            kwargs["n_classes"] = self.n_classes
        ds = load_dataset(source, self.format, split=split, **kwargs)
        return ds.take(self.n_train if split == "train" else self.n_test)


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    train: TrainConfig
    protocol: EvalProtocol
    data: DataConfig
    out_dir: str = "runs/out"
    seed: int = 0

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(
            self,
            seed=seed,
            model=replace(self.model, seed=seed),
            train=replace(self.train, seed=seed),
        )


def run_config_to_dict(cfg: RunConfig) -> dict:
    t, a, p, d = cfg.train, cfg.train.adv, cfg.protocol, cfg.data
    return {
        "schema": SCHEMA_VERSION,
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
        "model": {
            "arch": cfg.model.arch,
            "input_shape": list(cfg.model.input_shape),
            "n_classes": cfg.model.n_classes,
            "hidden": list(cfg.model.hidden),
            "channels": list(cfg.model.channels),
        },
        "train": {
            "mode": t.mode,
            "lambda": t.lam,
            "batch_size": t.batch_size,
            "n_iter": t.n_iter,
            "lr": t.lr,
            "momentum": t.momentum,
            "epsilon": a.epsilon,
            "k": a.k,
            "alpha": a.alpha,
            "variant": a.variant,
            "q0": t.q0,
            "gamma": t.gamma,
            "q_min": t.q_min,
            "q_max": t.q_max,
            "warmup_iters": t.warmup_iters,
            "train_region": t.train_region,
        },
        "eval": p.to_dict(),
        "data": {
            "format": d.format,
            "train": d.train,
            "test": d.test,
            "labels_train": d.labels_train,
            "labels_test": d.labels_test,
            "n_train": d.n_train,
            "n_test": d.n_test,
            "n_classes": d.n_classes,
        },
    }


def run_config_from_dict(doc: dict) -> RunConfig:
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported config schema {doc.get('schema')!r}, expected {SCHEMA_VERSION}"
        )
    seed = int(doc.get("seed", 0))
    m = doc.get("model", {})
    model = ModelSpec(
        arch=m.get("arch", "cnn"),
        input_shape=tuple(m.get("input_shape", (3, 32, 32))),
        n_classes=int(m.get("n_classes", 10)),
        hidden=tuple(m.get("hidden", (64,))),
        channels=tuple(m.get("channels", (16, 32))),
        seed=seed,
    )
    t = doc.get("train", {})
    adv = AdvConfig(
        epsilon=float(t.get("epsilon", 8.0 / 255.0)),
        k=int(t.get("k", 4)),
        alpha=t.get("alpha"),
        variant=t.get("variant", "pgd"),
    )
    train = TrainConfig(
        mode=t.get("mode", "scaat_adaptive_q"),
        lam=float(t.get("lambda", 1.0)),
        batch_size=int(t.get("batch_size", 64)),
        n_iter=int(t.get("n_iter", 500)),
        lr=float(t.get("lr", 0.05)),
        momentum=float(t.get("momentum", 0.9)),
        seed=seed,
        adv=adv,
        q0=float(t.get("q0", 0.5)),
        gamma=float(t.get("gamma", 0.05)),
        q_min=float(t.get("q_min", 0.1)),
        q_max=float(t.get("q_max", 0.9)),
        warmup_iters=t.get("warmup_iters"),
        train_region=t.get("train_region"),
    )
    e = doc.get("eval", {})
    protocol = EvalProtocol(
        saliency=e.get("saliency", "vanilla"),
        steps=int(e.get("steps", 20)),
        fraction=float(e.get("fraction", 0.2)),
        repeats=int(e.get("repeats", 5)),
        region=e.get("region"),
        smooth_samples=int(e.get("smooth_samples", 25)),
        smooth_sigma=float(e.get("smooth_sigma", 0.1)),
        ig_steps=int(e.get("ig_steps", 32)),
        limit=e.get("limit"),
    )
    d = doc.get("data", {})
    data = DataConfig(
        format=d.get("format", "synthetic-spec"),
        train=d.get("train", DataConfig.train),
        test=d.get("test"),
        labels_train=d.get("labels_train"),
        labels_test=d.get("labels_test"),
        n_train=d.get("n_train"),
        n_test=d.get("n_test"),
        n_classes=int(d.get("n_classes", 2)),
    )
    return RunConfig(
        model=model, train=train, protocol=protocol, data=data,
        out_dir=doc.get("out_dir", "runs/out"), seed=seed,
    )


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        return run_config_from_dict(json.load(f))


def save_run_config(cfg: RunConfig, path) -> None:
    write_json(run_config_to_dict(cfg), path)

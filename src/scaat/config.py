"""Run configuration: one versioned JSON document pins a whole run.

The top-level seed is the single source of randomness; it is copied
into the model init and training streams so a run is reproducible from
the config file alone. The sections are written and read by walking the
fields of the dataclasses they hold, so each default is stated once, on
its dataclass.
"""

from __future__ import annotations

import json
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace

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


# Document section -> the dataclass it holds. Inside a section every
# field is one key, except that ``seed`` comes from the top level and
# ``TrainConfig.adv``'s fields sit flat in "train".
_SECTIONS = {"model": ModelSpec, "train": TrainConfig, "eval": EvalProtocol, "data": DataConfig}
_KEYS = {"lam": "lambda"}  # field name -> document key, where they differ


def _section_dict(obj) -> dict:
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            out.update(_section_dict(value))
        elif f.name != "seed":
            out[_KEYS.get(f.name, f.name)] = list(value) if isinstance(value, tuple) else value
    return out


def run_config_to_dict(cfg: RunConfig) -> dict:
    doc = {"schema": SCHEMA_VERSION, "seed": cfg.seed, "out_dir": cfg.out_dir}
    for name, section in zip(_SECTIONS, (cfg.model, cfg.train, cfg.protocol, cfg.data)):
        doc[name] = _section_dict(section)
    return doc


def _coerce(kind, value, where: str):
    """``value`` read as the field type ``kind``, strictly: a JSON null
    only for an optional field, a string only for a string field, a number
    that is not a boolean for a number field (an integral one for an int
    field), and a list of such elements for a tuple field."""
    args = typing.get_args(kind)
    if type(None) in args:
        if value is None:
            return None
        (kind,) = (a for a in args if a is not type(None))
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: cannot read {value!r} as a list")
        return tuple(_coerce(typing.get_args(kind)[0], v, where) for v in value)
    if kind is str:
        ok = isinstance(value, str)
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = ok and (kind is float or isinstance(value, int) or value.is_integer())
    try:
        if ok:
            return kind(value)
    except OverflowError:
        pass
    raise ConfigError(f"{where}: cannot read {value!r} as {kind.__name__}")


def _load_section(cls, doc: dict, name: str, seed: int):
    kwargs = {}
    kinds = typing.get_type_hints(cls)
    for f in fields(cls):
        default = f.default if f.default is not MISSING else f.default_factory()
        key = _KEYS.get(f.name, f.name)
        if f.name == "seed":
            kwargs[f.name] = seed
        elif is_dataclass(default):
            kwargs[f.name] = _load_section(type(default), doc, name, seed)
        elif key in doc:
            kwargs[f.name] = _coerce(kinds[f.name], doc[key], f"{name}.{key}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _check_keys(doc, known, name: str, prefix: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{name}: expected a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigError(f"unknown key {prefix}{unknown[0]}")


def run_config_from_dict(doc: dict) -> RunConfig:
    """Missing keys take the dataclass defaults; a non-object section, an
    unknown key or a value of the wrong type raises ``ConfigError``."""
    if isinstance(doc, dict) and doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported config schema {doc.get('schema')!r}, expected {SCHEMA_VERSION}"
        )
    _check_keys(doc, ("schema", "seed", "out_dir", *_SECTIONS), "run config", "")
    seed = _coerce(int, doc.get("seed", RunConfig.seed), "seed")
    out_dir = _coerce(str, doc.get("out_dir", RunConfig.out_dir), "out_dir")
    sections = []
    for name, cls in _SECTIONS.items():
        section = doc.get(name, {})
        _check_keys(section, _section_dict(cls()), name, f"{name}.")
        sections.append(_load_section(cls, section, name, seed))
    model, train, protocol, data = sections
    return RunConfig(model=model, train=train, protocol=protocol, data=data, out_dir=out_dir, seed=seed)


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        return run_config_from_dict(json.load(f))


def save_run_config(cfg: RunConfig, path) -> None:
    write_json(run_config_to_dict(cfg), path)

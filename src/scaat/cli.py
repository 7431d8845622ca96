"""Command-line orchestration: train, evaluate, saliency, curves, compare.

Every run is pinned by a JSON config file; artifacts land in the config
output directory (or ``--out``). Exit codes: 0 success, 2 usage or
missing config, 1 any other failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, load_run_config, save_run_config
from .data import DataFormatError
from .metrics import evaluate_model, saliency_for_sample
from .models import ParamSet
from .reports import export_curve_csv, export_report, write_json, write_jsonl
from .saliency import save_csv, save_pgm
from .training import TrainingDiverged, scaat_train

MODE_NAMES = {
    "regular": "regular",
    "scaat-fixed": "scaat_fixed_q",
    "scaat-adaptive": "scaat_adaptive_q",
}

COMPARE_ROWS = ("entropy", "size_kib", "gini", "aopc_lerf", "aopc_rel", "accuracy")


def _load_config(args) -> RunConfig:
    path = Path(args.config)
    if not path.exists():
        raise _UsageError(f"config file not found: {path}")
    cfg = load_run_config(path)
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


class _UsageError(Exception):
    pass


def _load_params(cfg: RunConfig, ckpt_path) -> ParamSet:
    return ParamSet.from_arrays(cfg.model, load_checkpoint(ckpt_path))


def _protocol_for(cfg: RunConfig, args):
    protocol = cfg.protocol
    if getattr(args, "saliency", None):
        protocol = replace(protocol, saliency=args.saliency)
    if getattr(args, "limit", None) is not None:
        protocol = replace(protocol, limit=args.limit)
    return protocol


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    if args.mode:
        cfg = replace(cfg, train=replace(cfg.train, mode=MODE_NAMES[args.mode]))
    out = Path(cfg.out_dir)
    dataset = cfg.data.load_split("train")
    result = scaat_train(dataset, cfg.model, cfg.train)

    save_checkpoint(result.params.arrays(), out / "checkpoint.sct")
    write_json({**asdict(result.qstate), "q": [float(v) for v in result.qstate.q]}, out / "qstate.json")
    write_jsonl(result.log, out / "train_log.jsonl")
    save_run_config(cfg, out / "config.json")
    last = result.log[-1]
    print(
        f"trained {cfg.train.mode} for {cfg.train.n_iter} iterations: "
        f"L_cls={last['L_cls']:.4f} L_adv={last['L_adv']:.4f} "
        f"batch_acc={last['batch_acc']:.3f} mean_q={last['mean_q']:.3f}"
    )
    print(f"artifacts in {out}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    params = _load_params(cfg, args.ckpt)
    dataset = cfg.data.load_split(args.split)
    protocol = _protocol_for(cfg, args)
    report = evaluate_model(params, dataset, protocol, seed=cfg.seed)
    json_path, csv_path = export_report(report, cfg.out_dir)
    for key in sorted(report.aggregates):
        print(f"{key:>12}: {report.aggregates[key]:.6g}")
    print(f"report: {json_path} {csv_path}")
    return 0


def _cmd_saliency(args) -> int:
    cfg = _load_config(args)
    params = _load_params(cfg, args.ckpt)
    dataset = cfg.data.load_split(args.split)
    protocol = _protocol_for(cfg, args)
    out = Path(cfg.out_dir)
    indices = [int(s) for s in args.indices.split(",") if s.strip()]
    for i in indices:
        if not 0 <= i < len(dataset):
            raise IndexError(f"sample index {i} out of range [0, {len(dataset)})")
        p_clean, smap = saliency_for_sample(params, dataset.images[i], protocol, rng_seed=cfg.seed + i)
        stem = out / f"saliency_{i:05d}_{protocol.saliency}"
        save_pgm(smap, f"{stem}.pgm")
        save_csv(smap, f"{stem}.csv")
        print(f"sample {i} (predicted {int(p_clean.argmax())}): {stem}.pgm {stem}.csv")
    return 0


def _cmd_curves(args) -> int:
    cfg = _load_config(args)
    params = _load_params(cfg, args.ckpt)
    report = evaluate_model(params, cfg.data.load_split(args.split), _protocol_for(cfg, args), seed=cfg.seed)
    for order, values in report.curves.items():
        path = Path(cfg.out_dir) / f"curves_{order}.csv"
        export_curve_csv(values.mean(axis=0), values.std(axis=0), path)
        print(f"{order}: mean AOPC {values.mean():.6g} -> {path}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    dataset = cfg.data.load_split(args.split)
    protocol = _protocol_for(cfg, args)
    results = {}
    for tag, ckpt in (("a", args.a), ("b", args.b)):
        params = _load_params(cfg, ckpt)
        results[tag] = evaluate_model(params, dataset, protocol, seed=cfg.seed).aggregates
    name_a, name_b = Path(args.a).stem, Path(args.b).stem
    print(f"{'metric':>12} | {name_a:>12} | {name_b:>12} | {'delta':>12}")
    table = {}
    for row in COMPARE_ROWS:
        va, vb = results["a"][row], results["b"][row]
        table[row] = {"a": va, "b": vb, "delta": vb - va}
        print(f"{row:>12} | {va:12.6g} | {vb:12.6g} | {vb - va:12.6g}")
    out = Path(cfg.out_dir)
    write_json({"a": str(args.a), "b": str(args.b), "rows": table}, out / "compare.json")
    print(f"table: {out / 'compare.json'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaat",
        description="Train small classifiers with saliency-constrained adaptive "
        "adversarial training and measure saliency sparsity/faithfulness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ckpt=True, evaluates=True):
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--seed", type=int, help="override run seed")
        if ckpt:
            p.add_argument("--ckpt", required=True, help="checkpoint file (.sct)")
        if evaluates:
            p.add_argument("--split", choices=("train", "test"), default="test")
            p.add_argument("--saliency", choices=("vanilla", "smoothgrad", "integrated"))
            p.add_argument("--limit", type=int, help="evaluate only the first N samples")

    p_train = sub.add_parser("train", help="train one model arm")
    common(p_train, ckpt=False, evaluates=False)
    p_train.add_argument("--mode", choices=tuple(MODE_NAMES), help="override config mode")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("evaluate", help="metric suite over a checkpoint")
    common(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_sal = sub.add_parser("saliency", help="export saliency maps for sample indices")
    common(p_sal)
    p_sal.add_argument("--indices", required=True, help="comma-separated sample indices")
    p_sal.set_defaults(func=_cmd_saliency)

    p_curves = sub.add_parser("curves", help="export aggregated perturbation curves")
    common(p_curves)
    p_curves.set_defaults(func=_cmd_curves)

    p_cmp = sub.add_parser("compare", help="metric diff table for two checkpoints")
    p_cmp.add_argument("--a", required=True, help="first checkpoint")
    p_cmp.add_argument("--b", required=True, help="second checkpoint")
    common(p_cmp, ckpt=False)
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (ConfigError, DataFormatError, CheckpointError, TrainingDiverged, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    raise SystemExit(run_cli(argv))


if __name__ == "__main__":
    main()

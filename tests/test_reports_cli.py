import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import scaat
from scaat import _blas, cli
from scaat.adversarial import AdvConfig
from scaat.checkpoint import load_checkpoint, save_checkpoint
from scaat.cli import run_cli
from scaat.config import (
    ConfigError,
    DataConfig,
    RunConfig,
    load_run_config,
    run_config_from_dict,
    run_config_to_dict,
    save_run_config,
)
from scaat.data import generate_half_informative
from scaat.metrics import EvalProtocol, evaluate_model
from scaat.models import ModelSpec, ParamSet, init_model
from scaat.reports import atomic_write, export_report
from scaat.training import TrainConfig, scaat_train


def set_keys(section, **values):
    """A config-document edit that sets ``values`` in ``section``."""
    return lambda doc: doc[section].update(values)


def tiny_run_config(tmp_path, mode="scaat_adaptive_q") -> RunConfig:
    return RunConfig(
        model=ModelSpec("mlp", (1, 8, 8), 2, hidden=(8,), seed=0),
        train=TrainConfig(
            mode=mode, batch_size=16, n_iter=6, lr=0.05, seed=0,
            adv=AdvConfig(epsilon=0.05, k=2), warmup_iters=1,
        ),
        protocol=EvalProtocol(steps=4, fraction=0.4, repeats=2, region=2, limit=6),
        data=DataConfig(
            format="synthetic-spec",
            train="half-informative,n=48,size=8,classes=2,seed=1",
            test="half-informative,n=16,size=8,classes=2,seed=2",
            n_classes=2,
        ),
        out_dir=str(tmp_path / "out"),
        seed=0,
    )


README_CONFIG_ECHO = """{
  "data": {
    "format": "synthetic-spec",
    "labels_test": null,
    "labels_train": null,
    "n_classes": 2,
    "n_test": null,
    "n_train": null,
    "test": "half-informative,n=400,size=16,classes=2,seed=1",
    "train": "half-informative,n=2000,size=16,classes=2,seed=0"
  },
  "eval": {
    "fraction": 0.2,
    "ig_steps": 32,
    "limit": null,
    "region": null,
    "repeats": 5,
    "saliency": "vanilla",
    "smooth_samples": 25,
    "smooth_sigma": 0.1,
    "steps": 20
  },
  "model": {
    "arch": "cnn",
    "channels": [
      8,
      16
    ],
    "hidden": [
      64
    ],
    "input_shape": [
      1,
      16,
      16
    ],
    "n_classes": 2
  },
  "out_dir": "runs/demo",
  "schema": 1,
  "seed": 0,
  "train": {
    "alpha": null,
    "batch_size": 64,
    "epsilon": 0.3,
    "gamma": 0.05,
    "k": 4,
    "lambda": 1.0,
    "lr": 0.05,
    "mode": "scaat_adaptive_q",
    "momentum": 0.9,
    "n_iter": 500,
    "q0": 0.5,
    "q_max": 0.9,
    "q_min": 0.1,
    "train_region": null,
    "variant": "pgd",
    "warmup_iters": null
  }
}
"""


class TestRunConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        path = tmp_path / "run.json"
        save_run_config(cfg, path)
        loaded = load_run_config(path)
        assert run_config_to_dict(loaded) == run_config_to_dict(cfg)

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "run.json"
        save_run_config(tiny_run_config(tmp_path), path)
        old = path.read_bytes()

        def fail(src, dst):
            raise error

        monkeypatch.setattr(os, "replace", fail)
        error = OSError("replace refused")
        with pytest.raises(OSError, match="replace refused"):
            save_run_config(tiny_run_config(tmp_path / "other"), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
        error = KeyboardInterrupt()   # not an OSError: raised unchanged, and the temp file still goes
        with pytest.raises(KeyboardInterrupt) as caught:
            save_run_config(tiny_run_config(tmp_path / "other"), path)
        assert caught.value is error
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_data_synced_before_rename(self, tmp_path, monkeypatch):
        calls = []
        fsync, rename = os.fsync, os.replace

        def synced(fd):
            calls.append(("fsync", os.fstat(fd).st_size))
            fsync(fd)

        def renamed(src, dst):
            calls.append(("replace", Path(dst).name))
            rename(src, dst)

        monkeypatch.setattr(os, "fsync", synced)
        monkeypatch.setattr(os, "replace", renamed)
        atomic_write(tmp_path / "a.bin", b"x" * 5000)
        assert calls == [("fsync", 5000), ("replace", "a.bin")]
        assert (tmp_path / "a.bin").read_bytes() == b"x" * 5000

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_files_follow_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            path = tmp_path / "run.json"
            save_run_config(tiny_run_config(tmp_path), path)
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == mode

    def test_schema_gate(self):
        with pytest.raises(ValueError, match="schema"):
            run_config_from_dict({"schema": 99})

    def test_readme_minimal_config_bytes(self, tmp_path):
        # The README's minimal config, loaded and saved: these bytes are
        # the config echo every earlier version of the loader wrote.
        doc = {
            "schema": 1,
            "seed": 0,
            "out_dir": "runs/demo",
            "model": {"arch": "cnn", "input_shape": [1, 16, 16], "n_classes": 2, "channels": [8, 16]},
            "train": {"mode": "scaat_adaptive_q", "n_iter": 500, "epsilon": 0.3},
            "data": {
                "format": "synthetic-spec",
                "train": "half-informative,n=2000,size=16,classes=2,seed=0",
                "test": "half-informative,n=400,size=16,classes=2,seed=1",
                "n_classes": 2,
            },
        }
        path = tmp_path / "config.json"
        save_run_config(run_config_from_dict(doc), path)
        assert path.read_text() == README_CONFIG_ECHO

    def test_seed_propagates(self, tmp_path):
        cfg = tiny_run_config(tmp_path).with_seed(7)
        assert cfg.model.seed == 7 and cfg.train.seed == 7

    def test_negative_seed_override_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed: must be >= 0, got -1"):
            tiny_run_config(tmp_path).with_seed(-1)

    def test_every_design_tunable_is_in_config(self, tmp_path):
        doc = run_config_to_dict(tiny_run_config(tmp_path))
        train_keys = {
            "mode", "lambda", "batch_size", "n_iter", "lr", "momentum",
            "epsilon", "k", "alpha", "variant",
            "q0", "gamma", "q_min", "q_max", "warmup_iters", "train_region",
        }
        assert train_keys <= set(doc["train"])
        eval_keys = {"saliency", "steps", "fraction", "repeats", "region",
                     "smooth_samples", "smooth_sigma", "ig_steps", "limit"}
        assert eval_keys <= set(doc["eval"])
        assert {"seed", "out_dir", "schema"} <= set(doc)


class TestReports:
    def make_report(self):
        params = init_model(ModelSpec("mlp", (1, 8, 8), 2, hidden=(6,), seed=1))
        data = generate_half_informative(n=6, size=8, classes=2, seed=4, split="test")
        return evaluate_model(params, data, EvalProtocol(steps=3, fraction=0.3, repeats=1, region=2), seed=3)

    def test_export_is_deterministic(self, tmp_path):
        report = self.make_report()
        j1, c1 = export_report(report, tmp_path / "a")
        j2, c2 = export_report(report, tmp_path / "b")
        assert j1.read_bytes() == j2.read_bytes()
        assert c1.read_bytes() == c2.read_bytes()

    def test_json_round_trip(self, tmp_path):
        report = self.make_report()
        j, _ = export_report(report, tmp_path)
        doc = json.loads(j.read_text())
        assert doc["n_samples"] == report.n_samples
        for key, val in report.aggregates.items():
            assert doc["aggregates"][key] == pytest.approx(val, rel=1e-12)

    def test_csv_row_count(self, tmp_path):
        report = self.make_report()
        _, c = export_report(report, tmp_path)
        lines = c.read_text().splitlines()
        assert len(lines) == report.n_samples + 1
        assert lines[0].startswith("sample,entropy")

    def test_no_temp_files_left(self, tmp_path):
        export_report(self.make_report(), tmp_path)
        stray = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert stray == []


class TestCli:
    def write_config(self, tmp_path, **kw):
        cfg = tiny_run_config(tmp_path, **kw)
        path = tmp_path / "run.json"
        save_run_config(cfg, path)
        return cfg, path

    def test_train_writes_artifacts(self, tmp_path, capsys):
        cfg, cfg_path = self.write_config(tmp_path)
        assert run_cli(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        for name in ("checkpoint.sct", "qstate.json", "train_log.jsonl", "config.json"):
            assert (out / name).exists(), name
        qdoc = json.loads((out / "qstate.json").read_text())
        assert set(qdoc) == {"q", "q0", "q_min", "q_max", "gamma", "warmup_iters"}
        result = scaat_train(cfg.data.load_split("train"), cfg.model, cfg.train)
        assert qdoc.pop("q") == result.qstate.q.tolist()
        assert qdoc == {k: getattr(result.qstate, k) for k in qdoc}
        log_lines = (out / "train_log.jsonl").read_text().splitlines()
        assert len(log_lines) == cfg.train.n_iter
        rec = json.loads(log_lines[0])
        assert set(rec) == {"iter", "L_cls", "L_adv", "mean_q", "batch_acc"}

    def test_train_reproducible(self, tmp_path):
        _, cfg_path = self.write_config(tmp_path)
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r1")]) == 0
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r2")]) == 0
        for name in ("checkpoint.sct", "train_log.jsonl", "qstate.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_mode_override(self, tmp_path):
        _, cfg_path = self.write_config(tmp_path)
        assert run_cli(["train", "--config", str(cfg_path), "--mode", "regular"]) == 0
        log = [json.loads(l) for l in (tmp_path / "out" / "train_log.jsonl").read_text().splitlines()]
        assert all(rec["L_adv"] == 0.0 for rec in log)

    def test_evaluate_and_saliency_and_curves(self, tmp_path, capsys):
        cfg, cfg_path = self.write_config(tmp_path)
        assert run_cli(["train", "--config", str(cfg_path)]) == 0
        ckpt = str(tmp_path / "out" / "checkpoint.sct")

        assert run_cli(["evaluate", "--config", str(cfg_path), "--ckpt", ckpt, "--split", "test"]) == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "report.csv").exists()
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert 0.0 <= doc["aggregates"]["accuracy"] <= 1.0

        assert run_cli(["saliency", "--config", str(cfg_path), "--ckpt", ckpt, "--indices", "0,2"]) == 0
        assert (tmp_path / "out" / "saliency_00000_vanilla.pgm").exists()
        assert (tmp_path / "out" / "saliency_00002_vanilla.csv").exists()

        assert run_cli(["curves", "--config", str(cfg_path), "--ckpt", ckpt, "--limit", "4"]) == 0
        params = ParamSet.from_arrays(cfg.model, load_checkpoint(ckpt))
        report = evaluate_model(params, cfg.data.load_split("test"), replace(cfg.protocol, limit=4), seed=cfg.seed)
        for order in ("lerf", "morf"):
            lines = (tmp_path / "out" / f"curves_{order}.csv").read_text().splitlines()
            assert lines[0] == "step,mean_decay,std"
            assert len(lines) == 5  # header + 4 steps
            rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
            values = report.curves[order]
            assert values.shape == (4, 4)
            np.testing.assert_array_equal(rows[:, 1], values.mean(axis=0))
            np.testing.assert_array_equal(rows[:, 2], values.std(axis=0))

    def test_compare(self, tmp_path, capsys):
        _, cfg_path = self.write_config(tmp_path)
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "reg"), "--mode", "regular"]) == 0
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "adv"), "--mode", "scaat-adaptive"]) == 0
        code = run_cli([
            "compare", "--config", str(cfg_path),
            "--a", str(tmp_path / "reg" / "checkpoint.sct"),
            "--b", str(tmp_path / "adv" / "checkpoint.sct"),
            "--limit", "6", "--out", str(tmp_path / "cmp"),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        for row in ("entropy", "size_kib", "aopc_lerf", "aopc_rel"):
            assert row in printed
        doc = json.loads((tmp_path / "cmp" / "compare.json").read_text())
        assert set(doc["rows"]) == {"entropy", "size_kib", "gini", "aopc_lerf", "aopc_rel", "accuracy"}

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert run_cli(["train"]) == 2                      # missing --config
        assert run_cli(["train", "--config", "x", "--bogus"]) == 2
        assert run_cli(["frobnicate"]) == 2
        assert run_cli(["train", "--config", str(tmp_path / "nope.json")]) == 2

    def test_module_form_runs_main(self, tmp_path):
        # ``python -m scaat.cli`` behaves as the ``scaat`` console script
        def run(*args):
            env = {**os.environ, "PYTHONPATH": str(Path(scaat.__file__).parents[1])}
            cmd = [sys.executable, "-m", "scaat.cli", *args]
            return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

        done = run("--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: scaat ")
        done = run("train", "--config", str(tmp_path / "nope.json"))
        assert done.returncode == 2
        assert done.stderr.startswith("error: config file not found") and "usage: scaat" in done.stderr

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda d: d["model"].update(input_shape=5), "model.input_shape", id="scalar-shape"),
            pytest.param(lambda d: d["model"].update(n_classes="two"), "model.n_classes", id="bad-int"),
            pytest.param(lambda d: d["model"].update(input_shape=[[1], 8, 8]), "model.input_shape", id="nested-shape"),
            pytest.param(lambda d: d["train"].update(mode=3), "train.mode", id="non-string"),
            pytest.param(lambda d: d.update(model=[]), "model: expected a JSON object", id="list-section"),
            pytest.param(lambda d: d["train"].update(lamda=3), "unknown key train.lamda", id="typo"),
            pytest.param(lambda d: d.update(sed=1), "unknown key sed", id="top-level-typo"),
            pytest.param(lambda d: d.update(seed=-1), "seed: must be >= 0, got -1", id="seed-negative"),
            pytest.param(lambda d: d["eval"].update(limit=0), "limit must be >= 1", id="eval-limit"),
            pytest.param(lambda d: d["eval"].update(repeats=0), "eval: repeats must be >= 1", id="eval-repeats"),
            pytest.param(lambda d: [1, 2], "run config: expected a JSON object", id="list-document"),
            pytest.param(
                lambda d: d["train"].update(q_min=0.9, q_max=0.1), "train: need 0 <= q_min", id="q-bounds-order"
            ),
            pytest.param(
                lambda d: d["train"].update(gamma=0), "train: gamma must be finite and > 0", id="gamma-zero"
            ),
            pytest.param(
                lambda d: d["train"].update(gamma=float("nan")), "train: gamma must be finite and > 0", id="gamma-nan"
            ),
            pytest.param(set_keys("train", gamma=math.inf), "train: gamma must be finite and > 0", id="gamma-inf"),
            # numbers are read strictly, never truncated or parsed from text
            pytest.param(set_keys("train", batch_size=64.7), "train.batch_size", id="fractional-int"),
            pytest.param(set_keys("train", k=2.9), "train.k", id="fractional-k"),
            pytest.param(set_keys("train", batch_size=True), "train.batch_size", id="bool-int"),
            pytest.param(set_keys("train", **{"lambda": False}), "train.lambda", id="bool-float"),
            pytest.param(set_keys("model", channels=[16.9, 32]), "model.channels", id="fractional-element"),
            pytest.param(set_keys("model", hidden=[8, True]), "model.hidden", id="bool-element"),
            pytest.param(set_keys("train", lr="0.1"), "train.lr", id="string-float"),
            pytest.param(set_keys("train", alpha="0.1"), "train.alpha", id="string-optional"),
            pytest.param(set_keys("train", warmup_iters=2.5), "train.warmup_iters", id="fractional-optional"),
            pytest.param(set_keys("train", lr=None), "train.lr", id="null-float"),
            pytest.param(set_keys("train", lr=10**400), "train.lr", id="overflow"),
            pytest.param(lambda d: d.update(seed=1.5), "seed", id="fractional-seed"),
            # non-finite and out-of-range hyperparameters
            pytest.param(set_keys("train", lr=math.nan), "train: lr must be finite", id="lr-nan"),
            pytest.param(set_keys("train", **{"lambda": math.nan}), "train: lambda weight must be finite", id="lam-nan"),
            pytest.param(set_keys("train", momentum=math.nan), "train: momentum must be in", id="momentum-nan"),
            pytest.param(set_keys("train", momentum=5.0), "train: momentum must be in", id="momentum-big"),
            pytest.param(set_keys("train", momentum=-1.0), "train: momentum must be in", id="momentum-negative"),
            pytest.param(set_keys("train", epsilon=math.nan), "train: epsilon must be finite", id="epsilon-nan"),
            pytest.param(set_keys("train", epsilon=math.inf), "train: epsilon must be finite", id="epsilon-inf"),
            pytest.param(set_keys("train", alpha=math.nan), "train: alpha must be finite", id="alpha-nan"),
            pytest.param(set_keys("eval", smooth_sigma=math.inf), "eval: smooth_sigma must be finite", id="sigma-inf"),
            pytest.param(set_keys("data", n_train=-1), "data: n_train must be >= 1", id="n-train-negative"),
            pytest.param(set_keys("data", n_train=0), "data: n_train must be >= 1", id="n-train-zero"),
            pytest.param(set_keys("train", train_region=0), "train: train_region must be >= 1", id="train-region-zero"),
            pytest.param(set_keys("train", warmup_iters=-1), "train: warmup_iters must be >= 0", id="warmup-negative"),
            # the data may not hold a class the model cannot score
            pytest.param(
                set_keys("data", train="half-informative,n=48,size=8,classes=3,seed=1"),
                "data.train has 3 classes, which exceeds model.n_classes = 2", id="train-spec-classes",
            ),
            pytest.param(
                set_keys("data", test="half-informative,n=16,size=8,classes=5,seed=2"),
                "data.test has 5 classes, which exceeds model.n_classes = 2", id="test-spec-classes",
            ),
            pytest.param(
                set_keys("data", format="idx", n_classes=10),
                "data.n_classes has 10 classes, which exceeds model.n_classes = 2", id="idx-classes",
            ),
        ],
    )
    def test_malformed_config_exits_one(self, tmp_path, capsys, edit, message):
        doc = run_config_to_dict(tiny_run_config(tmp_path))
        doc = edit(doc) or doc
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message):
            run_config_from_dict(doc)
        assert run_cli(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_exits_one(self, tmp_path, capsys, limit):
        _, cfg_path = self.write_config(tmp_path)
        assert run_cli(["train", "--config", str(cfg_path)]) == 0
        code = run_cli([
            "evaluate", "--config", str(cfg_path), "--ckpt", str(tmp_path / "out" / "checkpoint.sct"),
            "--limit", limit,
        ])
        assert code == 1
        assert "limit must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("n_test", [0, -1])
    def test_evaluate_rejects_split_size_below_one(self, tmp_path, capsys, n_test):
        _, cfg_path = self.write_config(tmp_path)
        assert run_cli(["train", "--config", str(cfg_path)]) == 0
        doc = json.loads(cfg_path.read_text())
        doc["data"]["n_test"] = n_test
        cfg_path.write_text(json.dumps(doc))
        code = run_cli(["evaluate", "--config", str(cfg_path), "--ckpt", str(tmp_path / "out" / "checkpoint.sct")])
        assert code == 1
        assert f"data: n_test must be >= 1, got {n_test}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_evaluate_rejects_empty_split(self, tmp_path, capsys):
        _, cfg_path = self.write_config(tmp_path)
        assert run_cli(["train", "--config", str(cfg_path)]) == 0
        doc = json.loads(cfg_path.read_text())
        doc["data"]["test"] = "half-informative,n=0,size=8,classes=2,seed=2"
        cfg_path.write_text(json.dumps(doc))
        code = run_cli(["evaluate", "--config", str(cfg_path), "--ckpt", str(tmp_path / "out" / "checkpoint.sct")])
        assert code == 1
        assert "evaluation split 'test' is empty" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_saliency_checks_every_index_first(self, tmp_path, capsys):
        cfg, cfg_path = self.write_config(tmp_path)
        ckpt = tmp_path / "m.sct"
        save_checkpoint(init_model(cfg.model).arrays(), ckpt)
        code = run_cli(["saliency", "--config", str(cfg_path), "--ckpt", str(ckpt), "--indices", "0,999"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: sample index 999 out of range [0, 16)\n")
        assert not (tmp_path / "out").exists()

    def test_saliency_writes_in_index_order_on_this_thread(self, tmp_path, capsys, monkeypatch):
        # maps are computed on three threads; atomic_write reads the umask,
        # so every write stays on the calling thread
        cfg, cfg_path = self.write_config(tmp_path)
        ckpt = tmp_path / "m.sct"
        save_checkpoint(init_model(cfg.model).arrays(), ckpt)
        monkeypatch.setattr(_blas, "_usable_cores", lambda: 3)
        writes, save = [], cli.save_pgm

        def save_pgm(smap, path):
            writes.append((threading.get_ident(), path))
            save(smap, path)

        monkeypatch.setattr(cli, "save_pgm", save_pgm)
        assert run_cli(["saliency", "--config", str(cfg_path), "--ckpt", str(ckpt), "--indices", "2,0,1"]) == 0
        assert writes == [(threading.get_ident(), f"{tmp_path}/out/saliency_{i:05d}_vanilla.pgm") for i in (2, 0, 1)]
        printed = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in printed] == ["2", "0", "1"]

    def test_fewer_data_classes_than_model_classes_load(self):
        # the default document: a 2-class spec for a 10-class model
        cfg = run_config_from_dict({"schema": 1})
        assert "classes=2" in cfg.data.train and cfg.model.n_classes == 10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_exits_one(self, tmp_path, capsys):
        doc = run_config_to_dict(tiny_run_config(tmp_path, mode="regular"))
        doc["train"]["lr"] = 1e308
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: non-finite loss at iteration 2\n"
        assert not (tmp_path / "out").exists()

    def test_runtime_errors_exit_one(self, tmp_path):
        _, cfg_path = self.write_config(tmp_path)
        code = run_cli(["evaluate", "--config", str(cfg_path), "--ckpt", str(tmp_path / "missing.sct")])
        assert code == 1


@pytest.mark.parametrize("method", ["vanilla", "smoothgrad", "integrated"])
def test_saliency_bytes_match_at_one_and_two_blas_threads(tmp_path, method):
    # on 1x28x28, conv2's GEMM has 196 columns per sample, 4 mod 8 at odd
    # batches: vanilla's 1 row and smoothgrad's 25 (README, Determinism)
    cfg = replace(
        tiny_run_config(tmp_path),
        model=ModelSpec("cnn", (1, 28, 28), 2, seed=5),
        data=DataConfig(
            format="synthetic-spec",
            train="half-informative,n=4,size=28,classes=2,seed=1",
            test="half-informative,n=4,size=28,classes=2,seed=2",
            n_classes=2,
        ),
    )
    cfg_path = tmp_path / "run.json"
    save_run_config(cfg, cfg_path)
    ckpt = tmp_path / "m.sct"
    save_checkpoint(init_model(cfg.model).arrays(), ckpt)
    files = {}
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = {**os.environ, "PYTHONPATH": str(Path(scaat.__file__).parents[1]), "OPENBLAS_NUM_THREADS": threads}
        cmd = [sys.executable, "-m", "scaat.cli", "saliency", "--config", str(cfg_path), "--ckpt", str(ckpt),
               "--saliency", method, "--indices", "0,1,3", "--out", str(out)]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        files[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(files["1"]) == 6
    assert files["1"] == files["2"]

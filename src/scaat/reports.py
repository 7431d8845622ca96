"""Report and artifact persistence: JSON + CSV, written atomically."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .metrics import MetricsReport


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def atomic_write(path, data: bytes) -> None:
    """Write via a temp file in the target directory, synced to disk,
    then rename. On any error the temp file is removed; an ``OSError``
    is raised naming ``path``, any other error unchanged.

    The file gets the mode a plain ``open()`` would give (0666 less the
    umask); ``mkstemp`` alone would leave it 0600.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as f:
            os.fchmod(fd, 0o666 & ~_umask())
            f.write(data)
            f.flush()
            os.fsync(fd)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"failed writing {path}: {exc}") from exc
        raise


def export_report(report: MetricsReport, out_dir):
    """Write aggregate JSON and per-sample CSV, ``report.json`` and
    ``report.csv``, columns in ``per_sample`` order; returns both paths.

    Output bytes are a pure function of the report, so re-exporting the
    same report reproduces identical files.
    """
    out_dir = Path(out_dir)
    json_path = out_dir / "report.json"
    csv_path = out_dir / "report.csv"

    write_json(
        {
            "schema": 1,
            "seed": report.seed,
            "n_samples": report.n_samples,
            "protocol": report.protocol,
            "aggregates": report.aggregates,
        },
        json_path,
    )

    cols = list(report.per_sample)
    lines = ["sample," + ",".join(cols)]
    for i in range(report.n_samples):
        lines.append(str(i) + "," + ",".join(repr(float(report.per_sample[k][i])) for k in cols))
    atomic_write(csv_path, ("\n".join(lines) + "\n").encode("ascii"))
    return json_path, csv_path


def export_curve_csv(mean: np.ndarray, std: np.ndarray, path) -> None:
    """Aggregated perturbation curve: one row per step."""
    lines = ["step,mean_decay,std"]
    for i, (m, s) in enumerate(zip(mean, std), start=1):
        lines.append(f"{i},{float(m)!r},{float(s)!r}")
    atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


def write_jsonl(records, path) -> None:
    """One JSON object per line, stable key order."""
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    atomic_write(path, text.encode("utf-8"))


def write_json(doc, path) -> None:
    atomic_write(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8"))

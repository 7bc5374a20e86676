"""Golden outputs of the CLI: run every case in ``cases.json`` and rewrite ``expected/``.

    python tests/golden/regen.py

runs each case through ``krrdeteq.cli.main`` in a fresh interpreter with
OpenBLAS pinned to one thread (``OPENBLAS_NUM_THREADS=1``) and ``--threads 1``,
writes its CSV and JSON tables and its exit code and stderr
(``expected/exits.json``), and prints the worst relative change of each numeric
column against the goldens it replaces.  A change that moves outputs on purpose
pastes that table into CHANGES.md.  It takes no arguments: given any, it prints
its usage line and exits 2 without running a case.

The goldens pin the bytes of the OpenBLAS build they were made with, at one BLAS
thread: the numpy 2.4.6 and scipy 1.17.1 wheels (OpenBLAS 0.3.31 and 0.3.30,
DYNAMIC_ARCH, so the kernels are chosen for the CPU at run time) on a 2-core
Intel Xeon VM.  The sampled subcommands' LAPACK and gemm results depend on the
BLAS build, the CPU and the thread count, so another setup may differ in the
last digits; regenerate there.  ``tests/test_golden.py`` checks the bytes at
``--threads 1`` and ``2``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
SRC = HERE.parents[1] / "src"


def _run_here(out: Path, threads: list[int]) -> None:
    """Run every case at each thread count into ``out/t<threads>/``; the child side of ``run_cases``."""
    from krrdeteq.cli import main

    cases = json.loads((HERE / "cases.json").read_text())
    for t in threads:
        target = out / f"t{t}"
        target.mkdir(parents=True)
        exits = {}
        for name, case in cases.items():
            config = target / f"{name}.config.json"
            config.write_text(json.dumps(case["config"]))
            for fmt in ("csv", "json"):
                err = io.StringIO()
                argv = [case["command"], "--config", str(config), "--out", str(target / f"{name}.{fmt}")]
                with contextlib.redirect_stderr(err):
                    code = main(argv + ["--format", fmt, "--threads", str(t)])
                exits[f"{name}.{fmt}"] = {"exit": code, "stderr": err.getvalue()}
            config.unlink()
        (target / "exits.json").write_text(json.dumps(exits, indent=1, sort_keys=True) + "\n")


def run_cases(out: Path, threads=(1, 2)) -> None:
    """Run every case in one fresh interpreter, OpenBLAS on one thread, into ``out/t<threads>/``."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
    argv = [sys.executable, str(Path(__file__).resolve()), "--run", str(out), *map(str, threads)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"golden run failed:\n{proc.stderr}")


def _relative_change(old: str, new: str) -> float | None:
    """|new - old| / |old| for two numeric cells (0 for equal text); None when either is not a number."""
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / abs(a) if a else math.inf


def report(old_dir: Path, new_dir: Path) -> list[str]:
    """Lines naming the worst relative change per numeric CSV column, and every other difference."""
    lines, worst = [], {}
    old_exits = json.loads((old_dir / "exits.json").read_text())
    new_exits = json.loads((new_dir / "exits.json").read_text())
    for key in sorted(set(old_exits) | set(new_exits)):
        if old_exits.get(key) != new_exits.get(key):
            lines.append(f"{key}: exit/stderr {old_exits.get(key)} -> {new_exits.get(key)}")
    for path in sorted(new_dir.glob("*.csv")):
        old_path = old_dir / path.name
        if not old_path.exists():
            lines.append(f"{path.name}: new")
            continue
        old_rows = list(csv.DictReader(old_path.open(newline="")))
        new_rows = list(csv.DictReader(path.open(newline="")))
        if len(old_rows) != len(new_rows) or (old_rows and old_rows[0].keys() != new_rows[0].keys()):
            lines.append(f"{path.name}: rows or columns changed")
            continue
        for old_row, new_row in zip(old_rows, new_rows):
            for column, new in new_row.items():
                change = _relative_change(old_row[column], new)
                if change is None:
                    lines.append(f"{path.name}: {column} {old_row[column]!r} -> {new!r}")
                elif change > worst.get(column, (0.0, ""))[0]:
                    worst[column] = (change, path.stem)
    lines += [f"worst relative change in {column}: {change:.3g} ({case})" for column, (change, case) in sorted(worst.items())]
    return lines or ["no change"]


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run_cases(Path(tmp), threads=(1,))
        new = Path(tmp) / "t1"
        if EXPECTED.exists():
            print("\n".join(report(EXPECTED, new)))
            shutil.rmtree(EXPECTED)
        shutil.copytree(new, EXPECTED)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:  # the child side of ``run_cases``
        _run_here(Path(sys.argv[2]), [int(t) for t in sys.argv[3:]])
    elif sys.argv[1:]:
        print("usage: python tests/golden/regen.py  (takes no arguments; rewrites every golden)", file=sys.stderr)
        sys.exit(2)
    else:
        regenerate()

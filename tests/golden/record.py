#!/usr/bin/env python3
"""Re-record the golden CLI outputs under tests/golden/.

    PYTHONPATH=src python3 tests/golden/record.py

Runs each polarize case of ``polarize/cases.json`` through ``cli.main`` in
this process and writes its stdout (the CSV) and stderr beside the manifest,
and the Python and numpy versions that produced them to ``versions.txt``.  Record only when a
change is meant to alter these outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

from polarkit.cli import main

HERE = Path(__file__).resolve().parent


def run_case(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def record(directory: Path):
    for name, argv in json.loads((directory / "cases.json").read_text()).items():
        code, out, err = run_case(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}: {err.strip()}")
        (directory / f"{name}.csv").write_text(out)
        (directory / f"{name}.stderr").write_text(err)
        print(f"{name}: {len(out.splitlines())} lines", file=sys.stderr)
    (directory / "versions.txt").write_text(f"python {platform.python_version()}\nnumpy {np.__version__}\n")


if __name__ == "__main__":
    record(HERE / "polarize")

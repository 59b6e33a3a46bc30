#!/usr/bin/env python3
"""Re-record the golden CLI outputs under tests/golden/.

    PYTHONPATH=src python3 tests/golden/record.py

Every directory here that holds a ``cases.json`` is named after the command
its cases run.  Each case runs through ``cli.main`` in this process; its
stdout (the JSON of ``construct``, ``exponents`` and ``analyze-kernel``, the
CSV of the others) and stderr are written beside
the manifest, and the Python and numpy versions that produced them to the
directory's ``versions.txt``.  Record only when a change is meant to alter
these outputs, and say so in CHANGES.md.
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
# commands whose stdout is one JSON document; the others print CSV
JSON_COMMANDS = {"construct", "exponents", "analyze-kernel"}


def case_directories(root: Path = HERE) -> list:
    """Every directory of ``root`` that holds a ``cases.json``."""
    return sorted(d for d in root.iterdir() if (d / "cases.json").is_file())


def stdout_name(directory: Path, name: str) -> str:
    """File name of a case's recorded stdout: ``.json`` or ``.csv``, by command."""
    return f"{name}.json" if directory.name in JSON_COMMANDS else f"{name}.csv"


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
            sys.exit(f"{directory.name}/{name}: exit {code}: {err.strip()}")
        (directory / stdout_name(directory, name)).write_text(out)
        (directory / f"{name}.stderr").write_text(err)
        print(f"{directory.name}/{name}: {len(out.splitlines())} lines", file=sys.stderr)
    (directory / "versions.txt").write_text(f"python {platform.python_version()}\nnumpy {np.__version__}\n")


if __name__ == "__main__":
    for directory in case_directories():
        record(directory)

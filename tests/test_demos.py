"""The demos that call the kernel-analysis code run to completion."""

import os
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("script", ["erasure_polarization.py", "high_distance_kernels.py", "kernel_anatomy.py"])
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, script)],
        capture_output=True, text=True,
        # the child finds polarkit where this process does, however pytest
        # was started
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

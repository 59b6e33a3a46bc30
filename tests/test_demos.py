"""The demos that call the analysis code run to completion.

``codec_fer.py`` is left out: its Monte Carlo frame-error runs take about
3 s, several percent of the whole suite, and the codec tests cover the same
calls.
"""

import os
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize(
    "script", ["erasure_polarization.py", "exponent_study.py", "high_distance_kernels.py", "kernel_anatomy.py"])
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

"""The public surface: no parameter without a caller, one budget check."""

import dataclasses
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polarkit import channels, codec, entropy, fqlin, kernelscope, polarlab
from polarkit.fqlin import BudgetExceeded, FqMatrix

MODULES = (fqlin, channels, entropy, polarlab, kernelscope, codec)

# parameters (and dataclass fields) that no caller outside the tests set;
# each now has the one value it had by default
DELETED = {
    "codec.sc_decode": {"channel", "keep_posteriors", "true_message"},
    "codec.DecodeResult": {"posteriors", "success"},
    "entropy.polarization_exponents": {"fit_points"},
    "entropy.ExponentReport": {"fit_points"},
    "kernelscope.build_high_distance_kernel": {"attempts"},
    "kernelscope.extract_high_distance_columns": {"exhaustive_limit", "subset_budget"},
    # every witness is useful, and no caller read the report's metadata
    "kernelscope.ContainmentWitness": {"useful"},
    "kernelscope.KernelReport": {"metadata"},
    "kernelscope.kernel_report": {"metadata"},
    "polarlab.local_profile": {"grid", "factors", "depth"},
    "polarlab.LocalProfile.min_variance": {"tau"},
    # exact leading exponents at both ends replace the float suction scan
    "polarlab.LocalProfile": {"suction"},
    "channels.make_table_channel": {"require_symmetric"},
    "channels.SymmetryCertificate": {"column_sums_equal"},
    # the tree, in logits, cannot underflow, so there is nothing to count
    "polarlab.MartingaleTreeLevel": {"underflow_count"},
    "polarlab.PolarizationReport": {"underflow_counts"},
}


def _public_signatures():
    """(qualified name, parameter names) of every public callable and method."""
    for module in MODULES:
        short = module.__name__.rpartition(".")[2]
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) and issubclass(obj, Exception):
                continue
            yield f"{short}.{name}", set(inspect.signature(obj).parameters)
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{short}.{name}.{attr}", set(inspect.signature(member).parameters)


def test_no_public_function_takes_a_budget():
    # every limit is a default at its check_budget call, or POLARLAB_BUDGET
    assert [name for name, params in _public_signatures() if "budget" in params] == []


def test_deleted_parameters_stay_deleted():
    signatures = dict(_public_signatures())
    for name, gone in DELETED.items():
        assert not gone & signatures[name], name
    assert [f.name for f in dataclasses.fields(codec.DecodeResult)] == ["message", "u_hat"]
    for attr in ("FieldModulus", "enumeration_budget"):
        assert not hasattr(fqlin, attr)
    assert not hasattr(polarlab, "UNDERFLOW_FLOOR")
    # the tree steps in logits; the pair step is tests/helpers.log_pair_step
    assert not hasattr(polarlab.ErasurePolynomialSet, "log_step")
    assert not hasattr(polarlab, "SuctionRow")
    import polarkit

    assert "FieldModulus" not in polarkit.__all__


ARIKAN = FqMatrix(2, [[1, 0], [1, 1]])
ARIKAN_POLYS = polarlab.erasure_polynomials(ARIKAN)
ERASURE = channels.make_erasure(2, 0.3)
BSC = entropy.channel_joint(channels.make_qsc(2, 0.1))
ARIKAN_CODE = codec.construct_code(ARIKAN, ERASURE, 1, rate=0.5, frozen_zero=True)
ARIKAN_CODE_T2 = codec.construct_code(ARIKAN, ERASURE, 2, rate=0.5, frozen_zero=True)

# one call per enumeration guard, each over a POLARLAB_BUDGET of 3, or of
# BUDGETS[what] where an earlier guard needs more to pass; inputs are built
# at import so that each call meets its own guard first
GUARDS = {
    "block length": lambda: codec.construct_code(ARIKAN, ERASURE, 2, rate=0.5, frozen_zero=True),
    "channel table": lambda: channels.make_erasure(2, 0.3),
    "erasure-pattern": lambda: polarlab.erasure_polynomials(ARIKAN),
    "tree": lambda: polarlab.evolve_tree(ARIKAN_POLYS, 0.5, 2),
    "minimum-weight search": lambda: fqlin.min_weight_search(FqMatrix.identity(2, 4)),
    "source enumeration": lambda: kernelscope.ml_failure_exact(ARIKAN, 0.1),
    # an erasure-type joint would meet the pattern budget instead
    "entropy state": lambda: entropy.polar_entropies(ARIKAN, BSC),
    "kernel node table": lambda: codec.sc_decode(ARIKAN_CODE, [0, 1]),
    # the 4-word node table passes; one word weighs 4 * 2 floats
    "SC node weights": lambda: codec.sc_decode(ARIKAN_CODE_T2, [0, 1, 0, 1]),
}
BUDGETS = {"SC node weights": 4}


@pytest.mark.parametrize("what", list(GUARDS))
def test_every_enumeration_is_refused_by_check_budget(what, monkeypatch):
    calls = []
    check = fqlin.check_budget

    def recording(*args):
        calls.append(args)
        return check(*args)

    for module in MODULES:
        if hasattr(module, "check_budget"):
            monkeypatch.setattr(module, "check_budget", recording)
    budget = BUDGETS.get(what, 3)
    monkeypatch.setenv("POLARLAB_BUDGET", str(budget))
    with pytest.raises(BudgetExceeded, match=rf"^{what} budget exceeded: \d+ > {budget}$"):
        GUARDS[what]()
    assert calls[-1][0] == what


def test_search_block_skips_only_budget_refusals(monkeypatch):
    # a block too large to search is skipped for a wider one; any other
    # error, here a malformed budget, reaches the caller
    monkeypatch.setenv("POLARLAB_BUDGET", "1e7")
    with pytest.raises(ValueError, match="POLARLAB_BUDGET must be a positive integer"):
        kernelscope._search_block(3, 4, 1, np.random.default_rng(0))


def test_helpers_without_outside_callers_stay_private():
    # no caller outside their own module: the tests use the private names,
    # and drop_side_info lives in tests/helpers.py
    assert "map_predictor" not in entropy.__all__ and not hasattr(entropy, "map_predictor")
    assert "transport_witness" not in kernelscope.__all__ and not hasattr(kernelscope, "transport_witness")
    # find_useful_containment_H builds U1^-1 @ T in place and verifies the result
    assert not hasattr(kernelscope, "_transport_witness")
    assert not hasattr(entropy.SymbolJoint, "drop_side_info")


def test_traced_bench_hooks_resolve():
    """Every attribute ``perfbench/layers.py`` wraps exists under that name.

    The traced bench replaces these module globals; renaming or deleting one
    would otherwise surface only when the traced run starts.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.WRAPS
    for module, attr, name, _ in layers.WRAPS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} (span {name})"


def test_import_leaves_concurrent_futures_unloaded():
    # the genie lanes run on plain threads: concurrent.futures would add
    # about 5 ms to every import of polarkit
    code = "import sys, polarkit.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

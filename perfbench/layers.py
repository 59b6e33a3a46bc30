"""Which polarkit attributes the traced run wraps, and the per-layer metrics.

Wrappers replace the module attributes that callers resolve at call time, so
a library-internal call such as construct_code -> genie_error_rates is seen
as long as the callee is looked up as a module global.  Work counts are
derived from each call's arguments, never from timing, so they repeat
exactly between runs on the same inputs.
"""

from __future__ import annotations

import numpy as np

from polarkit import codec, entropy, fqlin, kernelscope, polarlab


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(m):
    """Kernel size k of an FqMatrix or an ErasurePolynomialSet."""
    return m.rows if isinstance(m, fqlin.FqMatrix) else m.k


def _decoded_trials(args, kwargs, result):
    return {"codec.decode.words": _arg(args, kwargs, 2, "trials")}


def _decoded_one(args, kwargs, result):
    return {"codec.decode.words": 1}


def _tensor_symbols(args, kwargs, result):
    return {"fqlin.tensor_apply.symbols": int(np.size(_arg(args, kwargs, 2, "u")))}


def _sampled(args, kwargs, result):
    # sample_outputs builds, per input symbol, an 8-byte uniform draw, an
    # (m,)-float64 CDF gather, an (m,)-bool comparison and two int64 arrays
    # (the sum and the clipped output): 24 + 9m bytes.  Computed from shapes.
    n = int(np.size(_arg(args, kwargs, 1, "x")))
    m = _arg(args, kwargs, 0, "c").outputs
    return {"channels.sample_outputs.symbols": n, "channels.sample_outputs.bytes_computed": n * (24 + 9 * m)}


def _tree_nodes(args, kwargs, result):
    return {"polarlab.evolve_tree.nodes": _rows(_arg(args, kwargs, 0, "m")) ** _arg(args, kwargs, 2, "t")}


def _patterns(args, kwargs, result):
    return {"polarlab.erasure_polynomials.patterns": 2 ** _rows(_arg(args, kwargs, 0, "m")) - 1}


def _kernel_vectors(args, kwargs, result):
    m0 = _arg(args, kwargs, 0, "m0")
    dim = m0.rows - m0.rank() if m0.cols else m0.rows
    return {"kernelscope.left_kernel_distance.vectors": m0.q**dim - 1}


def _states(args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    joint = _arg(args, kwargs, 1, "joint")
    return {"entropy.polar_entropies.states": (m.q * joint.m) ** m.rows}


# (module, attribute, span name, count function).  Public entry points come
# first; then the internal boundaries, each under the name of its home module.
WRAPS = [
    (codec, "construct_code", "codec.construct_code", None),
    (codec, "fer_experiment", "codec.fer_experiment", _decoded_trials),
    (codec, "sc_decode", "codec.sc_decode", _decoded_one),
    (codec, "encode", "codec.encode", None),
    (codec, "genie_error_rates", "codec.genie_error_rates", None),
    (codec, "tensor_apply", "fqlin.tensor_apply", _tensor_symbols),
    (codec, "sample_outputs", "channels.sample_outputs", _sampled),
    (codec, "evolve_tree", "polarlab.evolve_tree", _tree_nodes),
    (polarlab, "evolve_tree", "polarlab.evolve_tree", _tree_nodes),
    (polarlab, "polarization_report", "polarlab.polarization_report", None),
    (polarlab, "erasure_polynomials", "polarlab.erasure_polynomials", _patterns),
    (polarlab, "leading_exponents", "polarlab.leading_exponents", None),
    (polarlab, "row_echelon", "fqlin.row_echelon", None),
    (fqlin, "row_echelon", "fqlin.row_echelon", None),
    (kernelscope, "kernel_report", "kernelscope.kernel_report", None),
    (kernelscope, "random_mixing", "kernelscope.random_mixing", None),
    (kernelscope, "is_mixing", "kernelscope.is_mixing", None),
    (kernelscope, "find_useful_containment_H", "kernelscope.find_useful_containment_H", None),
    (kernelscope, "left_kernel_distance", "kernelscope.left_kernel_distance", _kernel_vectors),
    (entropy, "polarization_exponents", "entropy.polarization_exponents", None),
    (entropy, "polar_entropies", "entropy.polar_entropies", _states),
]

# The end-to-end metric each per-layer metric should move, on the workloads
# named in brackets.  Metric names and units are those of BENCHMARK.json.
MOVES = {
    "codec.fer_experiment.self_s": "words_per_s [fer_arikan]",
    "codec.decode.words": "words_per_s [fer_arikan]",
    "codec.sc_decode.s": "word_latency_ms_p50/p90 [fer_arikan]",
    "codec.genie_error_rates.self_s": "genie_trials_per_s [genie_f3]",
    "codec.encode.s": "words_per_s [fer_arikan]",
    "fqlin.tensor_apply.s": "words_per_s [fer_arikan]; genie_trials_per_s, peak_rss_mb [genie_f3]",
    "fqlin.tensor_apply.symbols": "as fqlin.tensor_apply.s",
    "channels.sample_outputs.s": "genie_trials_per_s, peak_rss_mb [genie_f3]; small share [fer_arikan]",
    "channels.sample_outputs.symbols": "as channels.sample_outputs.s",
    "channels.sample_outputs.bytes_computed": "peak_rss_mb [genie_f3]",
    "codec.construct_code.s": "setup_s [fer_arikan]; genie_trials_per_s [genie_f3]",
    "polarlab.evolve_tree.s": "setup_s [fer_arikan]; polarize_s [polarize]",
    "polarlab.evolve_tree.nodes": "as polarlab.evolve_tree.s",
    "fqlin.row_echelon.calls": "kernel_report_s [kernel_report]",
    "fqlin.row_echelon.s": "kernel_report_s [kernel_report]",
    "polarlab.erasure_polynomials.s": "kernel_report_s [kernel_report]",
    "polarlab.erasure_polynomials.patterns": "kernel_report_s [kernel_report]",
    "kernelscope.kernel_report.self_s": "kernel_report_s [kernel_report]",
    "kernelscope.is_mixing.s": "kernel_report_s [kernel_report]",
    "kernelscope.find_useful_containment_H.s": "kernel_report_s [kernel_report]",
    "kernelscope.left_kernel_distance.s": "kernel_report_s [kernel_report]",
    "kernelscope.left_kernel_distance.vectors": "kernel_report_s [kernel_report]",
    "entropy.polar_entropies.s": "exponents_s [exponents]",
    "entropy.polar_entropies.calls": "exponents_s [exponents]",
    "entropy.polar_entropies.states": "exponents_s [exponents]",
    "trace.untraced_pass_s": "wall time of one fixed pass with tracing off",
    "trace.overhead_s": "traced minus untraced wall time of the same pass",
    "trace.attributed_frac": "share of the traced pass covered by top-level spans",
}


def layer_values(names, summary, counts):
    """Values of the per-layer metrics ``names`` (except trace.*) for one traced pass."""
    out = {}
    for metric in names:
        span, _, quantity = metric.rpartition(".")
        if span == "trace":
            continue
        if quantity in ("s", "self_s", "calls"):
            out[metric] = summary.get(span, {}).get(quantity, 0)
        else:
            out[metric] = counts.get(metric, 0)
    return out


def install(tracer):
    for module, attr, name, count in WRAPS:
        tracer.wrap(module, attr, name, count=count, keep_result=attr == "erasure_polynomials")

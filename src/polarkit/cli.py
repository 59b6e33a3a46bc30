"""Command-line front end: kernel analysis, polarization studies, codec runs.

Every run resolves its arguments into a plain spec dictionary that is embedded
verbatim in the output header, so a result file names the exact experiment
that produced it.  Outputs are byte-reproducible for a fixed seed, since the
spec also carries the trial counts: no wall-clock values, stable key order,
repr-formatted floats.  The result goes to ``--out`` or, without it, alone to
stdout; the one-line status summary goes to stderr.

Exit codes: 0 success, 2 argument/validation error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, channels, codec, entropy, kernelscope, polarlab
from .fqlin import FqMatrix, kron


@functools.lru_cache(maxsize=None)
def _hamming7() -> FqMatrix:
    """The verified Hamming-block kernel, built once: FqMatrix is immutable."""
    return kernelscope.build_high_distance_kernel(2, 7, 1).matrix


def _read_json(spec: str):
    """An inline JSON literal, or the contents of the JSON file it names; a
    file that cannot be read is bad input, a ValueError."""
    if spec.strip().startswith("{"):
        return json.loads(spec)
    try:
        with open(spec) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def resolve_kernel(spec: str, q: int) -> FqMatrix:
    """Kernel from a builtin name, a JSON file path, or an inline JSON literal."""
    if spec == "arikan":
        return FqMatrix(q, [[1, 0], [1, 1]])
    if spec == "arikan2":
        m = FqMatrix(q, [[1, 0], [1, 1]])
        return kron(m, m)
    if spec == "hamming7":
        if q != 2:
            raise ValueError(f"the hamming7 kernel is binary; got --q {q}")
        return _hamming7()
    return FqMatrix.from_dict(_read_json(spec))


def resolve_channel(spec: str, q: int) -> channels.Channel:
    """Channel from 'erasure:Z', 'qsc:EPS', or a JSON file / inline literal.

    A literal other than {"kind": "qsc" | "erasure", "q", "param"}, with a
    real param, or {"kind": "table", "q", "w"} raises a ValueError.
    """
    if spec.strip().startswith("{") or spec.endswith(".json"):
        raw = _read_json(spec)
        kind = raw.get("kind", "table") if isinstance(raw, dict) else None
        if kind not in ("qsc", "erasure", "table") or not {"q", "w" if kind == "table" else "param"} <= raw.keys():
            raise ValueError('a channel literal needs "q" and, by its "kind", "param" (qsc, erasure) or "w" (table)')
        if kind == "table":
            return channels.make_table_channel(raw["q"], raw["w"])
        if not isinstance(raw["param"], (int, float)) or isinstance(raw["param"], bool):
            raise ValueError(f"channel param must be a real number; got {raw['param']!r}")
        return (channels.make_qsc if kind == "qsc" else channels.make_erasure)(raw["q"], raw["param"])
    kind, _, param = spec.partition(":")
    if kind == "erasure":
        return channels.make_erasure(q, float(param))
    if kind == "qsc":
        return channels.make_qsc(q, float(param))
    raise ValueError(f"unknown channel spec {spec!r}")


def _emit_json(payload: dict, spec: dict, out: str | None):
    doc = {"version": __version__, "spec": spec, "result": payload}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(columns, rows, spec: dict, out: str | None):
    lines = [
        f"# polarkit {__version__}",
        "# spec: " + json.dumps(spec, sort_keys=True),
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spec_dict(args, fields) -> dict:
    return {"subcommand": args.command, **{f: getattr(args, f) for f in fields}}


def cmd_analyze_kernel(args) -> int:
    m = resolve_kernel(args.kernel, args.q)
    block = args.block_cols
    if block is None and args.kernel == "hamming7":
        block = 3
    report = kernelscope.kernel_report(m, block_cols=block)
    spec = _spec_dict(args, ["kernel", "q", "block_cols"])
    _emit_json(report.to_dict(), spec, args.out)
    print(f"analyze-kernel: mixing={report.mixing} distance={report.distance} eta={report.eta} b={report.b}", file=sys.stderr)
    return 0


def cmd_polarize(args) -> int:
    if args.t_min < 0:
        raise ValueError(f"--t-min must be nonnegative; got {args.t_min}")
    m = resolve_kernel(args.kernel, args.q)
    levels = polarlab.evolve_tree(m, args.z, args.t, return_all=True)
    start = min(args.t_min, args.t)
    report = polarlab.polarization_report(levels[start:], args.lam, args.gamma, args.threshold)
    spec = _spec_dict(args, ["kernel", "q", "z", "t", "t_min", "lam", "gamma", "threshold"])
    columns = ["t", "fraction_exp", "fraction_strong", "rate_at_threshold"]
    _emit_csv(columns, list(report.rows()), spec, args.out)
    print(f"polarize: levels {start}..{args.t} rho_hat={report.rho_hat!r}", file=sys.stderr)
    return 0


def cmd_exponents(args) -> int:
    if not math.isfinite(args.b_min):
        raise ValueError(f"--b-min must be finite; got {args.b_min}")
    m = resolve_kernel(args.kernel, args.q)
    deltas = [float(d) for d in args.deltas.split(",")]
    rep = entropy.polarization_exponents(m, entropy.erasure_family(m.q), deltas)
    eta, b = rep.suction_pair(args.b_min)
    payload = rep.to_dict()
    payload["suction"] = {"eta": eta, "b": b, "b_min": args.b_min}
    spec = _spec_dict(args, ["kernel", "q", "deltas", "b_min"])
    _emit_json(payload, spec, args.out)
    print(f"exponents: eta={eta} b={b}", file=sys.stderr)
    return 0


def cmd_construct(args) -> int:
    m = resolve_kernel(args.kernel, args.q)
    ch = resolve_channel(args.channel, m.q)
    rng = np.random.default_rng(args.seed)
    code = codec.construct_code(
        m, ch, args.t, rate=args.rate, threshold=args.threshold,
        rng=rng, frozen_zero=args.frozen_zero, genie_trials=args.genie_trials,
    )
    spec = _spec_dict(args, ["kernel", "q", "channel", "t", "rate", "threshold", "seed", "frozen_zero", "genie_trials"])
    _emit_json(code.to_dict(), spec, args.out)
    print(f"construct: N={code.block_length} rate={code.rate:.4f} frozen={len(code.frozen)}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    m = resolve_kernel(args.kernel, args.q)
    ch = resolve_channel(args.channel, m.q)
    rng = np.random.default_rng(args.seed)
    code = codec.construct_code(m, ch, args.t, rate=args.rate, rng=rng, genie_trials=args.genie_trials)
    fer_rng = np.random.default_rng(args.seed + 1)
    res = codec.fer_experiment(code, ch, args.trials, fer_rng)
    cap = channels.capacity(ch)
    spec = _spec_dict(args, ["kernel", "q", "channel", "t", "rate", "trials", "seed", "genie_trials"])
    columns = ["N", "rate", "capacity", "gap", "failures", "trials", "fer", "ci_low", "ci_high"]
    row = [
        code.block_length,
        float(code.rate),
        float(cap),
        float(cap - code.rate),
        res.failures,
        res.trials,
        float(res.fer),
        float(res.ci_low),
        float(res.ci_high),
    ]
    _emit_csv(columns, [row], spec, args.out)
    print(f"simulate: N={code.block_length} fer={res.fer:.5f} [{res.ci_low:.5f}, {res.ci_high:.5f}]", file=sys.stderr)
    return 0


def cmd_distance(args) -> int:
    m = resolve_kernel(args.kernel, args.q)
    cols = args.cols if args.cols is not None else m.cols
    if not 0 <= cols <= m.cols:
        raise ValueError(f"--cols must lie in [0, {m.cols}], got {cols}")
    block = FqMatrix(m.q, m.arr[:, :cols])
    dist = kernelscope.left_kernel_distance(block)
    payload = {"distance": "inf" if dist == float("inf") else int(dist), "cols": cols}
    if args.ml_eps is not None:
        ml = kernelscope.ml_failure_exact(block, args.ml_eps)
        payload["ml"] = {
            "failure": ml.failure,
            "lower_bound": ml.lower_bound,
            "bound_ok": ml.bound_ok,
        }
    spec = _spec_dict(args, ["kernel", "q", "cols", "ml_eps"])
    _emit_json(payload, spec, args.out)
    print(f"distance: {payload['distance']} over first {cols} columns", file=sys.stderr)
    return 0


def cmd_extract_columns(args) -> int:
    m = resolve_kernel(args.kernel, args.q)
    res = kernelscope.extract_high_distance_columns(m, args.t0, args.s)
    payload = {
        "columns": [int(c) for c in res.columns],
        "distance": "inf" if res.distance == float("inf") else int(res.distance),
        "padded_mixing": bool(res.padded_mixing),
        "exhaustive": bool(res.exhaustive),
    }
    spec = _spec_dict(args, ["kernel", "q", "t0", "s"])
    _emit_json(payload, spec, args.out)
    print(f"extract-columns: {payload['columns']} distance={payload['distance']}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="polarkit", description=__doc__)
    p.add_argument("--version", action="version", version=f"polarkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, channel=False):
        sp.add_argument("--kernel", default="arikan", help="arikan | arikan2 | hamming7 | file.json | inline JSON")
        sp.add_argument("--q", type=int, default=2, help="field modulus for builtin kernels")
        sp.add_argument("--out", default=None, help="output path (stdout when omitted)")
        if channel:
            sp.add_argument("--channel", required=True, help="erasure:Z | qsc:EPS | JSON file or literal")

    sp = sub.add_parser("analyze-kernel", help="mixing, containment witness, distance, exponents")
    common(sp)
    sp.add_argument("--block-cols", type=int, default=None)
    sp.set_defaults(func=cmd_analyze_kernel)

    sp = sub.add_parser("polarize", help="full-tree polarization windows per level")
    common(sp)
    sp.add_argument("--z", type=float, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--t-min", type=int, default=0)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.45)
    sp.add_argument("--gamma", type=float, default=0.8)
    sp.add_argument("--threshold", type=float, default=1e-6)
    sp.set_defaults(func=cmd_polarize)

    sp = sub.add_parser("exponents", help="entropy-profile decay exponents on a delta grid")
    common(sp)
    sp.add_argument("--deltas", default="1e-2,1e-3,1e-4")
    sp.add_argument("--b-min", type=float, default=1.5)
    sp.set_defaults(func=cmd_exponents)

    sp = sub.add_parser("construct", help="build a polar code from reliability estimates")
    common(sp, channel=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--rate", type=float, default=None)
    sp.add_argument("--threshold", type=float, default=None)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--frozen-zero", action="store_true")
    sp.add_argument("--genie-trials", type=int, default=10_000)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("simulate", help="Monte Carlo frame-error-rate experiment")
    common(sp, channel=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--rate", type=float, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--genie-trials", type=int, default=10_000)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("distance", help="left-kernel distance of a column block")
    common(sp)
    sp.add_argument("--cols", type=int, default=None)
    sp.add_argument("--ml-eps", type=float, default=None)
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("extract-columns", help="high-distance column subsets of a tensor power")
    common(sp)
    sp.add_argument("--t0", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.set_defaults(func=cmd_extract_columns)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures keep a distinct exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

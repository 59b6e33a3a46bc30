"""The benchmark workloads and their exact output checks.

Each workload has four parts:

- ``setup(seed)`` draws the inputs from the seed and builds kernels or codes;
- ``measure(inp, seed, seconds, log)`` runs the timed operations until
  ``seconds`` have passed (``seconds=0`` runs the fixed minimum once, which is
  what the traced run repeats) and reads the peak RSS after the first unit
  of work, before allocator retention over repeats can move it;
- ``check(inp, seed, out, log)`` compares the outputs with exact references
  and marks the operations a failed check covers;
- ``report(out, log)`` returns the workload's named metrics.

Only public polarkit functions are called, always through their module
attribute at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
import traceback

import numpy as np

from polarkit import channels, codec, entropy, fqlin, kernelscope, polarlab

from checks import (
    binomial_consistent,
    pattern_identity_errors,
    quantile,
    words_digest,
)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class OpLog:
    """Timed operations of one run and the problems found with them."""

    def __init__(self):
        self.kinds = []
        self.seconds = []
        self.ok = []
        self.problems = []

    def call(self, kind, fn, *args, **kwargs):
        """Time one library call; a call that raises is a failed operation."""
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # the run goes on; the traceback is reported as a problem
            out = None
            err = traceback.format_exc(limit=3)
        else:
            err = None
        self.seconds.append(time.perf_counter() - start)
        self.kinds.append(kind)
        self.ok.append(err is None)
        if err is not None:
            self.problems.append(f"{kind} #{len(self.kinds) - 1} raised: {err}")
        return len(self.kinds) - 1, out

    def check(self, passed, message, ops):
        """Record a check; on failure every operation it covers fails."""
        if passed:
            return
        self.problems.append(message)
        for i in ops:
            self.ok[i] = False

    def times(self, kind):
        return [s for k, s in zip(self.kinds, self.seconds) if k == kind]

    @property
    def attempted(self) -> int:
        return len(self.kinds)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def _room_for_one_more(start, seconds, durations):
    """True until the next operation, as long as the median one so far, would overrun."""
    if not durations:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def peak_rss_mb() -> float:
    """ru_maxrss of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _repeat(seconds, unit):
    """Call ``unit(i)`` while the next call, as long as the median so far, fits in ``seconds``.

    Returns the results and the peak RSS read after the first call.
    """
    start = time.perf_counter()
    results, walls = [], []
    while _room_for_one_more(start, seconds, walls):
        unit_start = time.perf_counter()
        results.append(unit(len(results)))
        walls.append(time.perf_counter() - unit_start)
        if len(results) == 1:
            rss = peak_rss_mb()
    return results, rss


def _metric(value, unit, n):
    return {"value": float(value), "unit": unit, "n": int(n)}


def _arikan():
    return fqlin.FqMatrix(2, [[1, 0], [1, 1]])


# ---------------------------------------------------------------------------
# fer_arikan: SC decoding, batched (phase A) and one word at a time (phase B)
# ---------------------------------------------------------------------------


class FerArikan:
    name = "fer_arikan"
    T = 10
    Z = 0.3
    RATE = 0.5
    TRIALS = 1024  # words per fer_experiment call: one default batch
    POOL = 100  # distinct phase-B words; they are decoded again while time remains

    def setup(self, seed):
        channel = channels.make_erasure(2, self.Z)
        code = codec.construct_code(_arikan(), channel, self.T, rate=self.RATE, frozen_zero=True)
        rng = np.random.default_rng([seed, 0])
        messages = rng.integers(0, 2, size=(self.POOL, len(code.info)))
        x = codec.encode(code, messages)
        y = np.where(rng.random(x.shape) < self.Z, channel.erasure_symbol, x)
        return {"code": code, "channel": channel, "messages": messages, "y": y}

    def measure(self, inp, seed, seconds, log):
        # Phases alternate, one fer_experiment call then as long decoding
        # single words, so both see the whole run's machine conditions.
        code, channel, y = inp["code"], inp["channel"], inp["y"]
        start = time.perf_counter()
        fers, decodes, rounds = [], [], []
        while _room_for_one_more(start, seconds, rounds):
            round_start = time.perf_counter()
            rng = np.random.default_rng([seed, 1, len(fers)])
            fers.append(log.call("fer_experiment", codec.fer_experiment, code, channel, self.TRIALS, rng))
            if len(fers) == 1:
                rss = peak_rss_mb()
            phase_a = time.perf_counter() - round_start
            decode_start = time.perf_counter()
            while time.perf_counter() - decode_start < phase_a:
                decodes.append(log.call("sc_decode", codec.sc_decode, code, y[len(decodes) % self.POOL]))
            rounds.append(time.perf_counter() - round_start)
        while len(decodes) < self.POOL:
            decodes.append(log.call("sc_decode", codec.sc_decode, code, y[len(decodes) % self.POOL]))
        return {"fers": fers, "decodes": decodes, "rss_mb": rss}

    def check(self, inp, seed, out, log):
        code, messages = inp["code"], inp["messages"]
        q = code.q
        fers = [(i, r) for i, r in out["fers"] if r is not None]
        for i, r in fers:
            log.check(r.trials == self.TRIALS and 0 <= r.failures <= r.trials,
                      f"fer_experiment #{i}: implausible {r}", [i])
        failures = sum(r.failures for _, r in fers)
        trials = sum(r.trials for _, r in fers)
        # Exact SC bracket on the erasure channel: a first error needs a
        # genie erasure at an information index and a wrong tie-break
        # (probability 1 - 1/q), so FER lies in (1-1/q) * [max z_i, sum z_i].
        z_info = code.estimates[code.info]
        lo, hi = (1 - 1 / q) * z_info.max(), (1 - 1 / q) * z_info.sum()
        if trials:
            ok = bool(binomial_consistent(failures, trials, lo, hi, z=5.0)[0])
            log.check(ok, f"FER {failures}/{trials} inconsistent with exact bracket [{lo:.3e}, {hi:.3e}]",
                      [i for i, _ in fers])

        first = {}
        for n, (i, d) in enumerate(out["decodes"]):
            if d is None:
                continue
            word = n % self.POOL
            log.check(np.all(d.u_hat[code.frozen] == code.frozen_values),
                      f"sc_decode #{i}: frozen symbols not honoured", [i])
            if word in first:
                log.check(np.array_equal(d.u_hat, first[word][1]),
                          f"sc_decode #{i}: word {word} decoded differently on repeat", [i])
            else:
                first[word] = (i, d.u_hat)
        out["frame_errors"] = sum(
            not np.array_equal(first[w][1][code.info], messages[w]) for w in first
        )
        expected = load_reference()["fer_arikan_digests"].get(str(seed))
        if expected is not None and len(first) == self.POOL:
            got = words_digest(first[w][1] for w in range(self.POOL))
            log.check(got == expected, f"phase-B u_hat digest {got} != recorded {expected}",
                      [first[w][0] for w in range(self.POOL)])

    def report(self, out, log):
        a = log.times("fer_experiment")
        b = log.times("sc_decode")
        b_ms = [1e3 * s for s in b]
        named = {
            "words_per_s": _metric(self.TRIALS / quantile(a, 0.5), "words/s", len(a)),
            "word_latency_ms_p50": _metric(quantile(b_ms, 0.5), "ms", len(b)),
            "word_latency_ms_p90": _metric(quantile(b_ms, 0.9), "ms", len(b)),
            "phase_b_frame_errors": _metric(out["frame_errors"], "words", self.POOL),
        }
        return named, named["words_per_s"], named["word_latency_ms_p50"]


# ---------------------------------------------------------------------------
# genie_f3: genie Monte Carlo construction with a generic F_3 kernel
# ---------------------------------------------------------------------------


class GenieF3:
    name = "genie_f3"
    T = 6
    EPS = 0.05
    RATE = 0.5
    TRIALS = 2000
    REF_T = 5
    REF_Z = 0.3
    REF_TRIALS = 2000

    def setup(self, seed):
        kernel = kernelscope.random_mixing(3, 3, np.random.default_rng([seed, 0]))
        return {"kernel": kernel, "channel": channels.make_qsc(3, self.EPS)}

    def measure(self, inp, seed, seconds, log):
        codes, rss = _repeat(seconds, lambda n: log.call(
            "construct_code", codec.construct_code, inp["kernel"], inp["channel"], self.T,
            rate=self.RATE, rng=np.random.default_rng([seed, 1, n]), genie_trials=self.TRIALS,
        ))
        return {"codes": codes, "rss_mb": rss}

    def check(self, inp, seed, out, log):
        n = 3**self.T
        n_frozen = n - int(round(self.RATE * n))
        for i, code in out["codes"]:
            if code is None:
                continue
            e = code.estimates
            log.check(e.shape == (n,) and bool(np.all((e >= 0) & (e <= 1))),
                      f"construct_code #{i}: estimates outside [0, 1]", [i])
            log.check(len(code.frozen) == n_frozen, f"construct_code #{i}: {len(code.frozen)} frozen", [i])
        # Untimed reference: the same genie engine on the erasure channel
        # given as a plain table, against exact tree values.  An erased
        # index is guessed wrong with probability 1 - 1/q.
        kernel = inp["kernel"]
        table = channels.make_table_channel(3, channels.make_erasure(3, self.REF_Z).w)
        rates = codec.genie_error_rates(kernel, table, self.REF_T, self.REF_TRIALS,
                                        np.random.default_rng([seed, 2]))
        exact = polarlab.evolve_tree(kernel, self.REF_Z, self.REF_T).values
        counts = np.rint(rates * self.REF_TRIALS).astype(np.int64)
        p = (1 - 1 / 3) * exact
        ok = binomial_consistent(counts, self.REF_TRIALS, p, p, z=6.0)
        every = [i for i, _ in out["codes"]]
        log.check(bool(ok.all()),
                  f"genie reference: indices {np.flatnonzero(~ok).tolist()} off the exact rates", every)
        log.check(bool(np.all(counts[exact == 0] == 0)),
                  "genie reference: errors at an index whose exact rate is 0", every)

    def report(self, out, log):
        s = log.times("construct_code")
        ms = [1e3 * x for x in s]
        named = {
            "genie_trials_per_s": _metric(self.TRIALS / quantile(s, 0.5), "trials/s", len(s)),
            "construct_ms_p50": _metric(quantile(ms, 0.5), "ms", len(s)),
        }
        return named, named["genie_trials_per_s"], named["construct_ms_p50"]


# ---------------------------------------------------------------------------
# kernel_report, exponents, polarize: exact kernel analysis, no codec calls.
# Each job is its own workload, so each has its own gated metrics; within a
# job the F_2 kernel sets latency_ms_p50 and the F_3 kernel work_per_s, so a
# binary fast path and the generic path are gated apart.
# ---------------------------------------------------------------------------


def _check_patterns(m, ops, log, key):
    """Pattern-count identities of ``erasure_polynomials(m)``; returns the polynomials."""
    polys = polarlab.erasure_polynomials(m)
    errors = pattern_identity_errors(polys)
    log.check(not errors, f"pattern counts of {key}: {errors}", ops)
    return polys


def _split_report(log, f2_kind, f3_kind, total_name):
    """Named metrics of a job run on an F_2 and an F_3 kernel per round."""
    f2 = log.times(f2_kind)
    f3 = log.times(f3_kind)
    named = {
        total_name: _metric(np.median(f2) + np.median(f3), "s", len(f2)),
        f"{f2_kind}_ms_p50": _metric(1e3 * np.median(f2), "ms", len(f2)),
        f"{f3_kind}_per_s": _metric(1 / np.median(f3), "1/s", len(f3)),
    }
    return named, named[f"{f3_kind}_per_s"], named[f"{f2_kind}_ms_p50"]


class KernelReport:
    name = "kernel_report"
    K12_BLOCK = 2
    # Three k=12 kernels, each reported once a round: one report takes ~0.5 s
    # against ~6 s for k=15, and its cost varies by ~10% from kernel to kernel.
    K12_KERNELS = 3

    def setup(self, seed):
        ref = load_reference()["k15"]
        rng = np.random.default_rng([seed, 0])
        return {
            "k15": fqlin.FqMatrix(2, [[int(b) for b in row] for row in ref["rows"]]),
            "k15_block": ref["block_cols"],
            "k12": [fqlin.kron(kernelscope.random_mixing(3, 3, rng), kernelscope.random_mixing(3, 4, rng))
                    for _ in range(self.K12_KERNELS)],
        }

    def measure(self, inp, seed, seconds, log):
        rounds, rss = _repeat(seconds, lambda _: {
            "k15": [log.call("report_k15", kernelscope.kernel_report, inp["k15"], block_cols=inp["k15_block"])],
            "k12": [log.call("report_k12", kernelscope.kernel_report, k12, block_cols=self.K12_BLOCK)
                    for k12 in inp["k12"]],
        })
        return {"rounds": rounds, "rss_mb": rss}

    def check(self, inp, seed, out, log):
        ref = load_reference()["k15"]
        for i, rep in (c for r in out["rounds"] for c in r["k15"]):
            if rep is not None:
                log.check(rep.mixing and rep.distance == ref["distance"]
                          and [int(d) for d in rep.exponents] == ref["exponents"],
                          f"kernel_report #{i} (k=15): mixing={rep.mixing} distance={rep.distance} "
                          f"exponents={rep.exponents}", [i])
        for j, k12 in enumerate(inp["k12"]):
            calls = [r["k12"][j] for r in out["rounds"]]
            exponents = polarlab.leading_exponents(_check_patterns(k12, [i for i, _ in calls], log, f"k12[{j}]")).d
            for i, rep in calls:
                if rep is not None:
                    log.check(rep.mixing and kernelscope.verify_witness(rep.witness, k12)
                              and rep.exponents is not None and np.array_equal(rep.exponents, exponents),
                              f"kernel_report #{i} (k12[{j}]): mixing={rep.mixing} exponents={rep.exponents}", [i])

    def report(self, out, log):
        return _split_report(log, "report_k15", "report_k12", "kernel_report_s")


class Exponents:
    name = "exponents"
    DELTAS = (1e-2, 1e-3, 1e-4)  # the CLI's default exponent grid
    CHECK_DELTA = 1e-2
    F3_PER_ROUND = 50  # the F_3 call takes ~5 ms against ~3 s for arikan^3

    def setup(self, seed):
        return {
            "a8": fqlin.kron_power(_arikan(), 3),
            "f3": kernelscope.random_mixing(3, 4, np.random.default_rng([seed, 0])),
        }

    def measure(self, inp, seed, seconds, log):
        rounds, rss = _repeat(seconds, lambda _: {
            "a8": [log.call("exponents_a8", entropy.polarization_exponents, inp["a8"],
                            entropy.erasure_family(2), self.DELTAS)],
            "f3": [log.call("exponents_f3", entropy.polarization_exponents, inp["f3"],
                            entropy.erasure_family(3), self.DELTAS) for _ in range(self.F3_PER_ROUND)],
        })
        return {"rounds": rounds, "rss_mb": rss}

    def check(self, inp, seed, out, log):
        for key in ("a8", "f3"):
            calls = [c for r in out["rounds"] for c in r[key]]
            polys = _check_patterns(inp[key], [i for i, _ in calls], log, key)
            for i, ex in calls:
                if ex is None:
                    continue
                at = int(np.flatnonzero(ex.deltas == self.CHECK_DELTA)[0])
                gap = float(np.max(np.abs(ex.profiles[at] - polys.evaluate(self.CHECK_DELTA))))
                log.check(gap <= 1e-12, f"exponents #{i} ({key}): profile off erasure polynomials by {gap:.3e}", [i])

    def report(self, out, log):
        return _split_report(log, "exponents_a8", "exponents_f3", "exponents_s")


def _polarize(m, z0, t, lam, gamma, threshold):
    levels = polarlab.evolve_tree(m, z0, t, return_all=True)
    return levels, polarlab.polarization_report(levels, lam, gamma, threshold)


class Polarize:
    name = "polarize"
    POLARIZE = dict(z0=0.5, t=19, lam=0.45, gamma=0.8, threshold=1e-6)  # CLI defaults

    def setup(self, seed):
        return {"kernel": _arikan()}

    def measure(self, inp, seed, seconds, log):
        def one(_):
            # Each call's 2^20 tree values are reduced to what check() needs
            # as soon as it returns (untimed); keeping them all would grow
            # the process by ~8 MB a call.
            i, res = log.call("polarize", _polarize, inp["kernel"], **self.POLARIZE)
            if res is None:
                return i, None
            levels, rep = res
            return i, ([lev.mean for lev in levels], levels[-1].values.size,
                       np.concatenate([rep.fraction_exp, rep.fraction_strong, rep.rate_at_threshold]))

        calls, rss = _repeat(seconds, one)
        return {"calls": calls, "rss_mb": rss}

    def check(self, inp, seed, out, log):
        for i, res in out["calls"]:
            if res is None:
                continue
            means, leaves, fracs = res
            log.check(len(means) == self.POLARIZE["t"] + 1
                      and leaves == 2 ** self.POLARIZE["t"]
                      and max(abs(m - self.POLARIZE["z0"]) for m in means) <= 1e-9
                      and bool(np.all((fracs >= 0) & (fracs <= 1))),
                      f"polarize #{i}: level means {min(means)}..{max(means)} (martingale broken)", [i])

    def report(self, out, log):
        s = log.times("polarize")
        named = {
            "polarize_s": _metric(np.median(s), "s", len(s)),
            "polarize_per_s": _metric(1 / np.median(s), "1/s", len(s)),
            "polarize_ms_p50": _metric(1e3 * np.median(s), "ms", len(s)),
        }
        return named, named["polarize_per_s"], named["polarize_ms_p50"]


WORKLOADS = {w.name: w for w in (FerArikan(), GenieF3(), KernelReport(), Exponents(), Polarize())}

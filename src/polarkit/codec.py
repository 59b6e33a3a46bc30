"""Generic-kernel polar encoder, SC decoder and failure-rate experiments.

Conventions, fixed once for the whole package: the analysis-side transform is
u = x @ M^{tensor t} with plain lexicographic indexing and no index-reversal
permutation, so a codeword is transmitted as x = u @ (M^{-1})^{tensor t} and
the receiver reasons about u directly.  In this layout the tensor power
factors block-wise: splitting x into k consecutive blocks x^(s) of length
k^(t-1) and writing v^(s) for their depth-(t-1) transforms, block a of u is
u^(a) = sum_s M[s, a] v^(s).  Successive cancellation walks the u indices in
lexicographic order; at each kernel node it enumerates all q^k child-symbol
combinations against their posteriors (constant work per node for a fixed
kernel), decides frozen positions by fiat and information positions by
maximum posterior with ties toward the smallest field element.

The decoder is fully batched: all posteriors carry a leading word axis, so a
Monte Carlo experiment decodes its whole trial block through one recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channels import Channel, sample_outputs, validate_symmetric
from .fqlin import FqMatrix, enumeration_budget, qary_words, tensor_apply
from .polarlab import evolve_tree

__all__ = [
    "PolarCode",
    "DecodeResult",
    "FerResult",
    "construct_code",
    "encode",
    "sc_decode",
    "fer_experiment",
    "genie_error_rates",
]

DEFAULT_CODE_BUDGET = 10**6


@dataclass(frozen=True)
class PolarCode:
    """A frozen-set polar code: kernel, depth, frozen positions and values.

    ``estimates`` holds the per-index reliability-loss numbers the frozen set
    was chosen from (exact synthetic erasure rates, or genie decision-error
    frequencies); the frozen set is exactly the argmax block of them.
    """

    kernel: FqMatrix
    t: int
    channel: Channel
    frozen: np.ndarray
    frozen_values: np.ndarray
    estimates: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def q(self) -> int:
        return self.kernel.q

    @property
    def block_length(self) -> int:
        return self.kernel.rows**self.t

    @property
    def info(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.block_length), self.frozen)

    @property
    def rate(self) -> float:
        return 1.0 - len(self.frozen) / self.block_length

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_dict(),
            "t": self.t,
            "channel": self.channel.to_dict(),
            "frozen": [int(i) for i in self.frozen],
            "frozen_values": [int(v) for v in self.frozen_values],
            "estimates": [float(e) for e in self.estimates],
            "meta": self.meta,
        }


@dataclass(frozen=True)
class DecodeResult:
    """SC output: information-symbol estimates plus optional extras."""

    message: np.ndarray
    u_hat: np.ndarray
    posteriors: np.ndarray | None = None
    success: bool | None = None


@dataclass(frozen=True)
class FerResult:
    """Failure count with a Wilson 95% interval."""

    failures: int
    trials: int
    fer: float
    ci_low: float
    ci_high: float


@lru_cache(maxsize=32)
def _kernel_tables(q: int, k: int, arr_bytes: bytes):
    """Per-kernel precomputation for the SC node: tuples, transforms, one-hots."""
    m = np.frombuffer(arr_bytes, dtype=np.int64).reshape(k, k)
    tuples = qary_words(q, k)
    trans = tuples @ m % q
    onehots = [
        (trans[:, a][:, None] == np.arange(q)[None, :]).astype(np.float64)
        for a in range(k)
    ]
    inv = FqMatrix(q, m).inverse().arr
    return tuples, trans, onehots, inv


class _ScEngine:
    """Batched successive-cancellation recursion for one kernel."""

    def __init__(self, kernel: FqMatrix):
        self.q = kernel.q
        self.k = kernel.rows
        self.tuples, self.trans, self.onehots, self.kernel_inv = _kernel_tables(
            kernel.q, kernel.rows, kernel.arr.tobytes()
        )

    def run(self, pi, t, frozen_mask=None, frozen_values=None, genie=None, keep_posteriors=False):
        """Decode a batch. pi has shape (B, k^t, q) of per-position posteriors.

        Returns (u_hat, errors, leaf_posteriors); errors is None outside genie
        mode, in which decisions are forced to the true symbols after the
        per-index decision errors are recorded.
        """
        b, n, _ = pi.shape
        if n != self.k**t:
            raise ValueError(f"posterior block length {n} does not match k^t = {self.k**t}")
        self._frozen_mask = frozen_mask
        self._frozen_values = frozen_values
        self._genie = genie
        self._u_hat = np.zeros((b, n), dtype=np.int64)
        self._errors = None if genie is None else np.zeros((b, n), dtype=bool)
        self._posteriors = np.zeros((b, n, self.q)) if keep_posteriors else None
        self._rec(pi, t, 0)
        return self._u_hat, self._errors, self._posteriors

    def _rec(self, pi, level, base):
        # depth is tracked explicitly: with a 1x1 kernel every node has a
        # single position yet still applies the kernel map once per level
        b, n, q = pi.shape
        if level == 0:
            return self._leaf(pi, base)
        k = self.k
        sub = n // k
        children = pi.reshape(b, k, sub, q)
        # weight of every q^k child-symbol combination, per position
        w = np.ones((b, sub, q**k))
        for s in range(k):
            w *= children[:, s][:, :, self.tuples[:, s]]
        decided = np.zeros((b, sub, 0), dtype=np.int64)
        for a in range(k):
            if a == 0:
                wm = w
            else:
                mask = (self.trans[None, None, :, :a] == decided[:, :, None, :]).all(-1)
                wm = w * mask
            virt = wm @ self.onehots[a]
            total = virt.sum(axis=-1, keepdims=True)
            dead = total[..., 0] <= 0.0
            if dead.any():
                # contradictory earlier decisions; fall back to uniform
                virt[dead] = 1.0
                total = virt.sum(axis=-1, keepdims=True)
            virt = virt / total
            d_hat = self._rec(virt, level - 1, base + a * sub)
            decided = np.concatenate([decided, d_hat[:, :, None]], axis=2)
        # child codeword symbols from the decided kernel outputs
        ctup = decided @ self.kernel_inv % self.q
        return np.swapaxes(ctup, 1, 2).reshape(b, n)

    def _leaf(self, pi, index):
        if self._posteriors is not None:
            self._posteriors[:, index, :] = pi[:, 0, :]
        if self._genie is not None:
            dec = np.argmax(pi[:, 0, :], axis=1)
            truth = self._genie[:, index]
            self._errors[:, index] = dec != truth
            self._u_hat[:, index] = truth
            return truth[:, None].copy()
        if self._frozen_mask is not None and self._frozen_mask[index]:
            dec = np.full(pi.shape[0], self._frozen_values[index], dtype=np.int64)
        else:
            dec = np.argmax(pi[:, 0, :], axis=1)
        self._u_hat[:, index] = dec
        return dec[:, None]


def _channel_posteriors(channel: Channel, y: np.ndarray) -> np.ndarray:
    """Per-position posteriors P(x | y) under a uniform input prior."""
    wt = channel.w.T  # (m, q)
    pi = wt[y]
    total = pi.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("received symbol with zero likelihood under every input")
    return pi / total


def construct_code(
    kernel: FqMatrix,
    channel: Channel,
    t: int,
    rate: float | None = None,
    threshold: float | None = None,
    rng: np.random.Generator | None = None,
    genie_trials: int = 10_000,
    frozen_zero: bool = False,
    budget=None,
) -> PolarCode:
    """Choose the frozen set from per-index reliability estimates.

    Erasure channels get exact synthetic erasure rates from full-tree density
    evolution; every other symmetric channel is profiled by genie-aided Monte
    Carlo (decode known uniform data with all previous symbols revealed and
    record per-index decision-error frequencies).  Exactly one of ``rate`` and
    ``threshold`` selects the frozen block: the |F| highest estimates, or all
    indices whose estimate exceeds the threshold.  Frozen values default to a
    uniform random affine shift; ``frozen_zero`` pins them to zero.
    """
    cert = validate_symmetric(channel)
    if not cert.ok:
        raise ValueError(f"code construction requires a symmetric channel: {cert.reason}")
    n = kernel.rows**t
    budget = enumeration_budget(DEFAULT_CODE_BUDGET) if budget is None else budget
    if n > budget:
        raise ValueError(f"block length budget exceeded: {n} > {budget}")
    if (rate is None) == (threshold is None):
        raise ValueError("give exactly one of rate or threshold")

    if channel.kind == "erasure":
        estimates = evolve_tree(kernel, channel.param, t, budget=budget).values.copy()
        method = "exact-erasure-tree"
    else:
        if rng is None:
            raise ValueError("genie construction needs an rng")
        estimates = genie_error_rates(kernel, channel, t, genie_trials, rng)
        method = f"genie-mc-{genie_trials}"

    if rate is not None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        n_info = int(round(rate * n))
        order = np.argsort(estimates, kind="stable")
        frozen = np.sort(order[n_info:])
    else:
        frozen = np.flatnonzero(estimates > threshold)

    if frozen_zero:
        frozen_values = np.zeros(len(frozen), dtype=np.int64)
    else:
        if rng is None:
            raise ValueError("random frozen values need an rng (or pass frozen_zero=True)")
        frozen_values = rng.integers(0, kernel.q, size=len(frozen))
    meta = {"method": method, "rate_target": rate, "threshold": threshold}
    return PolarCode(kernel, t, channel, frozen, frozen_values, estimates, meta)


def encode(code: PolarCode, message) -> np.ndarray:
    """Assemble u from frozen values and message symbols, transmit u @ (M^-1)^t.

    The transform of the transmitted word then recovers u exactly:
    x @ M^{tensor t} = u.  ``message`` may carry leading batch axes.
    """
    message = np.asarray(message, dtype=np.int64) % code.q
    info = code.info
    if message.shape[-1] != len(info):
        raise ValueError(f"message length must be {len(info)}, got {message.shape[-1]}")
    n = code.block_length
    u = np.zeros(message.shape[:-1] + (n,), dtype=np.int64)
    u[..., code.frozen] = code.frozen_values
    u[..., info] = message
    inv = FqMatrix(code.q, _kernel_tables(code.q, code.kernel.rows, code.kernel.arr.tobytes())[3])
    return tensor_apply(inv, code.t, u)


def _decode_batch(code: PolarCode, y: np.ndarray, channel: Channel, keep_posteriors=False):
    engine = _ScEngine(code.kernel)
    n = code.block_length
    frozen_mask = np.zeros(n, dtype=bool)
    frozen_mask[code.frozen] = True
    frozen_values = np.zeros(n, dtype=np.int64)
    frozen_values[code.frozen] = code.frozen_values
    pi = _channel_posteriors(channel, y)
    u_hat, _, posteriors = engine.run(
        pi, code.t, frozen_mask=frozen_mask, frozen_values=frozen_values,
        keep_posteriors=keep_posteriors,
    )
    return u_hat, posteriors


def sc_decode(code: PolarCode, y, channel: Channel | None = None,
              keep_posteriors: bool = False, true_message=None) -> DecodeResult:
    """Successive-cancellation decode of one received word.

    Parameters
    ----------
    code : PolarCode
        Code whose frozen positions and values steer the decisions.
    y : array-like of int, length N
        Received word over the channel's output alphabet.
    channel : Channel, optional
        Channel whose table converts y into posteriors; defaults to the
        construction channel.
    keep_posteriors : bool
        Retain the per-index decision posteriors in the result.
    true_message : array-like of int, optional
        When given, the result carries a success flag against it.

    Returns
    -------
    DecodeResult
        Information-symbol estimates in lexicographic index order, the full
        u-domain estimate, and the optional extras above.
    """
    channel = channel or code.channel
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (code.block_length,):
        raise ValueError(f"received word must have length {code.block_length}")
    u_hat, posteriors = _decode_batch(code, y[None, :], channel, keep_posteriors)
    message = u_hat[0][code.info]
    success = None
    if true_message is not None:
        success = bool(np.array_equal(message, np.asarray(true_message) % code.q))
    return DecodeResult(message, u_hat[0], None if posteriors is None else posteriors[0], success)


def genie_error_rates(
    kernel: FqMatrix, channel: Channel, t: int, trials: int, rng: np.random.Generator,
    batch: int = 1024,
) -> np.ndarray:
    """Per-index decision-error frequencies with all previous symbols revealed.

    Transmits known uniform data; at each index the SC decision is compared
    with the truth and then replaced by it, so every index is profiled under
    error-free conditioning.
    """
    n = kernel.rows**t
    engine = _ScEngine(kernel)
    inv = FqMatrix(kernel.q, engine.kernel_inv)
    # draw all randomness up front so the estimate is batch-size independent
    u = rng.integers(0, kernel.q, size=(trials, n))
    x = tensor_apply(inv, t, u)
    y = sample_outputs(channel, x, rng)
    err_total = np.zeros(n)
    for lo in range(0, trials, batch):
        hi = min(lo + batch, trials)
        pi = _channel_posteriors(channel, y[lo:hi])
        _, errors, _ = engine.run(pi, t, genie=u[lo:hi])
        err_total += errors.sum(axis=0)
    return err_total / trials


def _wilson(failures: int, trials: int, z: float = 1.959963984540054):
    p = failures / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == trials else min(1.0, center + half)
    return lo, hi


def fer_experiment(
    code: PolarCode,
    channel: Channel,
    trials: int,
    rng: np.random.Generator,
    workers: int = 1,
    batch: int = 1024,
) -> FerResult:
    """Monte Carlo frame-error rate with a Wilson 95% interval.

    Parameters
    ----------
    code : PolarCode
    channel : Channel
        Transmission channel (need not be the construction channel).
    trials : int
        Number of (message, encode, transmit, decode) rounds.
    rng : numpy.random.Generator
        Root generator; spawned into one child stream per worker.
    workers : int
        Stream-partition count.  Part of the reproducibility key: identical
        (seed, workers) gives identical counts regardless of internal batching,
        because decoding consumes no randomness.
    batch : int
        Words decoded per recursion pass; affects memory only.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if workers < 1:
        raise ValueError("need at least one worker")
    streams = rng.spawn(workers)
    per = [trials // workers + (1 if i < trials % workers else 0) for i in range(workers)]
    info = code.info
    failures = 0
    for wrng, tw in zip(streams, per):
        if tw == 0:
            continue
        messages = wrng.integers(0, code.q, size=(tw, len(info)))
        x = encode(code, messages)
        y = sample_outputs(channel, x, wrng)
        for lo in range(0, tw, batch):
            hi = min(lo + batch, tw)
            u_hat, _ = _decode_batch(code, y[lo:hi], channel)
            bad = np.any(u_hat[:, info] != messages[lo:hi], axis=1)
            failures += int(bad.sum())
    fer = failures / trials
    lo, hi = _wilson(failures, trials)
    return FerResult(failures, trials, fer, lo, hi)

"""Generic-kernel polar encoder, SC decoder and failure-rate experiments.

Conventions, fixed once for the whole package: the analysis-side transform is
u = x @ M^{tensor t} with plain lexicographic indexing and no index-reversal
permutation, so a codeword is transmitted as x = u @ (M^{-1})^{tensor t} and
the receiver reasons about u directly.  In this layout the tensor power
factors block-wise: splitting x into k consecutive blocks x^(s) of length
k^(t-1) and writing v^(s) for their depth-(t-1) transforms, block a of u is
u^(a) = sum_s M[s, a] v^(s).  Successive cancellation walks the u indices in
lexicographic order.  A kernel node weighs all q^k child-symbol words c by
their posteriors (constant work per node for a fixed kernel) and indexes the
weights by the kernel output v = cM.  Output a's decision law is then the sum
over the trailing v digits; once output a is decided, only the slice of the
weights with that digit is kept.  Frozen positions are decided by fiat and
information positions by maximum posterior, ties going to the smallest field
element: a symbol within 1e-12 of the top posterior is a tie, so that float
summation order never breaks an exact one.

The decoder is fully batched.  A Monte Carlo experiment runs in fixed chunks
of ``_CHUNK`` trials, and a chunk is a random stream: chunk i draws from its
own, child i of the caller's generator, so results depend only on (seed,
trials).  A block is a unit of memory: a chunk draws its messages whole,
then encodes, samples and decodes one block of words at a time, as many as
have top kernel node weights, q^k * (N/k) floats per word, of about
``_BLOCK_BYTES``.  Memory follows the block, not the trial count, and the
outputs do not depend on it: blocks draw their noise from the chunk's
stream in order, the same doubles as one chunk-wide draw, and SC decides
each word alone.  A single word over the "SC node weights" budget of 2^22
floats is refused.

Posteriors are symbol-major, shape (q, positions, words): a node's child s
is one contiguous (q, sub * B) slab, each of the q^k weight rows and every
sum over them runs over sub * B contiguous values, and the leaf reads its
(B, q) posteriors as a view.  They are gathered by received symbol from one
(q, outputs) table of P(x | y).  The transforms around the recursion are
position-major too: ``encode`` assembles u as (positions, words) in the
smallest dtype that holds a symbol, the layout ``tensor_apply`` works in,
and the recursion's (positions, words) codeword goes back through it as it
is.

Genie profiling needs no recursion: every decision is the truth, drawn before
decoding starts, so no node waits for another, and each tree level, root
first, is one set of array operations over all its nodes.  Posteriors are
held truth-relative, pi'(c) = P(x + c | y) with x the transmitted symbol,
gathered from one (q, q * outputs) table by the key x * outputs + y.  The
kernel is linear, so in these coordinates kernel output v' weighs what
v' + v_true weighed, conditioning on the true prefix keeps the leading block
of q^(k-a) weights, and every child's truth is 0 again.  Only the leaves go
back to the original coordinates, where the decision rule is applied as in
decoding.  The pass runs block by block too, each block's truth encoded and
sampled on its own.

The genie pass runs its chunks as lanes: W of them, one per core up to one
per chunk and at most ``_LANES``, lane j taking chunks j, j + W, ... in
order on a thread of its own (lane 0 on the caller's), each with blocks of
1/W of the serial width, so the node weights in flight stay about
``_BLOCK_BYTES``.  Chunks own their streams and the lanes' error counts are
integers, so the estimate does not depend on W; with one chunk or one core
no thread starts.  numpy releases the GIL inside each array operation, which
is what the lanes overlap.  Two lanes are the most measured, and more would
split each block finer: two lanes of 1/4 of the serial width ran no faster
than one lane, and of 1/8 slower, because their shorter numpy calls contend
for the GIL.  Each lane also holds its chunk's int64 truth draw, 8 * 1024 *
N bytes, so a second lane runs only while the draws in flight fit
``_DRAW_BYTES``.  Each lane's level arrays are allocated once, before the
lanes start, and every block and level writes into them with ``out=``:
allocated level by level inside the lanes, they churn glibc's per-thread
malloc arenas, whose freed pages no other arena reuses, and ``genie_f3``
read 58 MB peak RSS against 51 (the serial pass reads 54).  A lane that
fails, or an interrupt on the caller's, stops the other lanes at their next
block.  ``fer_experiment`` stays serial, since the SC recursion holds the
GIL through its Python work at every node.

Decoding skips two kinds of subtree whose output is known exactly.  An
all-frozen subtree returns its own codeword, the depth-l transform of its
frozen values, cached per code.  Any other subtree above the leaves, down to
the maximal all-information ones, returns the hard decisions c* = argmax pi
of its inputs when eta, the sum over its input positions of 1 - max_x pi(x),
is below 1/4 on every word of the batch.  Proof sketch, for any kernel over
any F_q: at a node the hard-decision child word c* has weight prod_s
pi_s(c*_s) >= 1 - sum_s eta_s, and conditioning on decisions that agree with
v* = c*M only renormalises, so every child input is at least that sure of its
v* digit and its own eta is at most the node's.  By induction every leaf's
top posterior exceeds 3/4, far outside the tie window, so SC decides each
information index as u* = c* M^{tensor l} does; if u* carries the frozen
values too, every decision agrees with u*, no node is dead, and the subtree's
codeword is c*.  Where some input is uncertain (eta > 0), a confident hard
decision may be wrong and SC's frozen fiat would correct it, so the node
checks that u* carries the frozen values.  Where every input is certain
(eta = 0), u* can miss one only if an earlier decision was wrong, on a word
SC fails, so the check is made once per word: a certified subtree's block of
the final u is its u*, and a word whose u misses a frozen value is decoded
again, certifying only the subtrees that hold no frozen index.  A posterior
that rounds to 1 counts as certain; the per-word check keeps that exact.  On
erasure channels eta < 1/4 reads "no erased input", so eta = 0.  In a batch,
word 0's eta is tested first, so the test over the whole batch runs only
where word 0's passes.  The decisions u are recovered from the root codeword
as x M^{tensor t}.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .channels import Channel, sample_outputs, validate_symmetric
from .fqlin import FqMatrix, _residues, check_budget, qary_words, tensor_apply
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

# trials per Monte Carlo chunk: one random stream each
_CHUNK = 1024
# bytes of top-level float64 node weights per block of words: Monte Carlo
# passes encode, sample and decode one block at a time
_BLOCK_BYTES = 2**22
# most genie lanes: two is the most measured, and more would split each
# block into calls short enough to contend for the GIL
_LANES = 2
# bytes of chunk-wide int64 truth draws the genie lanes may hold at once;
# a single lane runs whatever its draw
_DRAW_BYTES = 2**24
# a decision takes the smallest symbol within this much of the top posterior:
# the summation order alone must not break an exact tie
_TIE = 1e-12


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

    def __post_init__(self):
        # ``info`` and the SC plan are cached from these, so they must not change
        for name in ("frozen", "frozen_values"):
            arr = np.asarray(getattr(self, name))
            if arr.size and arr.dtype.kind not in "iu":
                raise ValueError(f"{name} must be integers; got an array of {arr.dtype}")
            arr = arr.astype(np.int64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # encode and the SC plan both read frozen_values[i] as the value of
        # position frozen[i]
        frozen, values, n = self.frozen, self.frozen_values, self.block_length
        if frozen.ndim != 1 or values.shape != frozen.shape:
            raise ValueError(f"need one frozen value per frozen index; got {values.size} for {frozen.size}")
        if frozen.size and (frozen.min() < 0 or frozen.max() >= n):
            raise ValueError(f"frozen indices must lie in [0, {n})")
        if len(np.unique(frozen)) != len(frozen):
            raise ValueError("frozen indices must be distinct")

    @property
    def q(self) -> int:
        return self.kernel.q

    @property
    def block_length(self) -> int:
        return self.kernel.rows**self.t

    @cached_property
    def info(self) -> np.ndarray:
        info = np.setdiff1d(np.arange(self.block_length), self.frozen)
        info.flags.writeable = False
        return info

    @cached_property
    def _sc_plan(self) -> _ScPlan:
        """Built on first decode, not at construction."""
        return _ScPlan.build(self)

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
    """SC output: information-symbol estimates and the full u-domain estimate."""

    message: np.ndarray
    u_hat: np.ndarray


@dataclass(frozen=True)
class FerResult:
    """Failure count with a Wilson 95% interval."""

    failures: int
    trials: int
    fer: float
    ci_low: float
    ci_high: float


class _ScPlan(NamedTuple):
    """Per-code SC data, reused by every decode of the code.

    ``rate0`` maps each maximal all-frozen subtree (level, base) to its local
    codeword, so every frozen index, a one-index subtree at least, is
    answered there and never reaches the leaf.  ``certify`` holds the nodes
    above the leaves that try the certificate: every maximal all-information
    subtree and every node with both kinds of index.  ``frozen_free`` is its
    subset that holds no frozen index, where the certificate is exact
    without the frozen check (see the module docstring).  ``frozen`` and
    ``values`` are the (N,) frozen mask and frozen values (0 elsewhere) that
    the node's frozen check reads by slicing a node's span, so the plan holds
    O(N) entries and no per-node array.
    """

    rate0: dict
    certify: frozenset
    frozen_free: frozenset
    frozen: np.ndarray
    values: np.ndarray

    @classmethod
    def build(cls, code: PolarCode) -> _ScPlan:
        k, n = code.kernel.rows, code.block_length
        mask = np.zeros(n, dtype=bool)
        mask[code.frozen] = True
        values = np.zeros(n, dtype=np.int64)
        values[code.frozen] = code.frozen_values % code.q  # as encode reads them
        inv = _inverse(code.kernel)
        rate0, certify, frozen_free = {}, set(), set()

        def visit(level, base):
            span = slice(base, base + k**level)
            if mask[span].all():
                # the subtree's own transform, not a slice of the global one
                codeword = tensor_apply(inv, level, values[span])
                codeword.flags.writeable = False
                rate0[level, base] = codeword
            elif level > 0:
                certify.add((level, base))
                if not mask[span].any():
                    frozen_free.add((level, base))
                    return
                for a in range(k):
                    visit(level - 1, base + a * k ** (level - 1))

        visit(code.t, 0)
        mask.flags.writeable = values.flags.writeable = False
        return cls(rate0, frozenset(certify), frozenset(frozen_free), mask, values)


@lru_cache(maxsize=32)
def _inverse(kernel: FqMatrix) -> FqMatrix:
    return kernel.inverse()


def _v_table(kernel: FqMatrix, n: int):
    """Per-kernel SC tables for block length N = n.

    For each kernel output v (in ``qary_words`` order) with child word
    c = v M^-1, ``order[v]`` splits the index of c into (index of
    c_0..c_{k-2}, c_{k-1}), so a node builds its combination weights straight
    in v order; column v of the (k, q^k) ``words`` is c itself.  Tables of
    more than 10^6 words, then a single word whose top kernel node weights,
    q^k * (n/k) floats, exceed the "SC node weights" budget of 2^22 floats,
    are refused (BudgetExceeded) before the cache is consulted, so a lowered
    budget holds for a kernel already cached.  Returns (order, words).
    """
    q, k = kernel.q, kernel.rows
    check_budget("kernel node table", q**k, 10**6)
    check_budget("SC node weights", q**k * (n // k), 2**22)
    return _node_table(kernel)


def _block_words(q: int, k: int, n: int) -> int:
    """Words per block: their top kernel node weights, q^k * (n/k) floats per
    word, take about ``_BLOCK_BYTES`` (at least one word)."""
    return max(1, _BLOCK_BYTES * k // (8 * q**k * n))


@lru_cache(maxsize=32)
def _node_table(kernel: FqMatrix):
    q, k = kernel.q, kernel.rows
    words = qary_words(q, k) @ _inverse(kernel).arr % q
    high, low = np.divmod(words @ q ** np.arange(k - 1, -1, -1), q)
    order = tuple(zip(high.tolist(), low.tolist()))
    words = np.ascontiguousarray(words.T)
    words.flags.writeable = False
    return order, words


def _sc(kernel: FqMatrix, pi: np.ndarray, t: int, leaf, plan: _ScPlan | None = None) -> np.ndarray:
    """Batched successive cancellation over symbol-major (q, k^t, B) posteriors.

    ``leaf(i, p)`` is called once per u index, in increasing order, with the
    (B, q) decision posteriors of index i; it returns the (B,) symbols the
    rest of the recursion conditions on.  All per-run state lives in the leaf.
    Returns the (k^t, B) codeword x of the decisions, x M^{tensor t} = u.

    With a ``plan``, all-frozen subtrees and the ``plan.certify`` subtrees
    whose certificate holds are answered directly, and the leaf is not called
    for their indices.  A subtree whose inputs are all certain is answered
    without its frozen check (see the module docstring), so the result is
    SC's only for words whose u carries every frozen value.  ``_decode_batch``
    checks that per word; any other caller must too, or pass
    ``plan._replace(certify=plan.frozen_free)``.
    """
    q, k = kernel.q, kernel.rows
    _, n, b = pi.shape
    if n != k**t:
        raise ValueError(f"posterior block length {n} does not match k^t = {k**t}")
    order, words = _v_table(kernel, n)
    rate0, certify = ({}, frozenset()) if plan is None else (plan.rate0, plan.certify)

    def certified(pi, level, base):
        """c* = argmax pi when the certificate holds on every word, else None."""
        # word 0 alone first: every word must pass, so a large batch pays the
        # whole test only where word 0 passes
        if b > 1 and not (1.0 - pi[:, :, 0].max(axis=0)).sum() < 0.25:
            return None
        top = pi.max(axis=0)
        eta = (1.0 - top).sum(axis=0)
        if not (eta < 0.25).all():
            return None
        # every top posterior exceeds 3/4, so argmax is the one symbol above 1/2
        c = np.zeros(top.shape, dtype=np.int64)
        for x in range(1, q):
            c[pi[x] > 0.5] = x
        # an uncertain input may be decided wrong, which SC's frozen fiat
        # would correct, so u* = c* M^{tensor level} must carry the frozen
        # values; certain inputs leave that to _decode_batch's per-word check
        if (level, base) not in plan.frozen_free and eta.any():
            span = slice(base, base + len(top))
            fixed = plan.frozen[span]
            if not (tensor_apply(kernel, level, c.T)[:, fixed] == plan.values[span][fixed]).all():
                return None
        return c

    def node(pi, level, base):
        if (level, base) in certify:
            c = certified(pi, level, base)
            if c is not None:
                return c
        sub = pi.shape[1] // k
        m = sub * b
        w = _node_weights(pi.reshape(q, k, m), order)
        cols = np.arange(m)
        v = 0  # index of the decided kernel outputs so far
        for a in range(k):
            child = base + a * sub
            frozen_child = rate0.get((level - 1, child))
            if frozen_child is not None:
                d = frozen_child.repeat(b)
            # depth is tracked explicitly: with a 1x1 kernel every node has a
            # single position yet still applies the kernel map once per level
            elif level == 1:
                d = leaf(child, _law(w, q).T)
            else:
                d = node(_law(w, q).reshape(q, sub, b), level - 1, child).ravel()
            v = v * q + d
            if a + 1 < k:
                # keep the weights whose digit a is the decided symbol
                rest = len(w) // q
                w = w.reshape(q, rest, m)[d, np.arange(rest)[:, None], cols]
        # child codeword symbols of the decided kernel outputs
        return np.take(words, v, axis=1).reshape(k * sub, b)

    root = rate0.get((t, 0))
    if root is not None:
        return root[:, None].repeat(b, axis=1)
    if t == 0:
        return leaf(0, pi[:, 0].T)[None]
    return node(pi, t, 0)


def _node_weights(children: np.ndarray, order, out=None, head=None) -> np.ndarray:
    """Weight of every q^k child-symbol word of a kernel node, in v order.

    ``children`` holds the k children's posteriors as (q, k, m); row v of the
    (q^k, m) result is the product of the children's posteriors of the child
    word v M^-1, with ``order`` from ``_v_table``, so digit a of a row index
    is kernel output a.  Flat float buffers of at least q^k * m and, for
    k > 2, q^(k-1) * m values may be passed as ``out`` and ``head``: the
    weights are written into ``out``, and the products of the leading
    children alternate between the two, the last one in ``head``.
    """
    q, k, m = children.shape
    w = np.empty((q**k, m)) if out is None else out[: q**k * m].reshape(q**k, m)
    if k > 2 and head is None:
        head = np.empty(q ** (k - 1) * m)
    # the last child's factor puts each row in kernel-output order
    h = children[:, 0] if k > 1 else np.ones((1, m))
    for s in range(1, k - 1):
        buf = head if (k - s) % 2 == 0 else w.reshape(-1)
        h = np.multiply(h[:, None], children[None, :, s], out=buf[: len(h) * q * m].reshape(len(h), q, m))
        h = h.reshape(-1, m)
    for row, (c, last) in enumerate(order):
        np.multiply(h[c], children[last, k - 1], out=w[row])
    return w


def _law(w: np.ndarray, q: int, out=None, scratch=None) -> np.ndarray:
    """Normalised (q, m) law of the leading kernel output of (q^j, m) weights.

    Sums over the trailing digits; where every weight is zero, the earlier
    decisions contradict each other (weights are nonnegative, so only a zero
    total) and the law falls back to uniform.  ``out``, if given, receives
    the law: any (q, ...) array, strided or not, whose trailing axes a
    length-m axis reshapes to.  ``scratch``, if given, holds at least
    (q + 1) * m floats for the summed law and its column totals.
    """
    m = w.shape[1]
    sums = totals = None
    if scratch is not None:
        sums, totals = scratch[: q * m].reshape(q, m), scratch[q * m : (q + 1) * m]
    law = w if len(w) == q else w.reshape(q, -1, m).sum(axis=1, out=sums)
    total = law.sum(axis=0, out=totals)
    if not total.all():
        if law is w:
            law = w.copy()
        law[:, total == 0.0] = 1.0
        law.sum(axis=0, out=total)
    if out is None:
        return law / total
    return np.divide(law.reshape(out.shape), total.reshape(out.shape[1:]), out=out)


def _posterior_table(channel: Channel) -> np.ndarray:
    """The (q, outputs) table w / (column totals) of P(x | y), uniform prior.

    Gathering from it uses the same operands, summed in the same order, as
    dividing each gathered w[x, y] by its own sum over x.  An output that no
    input reaches keeps a zero column; ``_check_received`` refuses it.
    """
    total = channel.w.sum(axis=0)
    return channel.w / np.where(total <= 0, 1.0, total)


def _check_received(channel: Channel, y: np.ndarray):
    """Refuses received symbols in ``y`` with zero likelihood under every input."""
    dead = channel.w.sum(axis=0) <= 0
    if dead.any() and np.take(dead, y).any():
        raise ValueError("received symbol with zero likelihood under every input")


def _channel_posteriors(channel: Channel, y: np.ndarray) -> np.ndarray:
    """Symbol-major (q, N, B) posteriors P(x | y) of (B, N) words, uniform prior."""
    _check_received(channel, y)
    return np.take(_posterior_table(channel), y.T, axis=1)


def _check_field(q: int, channel: Channel):
    if channel.q != q:
        raise ValueError(f"the kernel is over F_{q} but the channel is over F_{channel.q}")


def construct_code(
    kernel: FqMatrix,
    channel: Channel,
    t: int,
    rate: float | None = None,
    threshold: float | None = None,
    rng: np.random.Generator | None = None,
    genie_trials: int = 10_000,
    frozen_zero: bool = False,
) -> PolarCode:
    """Choose the frozen set from per-index reliability estimates.

    Erasure channels get exact synthetic erasure rates from full-tree density
    evolution; every other symmetric channel is profiled by genie-aided Monte
    Carlo (decode known uniform data with all previous symbols revealed and
    record per-index decision-error frequencies).  Exactly one of ``rate`` and
    ``threshold`` selects the frozen block: the |F| highest estimates, or all
    indices whose estimate exceeds the threshold.  Frozen values default to a
    uniform random affine shift; ``frozen_zero`` pins them to zero.  The
    block length is capped by a budget of 10^6 (BudgetExceeded beyond it).
    """
    _check_field(kernel.q, channel)
    cert = validate_symmetric(channel)
    if not cert.ok:
        raise ValueError(f"code construction requires a symmetric channel: {cert.reason}")
    if t < 0:
        raise ValueError("tensor depth must be nonnegative")
    n = kernel.rows**t
    check_budget("block length", n, 10**6)
    if (rate is None) == (threshold is None):
        raise ValueError("give exactly one of rate or threshold")
    if rate is not None and not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    if threshold is not None and not math.isfinite(threshold):
        # estimates > nan is all False: a NaN threshold would freeze nothing
        raise ValueError(f"threshold must be finite; got {threshold}")

    if channel.kind == "erasure":
        # ln z, read off the tree's logits: distinct where z rounds to 1
        rank_key = evolve_tree(kernel, channel.param, t).log_values
        estimates = np.exp(rank_key)
        method = "exact-erasure-tree"
    else:
        if rng is None:
            raise ValueError("genie construction needs an rng")
        rank_key = estimates = genie_error_rates(kernel, channel, t, genie_trials, rng)
        method = f"genie-mc-{genie_trials}"

    if rate is not None:
        n_info = int(round(rate * n))
        order = np.argsort(rank_key, kind="stable")
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
    q, info = code.q, code.info
    message = _residues(message, q)
    if message.shape[-1] != len(info):
        raise ValueError(f"message length must be {len(info)}, got {message.shape[-1]}")
    # assembled position-major, the layout tensor_apply works in
    u = np.empty((code.block_length,) + message.shape[:-1], dtype=np.min_scalar_type(q - 1))
    u[code.frozen] = (code.frozen_values % q).reshape((-1,) + (1,) * (message.ndim - 1))
    u[info] = np.moveaxis(message, -1, 0)
    return tensor_apply(_inverse(code.kernel), code.t, np.moveaxis(u, 0, -1))


def _decode_batch(code: PolarCode, y: np.ndarray, channel: Channel) -> np.ndarray:
    """(B, N) decisions u of (B, N) received words, through the pruned plan.

    The plan answers every frozen index, so the leaf decides information
    indices only.  The B words are decoded as one group, so memory follows
    B: the Monte Carlo passes hand over one block at a time.  Words whose u
    misses a frozen value, which SC fails, are decoded again as one group,
    certifying frozen-free subtrees only.
    """
    kernel, t, plan = code.kernel, code.t, code._sc_plan
    tie = _TIE * np.arange(code.q)

    def leaf(i, p):
        return np.argmax(p - tie, axis=1)

    def decode(y, plan):
        return tensor_apply(kernel, t, _sc(kernel, _channel_posteriors(channel, y), t, leaf, plan).T)

    u = decode(y, plan)
    missed = np.flatnonzero((np.take(u, code.frozen, axis=1) != code.frozen_values % code.q).any(axis=1))
    if missed.size:
        u[missed] = decode(y[missed], plan._replace(certify=plan.frozen_free))
    return u


def sc_decode(code: PolarCode, y) -> DecodeResult:
    """Successive-cancellation decode of one word received over ``code.channel``.

    Parameters
    ----------
    code : PolarCode
        Code whose frozen positions and values steer the decisions, and
        whose channel table converts y into posteriors.
    y : array-like of int, length N
        Received word over the channel's output alphabet; arrays of any
        other kind, float and bool included, are refused.

    Returns
    -------
    DecodeResult
        Information-symbol estimates in lexicographic index order and the
        full u-domain estimate.
    """
    outputs = code.channel.outputs
    y = np.asarray(y)
    if y.shape != (code.block_length,):
        raise ValueError(f"received word must have length {code.block_length}")
    if y.dtype.kind not in "iu":
        raise ValueError(f"received symbols must be integers; got an array of {y.dtype}")
    if np.any((y < 0) | (y >= outputs)):
        raise ValueError(f"received symbols must lie in [0, {outputs})")
    u_hat = _decode_batch(code, y[None, :], code.channel)[0]
    return DecodeResult(u_hat[code.info], u_hat)


def genie_error_rates(
    kernel: FqMatrix, channel: Channel, t: int, trials: int, rng: np.random.Generator,
) -> np.ndarray:
    """Per-index decision-error frequencies with all previous symbols revealed.

    Transmits known uniform data; at each index the SC decision, under the
    decoder's rule, is compared with the truth, conditioned on the true
    values of all earlier indices.  Chunked like ``fer_experiment``: the
    estimate depends only on (seed, trials), and ``rng`` itself draws
    nothing.  The chunks run as lanes on up to ``_LANES`` of the available
    cores, lane j taking chunks j, j + W, ... in order, and the lanes'
    integer error counts are summed, so the estimate does not depend on the
    core count either.  A chunk draws its truth whole, in the smallest dtype
    that holds a symbol; then each block of words is encoded, sampled and
    passed through the tree level by level in truth-relative coordinates
    (see the module docstring), in arrays allocated once per lane, so memory
    follows the blocks and draws in flight.  The truth-relative table
    depends only on the channel and is built once per call; its q * q *
    outputs entries fall under the channel table budget of 10^7.
    """
    _check_field(kernel.q, channel)
    if t < 0:
        raise ValueError("tensor depth must be nonnegative")
    q, k, outputs = kernel.q, kernel.rows, channel.outputs
    n = k**t
    check_budget("channel table", q * q * outputs, 10**7)
    order = _v_table(kernel, n)[0]
    inv = _inverse(kernel)
    symbol = np.min_scalar_type(q - 1)
    key_type = np.min_scalar_type(q * outputs - 1)
    tie = _TIE * np.arange(q)
    table = _posterior_table(channel)
    # relative[c, x * outputs + y] = P(x + c | y)
    relative = np.stack([np.roll(table, -s, axis=0) for s in range(q)], axis=1).reshape(q, -1)
    chunks = _trial_chunks(rng, trials)
    lanes = min(len(chunks), _cores(), _LANES, max(1, _DRAW_BYTES // (8 * _CHUNK * n)))
    # the lanes' blocks together hold about one serial block of node weights
    width = max(1, _block_words(q, k, n) // lanes)

    def run(own, buffers):
        """Summed (N,) error counts of the chunks ``own``, in the lane's
        ``buffers``; cut short once ``stop`` is set."""
        cur, nxt, weights, head, scratch = buffers
        errors = np.zeros(n, dtype=np.int64)
        for crng, size in own:
            truth = crng.integers(0, q, size=(size, n)).astype(symbol)
            for lo in range(0, size, width):
                if stop.is_set():
                    return errors
                u = truth[lo:lo + width]
                b = len(u)
                x = tensor_apply(inv, t, u).astype(symbol)
                y = sample_outputs(channel, x, crng)
                _check_received(channel, y)
                key = np.multiply(x, outputs, dtype=key_type)
                key += y
                # every key is in range; a checked take (mode "raise") would
                # gather into a temporary and copy it to out
                p = np.take(relative, key.T, axis=1, out=cur[: q * n * b].reshape(q, n, b), mode="clip")
                for _ in range(t):
                    # p holds (q, undecided digits, decided digits, words):
                    # the leading position digit is every node's child
                    # index, so each child is one contiguous block, and the
                    # decided output digit goes in last
                    w = _node_weights(p.reshape(q, k, -1), order, out=weights, head=head)
                    out = nxt[: q * n * b].reshape(q, n // k, k, b)
                    for a in range(k):
                        # the true prefix v'_0..v'_{a-1} = 0 is the leading block
                        _law(w[: q ** (k - a)], q, out=out[:, :, a], scratch=scratch)
                    p = out.reshape(q, n, b)
                    cur, nxt = nxt, cur
                # the decoder's rule in the original coordinates: symbol u + c
                # scores p'(c) - tie[u + c], and u is wrong when another
                # symbol beats its score, or ties it and is smaller (u + c
                # wraps past q)
                u = u.T
                best = p[0] - np.take(tie, u)
                wrong = np.zeros(u.shape, dtype=bool)
                for c in range(1, q):
                    score = p[c] - np.take(np.roll(tie, -c), u)
                    wrong |= (score > best) | ((score == best) & (u >= q - c))
                errors += np.count_nonzero(wrong, axis=1)
        return errors

    # each lane's level arrays, allocated once (see the module docstring)
    per_lane = [chunks[j::lanes] for j in range(lanes)]
    buffers = [_level_buffers(q, k, n, min(width, max(size for _, size in c))) for c in per_lane]
    results = [None] * lanes
    stop = threading.Event()

    def lane(j):
        try:
            results[j] = run(per_lane[j], buffers[j])
        except Exception as exc:  # raised again in the caller
            results[j] = exc
            stop.set()

    # lane 0 runs on the caller's thread: one lane starts no thread at all
    threads = [threading.Thread(target=lane, args=(j,)) for j in range(1, lanes)]
    for thread in threads:
        thread.start()
    try:
        lane(0)
        for thread in threads:
            thread.join()
    finally:
        # an interrupt in lane 0 or in a join ends the other lanes at their
        # next block; after the joins above, no lane reads it
        stop.set()
        for thread in threads:
            thread.join()
    for result in results:
        if isinstance(result, Exception):
            raise result
    return sum(results) / trials


def _level_buffers(q: int, k: int, n: int, words: int) -> tuple:
    """Flat float64 arrays for one lane's genie level pass over blocks of up
    to ``words`` words: two ping-pong posterior buffers, the node weights,
    the head product, and the summed law with its totals."""
    m = n // k * words
    return (np.empty(q * n * words), np.empty(q * n * words), np.empty(q**k * m),
            np.empty(q ** (k - 1) * m if k > 2 else 0), np.empty((q + 1) * m))


def _cores() -> int:
    """Cores this process may run on: the most lanes the genie pass runs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _trial_chunks(rng: np.random.Generator, trials: int) -> list:
    """(stream, size) per chunk: child i of ``rng`` runs trials i*_CHUNK onwards."""
    if trials < 1:
        raise ValueError("need at least one trial")
    streams = rng.spawn(-(-trials // _CHUNK))
    return [(s, min(_CHUNK, trials - i * _CHUNK)) for i, s in enumerate(streams)]


def _wilson(failures: int, trials: int, z: float = 1.959963984540054):
    p = failures / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == trials else min(1.0, center + half)
    return lo, hi


def fer_experiment(code: PolarCode, channel: Channel, trials: int, rng: np.random.Generator) -> FerResult:
    """Monte Carlo frame-error rate with a Wilson 95% interval.

    Parameters
    ----------
    code : PolarCode
    channel : Channel
        Transmission channel (need not be the construction channel).
    trials : int
        Number of (message, encode, transmit, decode) rounds.
    rng : numpy.random.Generator
        Root generator.  Trials run in chunks of ``_CHUNK``; chunk i draws
        its messages and channel noise from ``rng.spawn(n_chunks)[i]``.  With
        ``rng = default_rng(seed)`` the counts depend only on (seed, trials),
        and a run's first chunks are the same words as those of any longer
        run with the same seed.

    A chunk draws its messages whole, in the smallest dtype that holds a
    symbol, then encodes, samples and decodes one block of words at a time
    (see the module docstring): memory follows the block, not the chunk, and
    the count does not depend on the block.
    """
    _check_field(code.q, channel)
    q, info = code.q, code.info
    width = _block_words(q, code.kernel.rows, code.block_length)
    failures = 0
    for crng, size in _trial_chunks(rng, trials):
        messages = crng.integers(0, q, size=(size, len(info))).astype(np.min_scalar_type(q - 1))
        for lo in range(0, size, width):
            block = messages[lo:lo + width]
            y = sample_outputs(channel, encode(code, block), crng)
            u_hat = _decode_batch(code, y, channel)
            failures += int(np.any(u_hat[:, info] != block, axis=1).sum())
    fer = failures / trials
    lo, hi = _wilson(failures, trials)
    return FerResult(failures, trials, fer, lo, hi)

"""Encoder/decoder identities, construction paths, failure-rate experiments."""

import itertools
import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from polarkit import codec
from polarkit.channels import Channel, make_erasure, make_qsc, sample_outputs
from polarkit.cli import resolve_kernel
from polarkit.codec import (
    PolarCode,
    _channel_posteriors,
    _sc,
    construct_code,
    encode,
    fer_experiment,
    genie_error_rates,
    sc_decode,
    _decode_batch,
)
from polarkit.entropy import SymbolJoint, _map_predictor
from polarkit.fqlin import BudgetExceeded, FqMatrix, kron, kron_power, qary_words, row_echelon, tensor_apply
from polarkit.kernelscope import random_mixing
from polarkit.polarlab import erasure_polynomials, evolve_tree

from helpers import channel_posteriors_entrywise

ARIKAN = FqMatrix(2, [[1, 0], [1, 1]])


def all_messages(q, n):
    return np.array(list(itertools.product(range(q), repeat=n)), dtype=np.int64)


# Reference SC recursion: a (b, sub, q^k, a) mask of the decided prefix per
# node step, contracted against per-kernel one-hot tables, with per-run state
# on the engine.  The library's v-indexed recursion must make the same
# decisions.


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

    def _decide(self, pi):
        # smallest symbol within 1e-12 of the top posterior
        return np.argmax(pi[:, 0, :] - 1e-12 * np.arange(self.q), axis=1)

    def _leaf(self, pi, index):
        if self._posteriors is not None:
            self._posteriors[:, index, :] = pi[:, 0, :]
        if self._genie is not None:
            dec = self._decide(pi)
            truth = self._genie[:, index]
            self._errors[:, index] = dec != truth
            self._u_hat[:, index] = truth
            return truth[:, None].copy()
        if self._frozen_mask is not None and self._frozen_mask[index]:
            dec = np.full(pi.shape[0], self._frozen_values[index], dtype=np.int64)
        else:
            dec = self._decide(pi)
        self._u_hat[:, index] = dec
        return dec[:, None]


def word_major(pi):
    """The library's symbol-major (q, N, B) posteriors as the (B, N, q) the engine takes."""
    return pi.transpose(2, 1, 0)


def decode_recording_posteriors(code, y, ch):
    """Full-recursion SC decode of (B, N) words with the decode path's rules.

    Drives ``_sc`` without a plan, with a leaf that records every index's
    (B, q) decision posteriors, and returns (u_hat, posteriors (B, N, q)).
    """
    posteriors = np.zeros((len(y), code.block_length, code.q))
    frozen = dict(zip(code.frozen.tolist(), (code.frozen_values % code.q).tolist()))
    tie = 1e-12 * np.arange(code.q)

    def leaf(i, p):
        posteriors[:, i] = p
        if i in frozen:
            return np.full(len(p), frozen[i])
        return np.argmax(p - tie, axis=1)

    x_hat = _sc(code.kernel, _channel_posteriors(ch, y), code.t, leaf)
    return tensor_apply(code.kernel, code.t, x_hat.T), posteriors


def reference_decode(code, y, ch):
    """``_ScEngine``'s decisions u for (B, N) words under the code's frozen set."""
    frozen_mask = np.zeros(code.block_length, dtype=bool)
    frozen_mask[code.frozen] = True
    frozen_values = np.zeros(code.block_length, dtype=np.int64)
    frozen_values[code.frozen] = code.frozen_values % code.q
    pi = word_major(_channel_posteriors(ch, y))
    return _ScEngine(code.kernel).run(pi, code.t, frozen_mask=frozen_mask, frozen_values=frozen_values)[0]


def oracle_genie_error_rates(kernel, channel, t, trials, rng):
    n = kernel.rows**t
    engine = _ScEngine(kernel)
    inv = FqMatrix(kernel.q, engine.kernel_inv)
    err_total = np.zeros(n)
    # chunk i of 1024 trials draws its data and noise from child stream i
    sizes = [min(1024, trials - lo) for lo in range(0, trials, 1024)]
    for crng, size in zip(rng.spawn(len(sizes)), sizes):
        u = crng.integers(0, kernel.q, size=(size, n))
        y = sample_outputs(channel, tensor_apply(inv, t, u), crng)
        _, errors, _ = engine.run(word_major(_channel_posteriors(channel, y)), t, genie=u)
        err_total += errors.sum(axis=0)
    return err_total / trials


def test_kernel_and_channel_over_different_fields_rejected():
    message = "the kernel is over F_2 but the channel is over F_3"
    for ch in (make_erasure(3, 0.1), make_qsc(3, 0.1)):
        with pytest.raises(ValueError, match=message):
            construct_code(ARIKAN, ch, 3, rate=0.5, rng=np.random.default_rng(1))
    code = construct_code(ARIKAN, make_erasure(2, 0.1), 3, rate=0.5, frozen_zero=True)
    with pytest.raises(ValueError, match=message):
        fer_experiment(code, make_qsc(3, 0.1), 10, np.random.default_rng(1))
    # binary symbols are valid F_3 inputs: unchecked, the truth-relative
    # gather would return wrong rates without an error
    with pytest.raises(ValueError, match=message):
        genie_error_rates(ARIKAN, make_qsc(3, 0.1), 3, 50, np.random.default_rng(1))


def test_construct_erasure_info_set():
    code = construct_code(ARIKAN, make_erasure(2, 0.5), 1, rate=0.5, frozen_zero=True)
    assert code.frozen.tolist() == [0]
    assert code.info.tolist() == [1]
    assert np.allclose(code.estimates, [0.75, 0.25])


def test_erasure_construction_follows_the_exact_order():
    """At z0 = 0.7, t = 10 the rate-3/4 cut lies where 1 - z ~ 1e-18 and z
    rounds to 1: the frozen set must still be the exact ranking, from ln z.
    """
    t, rate = 10, 0.75
    counts = erasure_polynomials(ARIKAN).counts
    level = [Fraction(7, 10)]
    for _ in range(t):
        level = [
            sum(int(c[w]) * x**w * (1 - x) ** (2 - w) for w in range(3))
            for x in level
            for c in counts
        ]
    want = np.array([
        math.log(float(z)) if z <= Fraction(1, 2) else math.log1p(-float(1 - z)) for z in level
    ])
    np.testing.assert_allclose(evolve_tree(ARIKAN, 0.7, t).log_values, want, rtol=1e-12, atol=0)
    ranked = sorted(range(len(level)), key=lambda i: (level[i], i))
    code = construct_code(ARIKAN, make_erasure(2, 0.7), t, rate=rate, frozen_zero=True)
    assert code.frozen.tolist() == sorted(ranked[round(rate * len(level)):])


def test_construct_noiseless_all_info():
    code = construct_code(ARIKAN, make_erasure(2, 0.0), 3, rate=1.0, frozen_zero=True)
    assert len(code.frozen) == 0 and code.rate == 1.0


def test_construct_frozen_count_from_rate():
    code = construct_code(
        ARIKAN, make_erasure(2, 0.3), 10, rate=0.6, rng=np.random.default_rng(0)
    )
    assert len(code.frozen) == 410  # N - round(0.6 * 1024)
    # frozen set is exactly the highest-estimate block
    worst_frozen = code.estimates[code.frozen].min()
    best_info = code.estimates[code.info].max()
    assert worst_frozen >= best_info - 1e-15


def test_code_arrays_are_read_only():
    # info and the SC plan are derived once; the arrays behind them are fixed
    frozen, values = np.array([0, 1]), np.array([1, 0])
    code = PolarCode(ARIKAN, 2, make_erasure(2, 0.3), frozen, values, np.zeros(4))
    frozen[0] = 2  # a change to the caller's array does not reach the code
    assert code.frozen.tolist() == [0, 1] and code.info.tolist() == [2, 3]
    with pytest.raises(ValueError):
        code.frozen_values[0] = 0


def test_frozen_values_act_mod_q():
    # encode reads u mod q, so the decoder must read frozen values that way
    kernel, t = _reference_kernel("f3")
    n, ch = kernel.rows**t, make_erasure(3, 0.0)
    frozen = np.arange(0, n, 2)
    wide = PolarCode(kernel, t, ch, frozen, np.arange(len(frozen)) + 3, np.zeros(n))
    narrow = PolarCode(kernel, t, ch, frozen, wide.frozen_values % 3, np.zeros(n))
    msgs = np.random.default_rng(5).integers(0, 3, size=(16, len(wide.info)))
    x = encode(wide, msgs)
    assert np.array_equal(x, encode(narrow, msgs))
    assert np.array_equal(_decode_batch(wide, x, ch), _decode_batch(narrow, x, ch))


@pytest.mark.parametrize("frozen, values, message", [
    # a repeat was encoded and decoded silently, and counted twice by rate
    ([0, 0, 1], [0, 0, 0], "frozen indices must be distinct"),
    # -1 aliased position 3: information to encode, frozen to the SC plan
    ([-1, 0], [1, 0], r"frozen indices must lie in \[0, 4\)"),
    # failed only inside sc_decode, with an IndexError
    ([1, 4], [0, 0], r"frozen indices must lie in \[0, 4\)"),
    # failed only inside encode, with a broadcast error
    ([0, 1], [0, 1, 1], "need one frozen value per frozen index; got 3 for 2"),
], ids=["repeated", "negative", "beyond_n", "values_length"])
def test_code_rejects_an_inconsistent_frozen_set(frozen, values, message):
    with pytest.raises(ValueError, match=message):
        PolarCode(ARIKAN, 2, make_erasure(2, 0.3), frozen, values, np.zeros(4))


@pytest.mark.parametrize("frozen, values, message", [
    # a cast built frozen [0, 1] with values [0, 1]
    ([0.9, 1.5], [0.7, 1.2], "frozen must be integers; got an array of float64"),
    ([0, 1], [0.5, 1.0], "frozen_values must be integers; got an array of float64"),
    # a cast read the mask as the indices [1, 0]
    (np.array([True, False]), [1, 0], "frozen must be integers; got an array of bool"),
], ids=["fractional_indices", "fractional_values", "bool_mask"])
def test_code_rejects_non_integer_frozen_arrays(frozen, values, message):
    with pytest.raises(ValueError, match=message):
        PolarCode(ARIKAN, 2, make_erasure(2, 0.3), frozen, values, np.zeros(4))
    # an empty list has no integer dtype, and stays a valid frozen set
    assert PolarCode(ARIKAN, 2, make_erasure(2, 0.3), [], [], np.zeros(4)).rate == 1.0


def test_construct_threshold_variant():
    code = construct_code(
        ARIKAN, make_erasure(2, 0.3), 6, threshold=0.5, frozen_zero=True
    )
    assert set(code.frozen.tolist()) == set(np.flatnonzero(code.estimates > 0.5).tolist())


def test_encode_all_frozen_zero_word():
    code = construct_code(ARIKAN, make_erasure(2, 0.3), 2, rate=0.0, frozen_zero=True)
    x = encode(code, np.zeros(0, dtype=np.int64))
    assert not x.any()


def test_encode_hand_example_t1():
    code = construct_code(ARIKAN, make_erasure(2, 0.0), 1, rate=1.0, frozen_zero=True)
    x = encode(code, np.array([0, 1]))
    assert x.tolist() == [1, 1]  # u @ M^{-1} with M^{-1} = [[1,0],[1,1]]


def test_encode_rejects_non_integer_messages():
    # 1.7 used to be truncated to 1
    code = construct_code(ARIKAN, make_erasure(2, 0.0), 1, rate=1.0, frozen_zero=True)
    with pytest.raises(ValueError, match="symbols must be integers"):
        encode(code, np.array([0, 1.7]))


def test_encode_reduces_out_of_range_message_symbols():
    kernel = FqMatrix(3, [[1, 0], [2, 1]])
    code = construct_code(kernel, make_erasure(3, 0.0), 2, rate=1.0, frozen_zero=True)
    assert np.array_equal(encode(code, [-1, 4, -3, 5]), encode(code, [2, 1, 0, 2]))


def _table_with_a_dead_output():
    # three random likelihood rows, and a fourth output no input reaches
    w = np.random.default_rng(3).dirichlet(np.ones(3), size=3)
    return Channel(3, np.hstack([w, np.zeros((3, 1))]))


@pytest.mark.parametrize("ch", [make_erasure(3, 0.3), make_qsc(5, 0.2), _table_with_a_dead_output()],
                         ids=["erasure", "qsc", "table"])
def test_channel_posteriors_match_the_entrywise_division(ch):
    live = np.flatnonzero(ch.w.sum(axis=0) > 0)
    y = live[np.random.default_rng(4).integers(0, len(live), size=(6, 27))]
    got = _channel_posteriors(ch, y)
    assert got.shape == (ch.q, 27, 6)
    assert np.array_equal(got, channel_posteriors_entrywise(ch, y))  # to the bit
    if len(live) < ch.outputs:
        y[2, 5] = ch.outputs - 1
        for posteriors in (_channel_posteriors, channel_posteriors_entrywise):
            with pytest.raises(ValueError, match="zero likelihood"):
                posteriors(ch, y)


def test_encode_transform_roundtrip():
    rng = np.random.default_rng(3)
    for q, k in ((2, 2), (3, 3), (2, 3)):
        m = random_mixing(q, k, rng)
        for t in (1, 2, 3, 4):
            if k**t > 256:
                continue
            code = construct_code(m, make_erasure(q, 0.2), t, rate=0.5, rng=rng)
            msg = rng.integers(0, q, size=(5, len(code.info)))
            x = encode(code, msg)
            u = tensor_apply(m, t, x)
            assert np.array_equal(u[..., code.info], msg)
            assert np.array_equal(
                u[..., code.frozen], np.broadcast_to(code.frozen_values, (5, len(code.frozen)))
            )


def test_noiseless_decode_exhaustive_small_blocks():
    cases = [(2, ARIKAN, 2), (2, ARIKAN, 3)]
    rng = np.random.default_rng(7)
    m3 = random_mixing(3, 3, rng)
    cases.append((3, m3, 2))
    m2x3 = random_mixing(2, 3, rng)
    cases.append((2, m2x3, 2))
    for q, kernel, t in cases:
        n = kernel.rows**t
        assert n <= 9
        code = construct_code(kernel, make_erasure(q, 0.0), t, rate=1.0, frozen_zero=True)
        msgs = all_messages(q, n)
        x = encode(code, msgs)
        u_hat = _decode_batch(code, x, code.channel)
        assert np.array_equal(u_hat, msgs)


def test_noiseless_decode_with_frozen_positions():
    code = construct_code(
        ARIKAN, make_erasure(2, 0.0), 3, rate=0.5, rng=np.random.default_rng(11)
    )
    msgs = all_messages(2, len(code.info))
    x = encode(code, msgs)
    u_hat = _decode_batch(code, x, code.channel)
    assert np.array_equal(u_hat[:, code.info], msgs)


def test_single_erasure_matches_determination_rule():
    # rate-1/2 length-2 code (u0 frozen): under any single erasure both
    # patterns leave u1 determined, so the decoder always recovers
    ch = make_erasure(2, 0.5)
    code = construct_code(ARIKAN, ch, 1, rate=0.5, frozen_zero=True)
    for msg in (0, 1):
        x = encode(code, np.array([msg]))
        for erase_pos in (0, 1):
            y = x.copy()
            y[erase_pos] = 2
            res = sc_decode(code, y)
            assert res.message.tolist() == [msg]
    # full erasure leaves u1 undetermined: decoder falls back to the smallest
    # field element, matching the pattern-rank rule
    y_all = np.array([2, 2])
    assert sc_decode(code, y_all).message.tolist() == [0]


def test_decoder_against_pattern_rank_oracle():
    # exact failure law on the erasure channel: P(fail | pattern) =
    # 1 - q^-(number of undetermined info indices); undetermined = pivot
    # columns of M^t restricted to the erased rows
    rng = np.random.default_rng(13)
    t, z = 4, 0.35
    ch = make_erasure(2, z)
    code = construct_code(ARIKAN, ch, t, rate=0.5, rng=rng)
    mt = kron_power(ARIKAN, t).arr
    info_set = set(code.info.tolist())
    n = code.block_length

    oracle = 0.0
    patterns = 0
    prng = np.random.default_rng(17)
    for _ in range(400):
        erased = np.flatnonzero(prng.random(n) < z)
        _, pivots = row_echelon(mt[erased], 2)
        d = len([p for p in pivots if p in info_set])
        oracle += 1.0 - 0.5**d
        patterns += 1
    oracle /= patterns

    fer = fer_experiment(code, ch, 4000, np.random.default_rng(19))
    assert abs(fer.fer - oracle) < 0.05


def test_genie_frequencies_match_exact_erasure_law():
    # decision-error probability at index i is z_i * (1 - 1/q): an
    # undetermined symbol is still guessed correctly with probability 1/q
    ch = make_erasure(2, 0.3)
    trials = 10_000
    freq = genie_error_rates(ARIKAN, ch, 3, trials, np.random.default_rng(23))
    exact = evolve_tree(ARIKAN, 0.3, 3).values * 0.5
    sigma = np.sqrt(exact * (1 - exact) / trials)
    assert np.all(np.abs(freq - exact) <= 3 * sigma + 1e-12)


def test_genie_construction_ranking_matches_exact_for_erasure():
    ch = make_erasure(2, 0.4)
    t = 3
    freq = genie_error_rates(ARIKAN, ch, t, 20_000, np.random.default_rng(29))
    exact = evolve_tree(ARIKAN, 0.4, t).values
    # same worst half
    assert set(np.argsort(freq)[-4:].tolist()) == set(np.argsort(exact)[-4:].tolist())


def test_qsc_code_beats_uncoded():
    ch = make_qsc(2, 0.08)
    code = construct_code(ARIKAN, ch, 6, rate=0.4, rng=np.random.default_rng(31))
    res = fer_experiment(code, ch, 1500, np.random.default_rng(37))
    uncoded_word_error = 1.0 - (1.0 - 0.08) ** code.block_length
    assert res.fer < uncoded_word_error


def test_fer_noiseless_zero():
    code = construct_code(ARIKAN, make_erasure(2, 0.0), 4, rate=0.8, frozen_zero=True)
    res = fer_experiment(code, code.channel, 500, np.random.default_rng(41))
    assert res.failures == 0 and res.ci_low == 0.0


def test_fer_above_capacity_mostly_fails():
    ch = make_erasure(2, 0.5)
    code = construct_code(ARIKAN, ch, 8, rate=0.9, rng=np.random.default_rng(43))
    res = fer_experiment(code, ch, 1000, np.random.default_rng(47))
    assert res.fer > 0.5


def test_fer_respects_union_bound():
    ch = make_erasure(2, 0.3)
    code = construct_code(ARIKAN, ch, 8, rate=0.6, rng=np.random.default_rng(53))
    res = fer_experiment(code, ch, 10_000, np.random.default_rng(59))
    union = float(code.estimates[code.info].sum())
    assert res.fer <= union


def test_fer_reproducible_and_worker_streams():
    ch = make_erasure(2, 0.3)
    code = construct_code(ARIKAN, ch, 5, rate=0.5, rng=np.random.default_rng(61))
    a = fer_experiment(code, ch, 2500, np.random.default_rng(67))
    assert a == fer_experiment(code, ch, 2500, np.random.default_rng(67))
    # three chunks of 1024, 1024 and 452 trials, each from its own child stream
    per_chunk = []
    for crng, size in zip(np.random.default_rng(67).spawn(3), (1024, 1024, 452)):
        msgs = crng.integers(0, 2, size=(size, len(code.info)))
        y = sample_outputs(ch, encode(code, msgs), crng)
        per_chunk.append(sum(not np.array_equal(sc_decode(code, w).message, m) for w, m in zip(y, msgs)))
    assert a.failures == sum(per_chunk) and a.trials == 2500
    # a shorter run decodes the same first words as a longer one
    assert fer_experiment(code, ch, 1024, np.random.default_rng(67)).failures == per_chunk[0]
    assert fer_experiment(code, ch, 2048, np.random.default_rng(67)).failures == sum(per_chunk[:2])


@pytest.mark.parametrize("trials", [0, -1])
def test_nonpositive_trials_rejected(trials):
    # no chunk would run, and the rates would divide by zero trials
    ch = make_erasure(2, 0.5)
    code = construct_code(ARIKAN, ch, 4, rate=0.9, frozen_zero=True)
    with pytest.raises(ValueError, match="trial"):
        fer_experiment(code, ch, trials, np.random.default_rng(0))
    with pytest.raises(ValueError, match="trial"):
        genie_error_rates(ARIKAN, ch, 4, trials, np.random.default_rng(0))


def test_genie_rejects_negative_depth():
    with pytest.raises(ValueError, match="tensor depth must be nonnegative"):
        genie_error_rates(ARIKAN, make_qsc(2, 0.1), -1, 10, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [-1, 3])
def test_sc_decode_rejects_symbols_outside_alphabet(bad):
    # -1 would index the erasure label and 3 lies past erasure(2)'s outputs
    ch = make_erasure(2, 0.3)
    code = construct_code(ARIKAN, ch, 3, rate=0.5, frozen_zero=True)
    y = encode(code, np.zeros(len(code.info), dtype=np.int64))
    y[5] = bad
    with pytest.raises(ValueError, match=r"received symbols must lie in \[0, 3\)"):
        sc_decode(code, y)


@pytest.mark.parametrize("y", [[0.9, 1.7, 0.2, 2.6], [0.0, 1.0, 0.0, 2.0], [True, False, True, False]],
                         ids=["fractional", "integral-float", "bool"])
def test_sc_decode_rejects_non_integer_symbols(y):
    # a cast would truncate [0.9, 1.7, 0.2, 2.6] to the word [0, 1, 0, 2]
    code = construct_code(ARIKAN, make_erasure(2, 0.3), 2, rate=0.5, frozen_zero=True)
    with pytest.raises(ValueError, match="received symbols must be integers; got an array of (float64|bool)"):
        sc_decode(code, y)


def test_wilson_interval_sane():
    ch = make_erasure(2, 0.3)
    code = construct_code(ARIKAN, ch, 6, rate=0.5, rng=np.random.default_rng(71))
    res = fer_experiment(code, ch, 2000, np.random.default_rng(73))
    assert 0.0 <= res.ci_low <= res.fer <= res.ci_high <= 1.0


def test_degenerate_kernel_reduces_to_map_predictor():
    # k = 1 kernel: the decoder is the per-symbol maximum-posterior predictor
    kernel = FqMatrix(3, [[2]])
    ch = make_qsc(3, 0.2)
    code = construct_code(
        kernel, ch, 1, rate=1.0, frozen_zero=True, rng=np.random.default_rng(97)
    )
    joint = SymbolJoint(3, ch.w / 3)
    f, _ = _map_predictor(joint)
    for y in range(3):
        res = sc_decode(code, np.array([y]))
        # decoder estimates u with x = u * 2; map predictor estimates x
        assert res.u_hat[0] == f[y] * pow(2, -1, 3) % 3


def test_runtime_scaling_is_roughly_linear_per_level():
    # one level deeper multiplies N by k; O(N log N) work should grow by
    # about k, allow 3x slack
    ch = make_erasure(2, 0.3)
    times = {}
    for t in (7, 8):
        code = construct_code(ARIKAN, ch, t, rate=0.5, rng=np.random.default_rng(79))
        msgs = np.random.default_rng(83).integers(0, 2, size=(400, len(code.info)))
        x = encode(code, msgs)
        y = sample = x  # noiseless path keeps timing free of channel cost
        _decode_batch(code, y[:8], ch)  # warm up caches
        start = time.perf_counter()
        _decode_batch(code, y, ch)
        times[t] = time.perf_counter() - start
    ratio = times[8] / times[7]
    assert ratio < 3 * 2


def test_leaf_posteriors_one_hot_on_noiseless():
    code = construct_code(ARIKAN, make_erasure(2, 0.0), 2, rate=1.0, frozen_zero=True)
    msg = np.array([1, 0, 1, 0])
    x = encode(code, msg)
    u_hat, post = decode_recording_posteriors(code, x[None], code.channel)
    assert post.shape == (1, 4, 2)
    assert np.allclose(post[0, np.arange(4), msg], 1.0)
    res = sc_decode(code, x)
    assert res.message.tolist() == msg.tolist() and np.array_equal(res.u_hat, u_hat[0])


def _reference_kernel(name):
    rng = np.random.default_rng(2024)
    f3 = random_mixing(3, 3, rng)
    f5 = random_mixing(5, 3, rng)
    # a step-0 law summing 8 terms (4x4 over F_2), and a large field (q = 11)
    f2x4 = random_mixing(2, 4, rng)
    f11 = random_mixing(11, 2, rng)
    kernels = {
        "arikan": (ARIKAN, 5),
        "arikan2": (kron(ARIKAN, ARIKAN), 3),
        "hamming7": (resolve_kernel("hamming7", 2), 2),
        "f3": (f3, 3),
        "f5": (f5, 2),
        "f2x4": (f2x4, 3),
        "f11": (f11, 3),
    }
    return kernels[name]


@pytest.mark.parametrize("kind", ["noiseless", "erasure", "qsc"])
@pytest.mark.parametrize("name", ["arikan", "arikan2", "hamming7", "f3", "f5", "f2x4", "f11"])
def test_sc_matches_reference_recursion(name, kind):
    kernel, t = _reference_kernel(name)
    q, n = kernel.q, kernel.rows**t
    ch = {"noiseless": make_erasure(q, 0.0), "erasure": make_erasure(q, 0.3), "qsc": make_qsc(q, 0.08)}[kind]
    rng = np.random.default_rng(31)
    frozen = np.sort(rng.choice(n, size=n // 2, replace=False))
    code = PolarCode(kernel, t, ch, frozen, rng.integers(0, q, len(frozen)), np.zeros(n))
    frozen_mask = np.zeros(n, dtype=bool)
    frozen_mask[frozen] = True
    frozen_values = np.zeros(n, dtype=np.int64)
    frozen_values[frozen] = code.frozen_values
    # half the words carry the code's frozen values; the other half contradict
    # them, which drives nodes into the dead-node fallback
    u = rng.integers(0, q, size=(64, n))
    u[:32, frozen] = code.frozen_values
    y = sample_outputs(ch, tensor_apply(kernel.inverse(), t, u), rng)
    pi = _channel_posteriors(ch, y)

    full_u, post = decode_recording_posteriors(code, y, ch)
    ref_u, _, ref_post = _ScEngine(kernel).run(
        word_major(pi), t, frozen_mask=frozen_mask, frozen_values=frozen_values, keep_posteriors=True
    )
    assert np.array_equal(full_u, ref_u) and np.array_equal(_decode_batch(code, y, ch), ref_u)
    assert np.max(np.abs(post - ref_post)) <= 1e-12

    # genie mode: decisions recorded, the truth fed back
    _, ref_err, ref_post = _ScEngine(kernel).run(word_major(pi), t, genie=u, keep_posteriors=True)
    err = np.zeros_like(ref_err)
    post = np.zeros_like(ref_post)

    def leaf(i, p):
        post[:, i] = p
        err[:, i] = np.argmax(p - 1e-12 * np.arange(q), axis=1) != u[:, i]
        return u[:, i]

    _sc(kernel, pi, t, leaf)
    assert np.array_equal(err, ref_err)
    assert np.max(np.abs(post - ref_post)) <= 1e-12

    # arikan runs two chunks (1024 + 76 trials), compared bit for bit
    trials = 1100 if name == "arikan" else 300
    rates = genie_error_rates(kernel, ch, t, trials, np.random.default_rng(37))
    ref_rates = oracle_genie_error_rates(kernel, ch, t, trials, np.random.default_rng(37))
    assert np.array_equal(rates, ref_rates)


def _block_bytes(kernel, t, words):
    """A ``codec._BLOCK_BYTES`` that gives the Monte Carlo passes ``words`` words per block."""
    q, k = kernel.q, kernel.rows
    return words * 8 * q**k * k**t // k


@pytest.mark.parametrize("name", ["hamming7", "f3", "f2x4", "f11"])
def test_genie_rates_do_not_depend_on_batch(name, monkeypatch):
    # the words per block set the row length of every level's sums (down to
    # one value per word), never a decision
    kernel, t = _reference_kernel(name)
    ch = make_qsc(kernel.q, 0.08)
    ref = oracle_genie_error_rates(kernel, ch, t, 150, np.random.default_rng(53))
    for words in (1, 7, 150):
        monkeypatch.setattr(codec, "_BLOCK_BYTES", _block_bytes(kernel, t, words))
        assert np.array_equal(genie_error_rates(kernel, ch, t, 150, np.random.default_rng(53)), ref), words


@pytest.mark.parametrize("t, trials", [(0, 300), (3, 1), (3, 1023), (3, 1025), (3, 2049)])
@pytest.mark.parametrize("kind", ["qsc", "erasure-table"])
def test_genie_matches_oracle_at_chunk_and_block_edges(kind, t, trials, monkeypatch):
    # 7 words per block: a chunk of 1023 or 1025 trials ends on a short
    # block, and 1025 or 2049 trials end on a one-trial chunk
    kernel = _reference_kernel("f3")[0]
    q = kernel.q
    ch = make_qsc(q, 0.1) if kind == "qsc" else Channel(q, make_erasure(q, 0.3).w)
    monkeypatch.setattr(codec, "_BLOCK_BYTES", _block_bytes(kernel, t, 7))
    rates = genie_error_rates(kernel, ch, t, trials, np.random.default_rng(67))
    assert np.array_equal(rates, oracle_genie_error_rates(kernel, ch, t, trials, np.random.default_rng(67)))


def test_genie_memory_follows_the_block():
    # a whole-chunk recursion holds (q, N, 1024) posteriors and each level's
    # node weights: 112 MB traced for one chunk of arikan t=10
    ch = make_qsc(2, 0.05)
    rng = np.random.default_rng(59)
    genie_error_rates(ARIKAN, ch, 2, 10, rng)  # the node table and inverse are cached
    tracemalloc.start()
    try:
        genie_error_rates(ARIKAN, ch, 10, 1024, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 10**6


def _lane_threads(monkeypatch):
    """The threads that sample a channel in ``codec``, one per lane.

    Thread objects, not idents: a lane that ends before the next one starts
    may hand its ident on to it.
    """
    threads = set()
    sample = codec.sample_outputs
    monkeypatch.setattr(codec, "sample_outputs", lambda *args: threads.add(threading.current_thread()) or sample(*args))
    return threads


@pytest.mark.parametrize("trials", [1025, 2049, 3100])
@pytest.mark.parametrize("kind", ["qsc", "erasure-table"])
def test_genie_matches_oracle_on_every_core_count(kind, trials, monkeypatch):
    # 2, 3 or 4 chunks, the last one short, run as min(chunks, cores,
    # _LANES) lanes; lane j takes chunks j, j + W, ..., and the lanes'
    # integer counts are summed, so the core count never shows in the
    # estimate, nor would a wider cap
    kernel = _reference_kernel("f3")[0]
    q = kernel.q
    ch = make_qsc(q, 0.1) if kind == "qsc" else Channel(q, make_erasure(q, 0.3).w)
    ref = oracle_genie_error_rates(kernel, ch, 3, trials, np.random.default_rng(89))
    chunks = -(-trials // codec._CHUNK)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the lanes trade the interpreter lock often
    try:
        for cores, cap in ((1, 2), (2, 2), (3, 2), (8, 2), (3, 3)):
            monkeypatch.setattr(codec, "_cores", lambda: cores)
            monkeypatch.setattr(codec, "_LANES", cap)
            lanes = _lane_threads(monkeypatch)
            rates = genie_error_rates(kernel, ch, 3, trials, np.random.default_rng(89))
            assert np.array_equal(rates, ref), (cores, cap)
            assert len(lanes) == min(chunks, cores, cap)
            assert threading.current_thread() in lanes  # the caller runs lane 0 itself
    finally:
        sys.setswitchinterval(interval)


def test_genie_lane_error_reaches_the_caller(monkeypatch):
    # a dead received symbol in a pooled lane raises the caller's ValueError,
    # and every lane's thread has ended by then
    ch = _table_with_a_dead_output()
    sample = codec.sample_outputs

    def dead_in_lanes(c, x, rng):
        y = sample(c, x, rng)
        if threading.current_thread() is not threading.main_thread():
            y[0, 0] = ch.outputs - 1
        return y

    monkeypatch.setattr(codec, "_cores", lambda: 2)
    monkeypatch.setattr(codec, "sample_outputs", dead_in_lanes)
    before = threading.active_count()
    with pytest.raises(ValueError, match="zero likelihood"):
        genie_error_rates(_reference_kernel("f3")[0], ch, 2, 2049, np.random.default_rng(97))
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_genie_lanes_stop_at_the_next_block(failing, monkeypatch):
    # a worker lane's error, or an interrupt on the caller's lane, stops the
    # other lane at its next block: of its 1000-odd blocks of 3 words, it
    # samples its first, waits for the failure, and samples few more
    kernel, ch = _reference_kernel("f3")[0], make_qsc(3, 0.1)
    sample = codec.sample_outputs
    started, failed = threading.Event(), threading.Event()
    calls = {"worker": 0, "caller": 0}

    def fail_after_both_sample(c, x, rng):
        side = "caller" if threading.current_thread() is threading.main_thread() else "worker"
        calls[side] += 1
        if side == failing:
            assert started.wait(10)
            failed.set()
            raise KeyboardInterrupt if side == "caller" else RuntimeError("lane failed")
        if calls[side] == 1:
            started.set()
        else:
            assert failed.wait(10)
        return sample(c, x, rng)

    monkeypatch.setattr(codec, "_cores", lambda: 2)
    monkeypatch.setattr(codec, "_BLOCK_BYTES", _block_bytes(kernel, 2, 7))
    monkeypatch.setattr(codec, "sample_outputs", fail_after_both_sample)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt if failing == "caller" else RuntimeError):
        genie_error_rates(kernel, ch, 2, 4097, np.random.default_rng(103))
    assert threading.active_count() == before
    assert calls["worker" if failing == "caller" else "caller"] <= 4


def test_genie_lanes_share_the_block_memory(monkeypatch):
    # two lanes decode blocks of half the serial width, in arrays allocated
    # once per lane: arikan t=10 stays within the one-lane bound
    monkeypatch.setattr(codec, "_cores", lambda: 2)
    ch = make_qsc(2, 0.05)
    rng = np.random.default_rng(101)
    genie_error_rates(ARIKAN, ch, 2, 10, rng)  # the node table and inverse are cached
    lanes = _lane_threads(monkeypatch)
    tracemalloc.start()
    try:
        genie_error_rates(ARIKAN, ch, 10, 2049, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lanes) == 2
    assert peak <= 40 * 10**6


def test_genie_lanes_keep_the_truth_draws_budgeted(monkeypatch):
    # a chunk's int64 truth draw is 32 MB at arikan t=12, over the lanes'
    # draw budget: 8 cores and 3 chunks still run one lane, 63 MB traced,
    # where two lanes read 91 MB and three would hold a third draw
    monkeypatch.setattr(codec, "_cores", lambda: 8)
    ch = make_qsc(2, 0.05)
    rng = np.random.default_rng(107)
    genie_error_rates(ARIKAN, ch, 2, 10, rng)  # the node table and inverse are cached
    lanes = _lane_threads(monkeypatch)
    tracemalloc.start()
    try:
        genie_error_rates(ARIKAN, ch, 12, 2049, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lanes) == 1
    assert peak <= 72 * 10**6


def test_genie_truth_relative_table_is_budgeted(monkeypatch):
    # the (q, q * outputs) table: 2 * 2 * 2 entries for a binary qsc
    monkeypatch.setenv("POLARLAB_BUDGET", "7")
    with pytest.raises(BudgetExceeded, match=r"^channel table budget exceeded: 8 > 7$"):
        genie_error_rates(ARIKAN, make_qsc(2, 0.1), 2, 10, np.random.default_rng(0))


@pytest.mark.parametrize("trials", [1023, 1025, 2049])
@pytest.mark.parametrize("kind", ["erasure", "qsc"])
def test_fer_counts_do_not_depend_on_the_block(kind, trials, monkeypatch):
    # blocks of 1 and 7 words against one block per chunk: a chunk of 1023
    # ends on a short block, and 1025 or 2049 trials end on a one-trial
    # chunk.  Blocks draw their noise from the chunk's stream in order, and
    # SC decides each word alone
    kernel, t, ch = {
        "erasure": (ARIKAN, 3, make_erasure(2, 0.4)),
        "qsc": (_reference_kernel("f3")[0], 2, make_qsc(3, 0.1)),
    }[kind]
    code = construct_code(kernel, ch, t, rate=0.5, rng=np.random.default_rng(71), genie_trials=1000)
    counts = {}
    for words in (1, 7, codec._CHUNK):
        monkeypatch.setattr(codec, "_BLOCK_BYTES", _block_bytes(kernel, t, words))
        counts[words] = fer_experiment(code, ch, trials, np.random.default_rng(73)).failures
    assert counts[1] == counts[7] == counts[codec._CHUNK] > 0, counts


def test_fer_memory_follows_the_block():
    # whole-chunk arrays at arikan t=11 traced 162 MB for one chunk: int64
    # codewords and decisions, float64 uniforms and thresholds, and the SC
    # node weights of the whole chunk.  A block holds what its words need,
    # and the chunk's message draw, 8 MB as int64, is the largest array left
    ch = make_erasure(2, 0.3)
    code = construct_code(ARIKAN, ch, 11, rate=0.5, frozen_zero=True)
    fer_experiment(code, ch, 2, np.random.default_rng(79))  # the SC plan and tables are cached
    tracemalloc.start()
    try:
        fer_experiment(code, ch, 1024, np.random.default_rng(83))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 10**6


class _Pass(NamedTuple):
    """One ``_sc`` call of ``_decode_batch``."""

    pi: np.ndarray
    frozen_free: bool  # the re-decode's plan, certifying frozen-free subtrees only
    leaves: list  # the indices its leaf was called for
    x_hat: np.ndarray


def _record_passes(monkeypatch) -> list:
    """Record every ``_sc`` call that ``codec`` makes, as a ``_Pass``."""
    passes = []
    sc = codec._sc

    def recording(kernel, pi, t, leaf, plan):
        leaves = []
        x_hat = sc(kernel, pi, t, lambda i, p: leaves.append(i) or leaf(i, p), plan)
        passes.append(_Pass(pi, plan.certify is plan.frozen_free, leaves, x_hat))
        return x_hat

    monkeypatch.setattr(codec, "_sc", recording)
    return passes


def test_grouped_decode_matches_the_whole_batch(monkeypatch):
    # arikan t=8 weighs 4 * 128 = 512 floats per word at the top node; a
    # block of seven words' weights runs 100 trials in groups of 7
    rng = np.random.default_rng(61)
    code = construct_code(ARIKAN, make_erasure(2, 0.3), 8, rate=0.5, rng=rng)
    monkeypatch.setattr(codec, "_BLOCK_BYTES", _block_bytes(ARIKAN, 8, 7))
    received, decoded = [], []

    def recording(code, y, channel):
        received.append(y)
        decoded.append(_decode_batch(code, y, channel))
        return decoded[-1]

    monkeypatch.setattr(codec, "_decode_batch", recording)
    passes = _record_passes(monkeypatch)
    fer_experiment(code, code.channel, 100, np.random.default_rng(62))
    assert [p.pi.shape[2] for p in passes if not p.frozen_free] == [7] * 14 + [2]
    assert all(p.pi.shape[2] <= 7 for p in passes)
    assert np.array_equal(np.concatenate(decoded), _decode_batch(code, np.concatenate(received), code.channel))

    # 50 noiseless words, each contradicting one frozen value: every block's
    # root certificate holds, all 50 miss a frozen value, and each block's
    # re-decode runs its words as one group
    u = rng.integers(0, 2, size=(50, code.block_length))
    u[:, code.frozen] = code.frozen_values
    u[np.arange(50), rng.choice(code.frozen, 50)] ^= 1
    x = tensor_apply(ARIKAN.inverse(), 8, u)
    width = codec._block_words(2, 2, code.block_length)
    passes.clear()
    blocks = [_decode_batch(code, x[lo:lo + width], code.channel) for lo in range(0, 50, width)]
    assert np.array_equal(np.concatenate(blocks), reference_decode(code, x, code.channel))
    assert [(p.pi.shape[2], p.frozen_free) for p in passes] == [(7, False), (7, True)] * 7 + [(1, False), (1, True)]
    monkeypatch.setenv("POLARLAB_BUDGET", "511")
    with pytest.raises(BudgetExceeded, match=r"^SC node weights budget exceeded: 512 > 511$"):
        _decode_batch(code, x, code.channel)


def test_near_ties_go_to_the_smaller_symbol():
    # on qsc words many posteriors tie exactly in real arithmetic; in floats
    # the top two differ by a few ulps, which must not decide the symbol
    kernel = kron(ARIKAN, ARIKAN)
    ch = make_qsc(2, 0.08)
    rng = np.random.default_rng(41)
    code = construct_code(kernel, ch, 3, rate=0.5, rng=rng, genie_trials=2000)
    msgs = rng.integers(0, 2, size=(400, len(code.info)))
    y = sample_outputs(ch, encode(code, msgs), rng)
    u_hat, post = decode_recording_posteriors(code, y, ch)
    assert np.array_equal(_decode_batch(code, y, ch), u_hat)
    p = post[:, code.info]
    near = np.abs(p[..., 0] - p[..., 1]) <= 1e-12
    assert near.sum() > 0
    assert np.all(u_hat[:, code.info][near] == 0)


# The decode path prunes all-frozen subtrees and certified subtrees; its
# decisions must equal the full reference recursion bit for bit.


def _pruning_case(name, frozen_kind, rng):
    kernel, t = _reference_kernel(name)
    q, n = kernel.q, kernel.rows**t
    if frozen_kind == "tree":
        frozen = construct_code(kernel, make_erasure(q, 0.3), t, rate=0.5, frozen_zero=True).frozen
    elif frozen_kind == "random":
        frozen = np.sort(rng.choice(n, size=n // 2, replace=False))
    elif frozen_kind == "all":
        frozen = np.arange(n)
    else:
        frozen = np.arange(0)
    # nonzero frozen values: a subtree's codeword is its own transform of
    # them, which a slice of the whole block's transform is not
    values = rng.integers(1, q, size=len(frozen))
    return kernel, t, frozen, values


@pytest.mark.parametrize("kind", ["noiseless", "erasure", "qsc"])
@pytest.mark.parametrize("frozen_kind", ["tree", "random", "all", "none"])
@pytest.mark.parametrize("name", ["arikan", "arikan2", "hamming7", "f3", "f5", "f2x4", "f11"])
def test_pruned_decode_matches_reference_recursion(name, frozen_kind, kind):
    rng = np.random.default_rng(43)
    kernel, t, frozen, values = _pruning_case(name, frozen_kind, rng)
    q, n = kernel.q, kernel.rows**t
    ch = {"noiseless": make_erasure(q, 0.0), "erasure": make_erasure(q, 0.3), "qsc": make_qsc(q, 0.2)}[kind]
    code = PolarCode(kernel, t, ch, frozen, values, np.zeros(n))
    frozen_mask = np.zeros(n, dtype=bool)
    frozen_mask[frozen] = True
    frozen_values = np.zeros(n, dtype=np.int64)
    frozen_values[frozen] = values
    # half the words carry the frozen values, half contradict them
    u = rng.integers(0, q, size=(64, n))
    u[:32, frozen] = values
    y = sample_outputs(ch, tensor_apply(kernel.inverse(), t, u), rng)

    u_hat = _decode_batch(code, y, ch)
    ref_u, _, _ = _ScEngine(kernel).run(
        word_major(_channel_posteriors(ch, y)), t, frozen_mask=frozen_mask, frozen_values=frozen_values
    )
    assert np.array_equal(u_hat, ref_u)
    # the certificate holds for the whole batch or not at all; one word at a
    # time it is decided per word, with the same decisions
    singles = np.concatenate([_decode_batch(code, y[i:i + 1], ch) for i in range(len(y))])
    assert np.array_equal(singles, u_hat)


@pytest.mark.parametrize("kind", ["noiseless", "erasure", "qsc"])
@pytest.mark.parametrize("name", ["arikan", "arikan2", "hamming7", "f3", "f5", "f2x4", "f11"])
def test_frozen_values_are_checked_once_per_word(name, kind, monkeypatch):
    # where every input is certain, the certificate leaves the frozen values
    # to one check per word, so it also holds on words that contradict a
    # frozen value; their first-pass u misses it, and exactly those words are
    # decoded again, to SC's decisions
    rng = np.random.default_rng(89)
    kernel, t, frozen, values = _pruning_case(name, "tree", rng)
    q, n = kernel.q, kernel.rows**t
    ch = {"noiseless": make_erasure(q, 0.0), "erasure": make_erasure(q, 0.05), "qsc": make_qsc(q, 0.01)}[kind]
    code = PolarCode(kernel, t, ch, frozen, values, np.zeros(n))
    # words 16-31 each contradict one frozen value
    u = rng.integers(0, q, size=(32, n))
    u[:, frozen] = values
    hit = (16 + np.arange(16), rng.choice(frozen, 16))
    u[hit] = (u[hit] + 1) % q
    y = sample_outputs(ch, tensor_apply(kernel.inverse(), t, u), rng)
    ref = reference_decode(code, y, ch)
    passes = _record_passes(monkeypatch)

    def decode(words):
        """u of ``y[words]``, and the words whose first-pass u misses a frozen value."""
        passes.clear()
        u_hat = _decode_batch(code, y[words], ch)
        first = tensor_apply(kernel, t, passes[0].x_hat.T)
        missed = np.flatnonzero((first[:, frozen] != values).any(axis=1))
        assert [p.frozen_free for p in passes] == [False] + [True] * bool(missed.size)
        if missed.size:
            assert np.array_equal(passes[1].pi, _channel_posteriors(ch, y[words][missed]))
        return u_hat, missed

    u_hat, batch_missed = decode(slice(None))
    assert np.array_equal(u_hat, ref)
    redecoded = []
    for i in range(len(y)):
        u_hat, missed = decode(slice(i, i + 1))
        assert np.array_equal(u_hat[0], ref[i])
        redecoded.extend(i + missed)
    # only words that SC fails are decoded again: words 16-31, and on the
    # noisy channels any word whose SC decisions are not the sent u
    assert set(redecoded) <= set(np.flatnonzero((ref != u).any(axis=1)))
    if kind != "qsc":
        # no erased input means eta = 0, so certified subtrees skip their check
        assert redecoded
    if kind == "noiseless":
        # every certificate holds, down from the root
        assert redecoded == batch_missed.tolist() == list(range(16, 32))
        # a batch that carries its frozen values makes a single pass
        decode(slice(0, 16))
        assert len(passes) == 1


def test_uncertain_certificates_check_the_frozen_values_at_the_node(monkeypatch):
    # on a qsc a certified subtree's hard decisions can be confidently wrong,
    # which SC's frozen fiat corrects; the node checks u*'s frozen values, so
    # a word that SC decodes correctly is decoded in one pass
    rng = np.random.default_rng(97)
    ch = make_qsc(2, 0.05)
    code = construct_code(ARIKAN, ch, 8, rate=0.5, rng=rng, genie_trials=2000)
    u = rng.integers(0, 2, size=(48, code.block_length))
    u[:, code.frozen] = code.frozen_values
    y = sample_outputs(ch, tensor_apply(ARIKAN.inverse(), 8, u), rng)
    ref = reference_decode(code, y, ch)
    passes = _record_passes(monkeypatch)
    checks = []
    transform = codec.tensor_apply
    monkeypatch.setattr(codec, "tensor_apply", lambda *args: checks.append(args[1]) or transform(*args))
    for i in range(len(y)):
        passes.clear()
        assert np.array_equal(_decode_batch(code, y[i:i + 1], ch)[0], ref[i])
        assert len(passes) == 1 or (ref[i] != u[i]).any()
    assert (ref == u).all(axis=1).sum() >= 40
    # subtrees below the root were certified and checked
    assert any(level < 8 for level in checks)


def _leaf_calls(code, y, ch):
    """Decode (B, N) words through the code's plan.

    Returns the (B, N) codeword and the indices the leaf was called for.
    """
    calls = []
    tie = 1e-12 * np.arange(code.q)

    def leaf(i, p):
        calls.append(i)
        return np.argmax(p - tie, axis=1)

    x_hat = _sc(code.kernel, _channel_posteriors(ch, y), code.t, leaf, code._sc_plan)
    return x_hat.T, calls


@pytest.mark.parametrize("name", ["arikan", "arikan2", "hamming7", "f3", "f5", "f2x4", "f11"])
def test_pruning_shortcuts_fire(name, monkeypatch):
    rng = np.random.default_rng(47)
    kernel, t = _reference_kernel(name)
    q, n = kernel.q, kernel.rows**t
    inv = kernel.inverse()
    noiseless, erasure = make_erasure(q, 0.0), make_erasure(q, 0.3)
    u = rng.integers(0, q, size=(8, n))
    x = tensor_apply(inv, t, u)

    # all frozen: the root returns the cached codeword, no leaf runs
    values = rng.integers(1, q, size=n)
    code = PolarCode(kernel, t, noiseless, np.arange(n), values, np.zeros(n))
    x_hat, calls = _leaf_calls(code, x, noiseless)
    assert calls == []
    assert np.array_equal(x_hat, np.broadcast_to(tensor_apply(inv, t, values), x.shape))

    # all information on noiseless words: the certificate holds at the root
    code = PolarCode(kernel, t, noiseless, np.arange(0), np.arange(0), np.zeros(n))
    x_hat, calls = _leaf_calls(code, x, noiseless)
    assert calls == []
    assert np.array_equal(x_hat, x)

    # an erased input fails the certificate: SC decides the erased word's
    # indices, which hard decisions could not
    y = x.copy()
    y[:, 0] = erasure.erasure_symbol
    _, calls = _leaf_calls(code, y, erasure)
    assert 0 in calls

    # a mixed code on noiseless words that carry its frozen values: the
    # root's certificate holds, so no leaf and no kernel node runs
    _, _, frozen, values = _pruning_case(name, "tree", rng)
    code = PolarCode(kernel, t, noiseless, frozen, values, np.zeros(n))
    u[:, frozen] = values
    x = tensor_apply(inv, t, u)
    nodes = []
    node_weights = codec._node_weights
    monkeypatch.setattr(codec, "_node_weights", lambda *args: nodes.append(1) or node_weights(*args))
    x_hat, calls = _leaf_calls(code, x, noiseless)
    assert calls == [] and nodes == []
    assert np.array_equal(x_hat, x)

    # one word contradicts the last frozen value: the root's certificate still
    # holds, but that word's u misses the frozen value, so it alone is decoded
    # again; there the information indices after it meet a dead node and their
    # leaves run, and SC's decisions stand
    u[3, frozen[-1]] = (values[-1] + 1) % q
    x = tensor_apply(inv, t, u)
    passes = _record_passes(monkeypatch)
    assert np.array_equal(_decode_batch(code, x, noiseless), reference_decode(code, x, noiseless))
    assert [(p.pi.shape[2], p.frozen_free) for p in passes] == [(8, False), (1, True)]
    assert passes[0].leaves == [] and passes[1].leaves and nodes
    assert np.array_equal(passes[1].pi, _channel_posteriors(noiseless, x[3:4]))


def test_dead_nodes_at_high_fer_match_reference_recursion(monkeypatch):
    # erasure(0.45) at rate 0.6 sits far above capacity: nearly every frame
    # fails, certificates meet wrong upstream decisions, and contradictory
    # decisions leave nodes with no weight at all
    rng = np.random.default_rng(71)
    ch = make_erasure(2, 0.45)
    code = construct_code(ARIKAN, ch, 8, rate=0.6, rng=rng)
    messages = rng.integers(0, 2, size=(300, len(code.info)))
    y = sample_outputs(ch, encode(code, messages), rng)
    dead = []
    law = codec._law
    monkeypatch.setattr(codec, "_law", lambda w, q: dead.append(not w.sum(axis=0).all()) or law(w, q))

    u_hat = _decode_batch(code, y, ch)
    singles = np.concatenate([_decode_batch(code, y[i:i + 1], ch) for i in range(len(y))])
    ref_u = reference_decode(code, y, ch)
    assert np.array_equal(u_hat, ref_u) and np.array_equal(singles, ref_u)
    assert np.any(u_hat[:, code.info] != messages, axis=1).sum() >= 290
    assert any(dead)

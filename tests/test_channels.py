"""Channel construction, symmetry verdicts, capacities, sampling."""

import math

import numpy as np
import pytest

from polarkit.channels import (
    Channel,
    capacity,
    make_erasure,
    make_qsc,
    make_table_channel,
    sample_outputs,
    validate_symmetric,
)

from helpers import sample_outputs_3d


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def test_qsc_table():
    c = make_qsc(3, 0.3)
    assert c.kind == "additive"
    for x in range(3):
        for y in range(3):
            expected = 0.7 if x == y else 0.15
            assert abs(c.w[x, y] - expected) < 1e-15


def test_qsc_noiseless_is_identity_table():
    c = make_qsc(2, 0.0)
    assert np.array_equal(c.w, np.eye(2))


def test_qsc_invalid_eps():
    with pytest.raises(ValueError):
        make_qsc(2, 1.5)


def test_qsc_rejects_a_non_integer_field_size():
    with pytest.raises(ValueError, match="modulus must be an integer; got 2.9"):
        make_qsc(2.9, 0.1)


def test_erasure_table_and_edge_cases():
    c = make_erasure(2, 0.4)
    assert c.outputs == 3 and c.erasure_symbol == 2
    assert abs(c.w[0, 0] - 0.6) < 1e-15 and abs(c.w[0, 2] - 0.4) < 1e-15
    assert capacity(make_erasure(2, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert capacity(make_erasure(3, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_symmetric_verdicts():
    assert validate_symmetric(make_qsc(3, 0.2)).ok
    assert validate_symmetric(make_erasure(2, 0.4)).ok
    z = Channel(2, [[1.0, 0.0], [0.3, 0.7]])
    cert = validate_symmetric(z)
    assert not cert.ok
    assert cert.violation is not None


def test_symmetry_certificate_bijections_verify():
    c = make_erasure(3, 0.25)
    cert = validate_symmetric(c)
    assert cert.ok
    # one bijection per input, from input 0: q^2 of them took q^2 * outputs
    # entries, 7.9 GB for an F_997 erasure channel
    assert sorted(cert.bijections) == [(0, b) for b in range(c.q)]
    for (a, b), sigma in cert.bijections.items():
        assert sorted(sigma.tolist()) == list(range(c.outputs))
        assert np.max(np.abs(c.w[a] - c.w[b][sigma])) <= 1e-12


def test_table_channel_enforces_symmetry_by_default():
    with pytest.raises(ValueError, match="not symmetric"):
        make_table_channel(2, [[1.0, 0.0], [0.3, 0.7]])


def test_capacity_erasure_closed_form():
    for q in (2, 3, 5):
        for z in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert capacity(make_erasure(q, z)) == pytest.approx(1.0 - z, abs=1e-12)


def test_capacity_qsc_binary():
    # direct mutual-information computation as the oracle
    eps = 0.11
    c = make_qsc(2, eps)
    oracle = 1.0 - binary_entropy(eps)
    assert capacity(c) == pytest.approx(oracle, abs=1e-12)
    assert abs(capacity(c) - 0.5) < 1e-3
    assert capacity(make_qsc(2, 0.5)) == pytest.approx(0.0, abs=1e-12)


def test_capacity_additive_matches_noise_entropy():
    for q in (2, 3, 5):
        for eps in (0.05, 0.2, 0.4):
            c = make_qsc(q, eps)
            h_noise = -(1 - eps) * math.log2(1 - eps) - eps * math.log2(eps / (q - 1))
            assert capacity(c) == pytest.approx(1.0 - h_noise / math.log2(q), abs=1e-12)


def test_capacity_invariant_under_relabeling():
    c = make_erasure(3, 0.35)
    perm = [2, 0, 3, 1]
    w = c.w[:, perm]
    relabeled = make_table_channel(3, w)
    assert capacity(relabeled) == pytest.approx(capacity(c), abs=1e-12)


def test_capacity_rejects_non_symmetric():
    z = Channel(2, [[1.0, 0.0], [0.3, 0.7]])
    with pytest.raises(ValueError, match="symmetric"):
        capacity(z)


def sample_output(c, x, rng):
    """Draw one channel output for input symbol ``x``."""
    return int(sample_outputs(c, np.asarray([x]), rng)[0])


def test_sampling_deterministic_cases():
    rng = np.random.default_rng(0)
    noiseless = make_qsc(2, 0.0)
    assert all(sample_output(noiseless, 1, rng) == 1 for _ in range(20))
    always_erased = make_erasure(3, 1.0)
    assert all(sample_output(always_erased, x, rng) == 3 for x in range(3))


def test_sampling_frequencies_match_table():
    rng = np.random.default_rng(123)
    c = make_qsc(2, 0.3)
    draws = sample_outputs(c, np.zeros(100_000, dtype=np.int64), rng)
    flip_rate = float(np.mean(draws == 1))
    assert abs(flip_rate - 0.3) < 0.01


def test_sampling_reproducible_for_fixed_seed():
    c = make_erasure(2, 0.5)
    x = np.arange(256) % 2
    a = sample_outputs(c, x, np.random.default_rng(9))
    b = sample_outputs(c, x, np.random.default_rng(9))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("x", [-1, 2])
def test_sampling_rejects_symbols_outside_the_field(x):
    # -1 used to sample as input 1, and 2 raised an IndexError
    with pytest.raises(ValueError, match=r"channel inputs must lie in \[0, 2\)"):
        sample_outputs(make_erasure(2, 0.0), np.array([x]), np.random.default_rng(0))


def test_sampling_rejects_non_integer_symbols():
    # 0.7 used to be truncated to input 0
    with pytest.raises(ValueError, match="channel inputs must be integers"):
        sample_outputs(make_erasure(2, 0.0), np.array([0.7]), np.random.default_rng(0))


@pytest.mark.parametrize("c", [
    make_erasure(3, 0.3),
    make_qsc(5, 0.2),
    make_qsc(2, 0.0),
    # ten rows of 0.1: the last cumulative threshold is 1 - 2^-53, not 1
    Channel(2, np.full((2, 10), 0.1)),
], ids=["erasure", "qsc", "noiseless", "ten-outputs"])
def test_sampling_matches_the_full_comparison(c):
    for seed, shape in ((0, (1,)), (1, (7, 33)), (2, (2, 3, 5))):
        x = np.random.default_rng(seed).integers(0, c.q, size=shape)
        got = sample_outputs(c, x, np.random.default_rng(seed + 10))
        assert got.shape == x.shape
        assert np.array_equal(got, sample_outputs_3d(c, x, np.random.default_rng(seed + 10)))


@pytest.mark.parametrize("outputs, dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_sampled_labels_take_the_smallest_unsigned_dtype(outputs, dtype):
    c = Channel(3, np.full((3, outputs), 1 / outputs))
    x = np.random.default_rng(3).integers(0, 3, size=(40, 50))
    got = sample_outputs(c, x, np.random.default_rng(4))
    assert got.dtype == dtype
    assert np.array_equal(got, sample_outputs_3d(c, x, np.random.default_rng(4)))


def test_row_sum_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        Channel(2, [[0.9, 0.0], [0.0, 1.0]])


def test_non_finite_table_rejected():
    # NaN passes both the sign and the row-sum comparisons
    for w in ([[np.nan, np.nan], [np.nan, np.nan]], [[np.inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="finite"):
            Channel(2, w)

"""Exact entropy engine: profiles, chain rule, predictors, exponent fits."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from polarkit import polarlab
from polarkit.channels import make_qsc
from polarkit.cli import resolve_kernel
from polarkit.entropy import (
    SymbolJoint,
    _entropy_bits,
    _enumerated_entropies,
    _erasure_rate,
    _fold,
    channel_joint,
    cond_entropy,
    consensus_predictor_error,
    erasure_family,
    erasure_joint,
    _map_predictor,
    polar_entropies,
    polarization_exponents,
)
from polarkit.fqlin import BudgetExceeded, FqMatrix, kron, kron_power, qary_words
from polarkit.kernelscope import is_mixing, random_mixing

from helpers import drop_side_info, fano_bound


def random_joint(q, m, rng):
    p = rng.random((q, m))
    return SymbolJoint(q, p / p.sum())


def polar_entropies_oracle(m, joint):
    """Reference profile: k+1 passes over the states, each accumulating the
    law of one transform prefix with the side information; h[j] is the
    difference of consecutive prefix entropies (noisy below ~1e-12)."""
    k, q, ma = m.rows, m.q, joint.m
    all_u = qary_words(q, k)
    v = all_u @ m.arr % q
    all_a = qary_words(ma, k)
    n_u, n_a = q**k, ma**k
    chunk = max(1, min(n_u, (1 << 22) // n_a + 1))
    cum_bits = np.empty(k + 1)
    for j in range(k + 1):
        vkey = np.zeros(n_u, dtype=np.int64)
        for i in range(j):
            vkey = vkey * q + v[:, i]
        size = (q**j) * n_a
        acc = np.zeros(size)
        offsets = np.arange(n_a, dtype=np.int64)
        for lo in range(0, n_u, chunk):
            hi = min(lo + chunk, n_u)
            w = np.ones((hi - lo, n_a))
            for i in range(k):
                w *= joint.p[all_u[lo:hi, i]][:, all_a[:, i]]
            flat = (vkey[lo:hi, None] * n_a + offsets[None, :]).ravel()
            acc += np.bincount(flat, weights=w.ravel(), minlength=size)
        cum_bits[j] = _entropy_bits(acc)
    return np.diff(cum_bits) / math.log2(q)


def test_cond_entropy_trivial_cases():
    # U uniform, A independent (constant observer)
    indep = SymbolJoint(3, np.full((3, 1), 1 / 3))
    assert cond_entropy(indep) == pytest.approx(1.0, abs=1e-12)
    # A = U reveals the symbol
    reveal = SymbolJoint(2, np.eye(2) / 2)
    assert cond_entropy(reveal) == pytest.approx(0.0, abs=1e-12)


def test_erasure_joint_calibration():
    for q in (2, 3, 5):
        for z in (0.0, 0.25, 0.5, 1.0):
            assert cond_entropy(erasure_joint(q, z)) == pytest.approx(z, abs=1e-12)


def test_erasure_joint_is_the_erasure_channel_table():
    # the table erasure_joint built entry by entry before it became the
    # channel's joint: (1-z)/q on the diagonal, z/q in the erasure column
    for q in (2, 3, 5, 7):
        for z in np.linspace(0.0, 1.0, 106):
            p = np.zeros((q, q + 1))
            for u in range(q):
                p[u, u] = (1.0 - z) / q
                p[u, q] = z / q
            assert erasure_joint(q, z).p.tobytes() == p.tobytes(), (q, z)


def test_identity_kernel_profile():
    joint = erasure_joint(3, 0.4)
    prof = polar_entropies(FqMatrix.identity(3, 3), joint)
    assert np.allclose(prof.h, 0.4, atol=1e-12)


def test_two_by_two_erasure_profile():
    m = FqMatrix(2, [[1, 0], [1, 1]])
    prof = polar_entropies(m, erasure_joint(2, 0.5))
    assert np.allclose(prof.h, [0.75, 0.25], atol=1e-12)


def test_chain_rule_random_kernels_and_joints():
    rng = np.random.default_rng(21)
    for q in (2, 3, 5):
        for _ in range(5):
            k = int(rng.integers(2, 4))
            m = random_mixing(q, k, rng)
            joint = random_joint(q, int(rng.integers(2, 5)), rng)
            prof = polar_entropies(m, joint)
            assert abs(prof.total - k * cond_entropy(joint)) < 1e-9


def test_profile_matches_difference_oracle():
    rng = np.random.default_rng(44)
    for q in (2, 3, 5):
        for k in (2, 3, 4):
            for _ in range(3):
                m = random_mixing(q, k, rng)
                joint = random_joint(q, int(rng.integers(1, 5)), rng)
                got = polar_entropies(m, joint).h
                assert np.max(np.abs(got - polar_entropies_oracle(m, joint))) <= 1e-12


def _erasure_precision_kernels():
    """The kernel families of acceptance criterion 3, plus arikan^3."""
    kernels = []
    for k in (2, 3):
        for entries in itertools.product(range(2), repeat=k * k):
            m = FqMatrix(2, np.array(entries).reshape(k, k))
            if is_mixing(m):
                kernels.append(m)
    rng = np.random.default_rng(103)
    for q, k, count in ((3, 2, 20), (3, 3, 20), (2, 4, 10), (3, 4, 10)):
        kernels.extend(random_mixing(q, k, rng) for _ in range(count))
    arikan = FqMatrix(2, [[1, 0], [1, 1]])
    kernels.append(kron(arikan, kron(arikan, arikan)))
    return kernels


def test_erasure_profile_relative_precision():
    # the exact values reach delta^8 ~ 1e-48; each must keep its relative
    # precision.  The counts path is checked against the state enumeration,
    # which still runs privately as its oracle
    worst = 0.0
    for m in _erasure_precision_kernels():
        for d in (1e-2, 1e-4, 1e-6, 0.3):
            joint = erasure_joint(m.q, d)
            got = polar_entropies(m, joint).h
            worst = max(worst, float(np.max(np.abs(got / _enumerated_entropies(m, _fold(joint)) - 1.0))))
    assert worst <= 1e-15


def test_near_deterministic_rows_keep_relative_precision():
    # q-ary symmetric pairs: H(U|A) = -(1-e) ln(1-e) - e ln(e/(q-1)), all of
    # whose mass sits in rows with one symbol of probability 1 - e
    for q in (2, 3):
        for e in (1e-8, 1e-12, 1e-15):
            p = np.full((q, q), e / (q - 1) / q)
            np.fill_diagonal(p, (1.0 - e) / q)
            exact = (-(1.0 - e) * math.log1p(-e) - e * math.log(e / (q - 1))) / math.log(q)
            got = polar_entropies(FqMatrix.identity(q, 2), SymbolJoint(q, p)).h
            assert np.max(np.abs(got / exact - 1.0)) <= 1e-9


def test_monotone_under_dropped_side_info():
    rng = np.random.default_rng(33)
    for _ in range(10):
        m = random_mixing(2, 3, rng)
        joint = random_joint(2, 3, rng)
        with_a = polar_entropies(m, joint)
        without_a = polar_entropies(m, drop_side_info(joint))
        assert np.all(without_a.h >= with_a.h - 1e-12)


def test_singular_kernel_rejected():
    with pytest.raises(ValueError, match="singular"):
        polar_entropies(FqMatrix(2, [[1, 1], [1, 1]]), erasure_joint(2, 0.3))


# three side symbols, the first two translates of each other, and no column
# a point mass or constant: it folds to m' = 2 and is enumerated
TRANSLATED = SymbolJoint(2, [[0.2, 0.1, 0.25], [0.1, 0.2, 0.15]])


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("POLARLAB_BUDGET", "10")
    # (q * m')^k = (2 * 2)^4 states
    with pytest.raises(BudgetExceeded, match="entropy state budget exceeded: 256 > 10"):
        polar_entropies(FqMatrix.identity(2, 4), SymbolJoint(2, [[0.4, 0.1], [0.2, 0.3]]))


def test_budget_counts_folded_states():
    # (2 * 3)^9 = 10,077,696 unfolded states exceed 10^7; (2 * 2)^9 = 262,144 fit
    assert _fold(TRANSLATED).shape == (2, 2)
    prof = polar_entropies(FqMatrix.identity(2, 9), TRANSLATED)
    assert np.allclose(prof.h, cond_entropy(TRANSLATED), atol=1e-12)


def test_erasure_joint_meets_the_pattern_budget(monkeypatch):
    # an erasure-type joint never enumerates states: its refusal is the
    # pattern pass's 2^k, where (2 * 2)^21 states would have been refused
    monkeypatch.delenv("POLARLAB_BUDGET", raising=False)
    with pytest.raises(BudgetExceeded, match=r"^erasure-pattern budget exceeded: 2097152 > 1048576$"):
        polar_entropies(FqMatrix.identity(2, 21), erasure_joint(2, 0.5))


def test_erasure_type_joints_are_recognised():
    # point-mass and constant columns, in any mix and with any masses, read
    # z off the constant ones; one other column sends the joint to the states
    for q in (2, 3, 5):
        assert _erasure_rate(_fold(erasure_joint(q, 0.3))) == 0.3
        assert _erasure_rate(_fold(erasure_joint(q, 0.0))) == 0.0
        assert _erasure_rate(_fold(erasure_joint(q, 1.0))) == 1.0
        assert _erasure_rate(_fold(channel_joint(make_qsc(q, 0.1)))) is None
    lopsided = SymbolJoint(3, [[0.5, 0.0, 0.1, 0.0], [0.0, 0.2, 0.1, 0.0], [0.0, 0.0, 0.1, 0.0]])
    assert _erasure_rate(_fold(lopsided)) == pytest.approx(0.3, abs=1e-16)
    assert _erasure_rate(_fold(TRANSLATED)) is None
    m = FqMatrix(3, [[1, 0], [1, 1]])
    oracle = _enumerated_entropies(m, _fold(lopsided))
    assert np.max(np.abs(polar_entropies(m, lopsided).h / oracle - 1.0)) <= 1e-15


def test_fold_merges_translated_side_symbols():
    # erasure: the q revealing columns are translates of one another and the
    # erasure column is its own class; q-ary symmetric: all columns are
    for q in (2, 3, 5):
        assert _fold(erasure_joint(q, 0.3)).shape == (q, 2)
        assert _fold(channel_joint(make_qsc(q, 0.1))).shape == (q, 1)
        # a zero-mass column is dropped: the erasure column at z = 0, the
        # revealing ones at z = 1
        assert _fold(erasure_joint(q, 0.0)).shape == (q, 1)
        assert _fold(erasure_joint(q, 1.0)).shape == (q, 1)
    rng = np.random.default_rng(8)
    for q, m in ((2, 3), (3, 4), (5, 6), (7, 3)):
        joint = random_joint(q, m, rng)
        folded = _fold(joint)
        assert folded.shape == (q, m)
        assert np.allclose(np.sort(folded.sum(axis=0)), np.sort(joint.p.sum(axis=0)), rtol=1e-15, atol=0)
        # rotating and shuffling columns, and adding zero ones, changes nothing
        moved = [np.roll(joint.p[:, a], int(rng.integers(q))) for a in rng.permutation(m)]
        moved.append(np.zeros(q))
        assert np.array_equal(_fold(SymbolJoint(q, np.array(moved).T)), folded)


def test_fold_adds_masses_and_breaks_ties():
    col = np.array([0.3, 0.1, 0.1]) / 2.0
    p = np.array([col, np.roll(col, 1), np.zeros(3), np.full(3, 0.5 / 3)]).T
    folded = _fold(SymbolJoint(3, p))
    assert folded.shape == (3, 2)
    assert sorted(folded.T.tolist()) == sorted([(2 * col).tolist(), np.full(3, 0.5 / 3).tolist()])
    # tied maxima: the rotations from both start at 2, and the next entry decides
    col = np.array([2.0, 0.0, 2.0, 1.0, 0.0])
    p = np.array([np.roll(col, s) for s in range(5)]).T
    assert _fold(SymbolJoint(5, p / p.sum())).tolist() == [[0.4], [0.2], [0.0], [0.4], [0.0]]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_translated_columns_match_the_oracle(q):
    # one random column and all its rotations, its reflection u -> -u (a
    # rotation only over F_2) and a second random column, in shuffled order;
    # the oracle enumerates the unfolded states
    rng = np.random.default_rng(60 + q)
    col = rng.random(q)
    cols = [np.roll(col, s) for s in range(q)] + [col[-np.arange(q)], rng.random(q)]
    p = np.array(cols).T
    joint = SymbolJoint(q, p[:, rng.permutation(q + 2)] / p.sum())
    assert _fold(joint).shape == (q, 2 if q == 2 else 3)
    for _ in range(3):
        m = random_mixing(q, 3, rng)
        assert np.max(np.abs(polar_entropies(m, joint).h - polar_entropies_oracle(m, joint))) <= 1e-12


def _h2(x):
    return (-x * math.log(x) - (1.0 - x) * math.log1p(-x)) / math.log(2.0)


@pytest.mark.parametrize("eps", [0.3, 0.1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8])
def test_arikan_bsc_closed_forms(eps):
    # v = (u0 + u1, u1): h[0] = h2(2e(1-e)); h[1] = H(U1 | U0 + U1, Y1, Y2)
    s = (1.0 - eps) ** 2 + eps**2
    exact = np.array([_h2(2 * eps * (1 - eps)), 2 * eps * (1 - eps) + s * _h2(eps**2 / s)])
    got = polar_entropies(FqMatrix(2, [[1, 0], [1, 1]]), channel_joint(make_qsc(2, eps))).h
    assert np.max(np.abs(got / exact - 1.0)) <= 1e-12


@pytest.mark.parametrize("name,q", [("arikan", 2), ("arikan2", 2), ("hamming7", 2), ("arikan", 3), ("arikan", 5)])
def test_erasure_profiles_match_exact_pattern_counts(name, q):
    # h[j](delta) = f_j(delta) = sum_w c_j[w] delta^w (1 - delta)^(k - w),
    # evaluated in exact arithmetic at the float delta
    m = resolve_kernel(name, q)
    counts, k = polarlab.erasure_polynomials(m).counts, m.rows
    for d in (1e-2, 1e-3, 1e-4, 0.3):
        x = Fraction(d)
        exact = [sum(int(c) * x**w * (1 - x) ** (k - w) for w, c in enumerate(row)) for row in counts]
        got = polar_entropies(m, erasure_joint(q, d)).h
        worst = max(abs(float(Fraction(g) / e - 1)) for g, e in zip(got.tolist(), exact))
        assert worst <= 1e-15, (d, worst)


def test_map_predictor_trivial():
    reveal = SymbolJoint(2, np.eye(2) / 2)
    f, err = _map_predictor(reveal)
    assert err == pytest.approx(0.0, abs=1e-15) and f.tolist() == [0, 1]
    indep = SymbolJoint(2, np.full((2, 1), 0.5))
    _, err = _map_predictor(indep)
    assert err == pytest.approx(0.5, abs=1e-15)


def test_map_predictor_exact_error_formula():
    rng = np.random.default_rng(4)
    for _ in range(50):
        joint = random_joint(int(rng.choice([2, 3, 5])), int(rng.integers(2, 7)), rng)
        _, err = _map_predictor(joint)
        assert err == pytest.approx(1.0 - joint.p.max(axis=0).sum(), abs=1e-15)


def test_prediction_error_below_entropy_bits():
    # P(f(A) != U) <= H(U|A) in bits, over sampled joints
    rng = np.random.default_rng(6)
    for _ in range(200):
        q = int(rng.choice([2, 3, 5]))
        joint = random_joint(q, int(rng.integers(2, 7)), rng)
        _, err = _map_predictor(joint)
        bits = cond_entropy(joint) * math.log2(q)
        assert err <= bits + 1e-12


def test_fano_bound_values_and_domain():
    assert fano_bound(0.25, 2) == pytest.approx(1.5, abs=1e-12)
    assert fano_bound(1e-9, 4) < 1e-7  # bound vanishes with delta
    with pytest.raises(ValueError):
        fano_bound(0.5, 2)
    with pytest.raises(ValueError):
        fano_bound(0.0, 2)


def test_entropy_bits_below_fano_of_map_error():
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(300):
        q = int(rng.choice([2, 3, 5]))
        joint = random_joint(q, int(rng.integers(2, 7)), rng)
        _, err = _map_predictor(joint)
        if not 0.0 < err < 0.5:
            continue
        bits = cond_entropy(joint) * math.log2(q)
        assert bits <= fano_bound(err, q) + 1e-12
        checked += 1
    assert checked > 100


def test_exponents_identity_kernel():
    rep = polarization_exponents(
        FqMatrix.identity(2, 2), erasure_family(2), [1e-2, 1e-3, 1e-4]
    )
    assert np.allclose(rep.exponents, 1.0, atol=0.01)


def test_exponents_two_by_two():
    m = FqMatrix(2, [[1, 0], [1, 1]])
    rep = polarization_exponents(m, erasure_family(2), [1e-2, 1e-3, 1e-4])
    assert rep.exponents[0] == pytest.approx(1.0, abs=0.05)
    assert rep.exponents[1] == pytest.approx(2.0, abs=0.05)
    eta, b = rep.suction_pair(1.8)
    assert eta == pytest.approx(0.5) and b == pytest.approx(2.0, abs=0.05)


def test_exponents_squared_kernel_erasure_exact():
    # For the erasure family the last index of the squared 2x2 kernel decays
    # as delta^4 (only the full pattern leaves it undetermined); the grid stays
    # above the cancellation floor of the state-space entropies.
    m = FqMatrix(2, [[1, 0], [1, 1]])
    m2 = kron(m, m)
    rep = polarization_exponents(m2, erasure_family(2), [3e-2, 2e-2, 1e-2])
    assert rep.exponents[3] == pytest.approx(4.0, abs=0.05)
    # orders (1, 2, 2, 4): three of four indices at or above quadratic
    assert rep.fraction_at_least(1.8) == pytest.approx(0.75)


def test_exponents_squared_kernel_default_grid():
    # the CLI grid reaches h[3] = delta^4 = 1e-16 at delta = 1e-4
    m = FqMatrix(2, [[1, 0], [1, 1]])
    rep = polarization_exponents(kron(m, m), erasure_family(2), [1e-2, 1e-3, 1e-4])
    assert rep.exponents[3] == pytest.approx(4.0, abs=0.01)


def test_exponents_of_vanished_entropies_are_inf():
    # on arikan^3, h[7] = delta^8 is a subnormal 1e-320 at delta = 1e-40 and
    # underflows to exactly 0 below; an index with any zero on the fitted grid
    # reads +inf, while the others still fit their orders in one fit
    m = kron_power(FqMatrix(2, [[1, 0], [1, 1]]), 3)
    rep = polarization_exponents(m, erasure_family(2), [1e-40, 1e-41, 1e-42])
    assert rep.profiles[0, 7] == rep.profiles[1, 7] == 0.0 < rep.profiles[2, 7]
    assert math.isinf(rep.exponents[7]) and rep.to_dict()["per_index_exponents"][7] == "inf"
    assert np.allclose(rep.exponents[:7], [1, 2, 2, 4, 2, 4, 4], atol=1e-9)


def test_exponents_need_three_distinct_deltas():
    # a repeated grid value leaves the log-log fit singular
    m = FqMatrix(2, [[1, 0], [1, 1]])
    for grid in ([1e-2, 1e-2, 1e-2], [1e-2, 1e-3, 1e-3]):
        with pytest.raises(ValueError, match="3 distinct"):
            polarization_exponents(m, erasure_family(2), grid)


def test_exponents_family_calibration_enforced():
    bad_family = lambda d: erasure_joint(2, min(1.0, 2 * d))
    with pytest.raises(ValueError, match="miscalibrated"):
        polarization_exponents(
            FqMatrix(2, [[1, 0], [1, 1]]), bad_family, [1e-2, 1e-3, 1e-4]
        )


def test_consensus_predictor_error_closed_form():
    # erasure source residual law: 0 with prob 1-z+z/q, each nonzero value
    # with prob z/q; plug into P(agree nonzero) + P(disagree) * P(residual != 0)
    for q in (2, 3, 5):
        for z in (0.3, 0.05, 1e-3):
            r0 = 1.0 - z + z / q
            rnz = z / q
            p = z * (q - 1) / q
            expected = (q - 1) * rnz**2 + (1.0 - r0**2 - (q - 1) * rnz**2) * p
            got = consensus_predictor_error(erasure_joint(q, z))
            assert got == pytest.approx(expected, rel=1e-10)
            if q == 2:
                assert got == pytest.approx(3 * p * p - 2 * p**3, rel=1e-10)


def test_consensus_predictor_quadratic_fit():
    deltas = np.array([1e-2, 1e-3, 1e-4])
    errs = [consensus_predictor_error(erasure_joint(2, d)) for d in deltas]
    slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_consensus_error_bounded_by_three_delta_squared_smallish():
    for d in (1e-2, 1e-3, 1e-4):
        assert consensus_predictor_error(erasure_joint(2, d)) <= 3 * d * d


def test_channel_joint_matches_capacity():
    c = make_qsc(3, 0.2)
    joint = channel_joint(c)
    from polarkit.channels import capacity

    assert cond_entropy(joint) == pytest.approx(1.0 - capacity(c), abs=1e-12)


def test_symbol_joint_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        SymbolJoint(2, [[np.nan, 0.5], [0.25, 0.25]])

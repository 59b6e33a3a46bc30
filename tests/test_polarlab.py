"""Erasure polynomials, tree evolution, sampling, window reports."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from polarkit import fqlin
from polarkit.cli import resolve_kernel
from polarkit.entropy import _enumerated_entropies, _fold, erasure_joint, polar_entropies
from polarkit.fqlin import (
    BUDGET_ENV,
    BudgetExceeded,
    FqMatrix,
    kron,
    kron_power,
    min_weight_search,
    row_echelon,
)
from polarkit.kernelscope import random_mixing
from polarkit.polarlab import (
    MartingaleTreeLevel,
    erasure_polynomials,
    evolve_tree,
    leading_exponents,
    local_profile,
    polarization_report,
    sample_paths,
)

from helpers import log_pair_step, log_space_report, random_invertible

ARIKAN = FqMatrix(2, [[1, 0], [1, 1]])


def pattern_counts_oracle(m: FqMatrix) -> np.ndarray:
    """Reference c_j[w]: one row reduction of M[e, :] per erasure pattern e."""
    k = m.rows
    counts = np.zeros((k, k + 1), dtype=np.int64)
    rows = np.arange(k)
    for bits in range(1, 2**k):
        erased = rows[(bits >> rows) & 1 == 1]
        _, pivots = row_echelon(m.arr[erased], m.q)
        counts[pivots, len(erased)] += 1
    return counts


def assert_counts_match_oracle(m: FqMatrix):
    counts = erasure_polynomials(m).counts
    expected = pattern_counts_oracle(m)
    assert counts.dtype == expected.dtype and counts.shape == expected.shape
    assert np.array_equal(counts, expected), (m.q, m.rows)
    assert not counts.flags.writeable


# q = 257: q - 1 does not fit the one-byte layer state
@pytest.mark.parametrize("q", [2, 3, 5, 7, 257])
def test_counts_match_oracle_random_invertible(q):
    rng = np.random.default_rng(40 + q)
    for k in range(1, 11):
        assert_counts_match_oracle(random_invertible(q, k, rng))


def test_counts_match_oracle_named_kernels():
    rng = np.random.default_rng(12)
    assert_counts_match_oracle(kron_power(ARIKAN, 3))
    assert_counts_match_oracle(resolve_kernel("hamming7", 2))
    assert_counts_match_oracle(kron(random_mixing(3, 3, rng), random_mixing(3, 4, rng)))


def test_pattern_count_identities_at_envelope_edge():
    k = 20
    counts = erasure_polynomials(random_invertible(2, k, np.random.default_rng(20))).counts
    assert [int(counts[:, w].sum()) for w in range(k + 1)] == [w * math.comb(k, w) for w in range(k + 1)]
    assert np.all(counts[:, k] == 1) and np.all(counts[:, 0] == 0)


def test_two_by_two_pattern_counts():
    eps = erasure_polynomials(ARIKAN)
    assert eps.counts.tolist() == [[0, 2, 1], [0, 0, 1]]
    x = np.linspace(0.0, 1.0, 21)
    f = eps.evaluate(x)
    assert np.allclose(f[:, 0], 2 * x - x * x, atol=1e-15)
    assert np.allclose(f[:, 1], x * x, atol=1e-15)


def test_identity_kernel_polynomials():
    eps = erasure_polynomials(FqMatrix.identity(3, 3))
    x = np.linspace(0.0, 1.0, 11)
    assert np.allclose(eps.evaluate(x), x[:, None], atol=1e-15)


def test_martingale_sum_property_random_kernels():
    rng = np.random.default_rng(2)
    x = np.linspace(0.0, 1.0, 11)
    for q in (2, 3, 5):
        for _ in range(8):
            k = int(rng.integers(2, 5))
            m = random_mixing(q, k, rng)
            f = erasure_polynomials(m).evaluate(x)
            assert np.allclose(f.sum(axis=1), k * x, atol=1e-12)


def test_boundary_values():
    rng = np.random.default_rng(12)
    for q in (2, 3):
        m = random_mixing(q, 4, rng)
        eps = erasure_polynomials(m)
        assert np.allclose(eps.evaluate(0.0), 0.0, atol=1e-15)
        assert np.allclose(eps.evaluate(1.0), 1.0, atol=1e-15)


def test_cross_oracle_against_entropy_engine():
    # the engine reads erasure joints off these counts, so the oracle is its
    # state enumeration
    rng = np.random.default_rng(9)
    zs = np.arange(0.1, 0.95, 0.1)
    for q in (2, 3):
        for k in (2, 3, 4):
            m = random_mixing(q, k, rng)
            eps = erasure_polynomials(m)
            for z in zs:
                h = _enumerated_entropies(m, _fold(erasure_joint(q, z)))
                assert np.allclose(eps.evaluate(z), h, atol=1e-9)


@pytest.mark.parametrize("name,q", [("arikan", 2), ("arikan2", 2), ("hamming7", 2), ("arikan", 3), ("arikan", 5)])
def test_evaluate_matches_exact_arithmetic(name, q):
    # every f_j(x) to 1e-15 relative, at x far below 1e-2 and near 1 too;
    # also arikan^3 and arikan^4 over F_2
    m = resolve_kernel(name, q)
    for kernel in (m, kron_power(m, 3), kron_power(m, 4)) if (name, q) == ("arikan", 2) else (m,):
        polys, k = erasure_polynomials(kernel), kernel.rows
        xs = [0.0, 1e-12, 1e-6, 1e-4, 1e-2, 0.3, 0.5, 0.99, 1.0]
        got = polys.evaluate(np.array(xs))
        for x, row in zip(xs, got.tolist()):
            x = Fraction(x)
            for c, g in zip(polys.counts, row):
                exact = sum(int(n) * x**w * (1 - x) ** (k - w) for w, n in enumerate(c))
                assert (g == 0) if exact == 0 else abs(float(Fraction(g) / exact - 1)) <= 1e-15, (x, g)


def test_singular_kernel_rejected():
    with pytest.raises(ValueError, match="singular"):
        erasure_polynomials(FqMatrix(2, [[1, 1], [1, 1]]))


def test_leading_exponents_examples():
    lead = leading_exponents(ARIKAN)
    assert lead.d.tolist() == [1, 2]
    assert lead.eta == pytest.approx(0.5) and lead.b == 2
    assert lead.constants.tolist() == [2, 1]

    lead_id = leading_exponents(FqMatrix.identity(2, 3))
    assert lead_id.d.tolist() == [1, 1, 1]
    assert lead_id.eta == 0.0 and lead_id.b is None


def test_evolve_tree_small_levels():
    # values are exp(ln z): the exact dyadic values within 2 ulp, not bit for bit
    def assert_level(t, exact):
        got = evolve_tree(ARIKAN, 0.5, t).values
        exact = np.array(exact)
        assert np.all(np.abs(got - exact) <= 2 * np.spacing(exact)), (t, got.tolist())

    assert_level(0, [0.5])
    assert_level(1, [0.75, 0.25])
    # lexicographic: (f1 f1, f2 f1, f1 f2, f2 f2) applied inner-first
    assert_level(2, [15 / 16, 9 / 16, 7 / 16, 1 / 16])


def exact_tree(counts: np.ndarray, z0: Fraction, t: int):
    """Level-t leaves f_{i_t}(...f_{i_1}(z0)...) as Fractions, lexicographic."""
    k = counts.shape[0]
    level = [z0]
    for _ in range(t):
        level = [
            sum(int(c) * x**w * (1 - x) ** (k - w) for w, c in enumerate(counts[j]))
            for x in level
            for j in range(k)
        ]
    return level


def exact_ln(p: Fraction) -> float:
    """ln p for p in (0, 1], correct to a few ulp.

    Above 1/2, log1p of the exact 1 - p.  Otherwise p = m * 2^e with m in
    (1/2, 2) and e <= -1, and e ln 2 + ln m cancels at most half its digits.
    """
    if p > Fraction(1, 2):
        return math.log1p(-float(1 - p))
    e = p.numerator.bit_length() - p.denominator.bit_length()
    return e * math.log(2) + math.log(float(p / Fraction(2) ** e))


def log_pair(logits):
    """(ln z, ln(1 - z)) of logits s, both through ``log_values``: 1 - z has logit -s."""
    return MartingaleTreeLevel(0, logits).log_values, MartingaleTreeLevel(0, -logits).log_values


def start_logit(z0: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log([z0]) - np.log1p([-z0])


def assert_logits_match_exact(m: FqMatrix, z0: float, t_max: int):
    """Iterate logit_step from the logit of z0 and compare every level's ln z
    and ln(1 - z) with the exact tree, within 1e-13 of max(1, |ln|)."""
    polys = erasure_polynomials(m)
    logits = start_logit(z0)
    for t in range(1, t_max + 1):
        logits = polys.logit_step(logits).ravel()
        exact = exact_tree(polys.counts, Fraction(z0), t)
        for got, want in zip(log_pair(logits), ([exact_ln(z) for z in exact], [exact_ln(1 - z) for z in exact])):
            want = np.array(want)
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert err.max() <= 1e-13, (m.q, t, float(err.max()))
        assert np.array_equal(evolve_tree(polys, z0, t).logits, logits)


def test_logit_step_matches_exact_tree_arikan():
    assert_logits_match_exact(ARIKAN, 0.3, 8)


def test_logit_step_matches_exact_tree_f3():
    m = random_mixing(3, 3, np.random.default_rng(3))
    assert_logits_match_exact(m, 0.6, 4)


def test_chunked_tree_matches_whole_level_steps():
    # level 16 has 2^15 parents, more than one of evolve_tree's chunks
    polys = erasure_polynomials(ARIKAN)
    logits = start_logit(0.4)
    for _ in range(16):
        logits = polys.logit_step(logits).ravel()
    assert np.array_equal(evolve_tree(polys, 0.4, 16).logits, logits)


def test_logit_step_handles_both_endpoints():
    polys = erasure_polynomials(random_mixing(3, 3, np.random.default_rng(4)))
    assert polys.logit_step(np.array([-np.inf, np.inf])).tolist() == [[-np.inf] * 3, [np.inf] * 3]


def _differential_kernels():
    """(id, kernel, largest t within the tree budget of 10^6 leaves)."""
    rng = np.random.default_rng(26)
    for name, m in [("arikan", ARIKAN), ("arikan-q3", FqMatrix(3, ARIKAN.arr)),
                    ("arikan2", resolve_kernel("arikan2", 2)), ("hamming7", resolve_kernel("hamming7", 2)),
                    ("random-q5-k3", random_invertible(5, 3, rng)), ("arikan-x4", kron_power(ARIKAN, 4))]:
        yield pytest.param(m, math.floor(6 / math.log10(m.rows) + 1e-9), id=name)


@pytest.mark.parametrize("m,t_max", list(_differential_kernels()))
@pytest.mark.parametrize("z0", [0.0, 0.3, 0.5, 1.0])
def test_logit_step_matches_the_log_pair_oracle(m, t_max, z0):
    # every level that fits the tree budget, against the pair (ln z, ln(1 - z))
    # the tree carried before; arikan-x4 (k = 16) reaches binomials of 12870
    # at the r clamp
    polys = erasure_polynomials(m)
    logits = start_logit(z0)
    with np.errstate(divide="ignore"):
        pair = np.log([z0]), np.log1p([-z0])
    for t in range(1, t_max + 1):
        logits = polys.logit_step(logits).ravel()
        pair = tuple(side.ravel() for side in log_pair_step(polys, *pair))
        for got, want in zip(log_pair(logits), pair):
            assert np.array_equal(np.isinf(got), np.isinf(want)), t
            finite = np.isfinite(want)
            err = np.abs(got[finite] - want[finite]) / np.maximum(1.0, np.abs(want[finite]))
            assert err.max(initial=0.0) <= 1e-13, (t, float(err.max()))
    assert np.array_equal(evolve_tree(polys, z0, t_max).logits, logits)  # t_max fits the budget


def test_deep_leaves_stay_finite():
    # at t = 12 some leaves lie below 1e-300, which a float tree cannot hold
    # for long; as logits every leaf is finite and none is lost, and no leaf
    # rounds above 1
    level = evolve_tree(ARIKAN, 0.5, 12)
    assert np.all(np.isfinite(level.logits))
    assert np.all(np.isfinite(level.log_values))
    assert (level.log_values < math.log(1e-300)).any()
    assert level.log_values.max() <= 0.0


def test_tree_views_match_the_unmasked_exp_bit_for_bit():
    # values and log_values skip the exp where it underflows to 0; every
    # bit, the sign of -0.0 included, must equal calling exp everywhere
    edges = [-np.inf, -800, -746.5, -746, -745.5, -708, -700, -1, -0.0, 0, 1, 700, 708, 745.5, 746, 746.5, 800, np.inf]
    logits = np.concatenate([evolve_tree(ARIKAN, 0.5, 16).logits, edges])
    assert (logits < -746).sum() > 1000 and (logits > 746).sum() > 1000
    level = MartingaleTreeLevel(16, logits)
    with np.errstate(under="ignore"):
        log_values = np.clip(logits, -700.0, 746.0)
        np.log1p(np.exp(-log_values), out=log_values)
        log_values = np.minimum(-log_values, logits)
        values = np.exp(log_values)
    assert level.log_values.tobytes() == log_values.tobytes()
    assert level.values.tobytes() == values.tobytes()


def test_tree_mean_conservation():
    for z0 in (0.2, 0.5, 0.8):
        for t in (4, 8, 12):
            level = evolve_tree(ARIKAN, z0, t)
            assert level.mean == pytest.approx(z0, abs=1e-9)


def test_tree_budget():
    with pytest.raises(BudgetExceeded, match="tree budget exceeded: 2097152 > 1000000"):
        evolve_tree(ARIKAN, 0.5, 21)


def test_sample_paths_validates_like_evolve_tree():
    rng = np.random.default_rng(0)
    for z0 in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match=r"initial erasure rate must lie in \[0, 1\]"):
            sample_paths(ARIKAN, z0, 3, 4, rng)
    with pytest.raises(ValueError, match="tensor depth must be nonnegative"):
        sample_paths(ARIKAN, 0.5, -2, 4, rng)


def test_sample_paths_trivial_and_mean():
    rng = np.random.default_rng(3)
    ends = sample_paths(ARIKAN, 0.5, 0, 100, rng)
    assert np.all(ends == 0.5)
    ends = sample_paths(ARIKAN, 0.5, 10, 100_000, rng)
    assert abs(float(ends.mean()) - 0.5) < 0.01


def test_sampled_endpoints_match_tree_distribution():
    rng = np.random.default_rng(7)
    t = 10
    tree_vals = np.sort(evolve_tree(ARIKAN, 0.5, t).values)
    ends = sample_paths(ARIKAN, 0.5, t, 100_000, rng)
    # Kolmogorov distance at the atoms of the exact tree distribution
    atoms = np.unique(tree_vals)
    tree_cdf = np.searchsorted(tree_vals, atoms, side="right") / tree_vals.size
    emp_cdf = np.searchsorted(np.sort(ends), atoms, side="right") / ends.size
    assert float(np.max(np.abs(tree_cdf - emp_cdf))) < 0.02


def test_polarization_report_trivial_cases():
    fully = polarization_report(
        [evolve_tree(ARIKAN, 0.0, 3), evolve_tree(ARIKAN, 1.0, 3)], 0.45, 0.8, 1e-6
    )
    assert np.all(fully.fraction_exp == 0.0)
    assert np.all(fully.fraction_strong == 0.0)

    # boundary values sit outside the open window
    level = MartingaleTreeLevel(1, np.zeros(2))  # z = 1/2
    rep = polarization_report(level, 0.45, 0.5, 1e-6)
    assert rep.fraction_strong[0] == 0.0


@pytest.mark.parametrize("threshold", [-1.0, 0.0, 1e-6, 1.0, 2.0])
@pytest.mark.parametrize("lam", [0.45, 80.0])
@pytest.mark.parametrize("z0", [0.0, 0.5, 1.0])
def test_polarization_report_matches_the_log_space_oracle(z0, lam, threshold):
    # t = 0 has gamma^0 = 1, lam = 80 overflows the low edge from t = 13 on,
    # and thresholds at or past 1 and at or below 0 meet each edge rule
    levels = evolve_tree(ARIKAN, z0, 14, return_all=True)
    rep = polarization_report(levels, lam, 0.8, threshold)
    f_exp, f_strong, rate, rho_hat = log_space_report([(lev.t, lev.log_values) for lev in levels], lam, 0.8, threshold)
    assert rep.fraction_exp.tolist() == f_exp.tolist()
    assert rep.fraction_strong.tolist() == f_strong.tolist()
    assert rep.rate_at_threshold.tolist() == rate.tolist()
    assert rep.rho_hat == rho_hat or (math.isnan(rep.rho_hat) and math.isnan(rho_hat))


def test_polarization_report_decay_trend():
    levels = evolve_tree(ARIKAN, 0.5, 14, return_all=True)
    rep = polarization_report(levels[6:], 0.45, 0.8, 1e-6)
    assert rep.rho_hat < 1.0
    fe = rep.fraction_exp
    t8 = list(rep.levels).index(8)
    assert all(fe[i + 1] <= fe[i] for i in range(t8, len(fe) - 1))


def test_polarization_report_validation():
    with pytest.raises(ValueError):
        polarization_report([], 0.45, 0.8, 1e-6)
    with pytest.raises(ValueError):
        polarization_report(evolve_tree(ARIKAN, 0.5, 2), 0.45, 1.5, 1e-6)


def arikan_half_numerators(t: int):
    """Level-t leaves of the arikan tree from z0 = 1/2, as integers a of
    a / 2^(2^t): f1 = 2x - x^2 and f2 = x^2 keep the denominator a power of 2."""
    nums, e = [1], 1
    for _ in range(t):
        nums = [c for a in nums for c in ((a << (e + 1)) - a * a, a * a)]
        e *= 2
    return nums, e


@pytest.mark.parametrize("t", [12, 13, 14])
def test_fraction_exp_is_exact_below_the_smallest_double(t):
    # at lam = 0.9 the low edge 2^-2^(0.9 t) lies below the smallest double;
    # count the leaves inside the window in exact arithmetic
    lam, gamma = 0.9, 0.8
    nums, e = arikan_half_numerators(t)
    low = -(2.0 ** (lam * t))  # log2 of the low edge
    high = Fraction(1.0 - gamma**t)  # the float high edge, exactly
    log2_z = np.array([math.log2(a) - e for a in nums])
    assert np.min(np.abs(log2_z - low)) > 1e-6  # no leaf is within float reach of the edge
    top = high.numerator << e  # a / 2^e < high, cleared of denominators
    inside = sum(1 for a, l2 in zip(nums, log2_z) if l2 > low and a * high.denominator < top)
    rep = polarization_report(evolve_tree(ARIKAN, 0.5, t), lam, gamma, 1e-6)
    assert rep.fraction_exp[0] == inside / 2**t


@pytest.mark.parametrize("t,lam", [(2, 600.0), (11, 100.0), (14, 80.0)])
def test_fraction_exp_past_an_overflowing_low_edge(t, lam):
    # 2^(lam t) overflows a double; the low edge then lies below every leaf
    # with z > 0, so the window holds exactly the leaves under the high edge
    gamma = 0.8
    nums, e = arikan_half_numerators(t)
    high = Fraction(1.0 - gamma**t)
    top = high.numerator << e
    inside = sum(1 for a in nums if 0 < a and a * high.denominator < top)
    rep = polarization_report(evolve_tree(ARIKAN, 0.5, t), lam, gamma, 1e-6)
    assert rep.fraction_exp[0] == inside / 2**t
    # z = 0 stays outside the open window
    assert polarization_report(evolve_tree(ARIKAN, 0.0, t), lam, gamma, 1e-6).fraction_exp[0] == 0.0


def test_local_profile_identity():
    prof = local_profile(FqMatrix.identity(2, 2))
    assert np.allclose(prof.variance, 0.0, atol=1e-15)
    # f_j(x) = x: no index is sucked in faster than linearly at either end
    for lead in (prof.low, prof.high):
        assert lead.d.tolist() == [1, 1]
        assert lead.eta == 0.0 and lead.b is None


def test_local_profile_arikan():
    prof = local_profile(ARIKAN)
    # f = (2x - x^2, x^2): both move x by x(1 - x), 1/4 at x = 1/2
    x = prof.grid
    assert np.allclose(prof.variance, (x * (1 - x)) ** 2, rtol=0, atol=1e-15)
    assert prof.variance[np.isclose(x, 0.5)] == pytest.approx(0.0625, abs=1e-12)
    # near 1: 1 - f_j(1 - x) = (x^2, 2x - x^2)
    assert prof.low.d.tolist() == [1, 2] and prof.low.constants.tolist() == [2, 1]
    assert prof.high.d.tolist() == [2, 1] and prof.high.constants.tolist() == [1, 2]
    for lead in (prof.low, prof.high):
        assert lead.eta == 0.5 and lead.b == 2


def _duality_kernels():
    """Random invertible kernels over F_2, F_3, F_5 and F_7 with k = 1..6."""
    rng = np.random.default_rng(16)
    for q in (2, 3, 5, 7):
        for k in range(1, 7):
            for _ in range(2):
                yield random_invertible(q, k, rng)


def _dual(m: FqMatrix) -> FqMatrix:
    """M* = (M^-1)^T with rows and columns reversed."""
    return FqMatrix(m.q, m.inverse().arr.T[::-1, ::-1])


@pytest.mark.parametrize("m", list(_duality_kernels()), ids=lambda m: f"q{m.q}-k{m.rows}")
def test_high_end_is_the_low_end_of_the_dual_kernel(m):
    # 1 - f_j^M(1 - x) = f_{k-1-j}^{M*}(x), coefficient by coefficient
    k, counts = m.rows, erasure_polynomials(m).counts
    binom = np.array([math.comb(k, w) for w in range(k + 1)])
    dual = erasure_polynomials(_dual(m))
    assert np.array_equal(binom - counts[:, ::-1], dual.counts[::-1])
    high, dual_low = local_profile(m).high, leading_exponents(dual)
    assert high.d.tolist() == dual_low.d.tolist()[::-1]
    assert high.constants.tolist() == dual_low.constants.tolist()[::-1]
    assert (high.eta, high.b) == (dual_low.eta, dual_low.b)


@pytest.mark.parametrize("m", [ARIKAN, kron(ARIKAN, ARIKAN), resolve_kernel("hamming7", 2),
                               random_mixing(3, 4, np.random.default_rng(7))],
                         ids=["arikan", "arikan2", "hamming7", "mixing-q3-k4"])
def test_high_end_polynomial_matches_evaluate(m):
    # the high end's Bernstein polynomial against 1 - f_j(1 - x) evaluated
    # in floats, and its leading term against logit_step's ln(1 - f_j),
    # which keeps full relative precision where 1 - f_j is below 1e-16
    polys = erasure_polynomials(m)
    k = polys.k
    binom = np.array([math.comb(k, w) for w in range(k + 1)])
    high = binom - polys.counts[:, ::-1]
    x = np.linspace(0.0, 1.0, 41)
    bernstein = x[:, None] ** np.arange(k + 1) * (1 - x[:, None]) ** np.arange(k, -1, -1)
    assert np.allclose(1.0 - polys.evaluate(1.0 - x), bernstein @ high.T, rtol=0, atol=1e-12)
    lead = local_profile(polys).high
    small = 2.0**-20
    log_1mf = log_pair(-polys.logit_step(np.log1p([-small]) - np.log(small))[0])[0]
    ratio = np.exp(log_1mf - np.log(lead.constants) - lead.d * np.log(small))
    assert np.allclose(ratio, 1.0, rtol=0, atol=1e-4)


def test_local_profile_mixing_variance_positive():
    rng = np.random.default_rng(5)
    for q in (2, 3):
        m = random_mixing(q, 3, rng)
        prof = local_profile(m)
        assert prof.min_variance() > 0.0


def test_arikan_square_strong_suction_exponents():
    m2 = kron(ARIKAN, ARIKAN)
    lead = leading_exponents(m2)
    assert lead.d.tolist() == [1, 2, 2, 4]


def test_strong_suction_certificate():
    # if d[j] >= 2 on a fraction eta, then for small x the same fraction of
    # indices satisfies f_j(x) <= x^(b - 0.1)
    rng = np.random.default_rng(31)
    for q in (2, 3):
        for _ in range(5):
            m = random_mixing(q, 3, rng)
            eps = erasure_polynomials(m)
            lead = leading_exponents(eps)
            if lead.eta == 0.0:
                continue
            for x in 2.0 ** -np.arange(12, 21):
                frac = np.mean(eps.evaluate(x) <= x ** (lead.b - 0.1))
                assert frac >= lead.eta - 1e-12


def test_pattern_budget_guard():
    big = FqMatrix.identity(2, 21)
    with pytest.raises(BudgetExceeded, match="erasure-pattern budget exceeded: 2097152 > 1048576"):
        erasure_polynomials(big)


def test_pattern_pass_memory_is_set_by_the_chunk(monkeypatch):
    # the walk holds about one block of patterns per weight, so the chunk,
    # not the middle layer's C(16, 8) patterns, sets the peak of a k = 16 pass
    m = kron_power(ARIKAN, 4)
    peaks = {}
    for chunk in (fqlin._SEARCH_CHUNK, 64):
        monkeypatch.setattr(fqlin, "_SEARCH_CHUNK", chunk)
        tracemalloc.start()
        try:
            erasure_polynomials(m)
            peaks[chunk] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    peak_default, peak_64 = peaks.values()
    assert peak_64 < 2**20 < peak_default, peaks


def _search_kernels():
    """Invertible kernels over q in {2, 3, 5, 7}, plus the built-in hamming7."""
    rng = np.random.default_rng(61)
    for q, ks in ((2, (2, 5, 8, 10)), (3, (3, 5, 7)), (5, (2, 4, 5)), (7, (3, 4))):
        for k in ks:
            yield random_invertible(q, k, rng)
            yield random_mixing(q, k, rng)
    yield resolve_kernel("hamming7", 2)
    yield kron(random_mixing(3, 2, rng), random_mixing(3, 3, rng))


@pytest.mark.parametrize("m", list(_search_kernels()), ids=lambda m: f"q{m.q}-k{m.rows}")
def test_leading_exponents_search_matches_pattern_counts(m):
    by_search = leading_exponents(m)
    by_counts = leading_exponents(erasure_polynomials(m))
    assert by_search.d.tolist() == by_counts.d.tolist()
    assert by_search.constants.tolist() == by_counts.constants.tolist()
    assert (by_search.eta, by_search.b) == (by_counts.eta, by_counts.b)


def test_leading_exponents_arikan_power_5(monkeypatch):
    # k = 32 lies far beyond the 2^k pattern pass; partial distances of the
    # Arikan kernel's powers are 2^popcount(j).  The cheapest plan takes
    # about 1.5e7 candidates, above the default budget.
    m = kron_power(ARIKAN, 5)
    with pytest.raises(BudgetExceeded, match="budget exceeded"):
        leading_exponents(m)
    monkeypatch.setenv(BUDGET_ENV, str(2 * 10**7))
    lead = leading_exponents(m)
    assert lead.d.tolist() == [2 ** bin(j).count("1") for j in range(32)]


def test_leading_exponents_large_field_uses_pattern_counts():
    # over F_257 a generic 7 x 7 kernel has d[j] = j + 1; the search's layers
    # are the 2^7 erasure patterns, where listing the vectors on them would
    # take about 1.9e7 candidates
    m = random_mixing(257, 7, np.random.default_rng(8))
    weights, supports = min_weight_search(m, range(7))
    lead = leading_exponents(m)
    by_counts = leading_exponents(erasure_polynomials(m))
    assert weights.tolist() == lead.d.tolist() == by_counts.d.tolist() == list(range(1, 8))
    assert supports.tolist() == lead.constants.tolist() == by_counts.constants.tolist()


def test_leading_exponents_rejects_singular_and_non_square():
    with pytest.raises(ValueError, match="singular"):
        leading_exponents(FqMatrix(3, [[1, 2], [2, 1]]))
    with pytest.raises(ValueError, match="square"):
        leading_exponents(FqMatrix(2, [[1, 0, 1], [0, 1, 1]]))
    # rank is checked before any budget: this one's search would be over it
    big = kron_power(ARIKAN, 5).arr.copy()
    big[-1] = big[0]
    with pytest.raises(ValueError, match="singular kernel"):
        leading_exponents(FqMatrix(2, big))

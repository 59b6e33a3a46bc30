"""Erasure polynomials, martingale trees and polarization window reports.

For erasure channels the one-step polarization law is exact and polynomial.
Fix an invertible kernel M over F_q and erase each input independently with
rate x.  Conditioned on an erasure pattern e, output j of the transform is
either fully determined by the observations or uniform on F_q, and it is
undetermined exactly when column j of M restricted to the rows in e falls
outside the span of the earlier restricted columns, i.e. when j is a pivot
column of M[e, :].  Counting undetermined patterns by weight gives integer
coefficients c_j[w] and the exact one-step map

    f_j(x) = sum_w c_j[w] * x^w * (1-x)^(k-w),

which satisfies sum_j f_j(x) = k*x (each M[e, :] has full row rank, so every
pattern contributes exactly |e| pivots).  Iterating the maps down a full
index tree is exact density evolution; sampling uniform index paths gives
the martingale view of the same object.

Both ends of [0, 1] are read off the same counts.  Near 0, f_j(x) ~
c_j[d] x^d with d the least weight of an undetermined pattern.  Near 1,
1 - f_j(1 - x) has the coefficients C(k, w) - c_j[k - w], and these are the
pattern counts of output k-1-j of the dual kernel M* = (M^-1)^T with rows
and columns reversed: 1 - f_j^M(1 - x) = f_{k-1-j}^{M*}(x).

The tree lives in log space: a node is the pair (ln z, ln(1 - z)), so deep
leaves far below the smallest double neither underflow nor need a floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fqlin import FqMatrix, _support_counts, check_budget, min_weight_search, row_echelon

__all__ = [
    "ErasurePolynomialSet",
    "LeadingExponents",
    "MartingaleTreeLevel",
    "PolarizationReport",
    "LocalProfile",
    "erasure_polynomials",
    "leading_exponents",
    "evolve_tree",
    "sample_paths",
    "polarization_report",
    "local_profile",
]

#: e^-700 < 1e-304 cannot change a log-sum-exp's sum of at least 1; clamping
#: or skipping exp's argument there keeps np.exp off its slow subnormal path.
_NEGLIGIBLE = -700.0

#: Parent nodes per log_step call in evolve_tree, bounding its temporaries.
_TREE_CHUNK = 1 << 14


@dataclass(frozen=True)
class ErasurePolynomialSet:
    """Pattern counts c_j[w] and evaluation of the one-step maps f_j.

    counts[j, w] is the number of weight-w erasure patterns that leave output
    j undetermined; counts[j, 0] = 0 always and counts[j, k] = 1 for every j
    of an invertible kernel.
    """

    kernel: FqMatrix
    counts: np.ndarray

    @property
    def k(self) -> int:
        return self.kernel.rows

    def log_step(self, log_x, log_1mx):
        """(ln f_j(x), ln(1 - f_j(x))) for all j, shape log_x.shape + (k,).

        f_j = sum_w c_j[w] x^w (1-x)^(k-w) and 1 - f_j = sum_w (C(k, w) -
        c_j[w]) x^w (1-x)^(k-w) are sums of nonnegative terms, so each is a
        log-sum-exp: the smaller side keeps full relative precision, x = 0
        and 1 included.  The larger is log1p(-e^smaller), as precise since
        e^smaller <= 1/2 (0 below 1e-304); summed, it would double the inputs'
        error at each 2x - x^2 near x = 1.
        """
        lx, ly, k = np.asarray(log_x, dtype=np.float64), np.asarray(log_1mx, dtype=np.float64), self.k
        # ln x^w (1-x)^(k-w); a zero power adds nothing, even to ln 0 = -inf
        terms = [k * ly] + [w * lx + (k - w) * ly for w in range(1, k)] + [k * lx]

        def log_sum(weights):  # never empty: c_j[k] = 1 and C(k, 0) - c_j[0] = 1
            ws = np.flatnonzero(weights)
            if ws.size == 1 and weights[ws[0]] == 1:  # a lone unit term is its own sum
                return terms[ws[0]]
            top = np.maximum.reduce([terms[w] for w in ws])
            return top + np.log(sum(weights[w] * np.exp(np.fmax(terms[w] - top, _NEGLIGIBLE)) for w in ws))

        binom = np.array([math.comb(k, w) for w in range(k + 1)])
        with np.errstate(invalid="ignore"):  # -inf - -inf where all terms are -inf
            log_f = np.stack([log_sum(c) for c in self.counts], axis=-1)
            log_1mf = np.stack([log_sum(c) for c in binom - self.counts], axis=-1)
        small = np.minimum(log_f, log_1mf)
        rebuilt = np.log1p(-np.exp(small, out=np.zeros_like(small), where=small > _NEGLIGIBLE))
        f_small = log_f <= log_1mf
        return np.where(f_small, small, rebuilt), np.where(f_small, rebuilt, small)

    def evaluate(self, x) -> np.ndarray:
        """f_j(x) for all j, shape x.shape + (k,).

        The direct sum of the nonnegative terms c_j[w] x^w (1-x)^(k-w): no
        cancellation, so each f_j keeps its relative precision (exp of
        ``log_step`` loses up to 6.9e-15 on the builtins).  1 - x is exact
        from x = 1/2 on; below, it rounds, and its (k-w)-th power would carry
        k - w times that error, so the power is exp((k-w) log1p(-x)) there.
        """
        x = np.asarray(x, dtype=np.float64)[..., None]
        k, w = self.k, np.arange(self.k + 1)
        with np.errstate(divide="ignore", invalid="ignore"):  # the unused log1p branch at x = 1
            rest = np.where(x < 0.5, np.exp((k - w) * np.log1p(-x)), (1.0 - x) ** (k - w))
        return (x**w * rest) @ self.counts.T.astype(np.float64)


def erasure_polynomials(m: FqMatrix) -> ErasurePolynomialSet:
    """Enumerate all 2^k erasure patterns of an invertible kernel.

    c_j[w] is the number of weight-w patterns that reach lead class j in
    ``fqlin._support_counts``, the walk behind ``min_weight_search``'s
    layers over q > 2.  The 2^k patterns meet the erasure-pattern budget of
    2^20 (k = 20) before the walk starts; the walk holds about one chunk of
    patterns per weight, not a whole layer.
    """
    if m.rows != m.cols:
        raise ValueError("kernel must be square")
    k = m.rows
    if len(row_echelon(m.arr, m.q)[1]) < k:
        raise ValueError("singular kernel")
    check_budget("erasure-pattern", 2**k, 1 << 20)
    counts = _support_counts(m.arr, m.q, k)[:, :k].T.copy()
    counts.flags.writeable = False
    return ErasurePolynomialSet(m, counts)


def _coerce_polys(m) -> ErasurePolynomialSet:
    return m if isinstance(m, ErasurePolynomialSet) else erasure_polynomials(m)


@dataclass(frozen=True)
class LeadingExponents:
    """Decay orders d[j] of the one-step maps at one end of [0, 1].

    g_j(x) = constants[j] * x^d[j] + O(x^(d[j]+1)) near zero, where g_j is
    f_j at the low end and 1 - f_j(1 - x) at the high end; at the low end
    d[j] is the least weight of a pattern that leaves output j undetermined.
    ``eta`` is the fraction of indices with d >= 2 and ``b`` the smallest
    such order, the strong-suction pair (b is None when eta = 0).
    """

    d: np.ndarray
    constants: np.ndarray

    @property
    def eta(self) -> float:
        return float((self.d >= 2).mean())

    @property
    def b(self) -> int | None:
        strong = self.d[self.d >= 2]
        return int(strong.min()) if strong.size else None


def leading_exponents(m) -> LeadingExponents:
    """Low-end leading exponents of a kernel, or of its erasure polynomials.

    Given an ``ErasurePolynomialSet``, reads them off the pattern counts.
    Given an invertible ``FqMatrix``, d[j] and constants[j] are the least
    weight and the number of least-weight supports in lead class j of
    ``fqlin.min_weight_search``, which raises BudgetExceeded when its plan
    is over budget.
    """
    if isinstance(m, ErasurePolynomialSet):
        return _count_exponents(m.counts)
    if m.rows != m.cols:
        raise ValueError("kernel must be square")
    if len(row_echelon(m.arr, m.q)[1]) < m.rows:
        raise ValueError("singular kernel")
    return LeadingExponents(*min_weight_search(m, range(m.rows)))


def _count_exponents(counts: np.ndarray) -> LeadingExponents:
    """Leading exponents of the Bernstein polynomials with these coefficients."""
    d = (counts[:, 1:] > 0).argmax(axis=1) + 1
    return LeadingExponents(d, counts[np.arange(len(counts)), d])


@dataclass(frozen=True)
class MartingaleTreeLevel:
    """All k^t synthetic erasure rates at depth t as ln z, lexicographic by index path."""

    t: int
    log_values: np.ndarray

    @property
    def values(self) -> np.ndarray:
        """exp(log_values), recomputed on each access."""
        return np.exp(self.log_values)

    @property
    def mean(self) -> float:
        return float(self.values.mean())


def _log_start(z0: float, t: int, n: int):
    """(ln z0, ln(1 - z0)) repeated n times, after checking t and z0."""
    if t < 0:
        raise ValueError("tensor depth must be nonnegative")
    if not 0.0 <= z0 <= 1.0:  # NaN fails the comparison too
        raise ValueError("initial erasure rate must lie in [0, 1]")
    z = np.full(n, float(z0))
    with np.errstate(divide="ignore"):
        return np.log(z), np.log1p(-z)


def evolve_tree(m, z0: float, t: int, return_all: bool = False):
    """Exact density evolution: apply (f_1..f_k) to every node, level by level.

    The value at index path (i_1..i_t) is f_{i_t}(...f_{i_1}(z0)...), laid out
    lexicographically, through ``log_step`` on _TREE_CHUNK parents at a time;
    a level keeps ln z only.  Returns the level-t MartingaleTreeLevel, the
    only level held, or the list of levels 0..t with ``return_all``.
    """
    polys = _coerce_polys(m)
    log_z, log_1mz = _log_start(z0, t, 1)
    check_budget("tree", polys.k**t, 10**6)
    levels = [MartingaleTreeLevel(0, log_z)]
    for level in range(1, t + 1):
        next_z, next_1mz = np.empty(log_z.size * polys.k), np.empty(log_z.size * polys.k)
        for lo in range(0, log_z.size, _TREE_CHUNK):
            parents, children = slice(lo, lo + _TREE_CHUNK), slice(lo * polys.k, (lo + _TREE_CHUNK) * polys.k)
            next_z[children], next_1mz[children] = (
                side.ravel() for side in polys.log_step(log_z[parents], log_1mz[parents]))
        log_z, log_1mz = next_z, next_1mz
        log_z.flags.writeable = False
        if not return_all:
            levels.clear()
        levels.append(MartingaleTreeLevel(level, log_z))
    return levels if return_all else levels[-1]


def sample_paths(m, z0: float, t: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Endpoints of n independent uniform index paths through the tree."""
    polys = _coerce_polys(m)
    log_z, log_1mz = _log_start(z0, t, n)
    for _ in range(t):
        pick = np.arange(n), rng.integers(0, polys.k, size=n)
        log_z, log_1mz = (side[pick] for side in polys.log_step(log_z, log_1mz))
    return np.exp(log_z)


@dataclass(frozen=True)
class PolarizationReport:
    """Window fractions per level plus a fitted per-level decay rate.

    fraction_exp[i] is the mass in the open window (2^-2^(lam*t), 1 - gamma^t)
    at level t = levels[i]; fraction_strong uses (gamma^t, 1 - gamma^t).  The
    two windows differ, so neither fraction dominates the other in general.
    rho_hat is exp(slope) of a log-linear fit of fraction_exp against t over
    the levels where it is positive (nan when fewer than two are).
    """

    lam: float
    gamma: float
    threshold: float
    levels: np.ndarray
    fraction_exp: np.ndarray
    fraction_strong: np.ndarray
    rate_at_threshold: np.ndarray
    rho_hat: float

    def rows(self):
        """Per-level rows (t, fraction_exp, fraction_strong, rate)."""
        columns = self.levels, self.fraction_exp, self.fraction_strong, self.rate_at_threshold
        return zip(*(column.tolist() for column in columns))


def polarization_report(levels, lam: float, gamma: float, threshold: float) -> PolarizationReport:
    """Measure both polarization windows on one or more tree levels.

    Windows are open intervals, so boundary values count as polarized.  Each
    leaf's ln z is compared with the log of each edge: -2^(lam*t) ln 2 for
    the low edge, or -inf once 2^(lam*t) overflows, which still excludes z = 0.
    """
    levels = [levels] if isinstance(levels, MartingaleTreeLevel) else list(levels)
    if not levels:
        raise ValueError("no levels supplied")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    # NaN fails every comparison, so these checks are written to let it fail
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite; got {lam}")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite; got {threshold}")
    fractions = []
    for lev in levels:
        v, t = lev.log_values, lev.t
        try:
            low = -(2.0 ** (lam * t)) * math.log(2.0)
        except OverflowError:
            # ln edge < -2^1024 ln 2, while f_j(x) >= x^k puts every leaf
            # with z0 > 0 at ln z >= k^t ln z0, far above it
            low = -math.inf
        # ln 0 = -inf; a negative threshold has ln nan, below which nothing lies
        with np.errstate(divide="ignore", invalid="ignore"):
            strong, high, below = np.log([gamma**t, 1.0 - gamma**t, threshold])
        under_high = v < high
        fractions.append(
            [np.mean((v > low) & under_high), np.mean((v > strong) & under_high), np.mean(v <= below)])
    ts = np.array([lev.t for lev in levels])
    f_exp, f_strong, rate = np.array(fractions).T
    positive = f_exp > 0
    fit = np.polyfit(ts[positive], np.log(f_exp[positive]), 1)[0] if positive.sum() >= 2 else math.nan
    return PolarizationReport(lam, gamma, threshold, ts, f_exp, f_strong, rate, float(math.exp(fit)))


@dataclass(frozen=True)
class LocalProfile:
    """One-step variance curve and leading exponents at both ends of a kernel."""

    grid: np.ndarray
    variance: np.ndarray
    low: LeadingExponents
    high: LeadingExponents

    def min_variance(self) -> float:
        """Least variance over the grid points in [0.05, 0.95]."""
        inside = (self.grid >= 0.05) & (self.grid <= 0.95)
        return float(self.variance[inside].min())


def local_profile(m) -> LocalProfile:
    """Variance in the middle plus exact strong suction at both ends.

    v(x) = mean_j (f_j(x) - x)^2 on the grid x = 0.01, 0.02, .., 0.99.
    ``low`` describes f_j near x = 0 and ``high`` describes 1 - f_j(1 - x)
    there, both read off the pattern counts: the latter map has the
    coefficients C(k, w) - c_j[k - w].
    """
    polys = _coerce_polys(m)
    grid = np.linspace(0.01, 0.99, 99)
    fx = polys.evaluate(grid)
    variance = np.mean((fx - grid[..., None]) ** 2, axis=-1)
    binom = np.array([math.comb(polys.k, w) for w in range(polys.k + 1)])
    high = binom - polys.counts[:, ::-1]
    return LocalProfile(grid, variance, _count_exponents(polys.counts), _count_exponents(high))

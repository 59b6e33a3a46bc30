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

A tree node is its logit s = ln z - ln(1 - z), so no leaf underflows or
rounds to 1, however deep.  With r = e^-|s| the factor (1-z)^k (z^k for
s > 0) cancels from f_j / (1 - f_j): s'_j = D_j s + ln N_j(r) - ln M_j(r),
with D_j = d_j, N_j(r) = sum_{w>=d_j} c_j[w] r^(w-d_j) and M_j(r) = sum_w
(C(k, w) - c_j[w]) r^w for s <= 0, and above it D_j = e_j, the high-end
order, with both coefficient lists reversed.  Erasing more inputs never
determines an output, so N_j and M_j have positive integer coefficients and
are at least 1 at r = 0: nothing cancels, and the step is exact at z = 0 and
1 (s = -inf, +inf).  r is clamped at e^-700: below it no term moves a sum of
at least 1, and neither exp nor a Horner product r * (at least 1) reaches
the slow subnormal range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fqlin import FqMatrix, _augmented_echelon, _class_search, _support_counts, check_budget, row_echelon

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

#: ln of the clamp on r = e^-|s| (module docstring).
_NEGLIGIBLE = -700.0

#: Parent nodes per logit_step call in evolve_tree, bounding its temporaries.
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

    @cached_property
    def _logit_plan(self):
        """(N_j, M_j) per output: c_j[d_j..k] and C(k, w) - c_j[w] for w = 0..k - e_j."""
        binom = np.array([math.comb(self.k, w) for w in range(self.k + 1)])
        return [(tuple(np.trim_zeros(f, "f").tolist()), tuple(np.trim_zeros(binom - f, "b").tolist()))
                for f in self.counts]

    def logit_step(self, s, out=None):
        """Logits of the children of an array of logits s, shape s.shape + (k,).

        s'_j = D_j s + ln N_j(r) - ln M_j(r) (module docstring), D_j = d_j = k +
        1 - len(N_j) for s <= 0 and e_j = k + 1 - len(M_j) above, each integer
        coefficient picked per parent, exactly, as hi + (lo - hi)[s <= 0]: one
        exp per parent and one log per distinct polynomial.  Writes into
        ``out`` when given, which may be a strided view.
        """
        s = np.asarray(s, dtype=np.float64)
        out = np.empty(s.shape + (self.k,)) if out is None else out
        r = np.abs(s)
        np.exp(np.maximum(np.negative(r, out=r), _NEGLIGIBLE, out=r), out=r)
        low, picked, logs = (s <= 0.0).astype(np.float64), {}, {}

        def pick(lo, hi):  # lo where s <= 0, hi above
            if lo != hi and (lo, hi) not in picked:
                picked[lo, hi] = np.add(low * (lo - hi), hi)
            return picked.get((lo, hi), lo)

        def log_poly(p):  # ln sum_i p[i] r^i where s <= 0, of p reversed above
            if p not in logs:
                acc = r * pick(p[-1], p[0])
                for i in range(len(p) - 2, 0, -1):
                    acc += pick(p[i], p[-1 - i])
                    acc *= r
                logs[p] = np.log(np.add(acc, pick(p[0], p[-1]), out=acc), out=acc)
            return logs[p]

        for j, (num, den) in enumerate(self._logit_plan):
            np.multiply(s, pick(self.k + 1 - len(num), self.k + 1 - len(den)), out=out[..., j])
            if len(num) > 1:  # a constant N or M is c_j[k] = 1 or C(k, 0) - c_j[0] = 1
                out[..., j] += log_poly(num)
            if len(den) > 1:
                out[..., j] -= log_poly(den)
        return out

    def evaluate(self, x) -> np.ndarray:
        """f_j(x) for all j, shape x.shape + (k,).

        The direct sum of the nonnegative terms c_j[w] x^w (1-x)^(k-w): no
        cancellation, so each f_j keeps its relative precision.  1 - x is exact
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
    is over budget.  One echelon form of [M | I] serves both the
    singularity check and the search.
    """
    if isinstance(m, ErasurePolynomialSet):
        return _count_exponents(m.counts)
    if m.rows != m.cols:
        raise ValueError("kernel must be square")
    factors = _augmented_echelon(m)
    if factors is None:
        raise ValueError("singular kernel")
    return _search_exponents(m, factors[1])


def _search_exponents(m: FqMatrix, e: np.ndarray) -> LeadingExponents:
    """``leading_exponents`` of an invertible M from the right block E of the
    echelon form [U1 | E] of [M | I], which it does not recompute."""
    k = m.rows
    return LeadingExponents(*_class_search(m, e, range(k), range(k)))


def _count_exponents(counts: np.ndarray) -> LeadingExponents:
    """Leading exponents of the Bernstein polynomials with these coefficients."""
    d = (counts[:, 1:] > 0).argmax(axis=1) + 1
    return LeadingExponents(d, counts[np.arange(len(counts)), d])


@dataclass(frozen=True)
class MartingaleTreeLevel:
    """All k^t synthetic erasure rates at depth t as logits ln z - ln(1 - z),
    lexicographic by index path; the other views take one buffer per access."""

    t: int
    logits: np.ndarray

    @property
    def log_values(self) -> np.ndarray:
        """ln z = min(s, -ln(1 + e^-s)), s floored at -700 in the exp: the
        min restores ln z = s below, and above 746 e^-s is 0 (ln z = -0.0)."""
        out = np.maximum(self.logits, _NEGLIGIBLE)
        np.log1p(_exp_in_place(np.negative(out, out=out)), out=out)
        return np.minimum(np.negative(out, out=out), self.logits, out=out)

    @property
    def values(self) -> np.ndarray:
        return _exp_in_place(self.log_values)

    @property
    def mean(self) -> float:
        return float(self.values.mean())


def _exp_in_place(x: np.ndarray) -> np.ndarray:
    """e^x into x.  Below -746 e^x rounds to 0; those entries go through exp
    as 0 and are zeroed after, since numpy's exp is slow where it underflows
    (and, called with ``where=``, slow everywhere)."""
    tiny = x < -746.0
    np.copyto(x, 0.0, where=tiny)
    np.exp(x, out=x)
    np.copyto(x, 0.0, where=tiny)
    return x


def _start_logits(z0: float, t: int, n: int) -> np.ndarray:
    """The logit of z0 repeated n times, after checking t and z0."""
    if t < 0:
        raise ValueError("tensor depth must be nonnegative")
    if not 0.0 <= z0 <= 1.0:  # NaN fails the comparison too
        raise ValueError("initial erasure rate must lie in [0, 1]")
    z = np.full(n, float(z0))
    with np.errstate(divide="ignore"):
        return np.log(z) - np.log1p(-z)


def evolve_tree(m, z0: float, t: int, return_all: bool = False):
    """Exact density evolution: apply (f_1..f_k) to every node, level by level.

    The value at index path (i_1..i_t) is f_{i_t}(...f_{i_1}(z0)...), laid out
    lexicographically, held as its logit.  ``logit_step`` runs on _TREE_CHUNK
    parents at a time and writes each child through a strided view of the
    next level.  Returns the level-t MartingaleTreeLevel, the only level
    held, or the list of levels 0..t with ``return_all``.
    """
    polys = _coerce_polys(m)
    logits = _start_logits(z0, t, 1)
    check_budget("tree", polys.k**t, 10**6)
    levels = [MartingaleTreeLevel(0, logits)]
    for level in range(1, t + 1):
        children = np.empty(logits.size * polys.k)
        by_parent = children.reshape(logits.size, polys.k)
        for lo in range(0, logits.size, _TREE_CHUNK):
            polys.logit_step(logits[lo : lo + _TREE_CHUNK], out=by_parent[lo : lo + _TREE_CHUNK])
        logits = children
        logits.flags.writeable = False
        if not return_all:
            levels.clear()
        levels.append(MartingaleTreeLevel(level, logits))
    return levels if return_all else levels[-1]


def sample_paths(m, z0: float, t: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Endpoints of n independent uniform index paths through the tree."""
    polys = _coerce_polys(m)
    logits = _start_logits(z0, t, n)
    for _ in range(t):
        logits = polys.logit_step(logits)[np.arange(n), rng.integers(0, polys.k, size=n)]
    return MartingaleTreeLevel(t, logits).values


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
    leaf's logit is compared with each edge's, computed once per level from
    the float edges gamma^t, 1 - gamma^t and threshold (+inf from 1 on, -inf
    at 0, nan below), and from the low edge's log, -2^(lam*t) ln 2, or -inf
    once 2^(lam*t) overflows, which still excludes z = 0.
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
        v, t = lev.logits, lev.t
        try:
            log_low = -(2.0 ** (lam * t)) * math.log(2.0)
        except OverflowError:
            # ln edge < -2^1024 ln 2, while f_j(x) >= x^k puts every leaf
            # with z0 > 0 at ln z >= k^t ln z0, far above it
            log_low = -math.inf
        low = log_low - math.log1p(-math.exp(log_low))  # the low edge is at most 1/2
        edges = np.array([gamma**t, 1.0 - gamma**t, threshold])
        with np.errstate(divide="ignore", invalid="ignore"):  # ln 0 = -inf, ln of a negative is nan
            strong, high, below = np.where(edges < 1.0, np.log(edges) - np.log1p(-edges), np.inf)
        under_high = v < high
        fractions.append([np.count_nonzero((v > low) & under_high) / v.size,
                          np.count_nonzero((v > strong) & under_high) / v.size,
                          np.count_nonzero(v <= below) / v.size])
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

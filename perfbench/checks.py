"""Exact reference checks shared by the workloads.

Statistical checks use exact binomial tails rather than Wilson intervals:
at the small counts these workloads see (an index with expected count 0.001
observed once), the Wilson score interval's normal approximation rejects
events that are far from rare.  ``z`` sets the one-sided tail level
Phi(-z), so ``z=6`` rejects at about 1e-9 per comparison.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def tail_level(z: float) -> float:
    """One-sided standard normal tail Phi(-z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def binomial_tails(count, n: int, p):
    """(P[X <= count], P[X >= count]) for X ~ Binomial(n, p), elementwise."""
    count, p = np.broadcast_arrays(np.atleast_1d(count), np.atleast_1d(np.asarray(p, float)))
    k = np.arange(n + 1)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])
    log_choose = log_fact[n] - log_fact[k] - log_fact[n - k]
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.log(p)[:, None]
        lq = np.log1p(-p)[:, None]
        # 0 * log(0) is 0 here: k = 0 never pays for p = 0, k = n never for p = 1
        log_pmf = (
            log_choose
            + np.where(k == 0, 0.0, k * lp)
            + np.where(k == n, 0.0, (n - k) * lq)
        )
    pmf = np.exp(log_pmf)
    below = (pmf * (k[None, :] <= count[:, None])).sum(axis=1)
    above = (pmf * (k[None, :] >= count[:, None])).sum(axis=1)
    return below, above


def binomial_consistent(count, n: int, p_low, p_high, z: float) -> np.ndarray:
    """True where ``count`` of ``n`` is not rejected for some p in [p_low, p_high]."""
    level = tail_level(z)
    _, above = binomial_tails(count, n, p_high)
    below, _ = binomial_tails(count, n, p_low)
    return (above > level) & (below > level)


def pattern_identity_errors(polys) -> list:
    """Violations of sum_j c_j[w] = w * C(k, w), c_j[k] = 1 and c_j[0] = 0."""
    counts = np.asarray(polys.counts)
    k = counts.shape[0]
    errors = []
    for w in range(k + 1):
        total = int(counts[:, w].sum())
        if total != w * math.comb(k, w):
            errors.append(f"k={k}: sum_j c_j[{w}] = {total}, expected {w * math.comb(k, w)}")
    if not np.all(counts[:, k] == 1):
        errors.append(f"k={k}: c_j[k] != 1 for some j")
    if np.any(counts[:, 0] != 0):
        errors.append(f"k={k}: c_j[0] != 0 for some j")
    return errors


def words_digest(words) -> str:
    """sha256 over the words in order, each as int8 symbols."""
    h = hashlib.sha256()
    for w in words:
        h.update(np.ascontiguousarray(w, dtype=np.int8).tobytes())
    return h.hexdigest()


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    return float(np.quantile(np.asarray(values, dtype=float), q))

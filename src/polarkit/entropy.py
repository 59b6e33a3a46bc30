"""Exact conditional entropies of kernel transforms of i.i.d. symbol pairs.

The central object is a joint law p(u, a) of one (symbol, side information)
pair with u in F_q and a in a finite alphabet.  Given k i.i.d. pairs and an
invertible kernel M, the engine yields the per-index profile

    h[j] = H( (uM)_j | (uM)_{<j}, a_1..a_k ) / log2(q).

h[j] sees each side symbol only through its posterior up to a translation
in F_q, so side symbols whose columns of p are cyclic translates of each
other are first folded into one (``_fold``: m' classes, 2 for the erasure
joints and 1 for the q-ary symmetric ones).

A folded joint is erasure-type when each of its columns is a point mass or
constant: given its side symbol, U_i is then known or uniform, and it is
erased with probability z, the constant columns' mass.  So h[j] = f_j(z),
the erasure polynomial that ``polarlab.erasure_polynomials`` counts, and
the profile is read off those pattern counts (2^k patterns, however large
q is).  Every other joint is enumerated: each state (u, a) in F_q^k x
[m']^k with its product weight, accumulating the exact joint law of the
transform prefixes.

Entropies are normalized to [0, 1] by log2(q) throughout.  Everything here is
exact counting or enumeration; nothing is estimated from samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polarlab
from .channels import make_erasure
from .fqlin import FqMatrix, _as_modulus, check_budget, qary_words

__all__ = [
    "SymbolJoint",
    "EntropyProfile",
    "ExponentReport",
    "cond_entropy",
    "polar_entropies",
    "polarization_exponents",
    "consensus_predictor_error",
    "erasure_joint",
    "erasure_family",
    "channel_joint",
]


class SymbolJoint:
    """Joint distribution p(u, a) over F_q x [m] as an immutable (q, m) table."""

    __slots__ = ("q", "p")

    def __init__(self, q, p):
        object.__setattr__(self, "q", _as_modulus(q))
        p = np.array(p, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != self.q:
            raise ValueError("joint table must have one row per field element")
        if not np.all(np.isfinite(p)):
            raise ValueError("joint probabilities must be finite")
        if np.any(p < 0):
            raise ValueError("joint probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("joint probabilities must sum to 1")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("SymbolJoint is immutable")

    @property
    def m(self) -> int:
        return self.p.shape[1]

    def __repr__(self):
        return f"SymbolJoint(q={self.q}, m={self.m})"


def erasure_joint(q, z: float) -> SymbolJoint:
    """U uniform on F_q; A = U with probability 1-z, else an erasure label.

    The joint of ``channels.make_erasure(q, z)``: the side alphabet is F_q
    plus the erasure label q.  The normalized conditional entropy is exactly
    z, which makes this the canonical test family for exponent fits.
    """
    return channel_joint(make_erasure(q, z))


def erasure_family(q):
    """The map delta -> erasure_joint(q, delta); calibrated H(U|A) = delta."""
    return lambda delta: erasure_joint(q, delta)


def channel_joint(channel) -> SymbolJoint:
    """Joint of (uniform input, channel output); H(U|A) = 1 - capacity."""
    return SymbolJoint(channel.q, channel.w / channel.q)


def _entropy_bits(weights: np.ndarray) -> float:
    w = weights[weights > 0]
    return float(-(w * np.log2(w)).sum())


def cond_entropy(joint: SymbolJoint) -> float:
    """Normalized conditional entropy H(U|A)/log2(q), in [0, 1]."""
    p = joint.p
    pa = p.sum(axis=0)
    h_ua = _entropy_bits(p.ravel())
    h_a = _entropy_bits(pa)
    return (h_ua - h_a) / math.log2(joint.q)


@dataclass(frozen=True)
class EntropyProfile:
    """Per-index profile h[j] = H((uM)_j | (uM)_{<j}, a), normalized."""

    h: np.ndarray

    @property
    def total(self) -> float:
        return float(self.h.sum())


#: Law entries reduced per step of a level; bounds the readout's temporaries
#: whatever the state count.
_CHUNK = 1 << 18


def _level_entropy_nats(block: np.ndarray, t: np.ndarray) -> float:
    """Sum over rows of p(row) * H(digit | row) in nats, without cancellation.

    ``block`` holds (prefix, digit, a) masses and ``t`` its sum over the
    digit axis.  A running maximum sweeps the digits, and whichever of it and
    the next mass is smaller leaves the running mode: it joins the remaining
    mass r, a sum of nonnegative terms, and adds x * log(t / x).  The mode's
    own term is -mode * log1p(-r / t), exact however close the row is to
    deterministic.
    """
    mode = block[:, 0]
    r = np.zeros_like(t)
    nats = 0.0
    for d in range(1, block.shape[1]):
        x = np.minimum(mode, block[:, d])
        mode = np.maximum(mode, block[:, d])
        r += x
        nats += float((x * np.log(np.divide(t, x, out=np.ones_like(x), where=x > 0))).sum())
    frac = np.divide(r, t, out=np.zeros_like(r), where=t > 0)
    return nats - float((mode * np.log1p(-frac)).sum())


def _fold(joint: SymbolJoint) -> np.ndarray:
    """The (q, m') table of ``joint`` with translated side symbols merged.

    Zero-mass columns are dropped, and columns that are exact cyclic
    translates, p(., a') = p(. + s, a) for some s in F_q, become one column:
    the class's canonical rotation (its lexicographically greatest, which
    starts at a maximum entry) times the class size, so the masses add.
    Equality is exact float equality.  This leaves every h[j] unchanged, for
    any joint: given a^k, U's law is the product of the per-pair posteriors;
    translating pair i's posterior by s_i translates U by s, and so V = UM
    by sM; and H(V_j | V_<j) does not change when V is translated.  So h[j]
    sees a^k only through its classes, whose masses add.
    """
    # + 0.0 turns -0.0 into 0.0, so equal columns have equal bytes
    p = joint.p[:, joint.p.sum(axis=0) > 0] + 0.0
    q, m = p.shape
    # the greatest rotation starts at a maximum.  A constant column starts at
    # 0; any other has q distinct rotations (q is prime), so offset by offset
    # the candidates below their column's best drop out until one is left
    top = p == p.max(axis=0)
    top[1:, top.all(axis=0)] = False
    col, start = np.nonzero(top.T)
    for d in range(1, q):
        if col.size == m:
            break
        x = p[(start + d) % q, col]
        best = np.zeros(m)
        np.maximum.at(best, col, x)
        keep = x == best[col]
        col, start = col[keep], start[keep]
    rows = p.T[np.arange(m)[:, None], (start[:, None] + np.arange(q)) % q]
    keys, counts = np.unique(rows.view(np.dtype((np.void, 8 * q))).ravel(), return_counts=True)
    return (keys.view(np.float64).reshape(-1, q) * counts[:, None]).T


def _erasure_rate(p: np.ndarray) -> float | None:
    """The erasure rate z of a folded table whose columns are erasure-type.

    A column that is a point mass reveals U; a constant one leaves it
    uniform.  When every column is one or the other, the pairs are erased
    independently with probability z, the constant columns' total mass
    (summed with ``math.fsum``, so correctly rounded); otherwise None.
    """
    flat = np.all(p == p[:1], axis=0)
    if not np.all(flat | (np.count_nonzero(p, axis=0) == 1)):
        return None
    return math.fsum(p[:, flat].ravel())


def _enumerated_entropies(m: FqMatrix, p: np.ndarray) -> np.ndarray:
    """The unchecked profile h of the folded table ``p``, by enumerating its states.

    All (q*m')^k states are enumerated once, within a budget of 1e7 states
    (POLARLAB_BUDGET when set).  The product weights W[u, a] are built by
    broadcasting, and since u -> uM is a bijection the exact law P[v, a] is
    W with its rows gathered into v order.  Summing out the last v digit of
    the prefix law P[v_<=j, a] gives P[v_<j, a], and h[j] is read off the
    same block directly as the weighted conditional entropy of v_j given
    (v_<j, a), with no difference of large entropies, so tiny h[j] keep full
    relative precision.  Levels are reduced in chunks of prefix rows, so at
    most the weights, one prefix law and bounded temporaries are alive.
    """
    k = m.rows
    q = m.q
    check_budget("entropy state", (q * p.shape[1]) ** k, 10**7)

    # row v = uM of P[v, a] is row u of W[u, a]; M is invertible exactly
    # when every v is reached
    order = np.full(q**k, -1)
    order[(qary_words(q, k) @ m.arr % q) @ q ** np.arange(k - 1, -1, -1)] = np.arange(q**k)
    if order.min() < 0:
        raise ValueError("singular kernel")
    law = p
    for _ in range(k - 1):
        law = (p[:, None, :, None] * law[None, :, None, :]).reshape(q * law.shape[0], -1)
    n_a = law.shape[1]
    rows = max(1, _CHUNK // (q * n_a))

    h = np.empty(k)
    for j in range(k - 1, -1, -1):
        n_pre = q**j
        prefix_law = np.empty((n_pre, n_a))
        nats = 0.0
        for lo in range(0, n_pre, rows):
            hi = min(lo + rows, n_pre)
            span = slice(lo * q, hi * q)
            block = (law[span] if order is None else law[order[span]]).reshape(hi - lo, q, n_a)
            t = prefix_law[lo:hi]
            block.sum(axis=1, out=t)
            nats += _level_entropy_nats(block, t)
        h[j] = nats / math.log(q)
        law, order = prefix_law, None
    return h


def _checked_entropies(m: FqMatrix, joint: SymbolJoint, polys):
    """(h, polys): the checked profile of ``joint``, and the pattern counts read.

    An erasure-type joint reads h[j] = f_j(z) off ``polys``, the kernel's
    erasure polynomials, built here when None; any other enumerates.
    """
    if m.rows != m.cols:
        raise ValueError("kernel must be square")
    if m.q != joint.q:
        raise ValueError("modulus mismatch between kernel and joint")
    p = _fold(joint)
    z = _erasure_rate(p)
    if z is None:
        h = _enumerated_entropies(m, p)
    else:
        if polys is None:
            polys = polarlab.erasure_polynomials(m)
        h = polys.evaluate(z)

    expected = m.rows * cond_entropy(joint)
    if abs(h.sum() - expected) > 1e-9:
        raise RuntimeError(
            f"chain-rule self check failed: sum(h)={h.sum():.12f}, expected {expected:.12f}"
        )
    if h.min() < -1e-9 or h.max() > 1.0 + 1e-9:
        raise RuntimeError("entropy profile escaped [0, 1] beyond tolerance")
    h = np.clip(h, 0.0, 1.0)
    h.flags.writeable = False
    return h, polys


def polar_entropies(m: FqMatrix, joint: SymbolJoint) -> EntropyProfile:
    """Exact entropy profile of the transform u -> uM under i.i.d. ``joint`` pairs.

    The joint is folded first (``_fold``: side symbols whose columns are
    translates in F_q merge, which is exact).  When every folded column is a
    point mass or constant, the joint is erasure-type: each U_i is known or
    uniform given its side symbol, erased with probability z, so h[j] =
    f_j(z) exactly, read off ``polarlab.erasure_polynomials`` under its 2^k
    pattern budget.  Any other joint enumerates all (q*m')^k states of the
    folded table within a budget of 1e7 states (POLARLAB_BUDGET when set).
    On both paths the chain rule sum(h) = k * H(U|A), with H(U|A) from the
    unfolded joint, is verified to 1e-9 as a self-check, and h must lie in
    [0, 1] to 1e-9.
    """
    return EntropyProfile(_checked_entropies(m, joint, None)[0])


def _map_predictor(joint: SymbolJoint):
    """Maximum-posterior predictor f(a) = argmax_u p(u|a) and its exact error.

    Ties break toward the smallest field element.  The error probability is
    exactly 1 - sum_a max_u p(u, a).
    """
    f = np.argmax(joint.p, axis=0).astype(np.int64)
    err = float(1.0 - joint.p.max(axis=0).sum())
    return f, err


def consensus_predictor_error(joint: SymbolJoint) -> float:
    """Exact failure rate of the two-observation consensus rule.

    Four i.i.d. pairs (U_i, A_i) feed the doubled 2x2 lower-triangular kernel;
    the last output U_4 is estimated from the aliased sums W_2 = c*U_4 + U_2,
    W_3 = c*U_4 + U_3 and the side information: when the residuals
    W_2 - f(A_2) and W_3 - f(A_3) agree the common value is unscrambled,
    otherwise f(A_4) is reported (f the maximum-posterior predictor, whose
    aliasing scale c cancels).  The rule fails exactly when the residuals
    agree on a nonzero error or disagree while f(A_4) is wrong, which decays
    quadratically in the per-pair error.
    """
    q = joint.q
    f, perr = _map_predictor(joint)
    resid = np.zeros(q)
    shift = (np.arange(q)[:, None] - f[None, :]) % q
    np.add.at(resid, shift, joint.p)
    same_nonzero = float(np.sum(resid[1:] ** 2))
    differ = float(1.0 - np.sum(resid**2))
    return same_nonzero + differ * perr


@dataclass(frozen=True)
class ExponentReport:
    """Per-index decay exponents fitted on a delta grid.

    ``exponents[j]`` is the least-squares slope of log h[j](delta) against
    log delta over the _FIT_POINTS smallest grid values; +inf marks indices
    whose entropy vanished exactly.
    """

    deltas: np.ndarray
    profiles: np.ndarray
    exponents: np.ndarray

    def fraction_at_least(self, b: float) -> float:
        """Fraction of indices with fitted exponent >= b."""
        return float(np.mean(self.exponents >= b))

    def suction_pair(self, b_min: float = 1.5):
        """(eta, b) summary: fraction of indices at or above ``b_min`` and
        the smallest exponent among them (None when the fraction is zero)."""
        if not math.isfinite(b_min):
            # exponents >= nan is all False, which would read as no suction
            raise ValueError(f"b_min must be finite; got {b_min}")
        good = self.exponents[self.exponents >= b_min]
        if good.size == 0:
            return 0.0, None
        return float(good.size) / self.exponents.size, float(good.min())

    def to_dict(self) -> dict:
        return {
            "deltas": [float(d) for d in self.deltas],
            "profiles": [
                {"delta": float(d), "h": [float(x) for x in row], "sum": float(row.sum())}
                for d, row in zip(self.deltas, self.profiles)
            ],
            "per_index_exponents": [
                "inf" if math.isinf(e) else float(e) for e in self.exponents
            ],
        }


#: Grid points, smallest first, that polarization_exponents fits.
_FIT_POINTS = 3


def polarization_exponents(m: FqMatrix, family, deltas) -> ExponentReport:
    """Fit per-index decay exponents h[j](delta) ~ delta^b over a delta grid.

    ``family`` maps delta to a SymbolJoint and must be calibrated so that
    H(U|A) = delta to 1e-9 (the erasure family is).  The fit uses the
    _FIT_POINTS smallest deltas, where constant contamination is weakest,
    in one least-squares fit over every index whose h stays positive there.
    Erasure-type joints share one pattern pass per call.
    """
    deltas = np.sort(np.asarray(deltas, dtype=np.float64))
    if np.unique(deltas).size < 3:
        raise ValueError("need at least 3 distinct grid values")
    if np.any(deltas <= 0) or np.any(deltas >= 1):
        raise ValueError("grid values must lie in (0, 1)")
    profiles, polys = [], None
    for d in deltas:
        joint = family(d)
        if abs(cond_entropy(joint) - d) > 1e-9:
            raise ValueError(f"family is miscalibrated at delta={d}")
        h, polys = _checked_entropies(m, joint, polys)
        profiles.append(h)
    profiles = np.array(profiles)
    fit = profiles[:_FIT_POINTS]
    positive = np.all(fit > 0, axis=0)
    exponents = np.full(m.rows, math.inf)
    if positive.any():
        exponents[positive] = np.polyfit(np.log(deltas[:_FIT_POINTS]), np.log(fit[:, positive]), 1)[0]
    return ExponentReport(deltas, profiles, exponents)

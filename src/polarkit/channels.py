"""Finite-alphabet symmetric memoryless channels as explicit transition tables.

A channel over F_q is a row-stochastic table w[x, y] = P(output y | input x)
with outputs labelled 0..m-1.  Symmetry here means: for every input pair
(a, b) there is an output bijection carrying the conditional distribution of
one onto the other.  The public constructors (q-ary symmetric and erasure)
produce symmetric channels by construction, and ``make_table_channel``
checks an arbitrary table; a non-symmetric table can still be wrapped as a
plain ``Channel`` for diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fqlin import _as_modulus, check_budget

__all__ = [
    "Channel",
    "SymmetryCertificate",
    "make_qsc",
    "make_erasure",
    "make_table_channel",
    "validate_symmetric",
    "capacity",
    "sample_outputs",
]

ROW_TOL = 1e-12


class Channel:
    """Memoryless channel: prime input modulus q, transition table w (q x m).

    ``kind`` tags the construction (additive | erasure | general) and
    ``param`` records the defining noise parameter where there is one.
    Instances are immutable.
    """

    __slots__ = ("q", "w", "kind", "param")

    def __init__(self, q, w, kind: str = "general", param=None):
        object.__setattr__(self, "q", _as_modulus(q))
        w = np.array(w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != self.q:
            raise ValueError("transition table must have one row per field element")
        if not np.all(np.isfinite(w)):
            raise ValueError("transition probabilities must be finite")
        if np.any(w < 0):
            raise ValueError("transition probabilities must be nonnegative")
        if np.any(np.abs(w.sum(axis=1) - 1.0) > ROW_TOL):
            raise ValueError("transition table rows must sum to 1")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "param", param)

    def __setattr__(self, name, value):
        raise AttributeError("Channel is immutable")

    @property
    def outputs(self) -> int:
        return self.w.shape[1]

    @property
    def erasure_symbol(self) -> int:
        """Label of the erasure output (only meaningful for erasure channels)."""
        if self.kind != "erasure":
            raise ValueError("not an erasure channel")
        return self.q

    def __repr__(self):
        return f"Channel(kind={self.kind!r}, q={self.q}, outputs={self.outputs}, param={self.param})"

    def to_dict(self) -> dict:
        if self.kind in ("additive", "erasure"):
            key = "qsc" if self.kind == "additive" else "erasure"
            return {"kind": key, "q": self.q, "param": float(self.param)}
        return {"kind": "table", "q": self.q, "w": [[float(x) for x in row] for row in self.w]}


def make_qsc(q, eps: float) -> Channel:
    """q-ary symmetric channel: output = input + Z with Z additive noise.

    w[y|x] = 1-eps on y = x and eps/(q-1) elsewhere.
    """
    q = _as_modulus(q)
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ValueError("noise probability must lie in [0, 1]")
    check_budget("channel table", q * q, 10**7)
    w = np.full((q, q), eps / (q - 1))
    np.fill_diagonal(w, 1.0 - eps)
    return Channel(q, w, kind="additive", param=eps)


def make_erasure(q, z: float) -> Channel:
    """Erasure channel: output = input with prob 1-z, else the erasure label q."""
    q = _as_modulus(q)
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise ValueError("erasure probability must lie in [0, 1]")
    check_budget("channel table", q * (q + 1), 10**7)
    w = np.zeros((q, q + 1))
    np.fill_diagonal(w, 1.0 - z)
    w[:, q] = z
    return Channel(q, w, kind="erasure", param=z)


def make_table_channel(q, w) -> Channel:
    """Wrap an explicit transition table, which must be symmetric."""
    c = Channel(q, w, kind="general")
    cert = validate_symmetric(c)
    if not cert.ok:
        raise ValueError(f"table is not symmetric: {cert.reason}")
    return c


@dataclass(frozen=True)
class SymmetryCertificate:
    """Outcome of the symmetry check.

    On success ``bijections[(0, b)]`` holds sigma with w[y|0] = w[sigma(y)|b]
    for every output y and every input b; composing two of them gives the
    bijection of any input pair.  On failure ``violation`` names an
    offending input pair and ``reason`` says why.
    """

    ok: bool
    bijections: dict | None = None
    violation: tuple | None = None
    reason: str = ""

    def __bool__(self):
        return self.ok


def validate_symmetric(c: Channel) -> SymmetryCertificate:
    """Find, for every input b, an output bijection carrying the conditional
    distribution of input 0 onto that of b.

    Candidates are built by matching conditional distributions sorted by
    probability; ties are matched in index order, which is harmless because
    tied entries are interchangeable.  Every candidate is then verified entry
    by entry, so a returned certificate is sound regardless of how ties were
    broken.  The verdict is the existence of these q bijections, and through
    input 0 of one for every input pair; the certificate holds q of them,
    not q^2, so it is as large as the table.  Equal column sums over all
    outputs are not required: an erasure output, fed equally by every input,
    breaks them while leaving the channel perfectly input-symmetric.
    """
    w = c.w
    first = np.argsort(w[0], kind="stable")
    bijections = {}
    for b in range(c.q):
        sigma = np.empty(c.outputs, dtype=np.int64)
        sigma[first] = np.argsort(w[b], kind="stable")
        if np.max(np.abs(w[0] - w[b][sigma])) > 1e-12:
            return SymmetryCertificate(
                ok=False,
                violation=(0, b),
                reason=f"no output bijection matches inputs 0 and {b}",
            )
        bijections[(0, b)] = sigma
    return SymmetryCertificate(ok=True, bijections=bijections)


def capacity(c: Channel) -> float:
    """Normalized capacity I(X;Y)/log2(q) with X uniform, exact from the table.

    Uniform input is optimal for symmetric channels, so this is the channel
    capacity; equals 1 - H(X|Y)/log2(q).  Raises on non-symmetric input.
    """
    cert = validate_symmetric(c)
    if not cert.ok:
        raise ValueError(f"capacity requires a symmetric channel: {cert.reason}")
    w = c.w
    py = w.mean(axis=0)
    ratio = np.divide(w, py[None, :], out=np.ones_like(w), where=(w > 0) & (py > 0))
    bits = float(np.sum(w * np.log2(ratio)) / c.q)
    return bits / np.log2(c.q)


def sample_outputs(c: Channel, x, rng: np.random.Generator) -> np.ndarray:
    """Vectorized channel use: one output draw per entry of ``x``.

    ``x`` holds input symbols in [0, q) (a ValueError otherwise).  Each entry
    draws one uniform r from ``rng``, and its output is the number of the
    input row's cumulative thresholds cdf[x, 0..m-2] that r reaches.  The
    labels come in the smallest unsigned dtype that holds m - 1.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "iu":
        raise ValueError(f"channel inputs must be integers; got an array of {x.dtype}")
    if x.size and (x.min() < 0 or x.max() >= c.q):
        raise ValueError(f"channel inputs must lie in [0, {c.q})")
    cdf = np.cumsum(c.w, axis=1)
    r = rng.random(size=x.shape)
    y = np.zeros(x.shape, dtype=np.min_scalar_type(c.outputs - 1))
    for j in range(c.outputs - 1):
        y += r >= np.take(cdf[:, j], x)
    return y

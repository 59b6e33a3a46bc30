"""Structural kernel analysis: mixing, containment witnesses, code distance.

A kernel polarizes only if it is mixing: invertible with no row permutation
upper-triangular.  Mixing kernels all contain the 2x2 lower-triangular matrix
H = [[1,0],[a,1]] "usefully" (through a permutation P and a column map T with
P M T = [H; 0] whose last nonzero row of T is a scaled last basis vector),
containment survives tensor squaring, and the left-kernel distance of a
leading column block controls how fast the low-end synthetic entropies decay.
This module computes all of those objects as verified witnesses rather than
existence claims: every witness returned here has been re-multiplied and
checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import polarlab
from .fqlin import (
    BudgetExceeded,
    FqMatrix,
    _as_modulus,
    _augmented_echelon,
    _unit_lower,
    check_budget,
    field_inverse,
    kron,
    kron_power,
    min_weight_search,
    qary_words,
    row_echelon,
)

__all__ = [
    "ContainmentWitness",
    "KernelReport",
    "BuiltKernel",
    "MlFailure",
    "ColumnSearch",
    "is_mixing",
    "find_useful_containment_H",
    "tensor_witness",
    "verify_witness",
    "left_kernel_distance",
    "build_high_distance_kernel",
    "ml_failure_exact",
    "extract_high_distance_columns",
    "random_mixing",
    "kernel_report",
]

#: Random draws per trial size of the high-distance construction, and
#: perturbations of its completion before it gives up.
_ATTEMPTS = 2000
#: extract_high_distance_columns searches every subset of at most this many
#: columns, and at most _EXHAUSTIVE_SUBSETS subsets; greedily otherwise.
_EXHAUSTIVE_COLUMNS = 16
_EXHAUSTIVE_SUBSETS = 200_000


def _mixing_echelon(m: FqMatrix):
    """(U1, E) of ``fqlin._augmented_echelon`` if M is mixing (some row of E has two nonzeros), else None."""
    if m.rows != m.cols:
        raise ValueError("mixing is defined for square matrices")
    factors = _augmented_echelon(m)
    return factors if factors is not None and (np.count_nonzero(factors[1], axis=1) > 1).any() else None


def is_mixing(m: FqMatrix) -> bool:
    """Mixing test: invertible and no row permutation is upper-triangular.

    True when a row of E in the echelon form [U1 | E] of [M | I] has two
    nonzeros, that is when first-nonzero-pivot elimination produces a
    multiplier: a non-mixing matrix has one candidate pivot row per column,
    so it never does.  The tests cross-validate it against all k! row
    permutations.
    """
    return _mixing_echelon(m) is not None


@dataclass(frozen=True)
class ContainmentWitness:
    """Witness for a useful containment R in M: M.arr[perm] @ T = [R; 0].

    ``perm`` is a row-selection array (row i of the permuted matrix is row
    perm[i] of M).  Usefulness: the last nonzero row of T is alpha times the
    last standard basis row, with alpha nonzero.
    """

    target: FqMatrix
    perm: np.ndarray
    T: FqMatrix
    alpha: int

    def witnessed_index(self) -> int:
        """Row index of the last nonzero row of T (0-based)."""
        nonzero = np.flatnonzero(self.T.arr.any(axis=1))
        return int(nonzero[-1])

    def to_dict(self) -> dict:
        return {
            "target": self.target.to_dict(),
            "perm": [int(p) for p in self.perm],
            "T": self.T.to_dict(),
            "alpha": int(self.alpha),
        }


def verify_witness(w: ContainmentWitness, m: FqMatrix) -> bool:
    """Independent check of a witness by explicit multiplication."""
    k = m.rows
    mt = w.target.rows
    perm = np.asarray(w.perm)
    if sorted(perm.tolist()) != list(range(k)):
        return False
    prod = m.arr[perm] @ w.T.arr % m.q
    if not np.array_equal(prod[:mt], w.target.arr):
        return False
    if prod[mt:].any():
        return False
    nonzero = np.flatnonzero(w.T.arr.any(axis=1))
    if nonzero.size == 0:
        return False
    expected = np.zeros(w.T.cols, dtype=np.int64)
    expected[-1] = w.alpha % m.q
    return bool(expected[-1]) and np.array_equal(w.T.arr[nonzero[-1]], expected)


def find_useful_containment_H(m: FqMatrix) -> ContainmentWitness:
    """Constructive witness that a mixing M usefully contains H = [[1,0],[a,1]].

    Follows the PLU route, from the echelon form [U1 | E] of [M | I] that
    also gives the mixing check: M[perm] = L2 @ U1 with E^-1 = P^T L2.  Locate
    in L2 the last column s with two nonzero entries and the last row r
    touching it, cancel everything between them with the single-entry
    columns, and transport the resulting witness back through U1.  The
    returned witness verifies against M itself.
    """
    return _containment_witness(m, _mixing_echelon(m))


def _containment_witness(m: FqMatrix, factors) -> ContainmentWitness:
    """``find_useful_containment_H`` from ``_mixing_echelon(m)``, which it does not recompute."""
    if factors is None:
        raise ValueError("no containment: matrix is not mixing")
    q, k = m.q, m.rows
    perm, low2, u1_inv = _unit_lower(m, factors[0])

    s = int(np.flatnonzero((low2 != 0).sum(axis=0) >= 2)[-1])
    r = int(np.flatnonzero(low2[:, s])[-1])

    inv_ss = field_inverse(low2[s, s], q)
    t1 = np.zeros(k, dtype=np.int64)
    t1[s] = inv_ss
    for i in range(s + 1, r):
        t1[i] = (-low2[i, s] * inv_ss * field_inverse(low2[i, i], q)) % q
    t2 = np.zeros(k, dtype=np.int64)
    t2[r] = field_inverse(low2[r, r], q)
    target = FqMatrix(q, [[1, 0], [low2[r, s] * inv_ss, 1]])

    rowsel = np.array([s, r] + [i for i in range(k) if i not in (s, r)])
    # L2[rowsel] @ [t1 t2] = [R; 0] and L2 @ U1 = M[perm], so U1^{-1} @ [t1 t2]
    # works for M[perm[rowsel]]; U1^{-1} is unit upper-triangular, so it keeps
    # T's last nonzero row t2[r] e_last
    t = u1_inv @ FqMatrix(q, np.column_stack([t1, t2]))
    witness = ContainmentWitness(target, perm[rowsel], t, alpha=int(t2[r]))
    if not verify_witness(witness, m):
        raise AssertionError("constructed containment witness failed verification")
    return witness


def tensor_witness(w: ContainmentWitness) -> ContainmentWitness:
    """Square a witness: R in M becomes R tensor R in M tensor M.

    (P kron P) (M kron M) (T kron T) = (P M T) kron (P M T); a further row
    gather moves the R-kron-R rows to the top.  Usefulness squares the alpha.
    """
    k = len(w.perm)
    mt = w.target.rows
    q = w.T.q
    perm = np.asarray(w.perm)
    perm2 = (perm[:, None] * k + perm[None, :]).ravel()
    top = [i * k + j for i in range(mt) for j in range(mt)]
    rest = [i for i in range(k * k) if i not in set(top)]
    gather = np.array(top + rest)
    return ContainmentWitness(
        kron(w.target, w.target),
        perm2[gather],
        kron(w.T, w.T),
        alpha=int(w.alpha * w.alpha % q),
    )


def left_kernel_distance(m0: FqMatrix):
    """Minimum Hamming weight over nonzero u with u @ m0 = 0.

    Returns math.inf when the left kernel is trivial.  This is lead class
    n = m0.cols of ``fqlin.min_weight_search``, which enumerates either the
    kernel through its basis or the supports of u by increasing weight,
    whichever is cheaper; the search budget caps that cheaper candidate
    count and is checked before any enumeration (BudgetExceeded).
    """
    (weight,), _ = min_weight_search(m0, [m0.cols])
    return math.inf if weight == 0 else int(weight)


@dataclass(frozen=True)
class MlFailure:
    """Exact min-weight-decoder failure rate and its distance lower bound."""

    failure: float
    lower_bound: float
    distance: object
    bound_ok: bool


def ml_failure_exact(p: FqMatrix, eps: float) -> MlFailure:
    """Exact failure rate of min-weight decoding of u @ P under sparse noise.

    u has i.i.d. coordinates equal to 0 with probability 1-eps and uniform
    nonzero otherwise (eps < 1/2).  The decoder returns the minimum-weight
    preimage of the observed u @ P; ties count as failures, which keeps the
    reported number an upper bound for any tie-breaking rule and preserves
    the lower-bound direction of the distance argument.  The companion bound
    is failure >= (eps/(q-1))^A with A the left-kernel distance of P, from
    flipping the support of a minimum-weight kernel vector.  The q^k source
    words are enumerated within a budget of 10^6 (BudgetExceeded beyond it).
    """
    eps = float(eps)
    if not 0.0 <= eps < 0.5:
        raise ValueError("noise rate must satisfy 0 <= eps < 1/2")
    q = p.q
    k = p.rows
    check_budget("source enumeration", q**k, 10**6)

    all_u = qary_words(q, k)
    weights = np.count_nonzero(all_u, axis=1)
    synd = all_u @ p.arr % q
    _, inv = np.unique(synd, axis=0, return_inverse=True)
    n_groups = inv.max() + 1 if inv.size else 0
    gmin = np.full(n_groups, k + 1)
    np.minimum.at(gmin, inv, weights)
    at_min = weights == gmin[inv]
    mult = np.bincount(inv, weights=at_min.astype(np.float64), minlength=n_groups)
    unique_winner = at_min & (mult[inv] == 1)

    pz = 1.0 - eps
    pnz = eps / (q - 1) if q > 1 else 0.0
    probs = pz ** (k - weights[unique_winner]) * pnz ** weights[unique_winner]
    failure = float(1.0 - probs.sum())

    dist = left_kernel_distance(p)
    bound = 0.0 if math.isinf(dist) else pnz**dist
    return MlFailure(failure, bound, dist, failure >= bound - 1e-15)


# ---------------------------------------------------------------------------
# High-distance kernel construction
# ---------------------------------------------------------------------------

# Primitive polynomials for GF(2^m), m = 2..10, as bit masks (x^2 + x + 1 etc).
_PRIMITIVE_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
}


def _gf2m_powers(m: int, count: int) -> list:
    """alpha^0 .. alpha^(count-1) in GF(2^m) as integers."""
    poly = _PRIMITIVE_POLY[m]
    out = []
    x = 1
    for _ in range(count):
        out.append(x)
        x <<= 1
        if x >> m:
            x ^= poly
    return out


def _bch_block(k: int, b: int) -> FqMatrix:
    """k x (b*m) binary block whose left kernel is a designed-distance 2b+1 code.

    Row i stacks the bit representations of alpha^(i*j) for the odd powers
    j = 1, 3, .., 2b-1; conjugacy supplies the even powers, so the left kernel
    is a (possibly shortened) narrow-sense code of distance > 2b.  For b = 1
    this degenerates to distinct nonzero columns, the Hamming construction.
    """
    m = 1
    while 2**m - 1 < k:
        m += 1
    m = max(m, 2)
    if m not in _PRIMITIVE_POLY:
        raise ValueError(f"no primitive polynomial tabulated for GF(2^{m})")
    rows = np.zeros((k, b * m), dtype=np.int64)
    powers = _gf2m_powers(m, 2 * b)
    for block, j in enumerate(range(1, 2 * b, 2)):
        # alpha^(i*j) for i = 0..k-1, stepping by alpha^j each time
        step = powers[j]
        val = 1
        for i in range(k):
            for bit in range(m):
                rows[i, block * m + bit] = (val >> bit) & 1
            val = _gf2m_mul(val, step, m)
    return FqMatrix(2, rows)


def _gf2m_mul(a: int, b: int, m: int) -> int:
    poly = _PRIMITIVE_POLY[m]
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        if a >> m:
            a ^= poly
        b >>= 1
    return out


def _complete_columns(m0_arr: np.ndarray, q: int) -> np.ndarray:
    """Extend a full-column-rank k x s block to an invertible k x k matrix.

    Appends the unit vectors e_i that are pivot columns of [M0 | I]: scanning
    left to right, each raises the rank of the columns before it.
    """
    k, s = m0_arr.shape
    eye = np.eye(k, dtype=np.int64)
    _, pivots = row_echelon(np.hstack([m0_arr, eye]), q)
    return np.hstack([m0_arr, eye[:, [p - s for p in pivots if p >= s]]])


def random_mixing(q, k: int, rng: np.random.Generator) -> FqMatrix:
    """Rejection-sample a mixing k x k kernel over F_q."""
    q = _as_modulus(q)
    while True:
        cand = FqMatrix(q, rng.integers(0, q, size=(k, k)))
        if is_mixing(cand):
            return cand


@dataclass(frozen=True)
class KernelReport:
    """Aggregated structural facts about one kernel, all independently verified."""

    mixing: bool
    witness: ContainmentWitness | None
    block_cols: int | None
    distance: object
    exponents: np.ndarray | None
    eta: float | None
    b: int | None

    @property
    def exponent(self) -> float | None:
        """E(M) = (1/k) sum_j log_k d[j], the largest beta the kernel reaches.

        Korada-Sasoglu-Urbanke (2010): block error exp(-N^beta) is achievable
        for every beta < E(M) and for none above it.  None when the
        exponents are.
        """
        if self.exponents is None:
            return None
        k = len(self.exponents)
        return float(np.log(self.exponents).sum() / (k * math.log(k)))

    def to_dict(self) -> dict:
        dist = self.distance
        return {
            "mixing": bool(self.mixing),
            "distance": dist if dist is None else "inf" if math.isinf(dist) else int(dist),
            "block_cols": self.block_cols,
            "exponents": None if self.exponents is None else [int(d) for d in self.exponents],
            "exponent": self.exponent,
            "eta": self.eta,
            "b": self.b,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


def kernel_report(m: FqMatrix, block_cols: int | None = None) -> KernelReport:
    """Assemble the standard report: mixing, H-witness, block distance, exponents.

    One echelon form [U1 | E] of [M | I] serves the mixing test, the
    witness and the exponent search.  The block distance comes from one
    ``fqlin.min_weight_search`` within its default budget (POLARLAB_BUDGET,
    else 10^7 candidates) and raises BudgetExceeded beyond it.  The leading
    exponents are those of ``polarlab.leading_exponents``, the same search
    over every lead class, read off E under the same budget: a mixing kernel
    is invertible, so no second singularity check is needed.  Exponents over
    budget are reported as None, as for a kernel that is not mixing.
    """
    if block_cols is not None and not 0 <= block_cols <= m.cols:
        raise ValueError(f"block_cols must lie in [0, {m.cols}], got {block_cols}")
    factors = _mixing_echelon(m)
    mixing = factors is not None
    witness = _containment_witness(m, factors) if mixing else None
    distance = None
    if block_cols is not None:
        distance = left_kernel_distance(FqMatrix(m.q, m.arr[:, :block_cols]))
    exponents = eta = b = None
    if mixing:
        try:
            lead = polarlab._search_exponents(m, factors[1])
        except BudgetExceeded:
            pass
        else:
            exponents, eta, b = lead.d, lead.eta, lead.b
    return KernelReport(mixing, witness, block_cols, distance, exponents, eta, b)


@dataclass(frozen=True)
class BuiltKernel:
    """Output of the high-distance construction: the kernel plus its evidence."""

    matrix: FqMatrix
    block_cols: int
    distance: object
    report: KernelReport


def build_high_distance_kernel(q, k: int, b: int, rng: np.random.Generator | None = None) -> BuiltKernel:
    """Mixing kernel [M0 | M1] whose leading block has left-kernel distance > 2b.

    Over F_2 the block comes from tabulated parity-check families (Hamming for
    b = 1, designed-distance blocks above); other fields fall back to seeded
    random search with exact verification.  The completion M1 starts as a
    greedy basis extension and, if the result is not mixing, is perturbed by
    right multiplications that leave the leading block untouched.  Every
    returned kernel carries a verified report; a failed search raises with
    the best distance found.
    """
    q = _as_modulus(q)
    rng = rng if rng is not None else np.random.default_rng(0)
    if b < 0:
        raise ValueError("b must be nonnegative")
    if k < 2:
        raise ValueError("kernels need at least two rows")
    if b == 0:
        # Any mixing kernel qualifies: an empty block's left kernel is all of
        # F_q^k, of distance 1 > 2b.  The lower-triangular all-ones matrix is
        # the canonical choice.
        m = FqMatrix(q, np.tril(np.ones((k, k), dtype=np.int64)))
        report = kernel_report(m, block_cols=0)
        return BuiltKernel(m, 0, report.distance, report)
    if q == 2:
        m0_arr = _bch_block(k, b).arr
        dist = left_kernel_distance(FqMatrix(2, m0_arr))
        if not dist > 2 * b:
            raise ValueError(f"structured block missed its distance: got {dist}")
    else:
        m0_arr = _search_block(q, k, b, rng)

    s = m0_arr.shape[1]
    if s >= k:
        raise ValueError(f"block needs {s} columns, leaving no room in a {k}x{k} kernel")
    full = _complete_columns(m0_arr, q)
    m = FqMatrix(q, full)
    for _ in range(_ATTEMPTS):
        if is_mixing(m):
            break
        bmat = rng.integers(0, q, size=(s, k - s))
        v = np.triu(rng.integers(0, q, size=(k - s, k - s)), 1) + np.eye(k - s, dtype=np.int64)
        m1 = (full[:, :s] @ bmat + full[:, s:] @ v) % q
        full = np.column_stack([full[:, :s], m1])
        m = FqMatrix(q, full)
    else:
        raise ValueError("failed to complete the block to a mixing kernel")

    report = kernel_report(m, block_cols=s)
    if not report.distance > 2 * b:
        raise AssertionError("completed kernel lost the block distance")
    return BuiltKernel(m, s, report.distance, report)


def _search_block(q: int, k: int, b: int, rng: np.random.Generator) -> np.ndarray:
    """Randomized search for a k x s block with left-kernel distance > 2b."""
    best_dist = 0
    for s in range(max(2 * b, 1), k):
        for _ in range(_ATTEMPTS):
            cand = FqMatrix(q, rng.integers(0, q, size=(k, s)))
            try:
                d = left_kernel_distance(cand)
            except BudgetExceeded:
                break  # kernel too large to enumerate at this s
            if not math.isinf(d):
                best_dist = max(best_dist, d)
            if d > 2 * b:
                return cand.arr
    raise ValueError(f"no block with distance > {2 * b} found; best seen {best_dist}")


@dataclass(frozen=True)
class ColumnSearch:
    """Best column subset found, with its distance and the padded mixing flag."""

    columns: tuple
    distance: object
    padded_mixing: bool
    exhaustive: bool


def extract_high_distance_columns(m: FqMatrix, t0: int, s: int) -> ColumnSearch:
    """Column subset of the t0-th tensor power maximizing left-kernel distance.

    Exhaustive over all subsets when the power has at most
    _EXHAUSTIVE_COLUMNS columns and at most _EXHAUSTIVE_SUBSETS subsets of
    size s; otherwise greedy add-one search, flagged as non-exhaustive.
    Ties prefer the lexicographically first subset.  Also reports whether
    the column permutation putting the chosen block first is mixing.
    """
    mt = kron_power(m, t0)
    n = mt.rows
    if not 0 <= s <= n:
        raise ValueError("subset size out of range")
    q = m.q

    def block_distance(cols):
        return left_kernel_distance(FqMatrix(q, mt.arr[:, list(cols)]))

    exhaustive = n <= _EXHAUSTIVE_COLUMNS and math.comb(n, s) <= _EXHAUSTIVE_SUBSETS
    if exhaustive:
        best_cols, dist = None, -1
        for cols in itertools.combinations(range(n), s):
            d = block_distance(cols)
            if d > dist:
                best_cols, dist = cols, d
    else:
        # no picks: an empty block's left kernel is all of F_q^n
        chosen, dist = [], 1
        remaining = list(range(n))
        for _ in range(s):
            dist, pick = max(((block_distance(chosen + [c]), c) for c in remaining), key=lambda dc: (dc[0], -dc[1]))
            chosen.append(pick)
            remaining.remove(pick)
        best_cols = tuple(chosen)
    order = list(best_cols) + [c for c in range(n) if c not in set(best_cols)]
    padded = FqMatrix(q, mt.arr[:, order])
    return ColumnSearch(tuple(best_cols), dist, is_mixing(padded), exhaustive)

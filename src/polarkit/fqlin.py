"""Exact dense linear algebra over prime fields F_q.

Matrices carry their modulus and every operation reduces eagerly, so entries
stay canonical in [0, q).  Everything is deliberately dense and desk-scale:
kernels are a handful of rows wide and tensor powers top out around a million
entries, so exactness and reproducibility matter more than asymptotics.
Matrix arithmetic is int64; moduli large enough to overflow a product of two
entries are out of scope.  The one bulk transform, ``tensor_apply``, holds its
symbols position-major in the smallest unsigned dtype that fits one level's
unreduced sum and reduces once per level.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FqMatrix",
    "PluDecomposition",
    "field_inverse",
    "is_prime",
    "kron",
    "kron_power",
    "qary_words",
    "tensor_apply",
    "plu_decompose",
    "row_echelon",
    "check_budget",
    "BudgetExceeded",
    "min_weight_search",
]

#: Environment variable that sets the limit of every enumeration in the package.
BUDGET_ENV = "POLARLAB_BUDGET"

#: Default cap on the candidates one min_weight_search may enumerate.
DEFAULT_SEARCH_BUDGET = 10**7


class BudgetExceeded(ValueError):
    """An enumeration was refused before it started: it would exceed its budget."""


def check_budget(what: str, cost: int, default: int):
    """Refuse an enumeration of ``cost`` items above its limit (BudgetExceeded).

    The limit is POLARLAB_BUDGET when that is set, else ``default``; it is
    returned, so a caller can split work into pieces that each fit.  Every
    enumeration and channel table in the package is checked here before it
    starts, and this is the only reader of POLARLAB_BUDGET.
    """
    raw = os.environ.get(BUDGET_ENV)
    limit = default
    if raw is not None:
        try:
            limit = int(raw)
        except ValueError:
            limit = 0  # rejected below with the nonpositive ones
        if limit < 1:
            raise ValueError(f"{BUDGET_ENV} must be a positive integer; got {raw!r}")
    if cost > limit:
        raise BudgetExceeded(f"{what} budget exceeded: {cost} > {limit}")
    return limit


def is_prime(n: int) -> bool:
    """Trial-division primality check; adequate for desk-scale moduli."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _as_modulus(q) -> int:
    q = int(q)
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    return q


def field_inverse(a: int, q) -> int:
    """Multiplicative inverse of ``a`` mod prime ``q``.

    Raises a ValueError for a = 0: zero has no inverse.
    """
    q = _as_modulus(q)
    a = int(a) % q
    if a == 0:
        raise ValueError("zero has no inverse")
    return pow(a, -1, q)


class FqMatrix:
    """Dense matrix over F_q backed by an immutable int64 array.

    Entries are reduced mod q at construction and after every operation.
    Instances are immutable; all methods return new matrices.
    """

    __slots__ = ("q", "arr")

    def __init__(self, q, entries):
        object.__setattr__(self, "q", _as_modulus(q))
        arr = np.array(entries, dtype=np.int64) % self.q
        if arr.ndim != 2:
            raise ValueError("entries must form a two-dimensional array")
        arr.flags.writeable = False
        object.__setattr__(self, "arr", arr)

    def __setattr__(self, name, value):
        raise AttributeError("FqMatrix is immutable")

    @property
    def rows(self) -> int:
        return self.arr.shape[0]

    @property
    def cols(self) -> int:
        return self.arr.shape[1]

    @classmethod
    def identity(cls, q, k: int) -> "FqMatrix":
        return cls(q, np.eye(k, dtype=np.int64))

    @classmethod
    def zeros(cls, q, rows: int, cols: int) -> "FqMatrix":
        return cls(q, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def from_dict(cls, d: dict) -> "FqMatrix":
        """Parse the matrix literal format {"q", "rows", "cols", "entries"}."""
        arr = np.asarray(d["entries"], dtype=np.int64).reshape(d["rows"], d["cols"])
        return cls(d["q"], arr)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "rows": self.rows,
            "cols": self.cols,
            "entries": [int(e) for e in self.arr.ravel()],
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, FqMatrix):
            return NotImplemented
        return self.q == other.q and self.arr.shape == other.arr.shape and bool(
            np.array_equal(self.arr, other.arr)
        )

    def __hash__(self):
        return hash((self.q, self.arr.shape, self.arr.tobytes()))

    def __repr__(self) -> str:
        return f"FqMatrix(q={self.q}, {self.arr.tolist()})"

    def _check_same_field(self, other: "FqMatrix"):
        if self.q != other.q:
            raise ValueError(f"modulus mismatch: {self.q} vs {other.q}")

    def __matmul__(self, other: "FqMatrix") -> "FqMatrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: ({self.rows}x{self.cols}) @ ({other.rows}x{other.cols})"
            )
        return FqMatrix(self.q, (self.arr @ other.arr) % self.q)

    def __add__(self, other: "FqMatrix") -> "FqMatrix":
        self._check_same_field(other)
        if self.arr.shape != other.arr.shape:
            raise ValueError("dimension mismatch in sum")
        return FqMatrix(self.q, (self.arr + other.arr) % self.q)

    def __sub__(self, other: "FqMatrix") -> "FqMatrix":
        self._check_same_field(other)
        if self.arr.shape != other.arr.shape:
            raise ValueError("dimension mismatch in difference")
        return FqMatrix(self.q, (self.arr - other.arr) % self.q)

    def transpose(self) -> "FqMatrix":
        return FqMatrix(self.q, self.arr.T)

    def rank(self) -> int:
        _, pivots = row_echelon(self.arr, self.q)
        return len(pivots)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "FqMatrix":
        """Exact inverse; raises on non-square or singular input."""
        if self.rows != self.cols:
            raise ValueError("inverse requires a square matrix")
        blocks = _augmented_echelon(self, reduced=True)  # [I | M^-1]
        if blocks is None:
            raise ValueError("singular matrix")
        return FqMatrix(self.q, blocks[1])


def row_echelon(a: np.ndarray, q: int, reduced: bool = False, max_pivot_col=None):
    """Row echelon form of an integer array mod q.

    Returns (echelon, pivot_columns).  Pivots are chosen as the first row with
    a nonzero entry in the current column, scanning columns left to right; the
    deterministic rule every caller in this package relies on.  With
    ``reduced`` the result is the reduced row echelon form.  ``max_pivot_col``
    restricts pivoting to the leading columns (used for augmented systems).
    """
    a = np.array(a, dtype=np.int64) % q
    r, c = a.shape
    limit = c if max_pivot_col is None else max_pivot_col
    pivots = []
    row = 0
    for col in range(limit):
        if row == r:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        p = row + int(nz[0])
        if p != row:
            a[[row, p]] = a[[p, row]]
        inv = pow(int(a[row, col]), -1, q)
        a[row] = a[row] * inv % q
        below = np.nonzero(a[row + 1 :, col])[0] + row + 1
        if below.size:
            a[below] = (a[below] - np.outer(a[below, col], a[row])) % q
        pivots.append(col)
        row += 1
    if reduced:
        for i in reversed(range(len(pivots))):
            col = pivots[i]
            above = np.nonzero(a[:i, col])[0]
            if above.size:
                a[above] = (a[above] - np.outer(a[above, col], a[i])) % q
    return a, pivots


def min_weight_search(a: FqMatrix, classes=None, budget=None):
    """Least Hamming weight of nonzero y in each lead class of yA, exactly.

    The lead class of y is the index of the first nonzero entry of yA, or
    n = a.cols when yA = 0.  For each requested class (all n + 1 by default)
    returns the least weight of a y in it and the number of distinct supports
    of that weight, as two int64 arrays aligned with ``classes``; both are 0
    for an empty class.  For an invertible kernel, class j holds exactly the
    y supported on an erasure pattern that leaves output j undetermined, so
    class j gives its partial distance d[j] and leading constant; class n is
    the left kernel, so its weight is the minimum distance of that code.

    One row echelon form of [A | I] splits F_q^k by class: row i is (y_i A,
    y_i) with y_i A leading at class c_i (nondecreasing in i), so a y whose
    coordinates over the y_i start at row i is in class c_i.  It also bounds
    each class's least weight by the weight of its rows and by i + 1 for its
    first row i: the columns before the class have rank i, so some i + 1
    rows of A already hold a y in it.  Each class is then filled by the
    cheaper of two exact enumerations:

    - every y of weight 1, 2, ..., w, first nonzero entry 1, layer by layer;
      one pass serves every class whose bound is at most w and stops after
      the first layer in which all of them have appeared;
    - its rows' cosets y_i + span(y_{i+1}, ...), q^(k-1-i) vectors each.

    w minimises the candidate count of the whole plan, and ``check_budget``
    refuses that count before anything is enumerated; ``budget`` is its
    default limit (10^7 when None).  Both enumerations add two precomputed
    sets of vectors pairwise, _SEARCH_CHUNK candidates or so per numpy step,
    so memory stays bounded whatever the count.
    """
    q, k, n = a.q, a.rows, a.cols
    classes = np.arange(n + 1) if classes is None else np.asarray(list(classes), dtype=np.int64)
    if classes.size and not 0 <= classes.min() <= classes.max() <= n:
        raise ValueError(f"lead classes must lie in [0, {n}]")
    ech, pivots = row_echelon(np.hstack([a.arr, np.eye(k, dtype=np.int64)]), q, max_pivot_col=n)
    basis = ech[:, n:]
    row_class = np.array(pivots + [n] * (k - len(pivots)), dtype=np.int64)
    wanted = set(classes.tolist()) & set(row_class.tolist())  # the nonempty ones
    bound, coset_cost = {}, {}
    for i, (c, weight) in enumerate(zip(row_class.tolist(), np.count_nonzero(basis, axis=1).tolist())):
        if c in wanted:
            bound[c] = min(bound.get(c, i + 1), weight)
            coset_cost[c] = coset_cost.get(c, 0) + q ** (k - 1 - i)

    depth, cost = _plan(bound, coset_cost, k, q)
    check_budget("minimum-weight search", cost, DEFAULT_SEARCH_BUDGET if budget is None else budget)

    # limit[c] is k + 1 while a wanted class is unseen, then its least weight
    # so far; it is 0 for the other classes, which filters them out for free
    limit = np.zeros(n + 1, dtype=np.int64)
    limit[list(wanted)] = k + 1
    seen = {c: set() for c in wanted}
    dtype = np.min_scalar_type(q - 1)

    for v in range(1, depth + 1):
        if all(limit[c] <= k for c in bound if bound[c] <= depth):
            break
        # y = (y_left, y_right) with the first nonzero entry a 1 in y_left,
        # or in y_right when y_left = 0; a small layer is one block
        half = k if _layer_size(k, q, v) <= _SEARCH_CHUNK else k // 2
        for left in range(max(0, v - (k - half)), min(v, half) + 1):
            xs, x_supp = _weight_layer(a.arr[:half], q, left, normalized=True)
            ys, y_supp = _weight_layer(a.arr[half:], q, v - left, normalized=left == 0)
            # one more column, 0 on the left and 1 on the right, puts the lead
            # of an all-zero yA at class n
            xs = np.hstack([xs, np.zeros((len(xs), 1), dtype=dtype)])
            ys = np.hstack([ys, np.ones((len(ys), 1), dtype=dtype)])
            for i0, j0, nz in _pair_supports(xs, ys, q):
                lead = nz.argmax(axis=2)
                _absorb(limit, seen, lead, v, lambda i, j: np.hstack([x_supp[i0 + i], y_supp[j0 + j]]))

    todo = [c for c in bound if bound[c] > depth and limit[c] > k]
    if todo:
        # all combinations z of the rows from `start` on whose first nonzero
        # coefficient is a 1 on a row of a class to do: that row is among the
        # first `high` (any coefficients on the last `low`), or those are all 0
        rows = np.flatnonzero(np.isin(row_class, todo))
        start = int(rows[0])
        span = basis[start:]
        low = 0
        while low < len(span) and q ** (low + 1) <= _SEARCH_CHUNK:
            low += 1
        high = len(span) - low
        head, head_row = _led_words(q, high, rows - start)
        tail, tail_row = _led_words(q, low, rows - start - high)
        blocks = (  # (x words, y words, class of each pair as a broadcast view)
            (head, qary_words(q, low), row_class[start + head_row][:, None]),
            (np.zeros((1, high), dtype=np.int64), tail, row_class[start + high + tail_row][None, :]),
        )
        for x_words, y_words, pair_class in blocks:
            xs = (x_words @ span[:high] % q).astype(dtype)
            ys = (y_words @ span[high:] % q).astype(dtype)
            pair_class = np.broadcast_to(pair_class, (len(xs), len(ys)))
            for i0, j0, nz in _pair_supports(xs, ys, q):
                cls = pair_class[i0 : i0 + nz.shape[0], j0 : j0 + nz.shape[1]]
                _absorb(limit, seen, cls, nz.sum(axis=2), lambda i, j: nz[i, j])

    classes = classes.tolist()
    weights = np.array([limit[c] if c in seen else 0 for c in classes], dtype=np.int64)
    supports = np.array([len(seen[c]) if c in seen else 0 for c in classes], dtype=np.int64)
    return weights, supports


#: Candidates handled per vectorised step of min_weight_search.
_SEARCH_CHUNK = 1 << 14


def _plan(bound: dict, coset_cost: dict, k: int, q: int):
    """(w, candidate count) of the cheapest plan of min_weight_search.

    Layers 1..w serve the classes whose weight bound is at most w, and the
    cosets of each other class serve it.
    """

    def cost(w):
        layers = sum(_layer_size(k, q, v) for v in range(1, w + 1))
        return layers + sum(coset_cost[c] for c in bound if bound[c] > w)

    depth = min(sorted({0, *bound.values()}), key=cost)
    return depth, cost(depth)


def _layer_size(k: int, q: int, w: int) -> int:
    """Number of weight-w words of length k whose first nonzero entry is 1."""
    return math.comb(k, w) * (q - 1) ** (w - 1)


def _weight_layer(rows: np.ndarray, q: int, w: int, normalized: bool):
    """Every y of weight w over ``rows``: (y @ rows mod q, support of y).

    With ``normalized`` only the y whose first nonzero entry is 1.  Sums use
    the smallest unsigned dtype that holds q - 1.
    """
    m, n = rows.shape
    dtype = np.min_scalar_type(q - 1)
    if w == 0 or w > m:
        size = int(w == 0)
        return np.zeros((size, n), dtype=dtype), np.zeros((size, m), dtype=bool)
    supp = np.array(list(itertools.combinations(range(m), w)), dtype=np.int64)
    coef = qary_words(q - 1, w) + 1
    if normalized:
        coef = coef[coef[:, 0] == 1]
    sums = np.zeros((len(supp), len(coef), n), dtype=np.int64)
    for pos in range(w):
        sums += coef[None, :, pos, None] * rows[supp[:, pos]][:, None, :]
    mask = np.zeros((len(supp), m), dtype=bool)
    mask[np.arange(len(supp))[:, None], supp] = True
    sums = sums.reshape(len(supp) * len(coef), n) % q
    return sums.astype(dtype), np.repeat(mask, len(coef), axis=0)


def _led_words(q: int, m: int, positions):
    """Words of length m whose first nonzero digit is a 1 at one of
    ``positions``, with the index of that digit."""
    words = qary_words(q, m)
    if m == 0:  # only the zero word, which has no first nonzero digit
        return words[:0], np.zeros(0, dtype=np.int64)
    first = (words != 0).argmax(axis=1)
    keep = np.isin(first, positions)
    keep[keep] = words[keep, first[keep]] == 1
    return words[keep], first[keep]


def _pair_supports(xs: np.ndarray, ys: np.ndarray, q: int):
    """(i0, j0, support of xs[i0 + i] + ys[j0 + j]) blocks covering every pair.

    x + y is nonzero exactly where x and -y differ, so each block is one
    comparison, with no sum and no reduction mod q.
    """
    neg = (-ys.astype(np.int64) % q).astype(ys.dtype)
    step_y = max(1, min(len(ys), _SEARCH_CHUNK))
    step_x = max(1, _SEARCH_CHUNK // step_y)
    for i0 in range(0, len(xs), step_x):
        for j0 in range(0, len(ys), step_y):
            yield i0, j0, xs[i0 : i0 + step_x, None] != neg[None, j0 : j0 + step_y]


def _absorb(limit, seen, cls, weight, supports):
    """Fold a block of candidates into the running least weights.

    ``cls`` and ``weight`` broadcast to the block's (i, j) shape;
    ``supports(i, j)`` returns the support rows of the candidates picked.
    A class whose least weight falls forgets the supports it had.
    """
    cls, weight = np.broadcast_arrays(cls, weight)
    i, j = np.nonzero(weight <= limit[cls])
    if not i.size:
        return
    cls, weight = cls[i, j], weight[i, j]
    low = limit.copy()
    np.minimum.at(low, cls, weight)
    for c in np.flatnonzero(low < limit):
        limit[c] = low[c]
        seen[int(c)].clear()
    hit = weight == limit[cls]
    packed = np.packbits(supports(i[hit], j[hit]), axis=1)
    for c, key in zip(cls[hit].tolist(), packed):
        seen[c].add(key.tobytes())


def kron(a: FqMatrix, b: FqMatrix) -> FqMatrix:
    """Kronecker product with lexicographic tuple indexing.

    Entry ((i1,i2),(j1,j2)) = A[i1,j1] * B[i2,j2]; the first tuple coordinate
    is the most significant, which is the one ordering shared by the codec,
    the entropy engine and the martingale tooling.
    """
    a._check_same_field(b)
    return FqMatrix(a.q, np.kron(a.arr, b.arr) % a.q)


def kron_power(m: FqMatrix, t: int) -> FqMatrix:
    """t-fold Kronecker power of ``m``; t = 0 gives the 1x1 identity."""
    if t < 0:
        raise ValueError("tensor depth must be nonnegative")
    out = FqMatrix.identity(m.q, 1)
    for _ in range(t):
        out = kron(out, m)
    return out


def qary_words(q: int, k: int) -> np.ndarray:
    """All q**k words of length k over {0..q-1}, one per int64 row.

    Row i spells i in base q with the first digit most significant, the
    ordering ``kron`` uses for tuple indices.
    """
    idx = np.arange(q**k)
    return idx[:, None] // q ** np.arange(k - 1, -1, -1) % q


def _residues(u, q: int) -> np.ndarray:
    """``u`` as an integer array with entries in [0, q).

    Raises a ValueError for a non-integer array; reduces mod q only when the
    least or greatest entry shows that some entry lies outside [0, q).
    """
    u = np.asarray(u)
    if u.dtype.kind not in "iu":
        raise ValueError(f"symbols must be integers; got an array of {u.dtype}")
    if u.size and (u.min() < 0 or u.max() >= q):
        # a NumPy integer of u's kind: a Python int would have to fit u's dtype
        u = u % (np.uint64(q) if u.dtype == np.uint64 else np.int64(q))
    return u


def tensor_apply(m: FqMatrix, t: int, u) -> np.ndarray:
    """Compute u @ (m tensor-power t) without materializing the power.

    Works level by level in O(k^t * k * t) field operations and is bit-exact
    equal to multiplying by the dense Kronecker power.  ``u`` holds integers
    (a ValueError otherwise), reduced mod q first when any lies outside
    [0, q); it may carry leading batch axes, and the last axis must have
    length k**t.  The result is an int64 array of u's shape.

    Inside, the words are position-major, shape (k**t, batch), so every one
    of a level's k^2 slice operations runs over contiguous runs of
    k^(t-axis-1) * batch symbols.  Symbols are held in the smallest unsigned
    dtype that fits one level's unreduced sum k(q-1)^2, and each level is
    reduced once: by XOR over F_2, else by one ``%`` in that dtype.  A field
    whose level sum not even uint64 holds reduces after every term.
    """
    if m.rows != m.cols:
        raise ValueError("tensor_apply requires a square kernel")
    k, q = m.rows, m.q
    u = _residues(u, q)
    n = k**t
    if u.shape[-1] != n:
        raise ValueError(f"length mismatch: expected {n}, got {u.shape[-1]}")
    level = _TensorLevel(m)
    v = np.array(u.reshape(-1, n).T, dtype=level.dtype, order="C")
    out = np.empty_like(v)
    for axis in range(t):
        # axis `axis` of the (k,) * t position index is the middle one here
        level(v.reshape(k**axis, k, -1), out.reshape(k**axis, k, -1))
        v, out = out, v
    return np.array(v.T.reshape(u.shape), dtype=np.int64, order="C")


class _TensorLevel:
    """One level of tensor_apply over (before, k, after) views of the symbols:
    out[:, j] = sum_i M[i, j] v[:, i] mod q."""

    def __init__(self, m: FqMatrix):
        q, k = m.q, m.rows
        self.q = q
        level_sum = k * (q - 1) ** 2
        self.per_term = level_sum >= 2**64
        self.dtype = np.dtype(np.uint64) if self.per_term else np.min_scalar_type(level_sum)
        self.add = np.bitwise_xor if q == 2 else np.add
        # the nonzero coefficients of each output column, as Python ints so
        # that products stay in the symbols' dtype
        self.terms = [[(i, c) for i, c in enumerate(col) if c] for col in m.arr.T.tolist()]

    def __call__(self, v: np.ndarray, out: np.ndarray):
        q, per_term = self.q, self.per_term
        tmp = None if q == 2 else np.empty_like(out)
        for j, terms in enumerate(self.terms):
            acc = out[:, j]
            prev = None  # the sum so far: a slice of v until a sum lands in acc
            for i, c in terms:
                term = v[:, i] if c == 1 else np.multiply(v[:, i], c, out=acc if prev is None else tmp[:, j])
                prev = term if prev is None else self.add(prev, term, out=acc)
                if per_term and prev is acc:
                    np.remainder(acc, q, out=acc)
            if prev is None:
                acc.fill(0)
            elif prev is not acc:
                np.copyto(acc, prev)
        if q > 2 and not per_term:
            np.remainder(out, q, out=out)


@dataclass(frozen=True)
class PluDecomposition:
    """PLU factorization: M[perm] == lower @ upper over F_q.

    ``perm`` is a row-selection array (row i of the permuted matrix is row
    perm[i] of the input), ``lower`` is unit lower-triangular and ``upper`` is
    upper-triangular, invertible whenever the input is.
    """

    perm: np.ndarray
    lower: FqMatrix
    upper: FqMatrix


def _augmented_echelon(m: FqMatrix, reduced: bool = False):
    """row_echelon of [M | I], pivoting in the first k columns, as its two blocks; None if singular.

    Reduced, they are (I, M^-1); otherwise (U1, E) with E @ M == U1 and U1 unit upper-triangular.
    """
    k = m.rows
    ech, pivots = row_echelon(np.hstack([m.arr, np.eye(k, dtype=np.int64)]), m.q, reduced, max_pivot_col=k)
    return (ech[:, :k], ech[:, k:]) if len(pivots) == k else None


def _unit_lower(m: FqMatrix, u1: np.ndarray):
    """(perm, L2, U1^-1) with M[perm] == L2 @ U1, for U1 from ``_augmented_echelon``.

    Row r of E^-1 = M @ U1^-1 = P^T L2 ends at column perm^-1(r), on L2's diagonal.
    """
    u1_inv = FqMatrix(m.q, u1).inverse()
    e_inv = m.arr @ u1_inv.arr % m.q
    perm = np.argsort([np.flatnonzero(row)[-1] for row in e_inv])
    return perm, e_inv[perm], u1_inv


def plu_decompose(m: FqMatrix) -> PluDecomposition:
    """PLU with the first-nonzero pivot rule (deterministic), read off row_echelon.

    row_echelon's pivot rule is PLU's, so the echelon form [U1 | E] of [M | I]
    has E = L2^-1 P, where M[perm] = P M = L2 @ U1 and L2 = L D with D =
    diag(U) = diag(L2).  Hence L = L2 D^-1 and U = D U1.  Raises
    ValueError("not invertible") on singular input.
    """
    if m.rows != m.cols:
        raise ValueError("plu_decompose requires a square matrix")
    factors = _augmented_echelon(m)
    if factors is None:
        raise ValueError("not invertible")
    perm, l2, _ = _unit_lower(m, factors[0])
    d = np.diag(l2)
    d_inv = np.array([pow(int(x), -1, m.q) for x in d], dtype=np.int64)
    perm.flags.writeable = False
    return PluDecomposition(perm, FqMatrix(m.q, l2 * d_inv), FqMatrix(m.q, d[:, None] * factors[0]))

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
    if not isinstance(q, (int, np.integer)):
        raise ValueError(f"modulus must be an integer; got {q!r}")
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

    Entries must be integers (a ValueError otherwise, unless there are
    none) and are reduced mod q at construction and after every operation.
    Instances are immutable; all methods return new matrices.
    """

    __slots__ = ("q", "arr")

    def __init__(self, q, entries):
        object.__setattr__(self, "q", _as_modulus(q))
        arr = np.asarray(entries)
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"matrix entries must be integers; got an array of {arr.dtype}")
        arr = arr.astype(np.int64) % self.q
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
        """Parse the matrix literal format {"q", "rows", "cols", "entries"}.

        A literal that is not of this form raises a ValueError.
        """
        if not isinstance(d, dict) or not {"q", "rows", "cols", "entries"} <= d.keys():
            raise ValueError('a matrix literal needs the keys "q", "rows", "cols" and "entries"')
        shape = d["rows"], d["cols"]
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0 for n in shape):
            raise ValueError(f"matrix literal rows and cols must be nonnegative integers; got {shape}")
        return cls(d["q"], np.asarray(d["entries"]).reshape(shape))

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


def min_weight_search(a: FqMatrix, classes=None):
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

    - the supports of weight 1, 2, ..., w, C(k, v) in layer v: a class's
      least weight is the first layer in which a support reaches it, and its
      count is how many supports of that layer do.  Over F_2 a support is
      one y; over larger fields ``_support_counts`` reads the classes a
      support reaches off a row reduction of A[e, :].  One pass serves every
      class whose bound is at most w, and needs the layers up to the largest
      least weight among them only;
    - its rows' cosets y_i + span(y_{i+1}, ...), q^(k-1-i) vectors each:
      one y per scalar multiple, and at the class's least weight one per
      support, so these are counted, not stored.  Were y and y' of least
      weight on one support and not proportional, then for some i in it
      (any i, for class n) y'_i / y_i differs from the ratio of the leading
      entries of y'A and yA, and y' - (y'_i / y_i) y is in the class on a
      smaller support.

    w minimises the candidate count of the whole plan, and ``check_budget``
    refuses that count above 10^7 before anything is enumerated.  Each
    numpy step takes _SEARCH_CHUNK candidates or so, and the support walk
    keeps one block per layer, so memory stays bounded.
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
    check_budget("minimum-weight search", cost, 10**7)

    # limit[c] is k + 1 while a wanted class is unseen, then its least weight
    # so far, and count[c] the supports of that weight; limit is 0 for the
    # other classes, which filters them out for free
    limit = np.zeros(n + 1, dtype=np.int64)
    limit[list(wanted)] = k + 1
    count = np.zeros(n + 1, dtype=np.int64)
    layered = {c: b for c, b in bound.items() if b <= depth}
    layers = _binary_layers(a.arr, depth) if q == 2 else enumerate(_support_counts(a.arr, q, depth, layered)[1:], 1)
    for v, reach in layers:
        _absorb(limit, count, np.flatnonzero(reach), v, reach[reach > 0])
        if all(limit[c] <= k for c in layered):
            break

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
        dtype = np.min_scalar_type(q - 1)
        for x_words, y_words, pair_class in blocks:
            xs = (x_words @ span[:high] % q).astype(dtype)
            ys = (y_words @ span[high:] % q).astype(dtype)
            pair_class = np.broadcast_to(pair_class, (len(xs), len(ys)))
            for i0, j0, nz in _pair_supports(xs, ys, q):
                cls = pair_class[i0 : i0 + nz.shape[0], j0 : j0 + nz.shape[1]]
                weight = nz.sum(axis=2)
                hit = weight <= limit[cls]  # a cheap mask, so few candidates reach the scatters
                _absorb(limit, count, cls[hit], weight[hit], 1)
    return limit[classes], count[classes]


#: Candidates handled per vectorised step of min_weight_search and of the
#: support walk.
_SEARCH_CHUNK = 1 << 14


def _plan(bound: dict, coset_cost: dict, k: int, q: int):
    """(w, candidate count) of the cheapest plan of min_weight_search.

    Layers 1..w, C(k, v) supports each, serve the classes whose weight bound
    is at most w, and the cosets of each other class serve it.
    """

    def cost(w):
        return sum(math.comb(k, v) for v in range(1, w + 1)) + sum(coset_cost[c] for c in bound if bound[c] > w)

    depth = min(sorted({0, *bound.values()}), key=cost)
    return depth, cost(depth)


def _binary_layers(a: np.ndarray, depth: int):
    """(v, reach) for v = 1..depth over F_2: reach[c] counts the weight-v y in class c.

    Over F_2 a y is its support.  A layer larger than a chunk pairs y =
    (y_left, y_right) split at row k // 2, every weight on the left with the
    rest on the right, so its memory stays within the chunk.
    """
    k, n = a.shape
    for v in range(1, depth + 1):
        half = k if math.comb(k, v) <= _SEARCH_CHUNK else k // 2
        reach = np.zeros(n + 1, dtype=np.int64)
        for left in range(max(0, v - (k - half)), min(v, half) + 1):
            # one more column, 0 on the left and 1 on the right, puts the lead
            # of an all-zero yA at class n
            xs = np.pad(_weight_layer(a[:half], left), ((0, 0), (0, 1)))
            ys = np.pad(_weight_layer(a[half:], v - left), ((0, 0), (0, 1)), constant_values=1)
            for _, _, nz in _pair_supports(xs, ys, 2):
                reach += np.bincount(nz.argmax(axis=2).ravel(), minlength=n + 1)
        yield v, reach


def _weight_layer(rows: np.ndarray, w: int) -> np.ndarray:
    """y @ rows over F_2 for every y of weight w, as uint8 rows."""
    m = len(rows)
    supp = np.array(list(itertools.combinations(range(m), w)), dtype=np.intp).reshape(math.comb(m, w), w)
    return np.bitwise_xor.reduce(rows.astype(np.uint8)[supp], axis=1)


def _support_counts(a: np.ndarray, q: int, depth: int, bound=None) -> np.ndarray:
    """counts[w, c]: the weight-w supports that reach lead class c, w = 0..depth.

    Support e reaches the lead classes of the nonzero y supported on it: the
    pivot columns of A[e, :], and n = A's column count when its rows are
    dependent.  The walk is depth first: e + {i} with i > max(e) keeps e's
    reduced echelon rows, with A[i] reduced against them: the residue's
    first nonzero column is the new pivot, that row is normalised and cleared
    from the others, and a zero residue stays as a zero row whose pivot is n.
    Children are built about _SEARCH_CHUNK at a time, and a block is counted
    and walked before the next is built, so memory is set by depth x chunk,
    not by the largest layer.  Rows span n + 1 columns, the last always 0,
    held in the smallest unsigned dtype for q - 1 and reduced in the
    smallest for n(q - 1)^2 + q, which bounds every sum.

    With ``bound``, a map from classes to bounds on their least weights, the
    walk builds weight w only while w <= max_c min(bound[c], least weight
    seen), and returns the layers up to that cap's final value, the largest
    least weight: those are complete.  The caller counts the walk's work.
    """
    k, n = a.shape
    depth = min(depth, k)
    store, work = np.min_scalar_type(q - 1), np.min_scalar_type(n * (q - 1) ** 2 + q)
    padded = np.zeros((k, n + 1), dtype=work)
    padded[:, :n] = a
    counts = np.zeros((depth + 1, n + 1), dtype=np.int64)
    cap = depth if bound is None else min(depth, max(bound.values(), default=0))

    def grow(rows, pivots, top, w):
        # count the weight-w children of these supports (top = max(e) + 1 < k)
        # and return those still to walk; the ones adding row k - 1 have no
        # children, so they come last and are counted, not kept
        nonlocal bound, cap
        inner = k - 1 - top
        parent = np.repeat(np.arange(len(top)), inner)
        added = np.arange(len(parent)) - np.repeat(np.cumsum(inner) - inner - top, inner)
        kept = len(parent)
        parent = np.concatenate([parent, np.arange(len(top))])
        added = np.concatenate([added, np.full(len(top), k - 1)])
        row, at, piv = padded[added], np.arange(len(added)), pivots[parent]
        basis = rows[parent].astype(work, copy=False)
        spent = _reduce(np.einsum("cw,cwn->cn", row[at[:, None], piv], basis), q)
        residue = _reduce(row + q - spent, q)
        nonzero = residue != 0
        nonzero[:, n] = True
        lead = nonzero.argmax(axis=1)
        piv = np.concatenate([piv, lead[:, None].astype(piv.dtype)], axis=1)
        counts[w, :n] += np.bincount(piv.ravel(), minlength=n + 1)[:n]
        counts[w, n] += np.count_nonzero((piv == n).any(axis=1))
        if bound:  # each bound falls to the least weight seen
            bound = {c: min(b, w) if counts[w, c] else b for c, b in bound.items()}
            cap = min(depth, max(bound.values()))
        if w >= cap or not kept:
            return None
        basis, residue, lead, at = basis[:kept], residue[:kept], lead[:kept], at[:kept]
        if q > 2:  # over F_2 the lead is already 1
            residue = _reduce(residue * _inverses(residue[at, lead], q)[:, None], q)
        # basis -= basis[:, :, lead] * residue, negating the small factor
        column = _reduce(q - basis[at, :, lead], q)
        child = np.empty((kept, w, n + 1), dtype=store)
        child[:, :-1] = _reduce(basis + column[:, :, None] * residue[:, None, :], q)
        child[:, -1] = residue
        return child, piv[:kept].copy(), added[:kept] + 1

    def walk(rows, pivots, top):
        # grow's temporaries are freed before the descent: a level holds its kept rows
        w = rows.shape[1] + 1
        ends = np.cumsum(k - top)
        lo = 0
        while lo < len(top) and w <= cap:
            hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - (k - top[lo]) + _SEARCH_CHUNK, side="right")))
            children = grow(rows[lo:hi], pivots[lo:hi], top[lo:hi], w)
            if children:
                walk(*children)
            lo = hi

    walk(np.zeros((1, 0, n + 1), dtype=store), np.zeros((1, 0), dtype=np.min_scalar_type(n)), np.zeros(1, dtype=np.intp))
    return counts[: cap + 1]


def _reduce(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place for unsigned x: numpy vectorises floor division by a
    scalar, not the remainder, which runs several times slower."""
    x -= x // q * q
    return x


def _inverses(a: np.ndarray, q: int) -> np.ndarray:
    """Elementwise inverses of nonzero residues mod prime q, as a^(q-2); 0 stays 0 (q > 2)."""
    out = np.ones_like(a)
    e = q - 2
    while e:
        if e & 1:
            out = _reduce(out * a, q)
        a = _reduce(a * a, q)
        e >>= 1
    return out


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


def _absorb(limit, count, cls, weight, times):
    """Fold ``times`` candidates of weight ``weight`` in class ``cls`` (arrays or
    scalars) into the running least weights and their counts: a class whose
    least weight falls restarts its count."""
    low = limit.copy()
    np.minimum.at(low, cls, weight)
    count[low < limit] = 0
    limit[:] = low
    np.add.at(count, cls, np.where(weight == limit[cls], times, 0))


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

"""Exact dense linear algebra over prime fields F_q.

Matrices carry their modulus and every operation reduces eagerly, so entries
stay canonical in [0, q).  Everything is deliberately dense and desk-scale:
kernels are a handful of rows wide and tensor powers top out around a million
entries, so exactness and reproducibility matter more than asymptotics.
Arithmetic is int64 throughout; moduli large enough to overflow a product of
two entries are out of scope.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldModulus",
    "FqMatrix",
    "PluDecomposition",
    "field_inverse",
    "is_prime",
    "kron",
    "kron_power",
    "qary_words",
    "tensor_apply",
    "plu_decompose",
    "left_null_space",
    "row_echelon",
    "enumeration_budget",
]

#: Environment variable that overrides all enumeration budgets in the package.
BUDGET_ENV = "POLARLAB_BUDGET"


def enumeration_budget(default: int) -> int:
    """Effective enumeration budget: POLARLAB_BUDGET if set, else ``default``."""
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return default
    return int(raw)


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


@dataclass(frozen=True)
class FieldModulus:
    """A prime modulus q.  Construction rejects composites."""

    q: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"modulus {self.q} is not prime")


def _as_modulus(q) -> int:
    if isinstance(q, FieldModulus):
        return q.q
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
        k = self.rows
        aug = np.hstack([self.arr, np.eye(k, dtype=np.int64)])
        ech, pivots = row_echelon(aug, self.q, reduced=True, max_pivot_col=k)
        if len(pivots) < k:
            raise ValueError("singular matrix")
        return FqMatrix(self.q, ech[:, k:])


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


def left_null_space(m: FqMatrix) -> FqMatrix:
    """Basis of the left kernel {u : u M = 0}, one basis vector per row.

    The basis has rows(M) - rank(M) rows; a 0 x rows(M) matrix signals a
    trivial kernel.
    """
    q = m.q
    n = m.rows
    if m.cols == 0:
        return FqMatrix.identity(q, n)
    ech, pivots = row_echelon(m.arr.T, q, reduced=True)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for bi, f in enumerate(free):
        basis[bi, f] = 1
        for i, col in enumerate(pivots):
            basis[bi, col] = (-ech[i, f]) % q
    return FqMatrix(q, basis)


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
    return np.stack([(idx // q ** (k - 1 - i)) % q for i in range(k)], axis=1)


def tensor_apply(m: FqMatrix, t: int, u) -> np.ndarray:
    """Compute u @ (m tensor-power t) without materializing the power.

    Works level by level in O(k^t * k * t) field operations and is bit-exact
    equal to multiplying by the dense Kronecker power.  ``u`` may carry
    leading batch axes; the last axis must have length k**t.  Levels are
    applied to integers and reduced mod q only when the next level could
    overflow int64, so small fields reduce once, at the end.
    """
    if m.rows != m.cols:
        raise ValueError("tensor_apply requires a square kernel")
    k, q = m.rows, m.q
    u = np.asarray(u, dtype=np.int64) % q
    n = k**t
    if u.shape[-1] != n:
        raise ValueError(f"length mismatch: expected {n}, got {u.shape[-1]}")
    mt = m.arr.T
    # one level multiplies the largest entry by at most the largest column sum
    grow = int(m.arr.sum(axis=0).max())
    v = u.reshape(-1, n)
    bound = q - 1
    for axis in range(t):
        if bound * grow >= 2**62:
            v %= q
            bound = q - 1
        # axis `axis` of the (k,) * t index is the middle one of these three
        v = np.matmul(mt, v.reshape(-1, k, k ** (t - axis - 1)))
        bound *= grow
    return (v % q).reshape(u.shape)


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


def plu_decompose(m: FqMatrix) -> PluDecomposition:
    """PLU with the first-nonzero pivot rule (deterministic).

    Raises ValueError("not invertible") on singular input.
    """
    if m.rows != m.cols:
        raise ValueError("plu_decompose requires a square matrix")
    q = m.q
    n = m.rows
    a = m.arr.copy()
    low = np.eye(n, dtype=np.int64)
    perm = np.arange(n)
    for col in range(n):
        nz = np.nonzero(a[col:, col])[0]
        if nz.size == 0:
            raise ValueError("not invertible")
        p = col + int(nz[0])
        if p != col:
            a[[col, p]] = a[[p, col]]
            perm[[col, p]] = perm[[p, col]]
            low[[col, p], :col] = low[[p, col], :col]
        pinv = pow(int(a[col, col]), -1, q)
        below = np.nonzero(a[col + 1 :, col])[0] + col + 1
        if below.size:
            mult = a[below, col] * pinv % q
            low[below, col] = mult
            a[below] = (a[below] - np.outer(mult, a[col])) % q
    perm.flags.writeable = False
    return PluDecomposition(perm, FqMatrix(q, low), FqMatrix(q, a))

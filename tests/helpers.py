"""Random draws and reference checks shared by several test modules."""

import itertools
import math

import numpy as np

from polarkit.entropy import SymbolJoint
from polarkit.fqlin import FqMatrix, qary_words, row_echelon


def random_invertible(q, k: int, rng: np.random.Generator) -> FqMatrix:
    """Rejection-sample an invertible k x k matrix over F_q."""
    while True:
        cand = FqMatrix(q, rng.integers(0, q, size=(k, k)))
        if cand.is_invertible():
            return cand


def drop_side_info(joint: SymbolJoint) -> SymbolJoint:
    """Marginalize the side information away (m = 1 constant observer)."""
    return SymbolJoint(joint.q, joint.p.sum(axis=1, keepdims=True))


def is_mixing_brute(m: FqMatrix) -> bool:
    """The defining mixing check, over all k! row permutations (small k only).

    Mixing means invertible with no row permutation upper-triangular;
    ``kernelscope.is_mixing`` reads the same property off one echelon form.
    """
    if not m.is_invertible():
        return False
    a = m.arr
    return not any(
        all(not a[perm[i], :i].any() for i in range(m.rows))
        for perm in itertools.permutations(range(m.rows))
    )


def plu_oracle(m: FqMatrix):
    """(perm, lower, upper) arrays with m[perm] == lower @ upper, by its own elimination.

    First-nonzero pivot per column, no pivot scaling, multipliers stored in
    the unit lower factor; raises ValueError("not invertible") on a column
    with no pivot.  ``fqlin.plu_decompose`` reads the same factors off
    row_echelon and is tested against it.
    """
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
    return perm, low, a


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


def left_kernel_distance_enum(m0: FqMatrix):
    """Minimum weight of nonzero u with u @ m0 = 0, by listing the whole kernel.

    Enumerates all q^dim - 1 nonzero kernel vectors through a basis;
    ``kernelscope.left_kernel_distance`` is tested against it.
    """
    basis = left_null_space(m0)
    d = basis.rows
    if d == 0:
        return math.inf
    q = m0.q
    best = m0.rows + 1
    total = q**d
    chunk = 1 << 16
    for lo in range(1, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total))
        coeffs = np.stack([(idx // q**i) % q for i in range(d)], axis=1)
        vecs = coeffs @ basis.arr % q
        best = min(best, int(np.count_nonzero(vecs, axis=1).min()))
    return best


def lead_class_weights_brute(a: FqMatrix):
    """Least weight and least-weight support count per lead class, from all q^k y.

    The lead class of y is the first nonzero index of y @ a, or a.cols when
    that is zero; an empty class reads (0, 0).  The oracle of
    ``fqlin.min_weight_search``, for small k only.
    """
    q, k, n = a.q, a.rows, a.cols
    ys = qary_words(q, k)[1:]
    # a final all-True column sends the y with y @ a = 0 to class n
    nz = np.hstack([ys @ a.arr % q != 0, np.ones((len(ys), 1), dtype=bool)])
    lead = nz.argmax(axis=1)
    weight = np.count_nonzero(ys, axis=1)
    least = np.zeros(n + 1, dtype=np.int64)
    supports = np.zeros(n + 1, dtype=np.int64)
    for c in range(n + 1):
        if (lead == c).any():
            least[c] = weight[lead == c].min()
            at_least = ys[(lead == c) & (weight == least[c])] != 0
            supports[c] = len({row.tobytes() for row in at_least})
    return least, supports


def complete_columns_greedy(m0_arr: np.ndarray, q: int) -> np.ndarray:
    """Extend a k x s column block to a k x k matrix, one rank check per column.

    Tries e_0, e_1, ... in turn and keeps each unit vector that raises the
    rank of the columns kept so far; the oracle of
    ``kernelscope._complete_columns``.
    """
    k = m0_arr.shape[0]
    cols = [m0_arr[:, i] for i in range(m0_arr.shape[1])]

    def current_rank(cs):
        if not cs:
            return 0
        return FqMatrix(q, np.column_stack(cs).T).rank()

    rank = current_rank(cols)
    for i in range(k):
        if len(cols) == k:
            break
        cand = np.zeros(k, dtype=np.int64)
        cand[i] = 1
        new_rank = current_rank(cols + [cand])
        if new_rank > rank:
            cols.append(cand)
            rank = new_rank
    return np.column_stack(cols)


def tensor_apply_dense(m: FqMatrix, t: int, u) -> np.ndarray:
    """u @ (m tensor-power t) mod q through the dense Kronecker power, in
    Python integers, so no entry of any size overflows; the oracle of
    ``fqlin.tensor_apply``."""
    q, k = m.q, m.rows
    a = m.arr.tolist()
    n = k**t
    digits = [[i // k ** (t - 1 - level) % k for level in range(t)] for i in range(n)]
    dense = [[math.prod(a[di][dj] for di, dj in zip(digits[i], digits[j])) for j in range(n)] for i in range(n)]
    u = np.asarray(u)
    words = u.reshape(-1, n).tolist()
    out = [[sum(x * dense[i][j] for i, x in enumerate(word)) % q for j in range(n)] for word in words]
    return np.array(out, dtype=np.int64).reshape(u.shape)


def channel_posteriors_entrywise(channel, y: np.ndarray) -> np.ndarray:
    """Symbol-major (q, N, B) posteriors of (B, N) words, each gathered
    w[x, y] divided by its own sum over x; the oracle of
    ``codec._channel_posteriors``."""
    pi = channel.w[:, y.T]
    total = pi.sum(axis=0)
    if np.any(total <= 0):
        raise ValueError("received symbol with zero likelihood under every input")
    return pi / total


def fano_bound(delta: float, alphabet_size: int) -> float:
    """Entropy bound 2*delta*(log2(1/delta) + log2(s)) from a predictor error."""
    if not 0.0 < delta < 0.5:
        raise ValueError("the bound requires 0 < delta < 1/2")
    return 2.0 * delta * (math.log2(1.0 / delta) + math.log2(alphabet_size))


def sample_outputs_3d(c, x, rng: np.random.Generator) -> np.ndarray:
    """One channel output per entry of x through a (..., outputs) comparison
    with the gathered CDF rows; the oracle of ``channels.sample_outputs``."""
    x = np.asarray(x, dtype=np.int64)
    cdf = np.cumsum(c.w, axis=1)
    r = rng.random(size=x.shape)
    y = np.sum(r[..., None] >= cdf[x], axis=-1)
    return np.minimum(y, c.outputs - 1)


def support_counts_layered(a: np.ndarray, q: int, depth: int) -> np.ndarray:
    """counts[w, c]: the weight-w supports reaching lead class c, w = 0..depth,
    one whole weight layer at a time, in int64; the oracle of
    ``fqlin._support_counts``.

    e + {i} with i > max(e) keeps its parent e's reduced echelon rows, with
    A[i] reduced against them.  Layers are sorted by max(e), so the parents
    of the children that add row i are a prefix, and a layer's (parent, row)
    pairs are reduced 2^14 at a time.  Every support of a layer is kept to
    build the next one.
    """
    k, n = a.shape
    depth, chunk = min(depth, k), 1 << 14
    inverse = np.array([0] + [pow(x, -1, q) for x in range(1, q)])
    padded = np.zeros((k, n + 1), dtype=np.int64)  # a zero row's pivot is n
    padded[:, :n] = a
    rows = np.zeros((1, 0, n + 1), dtype=np.int64)  # weight 0: the empty support
    pivots = np.zeros((1, 0), dtype=np.int64)
    counts = np.zeros((depth + 1, n + 1), dtype=np.int64)
    for w in range(depth):
        # parents with max(e) < i are the first C(i, w) of the layer; their
        # children follow the C(i, w + 1) children whose max is below i
        sizes = [math.comb(i, w) for i in range(w, k)]
        parent = np.concatenate([np.arange(size) for size in sizes])
        added = np.repeat(np.arange(w, k), sizes)
        next_rows = np.empty((len(parent), w + 1, n + 1), dtype=np.int64)
        next_pivots = np.empty((len(parent), w + 1), dtype=np.int64)
        for lo in range(0, len(parent), chunk):
            part = slice(lo, lo + chunk)
            row, piv, basis = padded[added[part]], pivots[parent[part]], rows[parent[part]]
            residue = (row - np.einsum("cw,cwn->cn", np.take_along_axis(row, piv, axis=1), basis)) % q
            nonzero = residue != 0
            nonzero[:, n] = True
            lead = nonzero.argmax(axis=1)
            at = np.arange(len(row))
            residue = residue * inverse[residue[at, lead]][:, None] % q
            basis = (basis - basis[at, :, lead][:, :, None] * residue[:, None, :]) % q
            piv = np.hstack([piv, lead[:, None]])
            counts[w + 1, :n] += np.bincount(piv.ravel(), minlength=n + 1)[:n]
            counts[w + 1, n] += np.count_nonzero((piv == n).any(axis=1))
            next_rows[part] = np.concatenate([basis, residue[:, None]], axis=1)
            next_pivots[part] = piv
        rows, pivots = next_rows, next_pivots
    return counts


def log_pair_step(polys, log_x, log_1mx):
    """(ln f_j(x), ln(1 - f_j(x))) for all j, shape log_x.shape + (k,): the
    erasure tree in the pair representation (ln z, ln(1 - z)), the oracle of
    ``ErasurePolynomialSet.logit_step``.

    f_j = sum_w c_j[w] x^w (1-x)^(k-w) and 1 - f_j = sum_w (C(k, w) -
    c_j[w]) x^w (1-x)^(k-w) are sums of nonnegative terms, so each is a
    log-sum-exp: the smaller side keeps full relative precision, x = 0 and 1
    included.  The larger is log1p(-e^smaller), as precise since e^smaller <=
    1/2 (0 below 1e-304); summed, it would double the inputs' error at each
    2x - x^2 near x = 1.
    """
    negligible = -700.0  # e^-700 cannot change a sum of at least 1
    lx, ly, k = np.asarray(log_x, dtype=np.float64), np.asarray(log_1mx, dtype=np.float64), polys.k
    # ln x^w (1-x)^(k-w); a zero power adds nothing, even to ln 0 = -inf
    terms = [k * ly] + [w * lx + (k - w) * ly for w in range(1, k)] + [k * lx]

    def log_sum(weights):  # never empty: c_j[k] = 1 and C(k, 0) - c_j[0] = 1
        ws = np.flatnonzero(weights)
        if ws.size == 1 and weights[ws[0]] == 1:  # a lone unit term is its own sum
            return terms[ws[0]]
        top = np.maximum.reduce([terms[w] for w in ws])
        return top + np.log(sum(weights[w] * np.exp(np.fmax(terms[w] - top, negligible)) for w in ws))

    binom = np.array([math.comb(k, w) for w in range(k + 1)])
    with np.errstate(invalid="ignore"):  # -inf - -inf where all terms are -inf
        log_f = np.stack([log_sum(c) for c in polys.counts], axis=-1)
        log_1mf = np.stack([log_sum(c) for c in binom - polys.counts], axis=-1)
    small = np.minimum(log_f, log_1mf)
    rebuilt = np.log1p(-np.exp(small, out=np.zeros_like(small), where=small > negligible))
    f_small = log_f <= log_1mf
    return np.where(f_small, small, rebuilt), np.where(f_small, rebuilt, small)


def log_space_report(levels, lam: float, gamma: float, threshold: float):
    """(fraction_exp, fraction_strong, rate_at_threshold, rho_hat) of (t, ln z)
    levels, each leaf's ln z against the log of each window edge; the oracle
    of ``polarlab.polarization_report``, which compares logits."""
    fractions = []
    for t, v in levels:
        try:
            low = -(2.0 ** (lam * t)) * math.log(2.0)
        except OverflowError:
            low = -math.inf
        # ln 0 = -inf; a negative threshold has ln nan, below which nothing lies
        with np.errstate(divide="ignore", invalid="ignore"):
            strong, high, below = np.log([gamma**t, 1.0 - gamma**t, threshold])
        under_high = v < high
        fractions.append(
            [np.mean((v > low) & under_high), np.mean((v > strong) & under_high), np.mean(v <= below)])
    ts = np.array([t for t, _ in levels])
    f_exp, f_strong, rate = np.array(fractions).T
    positive = f_exp > 0
    fit = np.polyfit(ts[positive], np.log(f_exp[positive]), 1)[0] if positive.sum() >= 2 else math.nan
    return f_exp, f_strong, rate, float(math.exp(fit))

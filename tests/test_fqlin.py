"""Exact linear algebra over F_q: examples, oracles, round trips."""

import itertools

import numpy as np
import pytest

from polarkit import fqlin
from polarkit.fqlin import (
    BudgetExceeded,
    FqMatrix,
    check_budget,
    field_inverse,
    kron,
    kron_power,
    min_weight_search,
    plu_decompose,
    qary_words,
    tensor_apply,
)

from polarkit.cli import resolve_kernel
from polarkit.kernelscope import build_high_distance_kernel, is_mixing, random_mixing

from helpers import (
    is_mixing_brute,
    lead_class_weights_brute,
    left_null_space,
    plu_oracle,
    random_invertible,
    support_counts_layered,
    tensor_apply_dense,
)


def test_field_modulus_rejects_composites():
    assert FqMatrix(2, [[1]]).q == 2 and FqMatrix(13, [[1]]).q == 13
    for q in (4, 1):
        with pytest.raises(ValueError, match=f"modulus {q} is not prime"):
            FqMatrix(q, [[1]])


def test_field_modulus_rejects_non_integers():
    # int() used to truncate these to F_2
    for q in (2.7, 2.0, "3"):
        with pytest.raises(ValueError, match="modulus must be an integer"):
            FqMatrix(q, [[1]])
    assert FqMatrix(np.int64(3), [[1]]).q == 3


def test_field_inverse_examples():
    assert field_inverse(1, 5) == 1
    assert field_inverse(2, 5) == 3  # 2*3 = 6 = 1 mod 5
    with pytest.raises(ValueError, match="zero has no inverse"):
        field_inverse(0, 3)


def test_field_inverse_all_elements():
    for q in (2, 3, 5, 7, 11):
        for a in range(1, q):
            assert a * field_inverse(a, q) % q == 1


def test_matrix_construction_reduces_mod_q():
    m = FqMatrix(3, [[4, -1], [3, 5]])
    assert m.arr.tolist() == [[1, 2], [0, 2]]


def test_matrix_rejects_fractional_entries():
    # int64 casting used to read -0.5 as 0, making this the identity
    with pytest.raises(ValueError, match="matrix entries must be integers; got an array of float64"):
        FqMatrix(3, [[1, 0], [-0.5, 1]])


def test_matrix_rejects_string_entries():
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        FqMatrix.from_dict({"q": 2, "rows": 1, "cols": 2, "entries": ["1", 0]})
    # no entries at all are still a matrix
    assert FqMatrix.from_dict({"q": 2, "rows": 0, "cols": 3, "entries": []}).arr.shape == (0, 3)


def test_inverse_identity():
    for q in (2, 3, 5):
        for k in (1, 2, 4):
            eye = FqMatrix.identity(q, k)
            assert eye.inverse() == eye


def test_inverse_roundtrip_random():
    rng = np.random.default_rng(11)
    for q in (2, 3, 5):
        for k in (2, 3, 5):
            m = random_invertible(q, k, rng)
            assert m @ m.inverse() == FqMatrix.identity(q, k)


def test_inverse_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        FqMatrix(2, [[1, 1], [1, 1]]).inverse()


def test_rank_triangular():
    assert FqMatrix(2, [[1, 0], [1, 1]]).rank() == 2


def test_left_null_space_parity_check():
    # all-ones column over F_2, k = 3: left kernel is the even-weight space
    ones = FqMatrix(2, [[1], [1], [1]])
    basis = left_null_space(ones)
    assert basis.rows == 2
    assert not (basis.arr @ ones.arr % 2).any()
    assert basis.rank() == 2


def test_left_null_space_generic():
    rng = np.random.default_rng(5)
    for q in (2, 3, 5):
        for _ in range(10):
            m = FqMatrix(q, rng.integers(0, q, size=(5, 3)))
            basis = left_null_space(m)
            assert basis.rows == 5 - m.rank()
            if basis.rows:
                assert not (basis.arr @ m.arr % q).any()
                assert basis.rank() == basis.rows  # linearly independent


def test_left_null_space_empty_matrix():
    m = FqMatrix(3, np.zeros((4, 0), dtype=np.int64))
    assert left_null_space(m) == FqMatrix.identity(3, 4)


def test_kron_matches_displayed_square():
    h = FqMatrix(2, [[1, 0], [1, 1]])
    sq = kron(h, h)
    assert sq.arr.tolist() == [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]


def test_kron_identity():
    i2 = FqMatrix.identity(3, 2)
    assert kron(i2, i2) == FqMatrix.identity(3, 4)


def test_kron_rank_multiplicative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = FqMatrix(3, rng.integers(0, 3, size=(2, 2)))
        b = FqMatrix(3, rng.integers(0, 3, size=(2, 2)))
        assert kron(a, b).rank() == a.rank() * b.rank()


def test_kron_modulus_mismatch():
    with pytest.raises(ValueError, match="modulus"):
        kron(FqMatrix.identity(2, 2), FqMatrix.identity(3, 2))


def test_qary_words_lexicographic():
    for q, k in ((2, 1), (2, 4), (3, 3), (5, 2)):
        words = qary_words(q, k)
        assert words.dtype == np.int64
        assert words.tolist() == [list(w) for w in itertools.product(range(q), repeat=k)]


def test_tensor_apply_depth_zero_and_one():
    m = FqMatrix(3, [[1, 0], [2, 1]])
    assert np.array_equal(tensor_apply(m, 0, np.array([2])), np.array([2]))
    u = np.array([1, 2])
    assert np.array_equal(tensor_apply(m, 1, u), u @ m.arr % 3)


def test_tensor_apply_exhaustive_against_dense():
    # every u in F_2^(2^t) for t <= 3 against the explicit Kronecker power
    m = FqMatrix(2, [[1, 0], [1, 1]])
    for t in range(4):
        dense = kron_power(m, t).arr
        n = 2**t
        for ui in range(2**n):
            u = np.array([(ui >> i) & 1 for i in range(n)])
            assert np.array_equal(tensor_apply(m, t, u), u @ dense % 2)


def test_tensor_apply_random_k3():
    rng = np.random.default_rng(7)
    m = random_invertible(3, 3, rng)
    dense = kron_power(m, 3).arr
    for _ in range(10):
        u = rng.integers(0, 3, size=27)
        assert np.array_equal(tensor_apply(m, 3, u), u @ dense % 3)


def test_tensor_apply_batched():
    rng = np.random.default_rng(8)
    m = FqMatrix(2, [[1, 0], [1, 1]])
    batch = rng.integers(0, 2, size=(6, 8))
    out = tensor_apply(m, 3, batch)
    for i in range(6):
        assert np.array_equal(out[i], tensor_apply(m, 3, batch[i]))


def test_tensor_apply_large_field_reduces_before_overflow():
    # over F_65537 three unreduced levels of a 3x3 kernel exceed int64
    q, t = 65537, 4
    rng = np.random.default_rng(9)
    m = random_invertible(q, 3, rng)
    dense = kron_power(m, t).arr
    u = rng.integers(0, q, size=(2, 3, 3**t))
    assert np.array_equal(tensor_apply(m, t, u), u @ dense % q)


@pytest.mark.parametrize("q, k, t", [(2, 2, 5), (2, 3, 3), (3, 3, 3), (5, 4, 2), (65537, 3, 3)])
def test_tensor_apply_matches_the_dense_power(q, k, t):
    # F_65537 is the case whose unreduced level sum, 3 * 65536^2, exceeds 2^32
    rng = np.random.default_rng([q, k, t])
    m = random_invertible(q, k, rng)
    n = k**t
    u = rng.integers(-2 * q, 2 * q, size=(2, 3, n))  # negatives and entries >= q too
    want = tensor_apply_dense(m, t, u)
    got = tensor_apply(m, t, u)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    words, want = u.reshape(-1, n), want.reshape(-1, n)
    for batch, expected in (
        (words, want),
        (np.asfortranarray(words), want),
        (words[:1], want[:1]),
        (words[0], want[0]),
    ):
        got = tensor_apply(m, t, batch)
        assert got.shape == expected.shape and np.array_equal(got, expected)


def test_tensor_apply_reduces_each_term_when_uint64_cannot_hold_a_level():
    # 3 (q-1)^2 > 2^64 > (q-1)^2: every product fits, a level's sum does not
    q = 4294967291
    m = FqMatrix(q, [[q - 1, 3, 5], [q - 2, q - 1, 7], [1, 2, q - 1]])
    u = np.random.default_rng(11).integers(0, q, size=(3, 9))
    assert np.array_equal(tensor_apply(m, 2, u), tensor_apply_dense(m, 2, u))


def test_tensor_apply_rejects_non_integer_symbols():
    with pytest.raises(ValueError, match="symbols must be integers"):
        tensor_apply(FqMatrix(2, [[1, 0], [1, 1]]), 1, [0.5, 1.5])


def test_tensor_apply_reduces_out_of_range_integers():
    m = FqMatrix(3, [[1, 0], [2, 1]])
    for u in ([-1, 4], np.array([-1, 4], dtype=np.int8), np.array([2**64 - 1, 4], dtype=np.uint64)):
        reduced = [int(x) % 3 for x in np.asarray(u).tolist()]
        assert np.array_equal(tensor_apply(m, 1, u), tensor_apply(m, 1, reduced))


def test_tensor_apply_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        tensor_apply(FqMatrix.identity(2, 2), 2, np.zeros(3, dtype=int))


def test_plu_upper_triangular_input():
    m = FqMatrix(5, [[2, 1, 3], [0, 1, 4], [0, 0, 3]])
    dec = plu_decompose(m)
    assert np.array_equal(dec.perm, np.arange(3))
    assert dec.lower == FqMatrix.identity(5, 3)
    assert dec.upper == m


def test_plu_row_swap():
    m = FqMatrix(2, [[0, 1], [1, 0]])
    dec = plu_decompose(m)
    assert dec.perm.tolist() == [1, 0]
    assert dec.lower == FqMatrix.identity(2, 2)
    assert dec.upper == FqMatrix.identity(2, 2)


def test_plu_roundtrip_random():
    """PLU read off row_echelon equals the elimination oracle, factor for factor.

    Random (often singular) and row-permuted upper-triangular matrices over
    F_2..F_7; singular ones raise on both sides, and the mixing test agrees
    with the k!-permutation definition (a permuted triangle never mixes).
    """
    rng = np.random.default_rng(17)
    count = singular = 0
    for q in (2, 3, 5, 7):
        for k in (1, 2, 3, 4, 5, 6):
            for i in range(8):
                if i % 2:
                    a = np.triu(rng.integers(0, q, size=(k, k)))
                    a[np.diag_indices(k)] = rng.integers(1, q, size=k)
                    m = FqMatrix(q, a[rng.permutation(k)])
                    assert not is_mixing(m)
                else:
                    m = FqMatrix(q, rng.integers(0, q, size=(k, k)))
                assert is_mixing(m) == is_mixing_brute(m)
                try:
                    perm, low, up = plu_oracle(m)
                except ValueError as err:
                    assert str(err) == "not invertible"
                    with pytest.raises(ValueError, match="not invertible"):
                        plu_decompose(m)
                    singular += 1
                    continue
                dec = plu_decompose(m)
                assert np.array_equal(dec.perm, perm)
                assert np.array_equal(dec.lower.arr, low) and np.array_equal(dec.upper.arr, up)
                assert np.array_equal(np.diag(low), np.ones(k, dtype=np.int64))
                assert not np.triu(low, 1).any()
                assert not np.tril(up, -1).any()
                assert np.array_equal(m.arr[dec.perm], low @ up % q)
                count += 1
    assert count >= 100 and singular >= 10


def test_plu_singular_raises():
    with pytest.raises(ValueError, match="not invertible"):
        plu_decompose(FqMatrix(2, [[1, 1], [1, 1]]))


def test_matrix_dict_roundtrip():
    m = FqMatrix(5, [[1, 2, 3], [4, 0, 1]])
    assert FqMatrix.from_dict(m.to_dict()) == m


def test_budget_env_override(monkeypatch):
    check_budget("toy", 123, 123)
    with pytest.raises(BudgetExceeded, match=r"^toy budget exceeded: 124 > 123$"):
        check_budget("toy", 124, 123)
    # the environment replaces the default, downwards and upwards
    monkeypatch.setenv("POLARLAB_BUDGET", "77")
    check_budget("toy", 77, 10)
    with pytest.raises(BudgetExceeded, match=r"^toy budget exceeded: 78 > 77$"):
        check_budget("toy", 78, 123)


@pytest.mark.parametrize("value", ["1e7", "0", "-3", "", "ten"])
def test_budget_env_must_be_a_positive_integer(value, monkeypatch):
    monkeypatch.setenv("POLARLAB_BUDGET", value)
    with pytest.raises(ValueError, match="POLARLAB_BUDGET must be a positive integer") as err:
        check_budget("toy", 1, 10)
    assert not isinstance(err.value, BudgetExceeded)
    assert str(err.value).endswith(f"got {value!r}")


def test_product_and_sum_dimension_mismatch():
    a = FqMatrix(2, [[1, 0], [1, 1]])
    b = FqMatrix(2, [[1, 0, 1]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        a @ b
    with pytest.raises(ValueError, match="dimension mismatch"):
        a + b


def _search_cases():
    """Random blocks over q in {2, 3, 5, 7}: square, wide and tall, with
    zero columns, repeated (rank-deficient) columns and singular squares."""
    rng = np.random.default_rng(53)
    for q, kmax in ((2, 8), (3, 6), (5, 4), (7, 4)):
        for trial in range(12):
            k = int(rng.integers(1, kmax + 1))
            n = k if trial < 4 else int(rng.integers(0, kmax + 2))
            arr = rng.integers(0, q, size=(k, n))
            if n and trial % 3 == 1:
                arr[:, -1] = arr[:, 0] * (q - 1) % q  # rank-deficient
            if n and trial % 4 == 2:
                arr[:, int(rng.integers(0, n))] = 0  # a zero column
            if k > 1 and trial == 3:
                arr[-1] = arr[0]  # a singular square matrix
            yield FqMatrix(q, arr)


@pytest.mark.parametrize("chunk", [fqlin._SEARCH_CHUNK, 3], ids=["chunk-default", "chunk-3"])
@pytest.mark.parametrize("a", list(_search_cases()), ids=lambda a: f"q{a.q}-{a.rows}x{a.cols}")
def test_min_weight_search_matches_brute_force(a, chunk, monkeypatch):
    # a 3-candidate chunk splits every F_2 layer into halves, and every
    # pattern layer and coset enumeration into many blocks
    monkeypatch.setattr(fqlin, "_SEARCH_CHUNK", chunk)
    least, supports = lead_class_weights_brute(a)
    weights, counts = min_weight_search(a)
    assert weights.tolist() == least.tolist()
    assert counts.tolist() == supports.tolist()
    # every layer depth, from all-coset to all-layer plans, on a subset of
    # classes in scrambled order, gives the same answer
    classes = np.random.default_rng(a.rows * 31 + a.cols).permutation(a.cols + 1)[: a.cols]
    for depth in range(a.rows + 2):
        monkeypatch.setattr(fqlin, "_plan", lambda *args, depth=depth: (depth, 0))
        weights, counts = min_weight_search(a, classes)
        assert weights.tolist() == least[classes].tolist()
        assert counts.tolist() == supports[classes].tolist()


def test_min_weight_search_edge_shapes():
    # no columns: every nonzero y is in class 0 = n
    w, s = min_weight_search(FqMatrix.zeros(3, 4, 0))
    assert w.tolist() == [1] and s.tolist() == [4]
    # a zero matrix: class n only
    w, s = min_weight_search(FqMatrix.zeros(5, 3, 2))
    assert w.tolist() == [0, 0, 1] and s.tolist() == [0, 0, 3]
    w, s = min_weight_search(FqMatrix.identity(2, 3), [])
    assert w.size == 0 and s.size == 0
    with pytest.raises(ValueError, match="lead classes"):
        min_weight_search(FqMatrix.identity(2, 3), [4])


def test_min_weight_search_budget_is_checked_first(monkeypatch):
    # the identity's cheapest plan costs k: one weight-1 layer
    monkeypatch.setenv("POLARLAB_BUDGET", "11")
    with pytest.raises(BudgetExceeded, match="^minimum-weight search budget exceeded: 12 > 11$"):
        min_weight_search(FqMatrix.identity(2, 12), range(12))
    monkeypatch.setenv("POLARLAB_BUDGET", "12")
    w, _ = min_weight_search(FqMatrix.identity(2, 12), range(12))
    assert w.tolist() == [1] * 12
    assert issubclass(BudgetExceeded, ValueError)



def _walk_kernels():
    """30 random kernels over F_2..F_7, arikan, hamming7, the k = 15 BCH
    block kernel, a k = 12 F_3 Kronecker kernel and a random k = 18 F_2 one."""
    rng = np.random.default_rng(35)
    for q, ks in ((2, (3, 6, 9, 12)), (3, (2, 4, 6, 8)), (5, (3, 5, 7)), (7, (2, 4, 6, 8))):
        for k in ks:
            yield random_invertible(q, k, rng)
            yield random_mixing(q, k, rng)
    yield FqMatrix(2, [[1, 0], [1, 1]])
    yield resolve_kernel("hamming7", 2)
    yield build_high_distance_kernel(2, 15, 2).matrix
    yield kron(random_mixing(3, 3, rng), random_mixing(3, 4, rng))
    yield random_invertible(2, 18, rng)


@pytest.mark.parametrize("m", list(_walk_kernels()), ids=lambda m: f"q{m.q}-k{m.rows}")
def test_support_walk_matches_layered_oracle(m, monkeypatch):
    # at the default chunk the k = 18 kernel's walk splits its layers into
    # blocks; a 3-candidate chunk splits every layer past the first
    expected = support_counts_layered(m.arr, m.q, m.rows)
    for chunk in (fqlin._SEARCH_CHUNK, 3):
        monkeypatch.setattr(fqlin, "_SEARCH_CHUNK", chunk)
        counts = fqlin._support_counts(m.arr, m.q, m.rows)
        assert counts.dtype == expected.dtype and np.array_equal(counts, expected), chunk


def test_forced_depth_search_absorbs_complete_layers_only(monkeypatch):
    # a seeded draw where, with 3-candidate blocks and the layers forced to
    # depth 3, the walk reaches weight 3 under the first supports before a
    # weight-2 support lowers its cap to 2: layer 3 is then partial, and it
    # holds class 6, whose least weight 3 the cosets must find
    a = FqMatrix(3, [[0, 2, 2, 0, 0, 2, 1, 0, 2], [0, 1, 0, 2, 0, 2, 2, 2, 0], [1, 1, 1, 2, 0, 2, 0, 1, 2],
                     [2, 0, 0, 0, 2, 0, 2, 0, 2], [2, 0, 1, 0, 2, 0, 1, 2, 1], [0, 0, 2, 0, 2, 2, 1, 0, 1],
                     [1, 2, 1, 0, 1, 0, 0, 0, 1], [1, 0, 0, 2, 1, 0, 2, 1, 1]])
    monkeypatch.setattr(fqlin, "_SEARCH_CHUNK", 3)
    monkeypatch.setattr(fqlin, "_plan", lambda *args: (3, 0))
    walks = []
    walk = fqlin._support_counts

    def recording(*args):
        walks.append((args, walk(*args)))
        return walks[-1][1]

    monkeypatch.setattr(fqlin, "_support_counts", recording)
    least, supports = lead_class_weights_brute(a)
    weights, counts = min_weight_search(a)
    assert weights.tolist() == least.tolist() and counts.tolist() == supports.tolist()
    # the walk returns its complete layers only: up to the largest least
    # weight of the classes it was given
    (args, rows), = walks
    assert len(rows) - 1 == max(least[c] for c in args[3]) == 2
    assert np.array_equal(rows, support_counts_layered(a.arr, 3, 3)[: len(rows)])

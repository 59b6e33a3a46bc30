"""Mixing tests, containment witnesses, distances, constructions."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from polarkit import fqlin, kernelscope, polarlab
from polarkit.cli import resolve_kernel
from polarkit.fqlin import BUDGET_ENV, BudgetExceeded, FqMatrix, kron, kron_power, min_weight_search
from polarkit.kernelscope import (
    ContainmentWitness,
    build_high_distance_kernel,
    extract_high_distance_columns,
    find_useful_containment_H,
    is_mixing,
    left_kernel_distance,
    ml_failure_exact,
    random_mixing,
    tensor_witness,
    verify_witness,
    kernel_report,
)
from polarkit.polarlab import erasure_polynomials, leading_exponents

from helpers import complete_columns_greedy, is_mixing_brute, left_kernel_distance_enum, random_invertible

ARIKAN = FqMatrix(2, [[1, 0], [1, 1]])


def all_matrices(q, k):
    for entries in itertools.product(range(q), repeat=k * k):
        yield FqMatrix(q, np.array(entries).reshape(k, k))


def test_is_mixing_examples():
    assert is_mixing_brute(ARIKAN) and is_mixing(ARIKAN)
    assert not is_mixing_brute(FqMatrix.identity(2, 3))
    assert not is_mixing_brute(FqMatrix(2, [[0, 1], [1, 0]]))
    assert not is_mixing(FqMatrix(2, [[1, 1], [1, 1]]))  # singular


def test_mixing_methods_agree_exhaustively_2x2_3x3():
    for k in (2, 3):
        for m in all_matrices(2, k):
            assert is_mixing_brute(m) == is_mixing(m)


def test_mixing_methods_agree_random_4x4_f3():
    rng = np.random.default_rng(19)
    for _ in range(200):
        m = FqMatrix(3, rng.integers(0, 3, size=(4, 4)))
        assert is_mixing_brute(m) == is_mixing(m)


def test_containment_on_the_2x2_kernel_itself():
    w = find_useful_containment_H(ARIKAN)
    assert verify_witness(w, ARIKAN)
    assert w.T == FqMatrix.identity(2, 2)
    assert w.perm.tolist() == [0, 1]


def test_containment_random_mixing():
    rng = np.random.default_rng(23)
    for q in (2, 3, 5):
        for _ in range(20):
            m = random_mixing(q, 4, rng)
            w = find_useful_containment_H(m)
            assert verify_witness(w, m)


def test_containment_requires_mixing():
    with pytest.raises(ValueError, match="not mixing"):
        find_useful_containment_H(FqMatrix.identity(2, 3))


def _witness_in_3x3():
    # M[perm] @ T = [H; 0] with H = [[1,0],[1,1]], for a 3x3 mixing M over F_3
    m = FqMatrix(3, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    t = FqMatrix(3, [[1, 0], [0, 1], [0, 0]])
    return m, ContainmentWitness(FqMatrix(3, [[1, 0], [1, 1]]), np.array([0, 1, 2]), t, 1)


def test_verify_witness_accepts_the_reference():
    m, w = _witness_in_3x3()
    assert verify_witness(w, m)


# each change breaks one condition and keeps the others
@pytest.mark.parametrize(
    "change",
    [
        {"perm": np.array([0, 0, 2])},
        {"perm": np.array([0, 1, 3])},
        # M @ T = [[1,0],[1,2]; 0], not [H; 0]; T's last nonzero row is 2 e_last
        {"T": FqMatrix(3, [[1, 0], [0, 2], [0, 0]]), "alpha": 2},
        # M @ T = [H; [0,1]]; T's last nonzero row is e_last
        {"T": FqMatrix(3, [[1, 0], [0, 1], [0, 1]])},
        # M[[0, 2, 1]] @ T = [H; 0], but T's last nonzero row is [1, 1]
        {"perm": np.array([0, 2, 1]), "T": FqMatrix(3, [[1, 0], [2, 0], [1, 1]])},
        {"alpha": 3},
    ],
    ids=["repeated_row", "row_out_of_range", "product_not_target", "nonzero_below_target", "last_row_not_basis", "alpha_zero_mod_q"],
)
def test_verify_witness_rejects(change):
    m, w = _witness_in_3x3()
    assert verify_witness(dataclasses.replace(w, **change), m) is False


def test_tensor_witness_trivial():
    w = find_useful_containment_H(ARIKAN)
    w2 = tensor_witness(w)
    assert w2.T == FqMatrix.identity(2, 4)
    assert verify_witness(w2, kron(ARIKAN, ARIKAN))


def test_tensor_witness_random():
    rng = np.random.default_rng(31)
    for q in (2, 3):
        for _ in range(10):
            m = random_mixing(q, 3, rng)
            w = find_useful_containment_H(m)
            w2 = tensor_witness(w)
            assert verify_witness(w2, kron(m, m))
            # structural form of usefulness: last nonzero row is alpha^2 e_4
            last = w2.T.arr[w2.witnessed_index()]
            expected = np.zeros(4, dtype=np.int64)
            expected[3] = w.alpha * w.alpha % q
            assert np.array_equal(last, expected)


def test_left_kernel_distance_examples():
    ones = FqMatrix(2, [[1]] * 4)
    assert left_kernel_distance(ones) == 2
    square = FqMatrix(2, [[1, 0], [1, 1]])
    assert left_kernel_distance(square) == math.inf
    empty = FqMatrix(2, np.zeros((3, 0), dtype=np.int64))
    assert left_kernel_distance(empty) == 1


def test_left_kernel_distance_hamming():
    # rows are the binary representations of 1..7: the classic length-7 code
    rows = [[(i >> b) & 1 for b in range(3)] for i in range(1, 8)]
    m0 = FqMatrix(2, rows)
    assert left_kernel_distance(m0) == 3
    # brute-force oracle over all 16 codewords
    basis = np.array(
        [u for u in itertools.product(range(2), repeat=7) if not (np.array(u) @ m0.arr % 2).any()]
    )
    weights = basis.sum(axis=1)
    assert weights[weights > 0].min() == 3


def test_build_high_distance_kernel_hamming7():
    built = build_high_distance_kernel(2, 7, 1)
    assert built.block_cols == 3
    assert built.distance == 3
    assert is_mixing_brute(built.matrix)
    lead = leading_exponents(built.matrix)
    assert np.all(lead.d[3:] >= 2)


def test_build_high_distance_kernel_b0():
    built = build_high_distance_kernel(2, 4, 0)
    assert built.block_cols == 0
    # an empty block's left kernel is all of F_2^4, of distance 1
    assert built.distance == built.report.distance == 1
    assert is_mixing_brute(built.matrix)


def test_build_high_distance_kernel_random_fields():
    rng = np.random.default_rng(41)
    for q in (3, 5):
        built = build_high_distance_kernel(q, 6, 1, rng=rng)
        assert built.distance > 2
        assert is_mixing_brute(built.matrix)


def test_build_high_distance_kernel_bch_b2():
    built = build_high_distance_kernel(2, 15, 2)
    assert built.distance > 4
    assert is_mixing(built.matrix)
    lead = leading_exponents(built.matrix)
    assert np.all(lead.d[built.block_cols:] >= 3)


def test_ml_failure_invertible_is_zero():
    rng = np.random.default_rng(43)
    m = random_invertible(3, 3, rng)
    res = ml_failure_exact(m, 0.2)
    assert res.failure == pytest.approx(0.0, abs=1e-12)
    assert res.distance == math.inf


def test_ml_failure_repetition_pair():
    # codewords {00, 11}; min-weight decoding succeeds only on the zero coset
    # winner, so failure = 1 - (1-eps)^2 exactly
    rep = FqMatrix(2, [[1], [1]])
    res = ml_failure_exact(rep, 0.1)
    assert res.failure == pytest.approx(1.0 - 0.81, abs=1e-12)
    assert res.lower_bound == pytest.approx(0.01, abs=1e-15)
    assert res.distance == 2 and res.bound_ok


def test_ml_failure_hamming_block():
    rows = [[(i >> b) & 1 for b in range(3)] for i in range(1, 8)]
    m0 = FqMatrix(2, rows)
    res = ml_failure_exact(m0, 0.05)
    assert res.distance == 3
    assert res.failure >= (0.05) ** 3
    assert res.bound_ok


def test_ml_failure_rejects_large_eps():
    with pytest.raises(ValueError):
        ml_failure_exact(FqMatrix(2, [[1], [1]]), 0.5)


def test_ml_failure_bound_over_random_blocks():
    rng = np.random.default_rng(47)
    for _ in range(20):
        q = int(rng.choice([2, 3]))
        m = FqMatrix(q, rng.integers(0, q, size=(4, 2)))
        res = ml_failure_exact(m, float(rng.uniform(0.01, 0.45)))
        assert res.bound_ok


def test_extract_columns_examples():
    res = extract_high_distance_columns(ARIKAN, 2, 1)
    assert res.columns == (0,) and res.distance == 2 and res.exhaustive

    res_all = extract_high_distance_columns(ARIKAN, 2, 4)
    assert res_all.distance == math.inf

    res_none = extract_high_distance_columns(ARIKAN, 2, 0)
    assert res_none.distance == 1


def test_extract_columns_greedy_path(monkeypatch):
    monkeypatch.setattr(kernelscope, "_EXHAUSTIVE_COLUMNS", 4)
    power = kron_power(ARIKAN, 3)
    for s in (0, 2, 5, 8):
        res = extract_high_distance_columns(ARIKAN, 3, s)
        assert not res.exhaustive and len(res.columns) == s
        # the distance kept from the last pick is the chosen block's
        assert res.distance == left_kernel_distance(FqMatrix(2, power.arr[:, list(res.columns)]))
    assert extract_high_distance_columns(ARIKAN, 3, 2).distance >= 2


def test_complete_columns_matches_greedy_rank_checks():
    rng = np.random.default_rng(73)
    for q in (2, 3, 5):
        for _ in range(40):
            k = int(rng.integers(1, 9))
            s = int(rng.integers(0, k + 1))
            block = rng.integers(0, q, size=(k, s))
            if s and FqMatrix(q, block).rank() < s:
                continue  # the completion is defined for full column rank
            full = kernelscope._complete_columns(block, q)
            assert np.array_equal(full, complete_columns_greedy(block, q))
            assert FqMatrix(q, full).is_invertible()


def test_kernel_report_roundtrip():
    rep = kernel_report(ARIKAN, block_cols=1)
    assert rep.mixing and rep.distance == 2
    d = rep.to_dict()
    assert d["mixing"] is True and d["exponents"] == [1, 2]
    rep_inf = kernel_report(FqMatrix(2, [[1, 0], [1, 1]]), block_cols=2)
    assert rep_inf.to_dict()["distance"] == "inf"


def test_kernel_report_reduces_m_and_i_once(monkeypatch):
    # one echelon of [M | I] serves the mixing test, the witness and the
    # exponent search; U1's inverse and the block's search are the others
    m = resolve_kernel("hamming7", 2)
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return echelon(*args, **kwargs)

    echelon = fqlin.row_echelon
    for module in (fqlin, kernelscope, polarlab):
        monkeypatch.setattr(module, "row_echelon", counting)
    rep = kernel_report(m, block_cols=3)
    assert rep.mixing and rep.distance == 3
    assert len(calls) == 3, calls
    monkeypatch.undo()
    assert np.array_equal(rep.exponents, leading_exponents(m).d)


def test_left_kernel_distance_matches_kernel_enumeration():
    rng = np.random.default_rng(67)
    for q, kmax in ((2, 12), (3, 8), (5, 6), (7, 5)):
        for trial in range(15):
            k = int(rng.integers(1, kmax + 1))
            arr = rng.integers(0, q, size=(k, int(rng.integers(0, k + 2))))
            if arr.shape[1] and trial % 3 == 0:
                arr[:, 0] = 0  # a zero column
            if arr.shape[1] > 1 and trial % 3 == 1:
                arr[:, 1] = arr[:, 0]  # rank-deficient
            m0 = FqMatrix(q, arr)
            assert left_kernel_distance(m0) == left_kernel_distance_enum(m0)


def test_block_distance_is_least_trailing_exponent():
    # u M[:, :c] = 0 with u != 0 means u M leads at some j >= c, so the block
    # distance is the least partial distance of the trailing indices
    rng = np.random.default_rng(71)
    kernels = [random_invertible(q, k, rng) for q, k in ((2, 6), (2, 9), (3, 5), (5, 4), (7, 3))]
    kernels.append(build_high_distance_kernel(2, 15, 2).matrix)
    for m in kernels:
        d = leading_exponents(m).d
        for c in range(m.cols + 1):
            expected = math.inf if c == m.cols else int(d[c:].min())
            assert left_kernel_distance(FqMatrix(m.q, m.arr[:, :c])) == expected


def test_kernel_report_exponent():
    rep = kernel_report(ARIKAN)
    assert rep.exponent == 0.5 and rep.to_dict()["exponent"] == 0.5
    # arikan^2 has d = [1, 2, 2, 4]: E = (0 + 1/2 + 1/2 + 1) / 4
    assert kernel_report(kron(ARIKAN, ARIKAN)).exponent == pytest.approx(0.5)
    not_mixing = kernel_report(FqMatrix.identity(2, 3))
    assert not_mixing.exponents is None and not_mixing.exponent is None
    assert not_mixing.to_dict()["exponent"] is None


def test_kernel_report_large_field_exponents():
    # over F_5 a search layer counts supports, not the vectors on them, so a
    # k = 20 kernel plans at most 2^20 candidates and fits the search budget;
    # its d and constants are the pattern counts', and the d of a Kronecker
    # product are the products of its factors'
    a, b = (random_mixing(5, k, np.random.default_rng(k)) for k in (4, 5))
    m = kron(a, b)
    weights, supports = min_weight_search(m, range(20))
    by_counts = leading_exponents(erasure_polynomials(m))
    assert weights.tolist() == by_counts.d.tolist()
    assert supports.tolist() == by_counts.constants.tolist()
    rep = kernel_report(m)
    d = np.outer(leading_exponents(a).d, leading_exponents(b).d).ravel()
    assert rep.exponents.tolist() == weights.tolist() == d.tolist()


def _reed_solomon(q):
    """M[i][l] = alpha_l^(k-1-i) over the k = q - 1 powers alpha_l = g^l of a primitive root g."""
    k = q - 1
    g = next(g for g in range(2, q) if len({pow(g, e, q) for e in range(k)}) == k)
    return FqMatrix(q, [[pow(g, l * (k - 1 - i), q) for l in range(k)] for i in range(k)])


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19])
def test_kernel_report_reed_solomon_exponents(q):
    # Mori and Tanaka (2014): the partial distances are 1..k, so E(M) =
    # log_k(k!) / k; the search's layers count supports, so even F_19 (k = 18)
    # plans at most 2^18 candidates
    k = q - 1
    rep = kernel_report(_reed_solomon(q))
    assert rep.exponents.tolist() == list(range(1, k + 1))
    assert abs(rep.exponent - math.lgamma(k + 1) / (k * math.log(k))) < 1e-12


def test_kernel_report_reed_solomon_f23_exponents():
    # k = 22: the cheapest plan takes the layers of weight <= 21, 2^22 - 1
    # supports, and one coset serves d = 22; the walk holds a block of
    # supports per weight, so only the search's own budget of 10^7 applies
    k = 22
    rep = kernel_report(_reed_solomon(23))
    assert rep.mixing and rep.exponents.tolist() == list(range(1, k + 1))
    assert abs(rep.exponent - math.lgamma(k + 1) / (k * math.log(k))) < 1e-12


def test_left_kernel_distance_of_a_tall_projective_block():
    # 200 distinct points of PG(5, 3) as rows: no two are proportional, so
    # the least weight is 3, reached by three collinear points; its layers
    # take C(200, 1) + C(200, 2) + C(200, 3) = 1333500 supports, within the
    # search's budget, though over the 2^20 of a whole pattern pass
    points = [p for p in itertools.product(range(3), repeat=6) if any(p) and p[np.flatnonzero(p)[0]] == 1]
    pick = np.sort(np.random.default_rng(6).choice(len(points), 200, replace=False))
    assert left_kernel_distance(FqMatrix(3, np.array(points)[pick])) == 3


def test_kernel_report_budget(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "40")
    big = kron_power(ARIKAN, 5)
    rep = kernel_report(big, block_cols=31)
    # the exponents' search is over budget and reported as missing ...
    assert rep.mixing and rep.exponents is None and rep.exponent is None
    assert rep.distance == 32
    # ... while an over-budget block distance raises: its cheapest plan is
    # the 528 words of weight <= 2
    with pytest.raises(BudgetExceeded, match="528 > 40"):
        kernel_report(big, block_cols=16)
    # k = 21, beyond the former k <= 20 cap, fits the default budget; the
    # partial distances of a Kronecker product are the products of its
    # factors' (Korada, Sasoglu and Urbanke 2010)
    monkeypatch.delenv(BUDGET_ENV)
    m3 = random_mixing(2, 3, np.random.default_rng(3))
    hamming7 = build_high_distance_kernel(2, 7, 1).matrix
    rep = kernel_report(kron(m3, hamming7))
    d = np.outer(leading_exponents(m3).d, leading_exponents(hamming7).d).ravel()
    assert rep.exponents.tolist() == d.tolist()
    assert rep.exponent == pytest.approx(np.log(d).sum() / (21 * np.log(21)))

"""Random draws and reference checks shared by several test modules."""

import itertools

import numpy as np

from polarkit.fqlin import FqMatrix


def random_invertible(q, k: int, rng: np.random.Generator) -> FqMatrix:
    """Rejection-sample an invertible k x k matrix over F_q."""
    while True:
        cand = FqMatrix(q, rng.integers(0, q, size=(k, k)))
        if cand.is_invertible():
            return cand


def is_mixing_brute(m: FqMatrix) -> bool:
    """The defining mixing check, over all k! row permutations (small k only).

    Mixing means invertible with no row permutation upper-triangular;
    ``kernelscope.is_mixing`` reads the same property off a PLU factor.
    """
    if not m.is_invertible():
        return False
    a = m.arr
    return not any(
        all(not a[perm[i], :i].any() for i in range(m.rows))
        for perm in itertools.permutations(range(m.rows))
    )

"""Random draws shared by several test modules."""

import numpy as np

from polarkit.fqlin import FqMatrix


def random_invertible(q, k: int, rng: np.random.Generator) -> FqMatrix:
    """Rejection-sample an invertible k x k matrix over F_q."""
    while True:
        cand = FqMatrix(q, rng.integers(0, q, size=(k, k)))
        if cand.is_invertible():
            return cand

#!/usr/bin/env python3
"""Walk through the structural analysis of a polar-code kernel.

Shows the mixing test, the kernel's PLU factors, and the constructive
containment chain: every mixing kernel usefully contains the 2x2
lower-triangular matrix H, and the witness survives tensor squaring.  These
witnesses are what turns "every mixing kernel polarizes exponentially" into
something a program can check instance by instance.
"""

import numpy as np

from polarkit.fqlin import FqMatrix, kron, plu_decompose
from polarkit.kernelscope import (
    find_useful_containment_H,
    is_mixing,
    random_mixing,
    tensor_witness,
    verify_witness,
)


def show(title, arr):
    print(f"{title}:")
    for row in np.asarray(arr):
        print("   ", " ".join(str(int(v)) for v in row))


def analyze(m, name):
    print(f"\n=== {name} (q={m.q}) ===")
    show("kernel", m.arr)
    mixing = is_mixing(m)
    print(f"mixing: {mixing}")
    if not mixing:
        print("not mixing; no containment to extract")
        return
    dec = plu_decompose(m)
    show("L (unit lower factor)", dec.lower.arr)
    show("U (upper factor)", dec.upper.arr)

    w = find_useful_containment_H(m)
    print(f"useful containment of H={w.target.arr.tolist()}, "
          f"witnessed index {w.witnessed_index()}, alpha={w.alpha}")
    show("column map T", w.T.arr)
    print("verifies against the kernel:", verify_witness(w, m))

    w2 = tensor_witness(w)
    ok2 = verify_witness(w2, kron(m, m))
    print(f"tensor-squared witness targets a {w2.target.rows}x{w2.target.rows} block, "
          f"witnessed index {w2.witnessed_index()} of the squared kernel, verifies: {ok2}")


def main():
    analyze(FqMatrix(2, [[1, 0], [1, 1]]), "the classic 2x2 kernel")
    analyze(FqMatrix(2, [[0, 1], [1, 0]]), "a row swap (not mixing)")

    rng = np.random.default_rng(7)
    analyze(random_mixing(3, 4, rng), "a random mixing 4x4 kernel over F_3")
    analyze(random_mixing(5, 3, rng), "a random mixing 3x3 kernel over F_5")


if __name__ == "__main__":
    main()

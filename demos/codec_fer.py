#!/usr/bin/env python3
"""Polar codec end to end: construction, encoding, SC decoding, error rates.

Codes freeze the highest-entropy synthetic indices: exactly (from the erasure
tree) on erasure channels, by genie-aided Monte Carlo elsewhere.  The frame
error rate is compared against the exact union bound over the information
set's synthetic erasure rates.
"""

import numpy as np

from polarkit.channels import capacity, make_erasure, make_qsc
from polarkit.codec import construct_code, encode, fer_experiment, sc_decode
from polarkit.fqlin import FqMatrix


def erasure_sweep():
    kernel = FqMatrix(2, [[1, 0], [1, 1]])
    ch = make_erasure(2, 0.3)
    print(f"erasure channel z=0.3, capacity {capacity(ch):.2f}, rate target 0.55")
    print(" t     N    fer       wilson 95%          union bound")
    for t in (5, 6, 7, 8, 9, 10):
        code = construct_code(kernel, ch, t, rate=0.55, rng=np.random.default_rng(40 + t))
        res = fer_experiment(code, ch, 4000, np.random.default_rng(60 + t))
        union = float(code.estimates[code.info].sum())
        print(f"{t:2d} {code.block_length:5d}   {res.fer:.4f}   "
              f"[{res.ci_low:.4f}, {res.ci_high:.4f}]   {union:.4f}")


def qsc_example():
    kernel = FqMatrix(2, [[1, 0], [1, 1]])
    ch = make_qsc(2, 0.06)
    print(f"\nbinary symmetric channel eps=0.06, capacity {capacity(ch):.3f}")
    code = construct_code(kernel, ch, 7, rate=0.45, rng=np.random.default_rng(9))
    res = fer_experiment(code, ch, 3000, np.random.default_rng(11))
    print(f"N={code.block_length}, rate {code.rate:.3f}: fer {res.fer:.4f} "
          f"[{res.ci_low:.4f}, {res.ci_high:.4f}] (construction: {code.meta['method']})")


def single_word_walkthrough():
    kernel = FqMatrix(2, [[1, 0], [1, 1]])
    ch = make_erasure(2, 0.3)
    code = construct_code(kernel, ch, 3, rate=0.5, rng=np.random.default_rng(1))
    msg = np.array([1, 0, 1, 1])
    x = encode(code, msg)
    y = x.copy()
    y[2] = ch.erasure_symbol  # erase one position by hand
    res = sc_decode(code, y)
    print("\nsingle word: message", msg.tolist(), "codeword", x.tolist())
    print("received with one erasure:", y.tolist())
    print("decoded:", res.message.tolist(), "success:", np.array_equal(res.message, msg))


def main():
    erasure_sweep()
    qsc_example()
    single_word_walkthrough()


if __name__ == "__main__":
    main()

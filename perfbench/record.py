#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the library as it stands.

    python3 perfbench/record.py

Records the k=15 F_2 kernel with a BCH block (b=2) as an input literal, with
its block distance and leading exponents, and the digest of the phase-B
``u_hat`` words of fer_arikan for seeds 0..31.  Run it only when a change is
meant to alter those outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main():
    from polarkit import codec, kernelscope

    import checks
    import workloads

    built = kernelscope.build_high_distance_kernel(2, 15, 2)
    ref = {
        "k15": {
            "source": "kernelscope.build_high_distance_kernel(2, 15, 2)",
            "rows": ["".join(str(int(v)) for v in row) for row in built.matrix.arr],
            "block_cols": built.block_cols,
            "distance": int(built.distance),
            "exponents": [int(d) for d in built.report.exponents],
        },
        "fer_arikan_digests": {},
    }
    fer = workloads.FerArikan()
    for seed in range(32):
        inp = fer.setup(seed)
        words = [codec.sc_decode(inp["code"], y).u_hat for y in inp["y"]]
        ref["fer_arikan_digests"][str(seed)] = checks.words_digest(words)
        print(f"seed {seed}: {ref['fer_arikan_digests'][str(seed)]}", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

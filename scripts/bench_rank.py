"""Benchmark the two exact elimination paths against each other.

The hot kernel behind every rank computation has a vectorized numpy int64
path (with a certified overflow guard) and a pure arbitrary-precision
Python path, selected with ``int_rank(..., force_pure=True)``.  This
script times both on the matrices the package actually cares about and
checks they agree entry for entry.

    python scripts/bench_rank.py [max_d]
"""

from __future__ import annotations

import sys
import time

from bellpoly import linalg
from bellpoly.cglmp import _saturating_matrix
from bellpoly.scenario import generator_matrix


def bench(label: str, rows, expected=None) -> None:
    t0 = time.perf_counter()
    fast = linalg.int_rank(rows, force_pure=False)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    pure = linalg.int_rank(rows, force_pure=True)
    t_pure = time.perf_counter() - t0
    if fast != pure:
        raise SystemExit(f"{label}: paths disagree ({fast} vs {pure})")
    if expected is not None and fast != expected:
        raise SystemExit(f"{label}: rank {fast}, expected {expected}")
    ratio = t_pure / t_fast if t_fast > 0 else float("inf")
    print(f"{label:34s} rank {fast:4d}   numpy {t_fast*1e3:9.2f} ms   pure {t_pure*1e3:9.2f} ms   speedup {ratio:6.1f}x")


def main() -> None:
    max_d = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    for d in range(2, max_d + 1):
        mat = generator_matrix(d)
        bench(f"generator differences d={d}", mat[1:] - mat[0], expected=4 * d * (d - 1))
    for d in range(2, max_d + 1):
        bench(f"saturating generators d={d}", _saturating_matrix(d), expected=4 * d * (d - 1))


if __name__ == "__main__":
    main()

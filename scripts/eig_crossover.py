#!/usr/bin/env python3
"""Dense LAPACK against ARPACK: time one lambda2 solve per graph size.

For each node count, generates two planted instances of eight timestamps,
a dense one (attachment 0.3 n) and a sparse one (attachment 10, the
benchmark's ``lanczos-n450`` shape), and times ``spectral.exact_lambda2`` (dense ``eigh``) and
``spectral.lambda2`` (ARPACK ``eigsh`` on the sparse matrix), each with its
matrix setup, on a single snapshot and on the whole eight-timestamp
aggregate. Reports the best and median of several repetitions after one
warm-up, and the largest gap between the two lambda2 values.
``spectral.DENSE_MAX_NODES`` is set from where the dense solve stops being
the faster one. Pin BLAS to one thread, as ``detect`` is benchmarked:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/eig_crossover.py
"""

import argparse
import time

import numpy as np

from tempocom.graph import (Interval, NormalizationConfig, aggregate,
                            dense_adjacency)
from tempocom.spectral import DENSE_MAX_NODES, exact_lambda2, lambda2
from tempocom.synth import SynthConfig, generate


def timed(f, reps: int) -> tuple[float, float]:
    f()
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        f()
        ts.append(time.perf_counter() - t0)
    return min(ts) * 1e3, float(np.median(ts)) * 1e3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, nargs="+",
                    default=[100, 200, 300, 400, 500, 600, 800])
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()

    norm = NormalizationConfig(0.2)
    print(f"# DENSE_MAX_NODES = {DENSE_MAX_NODES}")
    print("nodes,attachment,interval,dense_min_ms,dense_median_ms,"
          "arpack_min_ms,arpack_median_ms,arpack_matvecs,lambda2_gap")
    for n, attachment in [(n, a) for n in args.nodes
                          for a in (max(3, int(0.3 * n)), 10)]:
        g, _ = generate(SynthConfig(
            n=n, attachment=attachment, timeline=8,
            planted_nodes=max(3, n // 5), planted_length=2, contrast=8.0,
            seed=1), norm)
        for iv in (Interval(0, 0), Interval(0, 7)):
            dense = timed(lambda: exact_lambda2(dense_adjacency(g, iv)),
                          args.reps)
            arpack = timed(lambda: lambda2(aggregate(g, iv)), args.reps)
            res = lambda2(aggregate(g, iv))
            gap = abs(res.lambda2
                      - exact_lambda2(dense_adjacency(g, iv)).lambda2)
            print(f"{n},{attachment},[{iv.start};{iv.end}],"
                  f"{dense[0]:.1f},{dense[1]:.1f},{arpack[0]:.1f},"
                  f"{arpack[1]:.1f},{res.iterations},{gap:.1e}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

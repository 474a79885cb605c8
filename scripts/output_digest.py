#!/usr/bin/env python3
"""One digest of detect's outputs per instance, to show that a change keeps
them identical.

Generates the benchmark workloads' instances for the given seeds into a
temporary directory with perfbench/generate.py, runs ``detect`` on each with
its workload's RunConfig, and prints ``<workload> <seed> <i> <sha256>``.
With --criterion-6 it also runs criterion 6's 20 seeds (synth.generate and
criterion 6's RunConfig), printed as ``criterion-6 <seed> 0 <sha256>``. The
hash covers the repr of phi*, each community (sorted nodes, interval, repr
of phi), the verdicts' status codes and bound bytes, and every bucket_log
entry. It only reads perfbench/.

Run it from the root of both trees, the parent's with this file copied in,
and compare:

    python3 scripts/output_digest.py --seeds 0 1 --criterion-6 > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, as the benchmark runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from tempocom.driver import RunConfig, detect  # noqa: E402
from tempocom.graph import NormalizationConfig, load  # noqa: E402
from tempocom.synth import SynthConfig, generate  # noqa: E402
from workloads import ALPHA, WORKLOADS  # noqa: E402

CRITERION_6 = dict(n=200, attachment=60, timeline=100, planted_nodes=45,
                   planted_length=10, contrast=8.0)


def digest(state) -> str:
    h = hashlib.sha256()
    h.update(repr(state.phi_star).encode())
    for c in state.communities:
        h.update(repr((sorted(c.nodes), tuple(c.interval),
                       c.phi)).encode())
    h.update(state.verdicts.code.tobytes())
    h.update(state.verdicts.bound.tobytes())
    for d in state.bucket_log:
        h.update(repr((tuple(d.interval), d.bound_half, d.phi_star_before,
                       d.refined)).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS),
                   choices=sorted(WORKLOADS))
    p.add_argument("--criterion-6", action="store_true",
                   help="also run criterion 6's seeds 0-19")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workloads:
            wl = WORKLOADS[name]
            cfg = RunConfig(alpha=ALPHA, threads=1, **wl.run)
            for seed in args.seeds:
                run_dir = Path(tmp) / f"{name}-{seed}"
                subprocess.run([sys.executable,
                                str(ROOT / "perfbench" / "generate.py"),
                                name, str(seed), str(run_dir)], check=True)
                for i in range(wl.instances):
                    g = load(run_dir / f"instance{i}.tgraph")
                    print(name, seed, i, digest(detect(g, cfg)), flush=True)
    if args.criterion_6:
        cfg = RunConfig(alpha=ALPHA, seed=7, rows=2, min_entries=3)
        for seed in range(20):
            g, _ = generate(SynthConfig(**CRITERION_6, seed=seed),
                            NormalizationConfig(ALPHA))
            print("criterion-6", seed, 0, digest(detect(g, cfg)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

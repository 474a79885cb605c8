#!/usr/bin/env python3
"""Interleaved timing of ``detect`` in two trees, in one process.

Imports the tempocom package of two checkouts under two package names, A
(``--base``, say a ``git archive`` of the parent commit) and B (``--change``,
by default this tree). Generates each workload's instances for the given
seeds with this tree's perfbench/generate.py into a temporary directory,
loads each instance in both trees, and runs ``detect`` on it alternately in
A and B, for ``--rounds`` rounds, A first in even rounds and B first in odd
ones. Both trees see the same state of the machine, so the comparison does
not drift with the other tenants' load as separate benchmark runs do.

Per workload it prints the median over all (instance, round) pairs of the
detect time and of each phase's time (``DetectState.timings``) in A and B,
the number of pairs in which B was faster, and on how many instances A and
B gave the same output digest (scripts/output_digest.py's hash: phi*,
communities, verdict codes and bound bytes, bucket_log). It only reads
perfbench/.

    git archive <parent> | tar -x -C /tmp/parent
    python3 scripts/ab_detect.py --base /tmp/parent --workloads long-timeline \\
        --seeds 0 --rounds 5
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, as the benchmark runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "scripts"))

from output_digest import digest  # noqa: E402
from workloads import ALPHA, WORKLOADS  # noqa: E402

PHASES = ("precompute", "estimate", "prune", "hash", "refine")


def load_tree(root: Path, name: str):
    """The tempocom package under root/src, imported as ``name``, with the
    modules detect needs."""
    pkg = root / "src" / "tempocom"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    for sub in ("graph", "driver"):
        importlib.import_module(f"{name}.{sub}")
    return mod


def timed_detect(tree, g, cfg):
    gc.collect()
    t0 = time.perf_counter()
    state = tree.driver.detect(g, cfg)
    return time.perf_counter() - t0, state


def compare(trees, name: str, paths: list[Path], rounds: int) -> None:
    wl = WORKLOADS[name]
    cfgs = [t.driver.RunConfig(alpha=ALPHA, threads=1, **wl.run)
            for t in trees]
    # per tree: detect times and per-phase times over every pair
    times = [{"detect": []} | {p: [] for p in PHASES} for _ in trees]
    wins = same = 0
    for path in paths:
        graphs = [t.graph.load(path) for t in trees]
        digests = [None, None]
        for r in range(rounds):
            took = [None, None]
            for k in ((0, 1) if r % 2 == 0 else (1, 0)):
                took[k], state = timed_detect(trees[k], graphs[k], cfgs[k])
                times[k]["detect"].append(took[k])
                for p in PHASES:
                    times[k][p].append(state.timings.get(p, 0.0))
                if digests[k] is None:
                    digests[k] = digest(state)
            wins += took[1] < took[0]
        same += digests[0] == digests[1]
    pairs = len(paths) * rounds
    print(f"{name}: {len(paths)} instance(s) x {rounds} round(s)")
    print(f"  {'phase':<11}{'A ms':>9}{'B ms':>9}{'B/A':>8}")
    for p in ("detect",) + PHASES:
        a, b = (1000.0 * statistics.median(t[p]) for t in times)
        print(f"  {p:<11}{a:9.1f}{b:9.1f}{b / a if a else float('nan'):8.3f}")
    print(f"  B faster in {wins}/{pairs} pairs; outputs identical on "
          f"{same}/{len(paths)} instances", flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True,
                   help="root of tree A")
    p.add_argument("--change", type=Path, default=ROOT,
                   help="root of tree B (default: this tree)")
    p.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS),
                   choices=sorted(WORKLOADS))
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--rounds", type=int, default=3)
    args = p.parse_args(argv)
    trees = [load_tree(args.base.resolve(), "tempocom_a"),
             load_tree(args.change.resolve(), "tempocom_b")]
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workloads:
            paths = []
            for seed in args.seeds:
                run_dir = Path(tmp) / f"{name}-{seed}"
                subprocess.run([sys.executable,
                                str(ROOT / "perfbench" / "generate.py"),
                                name, str(seed), str(run_dir)], check=True)
                paths += [run_dir / f"instance{i}.tgraph"
                          for i in range(WORKLOADS[name].instances)]
            compare(trees, name, paths, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())

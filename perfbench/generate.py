"""Write one run's instance files with `tempocom generate` (synth.generate and
the CLI's .tgraph writer), each with its ``.truth.json`` sidecar.

Usage: python3 perfbench/generate.py <workload> <seed> <out_dir>

run.py starts this in a process of its own, so that generating (networkx
and the synthetic arrays) stays out of the peak memory of the process that
loads and detects.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tempocom import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, out = argv[0], int(argv[1]), Path(argv[2])
    wl = WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    for i, s in enumerate(wl.instance_seeds(seed)):
        rc = cli.main([
            "generate", "--out", str(out / f"instance{i}.tgraph"),
            "--nodes", str(wl.nodes), "--attachment", str(wl.attachment),
            "--timeline", str(wl.timeline),
            "--planted-nodes", str(wl.planted_nodes),
            "--planted-length", str(wl.planted_length),
            "--contrast", str(wl.contrast), "--seed", str(s)])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

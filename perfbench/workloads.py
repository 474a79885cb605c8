"""The benchmark's workloads: the synthetic shape of each instance, the
detect configuration, and how many instances one run detects.

Every instance comes from ``synth.generate`` (through ``tempocom generate``)
with a seed derived from the run's ``--seed``, so the same seed gives the
same files. The shapes are smaller than the criterion-6 instance (n=200,
T=100, 14-19 s per detect) so that one run of about 25 seconds detects 11 to
18 distinct instances: detect time and pruned fraction vary by 15-25% from
one instance to the next, and only a run over many instances reads the same
on another seed.

Contrast is 8 in criterion 6. At contrast 8, detect sometimes reports a phi*
above the planted community's conductance: 1 of 198 planted-c6 instances
and 1 of 120 sparse-refine instances (a FOUND line in CHANGES.md). A run
must fail the same share of operations on every seed, so planted-c6 uses
contrast 12 (no miss in 828 instances, seeds 0-45, though the planted set
is the optimum in a fifth of them), and sparse-refine and long-timeline
contrast 4, where the planted set is never near the optimum (seeds 0-20).
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALPHA = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # SynthConfig fields, passed to `tempocom generate`
    nodes: int
    attachment: int
    timeline: int
    planted_nodes: int
    planted_length: int
    contrast: float
    # distinct instances detected in each round of a run
    instances: int
    # RunConfig fields besides alpha and threads
    run: dict = field(default_factory=dict)

    def instance_seeds(self, seed: int) -> list[int]:
        """Synthetic seeds of one run's instances; runs on different seeds
        share none."""
        return [1000 * seed + i for i in range(self.instances)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="planted-c6",
        why="dense graph of the criterion-6 family: bounds prune ~0.88, and "
            "hashing (36%), refine (30%) and the dense-LAPACK exact tier "
            "(16%) share detect",
        nodes=100, attachment=30, timeline=24, planted_nodes=22,
        planted_length=6, contrast=12.0,
        instances=20, run=dict(seed=7, rows=2, min_entries=3)),
    Workload(
        name="sparse-refine",
        why="sparse graph: bounds prune ~0.3 and ~1,000 buckets per instance "
            "are refined, so random walks and sweeps take ~71% of detect",
        nodes=60, attachment=5, timeline=20, planted_nodes=10,
        planted_length=6, contrast=4.0,
        instances=12),
    Workload(
        name="lanczos-n450",
        why="only workload above spectral.DENSE_MAX_NODES = 400 nodes, so "
            "interval_lambda2 takes the Lanczos path (~33% of detect)",
        nodes=450, attachment=10, timeline=6, planted_nodes=45,
        planted_length=3, contrast=8.0,
        instances=16, run=dict(seed=7, rows=4, min_entries=3)),
    Workload(
        name="long-timeline",
        why="2,080 intervals on a 30-node graph: pruning takes ~35% of "
            "detect, its ~1,500 eigensolves per instance bound by per-call "
            "overhead, and filtering grows with T",
        nodes=30, attachment=10, timeline=64, planted_nodes=8,
        planted_length=8, contrast=4.0,
        instances=11, run=dict(seed=7, rows=2, min_entries=3)),
)}

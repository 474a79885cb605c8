"""Synthetic benchmarks: preferential-attachment topology, Poisson weights,
and one injected high-contrast temporal community."""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

from .graph import (Interval, NormalizationConfig, TemporalCommunity,
                    TemporalGraph, conductance)

MAX_PLANT_RETRIES = 50


@dataclass(frozen=True)
class SynthConfig:
    n: int = 1000
    attachment: int = 5
    timeline: int = 100
    mean_weight: float = 5.0
    planted_nodes: int = 20
    planted_length: int = 10
    contrast: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")
        if not (0 < self.mean_weight < math.inf):  # NaN included
            raise ValueError(f"mean weight {self.mean_weight} must be "
                             "finite and > 0")
        if self.contrast < 1:
            raise ValueError("contrast must be >= 1")
        if self.planted_length > self.timeline:
            raise ValueError("planted interval must fit in the timeline")
        if not (1 <= self.planted_nodes <= self.n):
            raise ValueError("planted node count must be in [1, n]")
        if not (1 <= self.attachment < self.n):
            raise ValueError(f"attachment {self.attachment} must be in "
                             f"[1, n - 1] for n = {self.n}")


def _truncated_poisson(rng: np.random.Generator, lam: float, shape) -> np.ndarray:
    """Poisson(lam) with zero draws redrawn to >= 1 (weights must be positive)."""
    out = rng.poisson(lam, shape).astype(np.float64)
    zero = out == 0
    while zero.any():
        out[zero] = rng.poisson(lam, int(zero.sum()))
        zero = out == 0
    return out


def _degree_biased_connected_set(rng: np.random.Generator, graph: nx.Graph,
                                 size: int) -> set[int]:
    """Grow a connected node set, picking each next node with probability
    proportional to its degree among the frontier."""
    degrees = dict(graph.degree())
    nodes = sorted(graph.nodes())
    probs = np.array([degrees[v] for v in nodes], dtype=np.float64)
    start = int(rng.choice(nodes, p=probs / probs.sum()))
    chosen = {start}
    while len(chosen) < size:
        frontier = sorted({v for u in chosen for v in graph.neighbors(u)} - chosen)
        if not frontier:
            raise RuntimeError("frontier exhausted before reaching target size")
        fp = np.array([degrees[v] for v in frontier], dtype=np.float64)
        chosen.add(int(rng.choice(frontier, p=fp / fp.sum())))
    return chosen


def generate(cfg: SynthConfig,
             norm: NormalizationConfig = NormalizationConfig(0.0),
             ) -> tuple[TemporalGraph, TemporalCommunity]:
    """Build the benchmark graph and its planted ground truth.

    The unweighted topology is replicated over every timestamp; only weights
    vary. Internal edges of the planted set get contrast-scaled mean weight
    during the planted interval.

    The planted community is a reference, not a guaranteed optimum: with
    alpha > 0 the duration discount favours long intervals, and a background
    bisection of the whole timeline can have lower temporal conductance.
    """
    rng = np.random.default_rng(cfg.seed)
    topo = nx.barabasi_albert_graph(cfg.n, cfg.attachment, seed=int(rng.integers(2 ** 31)))

    last_err = None
    planted = None
    for _ in range(MAX_PLANT_RETRIES):
        try:
            planted = _degree_biased_connected_set(rng, topo, cfg.planted_nodes)
            break
        except RuntimeError as err:
            last_err = err
    if planted is None:
        raise RuntimeError(f"could not plant a connected set: {last_err}")

    start = int(rng.integers(0, cfg.timeline - cfg.planted_length + 1))
    iv = Interval(start, start + cfg.planted_length - 1)

    edges = sorted((min(u, v), max(u, v)) for u, v in topo.edges())
    edge_u = np.array([e[0] for e in edges], dtype=np.int64)
    edge_v = np.array([e[1] for e in edges], dtype=np.int64)
    weights = _truncated_poisson(rng, cfg.mean_weight, (len(edges), cfg.timeline))

    internal = np.array([u in planted and v in planted for u, v in edges])
    n_int = int(internal.sum())
    if n_int:
        boosted = _truncated_poisson(rng, cfg.contrast * cfg.mean_weight,
                                     (n_int, cfg.planted_length))
        weights[np.flatnonzero(internal), iv.start:iv.end + 1] = boosted

    g = TemporalGraph([str(i) for i in range(cfg.n)], cfg.timeline,
                      edge_u, edge_v, weights)
    phi = conductance(g, planted, iv, norm)
    truth = TemporalCommunity(nodes=frozenset(planted), interval=iv, phi=phi)
    return g, truth

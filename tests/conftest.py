"""Shared fixtures and instance builders for the test suite."""

from __future__ import annotations

from collections import Counter

import numpy as np

from tempocom.graph import TemporalGraph
from tempocom.tlsh import Bucket, CompositeSignature


def random_instance(rng: np.random.Generator, n: int, T: int,
                    density: float = 0.5) -> TemporalGraph:
    """Random temporal graph: Erdos-Renyi edge set, each present edge active
    at each timestamp with probability 0.8, uniform positive weights."""
    records = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() >= density:
                continue
            for t in range(T):
                if rng.random() < 0.8:
                    records.append((u, v, t, float(rng.uniform(0.5, 4.0))))
    return TemporalGraph.from_records([str(i) for i in range(n)], T, records)


def connected_random_instance(rng: np.random.Generator, n: int, T: int,
                              density: float = 0.5) -> TemporalGraph:
    """Random instance whose full aggregation is connected: a random spanning
    path is always present (active at every timestamp)."""
    records = []
    perm = rng.permutation(n)
    for a, b in zip(perm[:-1], perm[1:]):
        u, v = (int(a), int(b)) if a < b else (int(b), int(a))
        for t in range(T):
            records.append((u, v, t, float(rng.uniform(0.5, 4.0))))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() >= density:
                continue
            for t in range(T):
                if rng.random() < 0.8:
                    records.append((u, v, t, float(rng.uniform(0.5, 4.0))))
    return TemporalGraph.from_records([str(i) for i in range(n)], T, records)


def clique_graph(n: int, T: int = 1, weight: float = 1.0) -> TemporalGraph:
    records = [(u, v, t, weight)
               for u in range(n) for v in range(u + 1, n) for t in range(T)]
    return TemporalGraph.from_records([str(i) for i in range(n)], T, records)


def path_graph(n: int, T: int = 1, weight: float = 1.0) -> TemporalGraph:
    records = [(u, u + 1, t, weight) for u in range(n - 1) for t in range(T)]
    return TemporalGraph.from_records([str(i) for i in range(n)], T, records)


def cycle_graph(n: int, T: int = 1, weight: float = 1.0) -> TemporalGraph:
    records = [(u, (u + 1) % n, t, weight) for u in range(n) for t in range(T)]
    fixed = [(min(u, v), max(u, v), t, w) for (u, v, t, w) in records]
    return TemporalGraph.from_records([str(i) for i in range(n)], T, fixed)


def bucket_of(entries, key=CompositeSignature(1, 0, 1, (0,))) -> Bucket:
    """A bucket of the given (node, timestamp) entries, with the span and
    seeding that hash_all would give it."""
    entries = sorted(entries)
    ts = [t for _, t in entries]
    seeding = tuple(zip(*sorted(Counter(u for u, _ in entries).items())))
    return Bucket(key, entries, (min(ts), max(ts)), seeding)

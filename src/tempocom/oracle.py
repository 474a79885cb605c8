"""Exhaustive desk-scale baselines: global brute force and all-seed sweeps."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .graph import (Interval, NormalizationConfig, TemporalCommunity,
                    TemporalGraph, aggregate, dense_adjacency, eta)
from .refine import NoConnectedPrefixError, WalkParams, seed_rankings, sweep

BRUTE_MAX_NODES = 16
BRUTE_MAX_TIMELINE = 12
EXH_MAX_WORK = 200_000


class InstanceTooLargeError(RuntimeError):
    """Exhaustive enumeration refused: instance exceeds the desk-scale guard."""


def _mask_bits(mask: int):
    while mask:
        low = mask & (-mask)
        yield low.bit_length() - 1
        mask ^= low


def connected_subsets_min_phi(adj: np.ndarray, vols: np.ndarray, e: float,
                              ) -> tuple[float, Optional[frozenset[int]]]:
    """Minimum conductance over connected proper subsets of a dense weighted
    graph, by canonical grow-from-root enumeration (each connected induced
    subgraph is visited exactly once, rooted at its smallest node)."""
    n = len(vols)
    nbr = [0] * n
    for u in range(n):
        m = 0
        for v in np.flatnonzero(adj[u] > 0):
            if v != u:
                m |= 1 << int(v)
        nbr[u] = m
    full = (1 << n) - 1
    rows, vol_of = adj.tolist(), vols.tolist()

    best_phi = math.inf
    best_key = None
    best_set: Optional[frozenset[int]] = None

    def consider(mask: int, vol: float):
        nonlocal best_phi, best_key, best_set
        if mask == full:
            return
        nodes = tuple(_mask_bits(mask))
        rest = list(_mask_bits(full & ~mask))
        # the cut and the complement's volume are direct sums of nonnegative
        # terms: as differences of larger sums (vol - 2 internal, total -
        # vol) they cancel when a small cut or volume sits beside heavy
        # weights, down to a negative phi
        denom = min(vol, sum([vol_of[v] for v in rest]))
        if denom <= 0:
            return
        phi = e * sum([rows[u][v] for u in nodes for v in rest]) / denom
        if phi > best_phi:
            return
        key = (phi, len(nodes), nodes)
        if best_key is None or key < best_key:
            best_phi, best_key, best_set = phi, key, frozenset(nodes)

    def rec(mask: int, ext: int, nbhd: int, above: int, vol: float):
        consider(mask, vol)
        while ext:
            low = ext & (-ext)
            w = low.bit_length() - 1
            ext ^= low
            excl = nbr[w] & ~(mask | nbhd) & above
            rec(mask | low, ext | excl, nbhd | nbr[w], above, vol + vol_of[w])

    for root in range(n):
        above = full & ~((1 << (root + 1)) - 1)
        rec(1 << root, nbr[root] & above, nbr[root], above, vol_of[root])
    return best_phi, best_set


def brute_force_min_phi(g: TemporalGraph, iv: Interval,
                        cfg: NormalizationConfig) -> tuple[float, Optional[frozenset[int]]]:
    """Minimum temporal conductance within one interval (connected subsets)."""
    adj = dense_adjacency(g, iv)
    return connected_subsets_min_phi(adj, adj.sum(axis=1), eta(iv, cfg))


def brute_force_best(g: TemporalGraph, cfg: NormalizationConfig) -> TemporalCommunity:
    """Global argmin of temporal conductance over all intervals and all
    connected proper subsets. Deterministic tie-break by
    (phi, |C|, nodes, interval start, interval end)."""
    if g.n > BRUTE_MAX_NODES or g.T > BRUTE_MAX_TIMELINE:
        raise InstanceTooLargeError(
            f"brute force limited to n<={BRUTE_MAX_NODES}, T<={BRUTE_MAX_TIMELINE}")
    best: Optional[TemporalCommunity] = None
    for t in range(g.T):
        for t2 in range(t, g.T):
            iv = Interval(t, t2)
            phi, nodes = brute_force_min_phi(g, iv, cfg)
            if nodes is None:
                continue
            cand = TemporalCommunity(nodes=nodes, interval=iv, phi=phi)
            if best is None or cand.sort_key() < best.sort_key():
                best = cand
    if best is None:
        raise ValueError("no valid community exists (graph has no edges)")
    return best


def exh_baseline(g: TemporalGraph, cfg: NormalizationConfig,
                 params: WalkParams = WalkParams()) -> TemporalCommunity:
    """Sweep from every node in every interval; the paper-style exhaustive
    baseline. Heuristic, so its result is an upper bound on the optimum."""
    work = g.n * g.T * (g.T + 1) // 2
    if work > EXH_MAX_WORK:
        raise InstanceTooLargeError(f"estimated work {work} exceeds {EXH_MAX_WORK}")
    best: Optional[TemporalCommunity] = None
    for t in range(g.T):
        for t2 in range(t, g.T):
            iv = Interval(t, t2)
            ag = aggregate(g, iv)
            active = np.flatnonzero(ag.volumes > 0)
            if len(active) < 2:
                continue
            for ranking in seed_rankings(ag, active, params):
                try:
                    nodes, _, phi = sweep(ag, ranking, cfg)
                except NoConnectedPrefixError:
                    continue
                cand = TemporalCommunity(nodes=nodes, interval=iv, phi=phi)
                if best is None or cand.sort_key() < best.sort_key():
                    best = cand
    if best is None:
        raise ValueError("no sweep produced a valid community")
    return best

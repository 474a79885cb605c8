"""Time-and-graph locality-sensitive hashing of weighted temporal neighborhoods."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .graph import TemporalGraph


def weighted_jaccard(a: Mapping[int, float], b: Mapping[int, float]) -> float:
    """Ratio of per-key min-sums to max-sums; absent keys count as weight 0."""
    if not a and not b:
        raise ValueError("both weighted sets are empty")
    num = 0.0
    den = 0.0
    for key in set(a) | set(b):
        wa = a.get(key, 0.0)
        wb = b.get(key, 0.0)
        num += min(wa, wb)
        den += max(wa, wb)
    return num / den


_MIX = np.uint64(0x9E3779B97F4A7C15)


def _pack64(keys: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Mix (key, quantized level) samples into 64-bit values; equality of the
    packed value coincides with equality of the sample pair."""
    k = keys.astype(np.uint64)
    lv = levels.astype(np.int64).astype(np.uint64)
    x = (k << np.uint64(32)) ^ (lv & np.uint64(0xFFFFFFFF))
    x = (x ^ (x >> np.uint64(30))) * _MIX
    return x ^ (x >> np.uint64(27))


class WeightedMinHasher:
    """Consistent weighted sampling: r independent functions whose single-
    function collision probability equals the weighted Jaccard similarity."""

    def __init__(self, r: int, dim: int, seed):
        if r < 1 or dim < 1:
            raise ValueError("r and dim must be positive")
        rng = np.random.default_rng(seed)
        self.r = r
        self.dim = dim
        self.gammas = rng.gamma(2.0, 1.0, (r, dim))
        self.ln_cs = np.log(rng.gamma(2.0, 1.0, (r, dim)))
        self.betas = rng.uniform(0.0, 1.0, (r, dim))

    def sample(self, keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One (key, quantized level) sample per function."""
        if len(keys) == 0:
            raise ValueError("empty weighted set")
        skeys, levels = self.sample_segments(keys, weights, np.zeros(1, np.int64),
                                             np.array([len(keys)]))
        return skeys[0], levels[0]

    def sample_segments(self, keys: np.ndarray, weights: np.ndarray,
                        starts: np.ndarray, seg_len: np.ndarray,
                        ) -> tuple[np.ndarray, np.ndarray]:
        """One (key, quantized level) sample per function for each of many
        nonempty weighted sets laid out contiguously, segment i at
        starts[i] with seg_len[i] elements; ties resolve to the first index
        within the segment. Returns (keys, levels) of shape (n_segments, r).
        """
        g = self.gammas[:, keys]
        b = self.betas[:, keys]
        t = np.floor(np.log(weights)[None, :] / g + b)
        ln_a = self.ln_cs[:, keys] - g * (t - b) - g
        mins = np.minimum.reduceat(ln_a, starts, axis=1)
        expanded = np.repeat(mins, seg_len, axis=1)
        n = ln_a.shape[1]
        cols = np.arange(n)
        cand = np.where(ln_a == expanded, cols, n)
        idx = np.minimum.reduceat(cand, starts, axis=1)
        rows = np.arange(self.r)[:, None]
        return keys[idx].T, t[rows, idx].astype(np.int64).T


class TemporalPivotHasher:
    """Maps a timestamp to the index of the earliest of k random pivots at or
    after it (1-based; sentinel k+1 when none)."""

    def __init__(self, k: int, T: int, seed):
        if k < 1:
            raise ValueError("need at least one pivot")
        rng = np.random.default_rng(seed)
        self.pivots = np.sort(rng.uniform(0.0, T, k))

    def pivot_hash(self, t):
        """Pivot index of a timestamp, or of each of an array of them."""
        return np.searchsorted(self.pivots, t) + 1


def optimal_pivots(delta_star: int, T: int) -> int:
    """Pivot count maximizing the chance of bracketing a period of the given
    length with two pivots: floor(2T / delta*), clamped to >= 2."""
    if not (1 <= delta_star <= T):
        raise ValueError("target duration must be in [1, T]")
    return max(2, (2 * T) // delta_star)


@dataclass(frozen=True)
class CompositeSignature:
    """AND of one pivot index and r weighted-minhash values within a band."""

    scale: int
    band: int
    time_part: int
    graph_part: tuple[int, ...]


@dataclass
class Bucket:
    """Entries (node, timestamp) sharing one key, ascending; their span, the
    (first, last) timestamp; and their seeding, (nodes ascending, entries
    per node), the bucket as refine uses it."""

    key: CompositeSignature
    entries: list[tuple[int, int]]
    span: tuple[int, int]
    seeding: tuple[tuple[int, ...], tuple[int, ...]]


def scale_ladder(T: int) -> list[int]:
    """Geometric scales 1, 2, 4, ... up to T // 2 (at least scale 1)."""
    scales = [1]
    while scales[-1] * 2 <= max(1, T // 2):
        scales.append(scales[-1] * 2)
    return scales


def _eligible_timestamps(T: int, starts: np.ndarray,
                         ends: np.ndarray) -> np.ndarray:
    """Timestamps inside some interval [starts[i], ends[i]]."""
    diff = np.zeros(T + 1, dtype=np.int64)
    np.add.at(diff, starts, 1)
    np.add.at(diff, ends + 1, -1)
    return np.cumsum(diff[:-1]) > 0


def hash_all(g: TemporalGraph, intervals, scales: Sequence[int], r: int, b: int,
             seed: int, min_entries: int = 2,
             span_cap: float = math.inf) -> list[Bucket]:
    """Hash every (node, timestamp) inside an interval short enough for the
    scale: at scale s, only the timestamps of the given intervals no longer
    than ``span_cap * s``.

    A bucket's entries lie within its span, so a bucket whose span fits in
    one such interval has the key and entries (before any split) it would
    have if every timestamp were hashed.

    For scale s the pivot count targets durations up to 2s. All b bands of
    one scale share a single hasher with b*r rows; rows are independent, so
    slicing them per band preserves the banding law.

    A bucket holds the entries sharing one (scale, band, pivot index, r
    minhash values) key, if there are at least ``min_entries``. Buckets come
    by descending fill factor (entries over nodes times timestamps), then
    size, then ascending key; entries by ascending (node, timestamp).
    """
    iv_starts, iv_ends = np.array(intervals, dtype=np.int64).reshape(-1, 2).T
    if not len(iv_starts):
        return []
    iv_lengths = iv_ends - iv_starts + 1

    # flat incidence arrays grouped by node so one timestamp's neighborhoods
    # can be hashed for every node in a single batch of array ops
    owner = np.concatenate([g.edge_u, g.edge_v])
    inc_keys = np.concatenate([g.edge_v, g.edge_u])
    inc_eids = np.concatenate([np.arange(g.n_edges)] * 2)
    order = np.argsort(owner, kind="stable")
    owner, inc_keys, inc_eids = owner[order], inc_keys[order], inc_eids[order]

    buckets: list[Bucket] = []
    ranks = [np.empty((3, 0))]  # per scale: fill factor, size, scale
    for s in scales:
        usable = iv_lengths <= span_cap * s
        elig = _eligible_timestamps(g.T, iv_starts[usable], iv_ends[usable])
        if not elig.any():
            continue
        k = optimal_pivots(min(2 * s, g.T), g.T)
        graph_hasher = WeightedMinHasher(b * r, g.n, seed=[seed, s, 0])
        pivot_hashers = [TemporalPivotHasher(k, g.T, seed=[seed, s, 1, j])
                         for j in range(b)]
        # per hashed timestamp: its active nodes and their packed samples of
        # all b*r functions
        hashed, nodes, packed_rows = [], [], []
        for t in np.flatnonzero(elig):
            t = int(t)
            snap = g.weights[:, t]
            w = snap[inc_eids]
            live = w > 0
            keys_l, owner_l, w_l = inc_keys[live], owner[live], w[live]
            if len(owner_l) == 0:
                continue
            vols = np.bincount(owner_l, weights=w_l, minlength=g.n)
            active = np.flatnonzero(vols > 0)
            # per node: its live neighbor keys followed by the self key
            deg_l = np.bincount(owner_l, minlength=g.n)
            seg_len = deg_l[active] + 1
            starts = np.zeros(len(active), dtype=np.int64)
            np.cumsum(seg_len[:-1], out=starts[1:])
            total = int(seg_len.sum())
            keys = np.empty(total, dtype=np.int64)
            vals = np.empty(total, dtype=np.float64)
            self_pos = starts + seg_len - 1
            keys[self_pos] = active
            vals[self_pos] = vols[active]
            mask = np.ones(total, dtype=bool)
            mask[self_pos] = False
            keys[mask] = keys_l
            vals[mask] = w_l
            skeys, levels = graph_hasher.sample_segments(keys, vals, starts, seg_len)
            hashed.append(t)
            nodes.append(active)
            packed_rows.append(_pack64(skeys, levels))
        if not hashed:
            continue

        # one row per (band, hashed timestamp, active node), band-major. Key:
        # (band, pivot index in 1..k+1) as band * (k + 2) + index, then the
        # band's r packed samples; entry: (node, timestamp) as node * T + t
        counts = [len(a) for a in nodes]
        m = sum(counts)
        graph_part = (np.concatenate(packed_rows).reshape(m, b, r)
                      .transpose(1, 0, 2).reshape(b * m, r))
        time_parts = np.repeat([ph.pivot_hash(hashed) for ph in pivot_hashers],
                               counts, axis=1)
        band_time = (np.arange(b)[:, None] * (k + 2) + time_parts).ravel()
        entry = np.tile(np.concatenate(nodes) * g.T + np.repeat(hashed, counts), b)
        order = np.lexsort((entry, *graph_part.T[::-1], band_time))
        graph_part, band_time, entry = graph_part[order], band_time[order], entry[order]
        new = np.ones(b * m, dtype=bool)
        new[1:] = ((band_time[1:] != band_time[:-1])
                   | (graph_part[1:] != graph_part[:-1]).any(axis=1))
        starts = np.flatnonzero(new)
        size = np.diff(starts, append=b * m)
        keep = size >= min_entries
        if not keep.any():
            continue
        kept = np.repeat(keep, size)
        heads = starts[keep]
        band, time_part = np.divmod(band_time[heads], k + 2)
        graph_part, size, new = graph_part[heads], size[keep], new[kept]
        node, time = np.divmod(entry[kept], g.T)
        # a bucket's entries run by node, then timestamp, each once; its
        # seeding is its node runs, its span the extremes of its timestamps
        begin = np.flatnonzero(new)
        new_node = new.copy()
        new_node[1:] |= node[1:] != node[:-1]
        n_nodes = np.add.reduceat(new_node, begin)
        n_times = np.bincount(np.unique((np.cumsum(new) - 1) * g.T + time) // g.T)
        ranks.append([size / (n_nodes * n_times), size, np.full(len(size), s)])
        runs = np.flatnonzero(new_node)
        # tuples, so that a bucket's slice of them is its seeding's tuple
        run_node = tuple(node[runs].tolist())
        run_len = tuple(np.diff(runs, append=len(node)).tolist())
        spans = zip(np.minimum.reduceat(time, begin).tolist(),
                    np.maximum.reduceat(time, begin).tolist())
        node, time = node.tolist(), time.tolist()
        hi = hi_run = 0
        for j, tp, gp, n_entries, n_runs, span in zip(
                band.tolist(), time_part.tolist(), graph_part.tolist(),
                size.tolist(), n_nodes.tolist(), spans):
            lo, hi = hi, hi + n_entries
            lo_run, hi_run = hi_run, hi_run + n_runs
            buckets.append(Bucket(CompositeSignature(s, j, tp, tuple(gp)),
                                  list(zip(node[lo:hi], time[lo:hi])), span,
                                  (run_node[lo_run:hi_run],
                                   run_len[lo_run:hi_run])))

    # stable: ties keep the key order of the list
    fill, size, scale = np.concatenate(ranks, axis=1)
    return [buckets[i] for i in np.lexsort((scale, -size, -fill)).tolist()]


# ---------------------------------------------------------------------------
# Monte Carlo helpers shared by the calibration CLI and the property suite.

def minhash_collision_count(wa: Mapping[int, float], wb: Mapping[int, float],
                            trials: int, seed) -> int:
    """Single-function collisions over independent hasher draws.

    One hasher with `trials` rows supplies the independent functions.
    """
    keys = sorted(set(wa) | set(wb))
    remap = {key: i for i, key in enumerate(keys)}
    ka = np.array([remap[x] for x in wa], dtype=np.int64)
    kb = np.array([remap[x] for x in wb], dtype=np.int64)
    va = np.fromiter(wa.values(), dtype=np.float64)
    vb = np.fromiter(wb.values(), dtype=np.float64)
    hasher = WeightedMinHasher(trials, len(keys), seed)
    sa = hasher.sample(ka, va)
    sb = hasher.sample(kb, vb)
    return int(np.sum((sa[0] == sb[0]) & (sa[1] == sb[1])))


def perfect_partition_counts(delta_star: int, T: int, ks, trials: int,
                             seed) -> dict[int, int]:
    """Monte Carlo counts of perfect partitions for each pivot count.

    A draw is perfect when a pivot lands in each unit-width bracket slot
    flanking a centered period of the target length and no pivot falls
    strictly inside it. All pivot counts share the same uniform draws
    (prefix columns), so comparisons across counts use common random numbers.
    """
    ks = sorted(set(int(k) for k in ks))
    if min(ks) < 2:
        raise ValueError("need at least two pivots to bracket a period")
    if not (1 <= delta_star <= T - 2):
        raise ValueError("period plus bracket slots must fit in the timeline")
    rng = np.random.default_rng(seed)
    s = (T - delta_star) / 2.0
    u = rng.uniform(0.0, T, (trials, max(ks)))
    out = {}
    for k in ks:
        uk = u[:, :k]
        left = ((uk >= s - 1.0) & (uk <= s)).any(axis=1)
        right = ((uk >= s + delta_star) & (uk <= s + delta_star + 1.0)).any(axis=1)
        inside = ((uk > s) & (uk < s + delta_star)).any(axis=1)
        out[k] = int(np.sum(left & right & ~inside))
    return out


def pivot_collision_count(t: float, t2: float, T: int, k: int,
                          trials: int, seed) -> int:
    """Pivot-index collisions over independent pivot draws."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, T, (trials, k))
    ca = (u < t).sum(axis=1)
    cb = (u < t2).sum(axis=1)
    return int(np.sum(ca == cb))


def composite_collision_count(wa: Mapping[int, float], wb: Mapping[int, float],
                              dt: int, T: int, r: int, k: int,
                              trials: int, seed) -> int:
    """Full composite-signature collisions: all r minhash rows AND the pivot
    index must agree."""
    keys = sorted(set(wa) | set(wb))
    remap = {key: i for i, key in enumerate(keys)}
    ka = np.array([remap[x] for x in wa], dtype=np.int64)
    kb = np.array([remap[x] for x in wb], dtype=np.int64)
    va = np.fromiter(wa.values(), dtype=np.float64)
    vb = np.fromiter(wb.values(), dtype=np.float64)
    hasher = WeightedMinHasher(trials * r, len(keys), [seed, 0])
    sa = hasher.sample(ka, va)
    sb = hasher.sample(kb, vb)
    graph_eq = ((sa[0] == sb[0]) & (sa[1] == sb[1])).reshape(trials, r).all(axis=1)

    rng = np.random.default_rng([seed, 1])
    t = rng.integers(0, T - dt + 1, trials).astype(np.float64)
    u = rng.uniform(0.0, T, (trials, k))
    time_eq = (u < t[:, None]).sum(axis=1) == (u < (t + dt)[:, None]).sum(axis=1)
    return int(np.sum(graph_eq & time_eq))

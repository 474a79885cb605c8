"""End-to-end detection: precompute, estimate, prune, hash, refine, rank."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graph import (Interval, NormalizationConfig, TemporalCommunity,
                    TemporalGraph, aggregate, eta)
from .pruning import (PROBED, UNPRUNED, BoundsTable, Pruner, Verdicts,
                      build_groups, precompute)
from .refine import (NoConnectedPrefixError, WalkParams, fiedler_sweep,
                     refine_bucket, refine_seedings, rwr_scores, seed_rankings,
                     sweep)
from .spectral import EigResult
from .tlsh import hash_all, scale_ladder

ESTIMATE_ROWS = 2
ESTIMATE_BANDS = 2


@dataclass(frozen=True)
class RunConfig:
    alpha: float = 0.0
    scale_base: int = 2
    beta: float = 0.5
    rows: int = 4
    bands: int = 4
    topk: int = 10
    probes: int = 5
    seed: int = 0
    threads: int = 1
    walk: WalkParams = WalkParams()
    min_entries: int = 2
    span_cap: float = 2.0

    def __post_init__(self):
        self.norm()  # checks alpha
        if self.scale_base < 2:
            raise ValueError("scale base must be >= 2")
        if not 0 < self.beta < 1:
            raise ValueError("beta must be in (0, 1)")
        if self.rows < 1 or self.bands < 1:
            raise ValueError("rows and bands must be positive")
        if self.seed < 0 or self.probes < 0:
            raise ValueError("seed and probes must be nonnegative")
        if min(self.topk, self.threads, self.min_entries) < 1:
            raise ValueError("topk, threads and min entries must be positive")
        if not self.span_cap > 0:  # NaN included; inf admits every bucket
            raise ValueError("span cap must be positive")

    def norm(self) -> NormalizationConfig:
        return NormalizationConfig(self.alpha)


@dataclass
class BucketDecision:
    """One refinement-loop decision, for post-hoc guard audits."""
    interval: Interval
    bound_half: float
    phi_star_before: float
    refined: bool


@dataclass
class DetectionState:
    phi_star: float
    communities: list[TemporalCommunity]
    verdicts: Verdicts
    config: RunConfig
    bucket_log: list[BucketDecision] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)


def _add_candidate(results: dict, cand: TemporalCommunity) -> None:
    if math.isfinite(cand.phi):
        results[(cand.nodes, cand.interval)] = cand


def _fallback_sweep(g: TemporalGraph, cfg: RunConfig,
                    n_seeds: int = 5) -> TemporalCommunity | None:
    """Singleton-seed sweeps from the highest-volume nodes of the fully
    aggregated graph; the estimate of last resort."""
    ag = aggregate(g, g.full_interval())
    order = np.argsort(-ag.volumes, kind="stable")
    seeds = [int(u) for u in order[:n_seeds] if ag.volumes[u] > 0]
    best = None
    for ranking in seed_rankings(ag, seeds, cfg.walk):
        try:
            nodes, _, phi = sweep(ag, ranking, cfg.norm())
        except NoConnectedPrefixError:
            continue
        cand = TemporalCommunity(nodes=nodes, interval=ag.interval, phi=phi)
        if best is None or cand.sort_key() < best.sort_key():
            best = cand
    return best


def fiedler_candidates(g: TemporalGraph, bt: BoundsTable,
                       norm: NormalizationConfig) -> list[TemporalCommunity]:
    """Fiedler-vector sweep cut of every usable precomputed block."""
    out = []
    for iv, res in bt.entries.items():
        if res is None or res.fiedler is None:
            continue
        cand = fiedler_sweep(g, iv, res.fiedler, norm)
        if cand is not None:
            out.append(cand)
    return out


def estimate_initial(g: TemporalGraph, bt: BoundsTable, cfg: RunConfig,
                     ) -> tuple[float, list[TemporalCommunity], list[Interval]]:
    """Probe the precomputed blocks of smallest normalized spectral bound with
    light hashing, and sweep the Fiedler vector of every block; fall back to
    a static sweep when neither yields a community."""
    norm = cfg.norm()
    scored = []
    for iv, res in bt.entries.items():
        if res is None:
            continue
        scored.append((eta(iv, norm) * res.lambda2 / 2.0, iv.start, iv.end, iv))
    scored.sort()
    probes = [item[3] for item in scored[:cfg.probes]]

    # each probe hashes its block widened by one scale on each side; blocks
    # that widen to the same window at the same scale are hashed once
    windows = dict.fromkeys(
        (Interval(max(0, iv.start - scale), min(g.T - 1, iv.end + scale)), scale)
        for iv in probes for scale in [max(1, iv.length)])
    candidates: list[TemporalCommunity] = []
    for window, scale in windows:
        buckets = hash_all(g, [window], scales=[scale], r=ESTIMATE_ROWS,
                           b=ESTIMATE_BANDS, seed=cfg.seed)
        if not buckets:
            continue
        try:
            result = refine_bucket(g, buckets[0], norm, cfg.walk)
        except NoConnectedPrefixError:
            continue
        if math.isfinite(result.community.phi):
            candidates.append(result.community)
    candidates.extend(fiedler_candidates(g, bt, norm))

    if not candidates:
        fb = _fallback_sweep(g, cfg)
        if fb is not None:
            candidates.append(fb)
    if not candidates:
        raise ValueError("no initial estimate could be formed (empty graph?)")
    candidates.sort(key=TemporalCommunity.sort_key)
    return candidates[0].phi, candidates, probes


def sweep_open_intervals(g: TemporalGraph, norm: NormalizationConfig,
                         results: dict | None = None,
                         ) -> Callable[[Interval, EigResult, float], float]:
    """``Pruner.judge`` callback: sweep the Fiedler vector of each interval
    the exact tier leaves open for a community below the incumbent, collect
    it in ``results`` and return its conductance."""
    def on_open(iv: Interval, res: EigResult, phi_star: float) -> float:
        if res.fiedler is None:
            return math.inf
        cand = fiedler_sweep(g, iv, res.fiedler, norm, limit=phi_star)
        if cand is None:
            return math.inf
        if results is not None:
            _add_candidate(results, cand)
        return cand.phi
    return on_open


def detect(g: TemporalGraph, cfg: RunConfig) -> DetectionState:
    """Run the full pipeline and return ranked communities plus verdicts.

    Verdicts are judged against the reported incumbent ``phi_star``.
    """
    norm = cfg.norm()
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    bt = precompute(g, cfg.scale_base, threads=cfg.threads)
    timings["precompute"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    phi_star, initial, probes = estimate_initial(g, bt, cfg)
    timings["estimate"] = time.perf_counter() - t0

    results: dict = {}
    for cand in initial:
        _add_candidate(results, cand)

    t0 = time.perf_counter()
    pruner = Pruner(bt, build_groups(g.T, cfg.beta), norm)
    # a zero-conductance community is globally optimal already: nothing is
    # left to search, and the fresh table, all unpruned, is the verdict
    verdicts = Verdicts(g.T)
    judged = phi_star > 0
    if judged:
        verdicts, phi_star = pruner.judge(
            phi_star, on_open=sweep_open_intervals(g, norm, results))
    timings["prune"] = time.perf_counter() - t0

    bucket_log: list[BucketDecision] = []
    if phi_star > 0:
        open_intervals = verdicts.intervals(verdicts.code == UNPRUNED)
        t0 = time.perf_counter()
        buckets = hash_all(g, open_intervals, scale_ladder(g.T),
                           r=cfg.rows, b=cfg.bands, seed=cfg.seed,
                           min_entries=cfg.min_entries, span_cap=cfg.span_cap)
        timings["hash"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        # first pass: span cap and deduplication; the surviving seedings
        # are grouped by interval, in bucket order
        seedings = []
        groups: dict[Interval, dict] = {}
        for bucket in buckets:
            lo, hi = bucket.span
            # entries spanning far beyond the hashing scale collide by chance,
            # not because a community persists there; skip them (hash_all
            # hashes only intervals within the cap, but entries of two
            # distant ones can still share a bucket)
            if hi - lo + 1 > cfg.span_cap * bucket.key.scale:
                continue
            # refinement depends on a bucket only through its span and
            # seeding, so collapse equivalent buckets across bands
            iv = Interval(lo, hi)
            group = groups.setdefault(iv, {})
            if bucket.seeding in group:
                continue
            seedings.append((iv, len(group)))
            group[bucket.seeding] = None

        # second pass: the bound decides seeding by seeding against the
        # current incumbent. An interval's bound is fixed here and the
        # incumbent only falls, so a seeding is refined only if its
        # interval's first one was: that one refines all of the interval's
        # seedings in one batch, whose result for a seeding is used if that
        # seeding is refined, dropped after the interval's last seeding
        batches: dict[Interval, list] = {}
        for iv, k in seedings:
            bound_half = pruner.half_bound(iv)
            refined = bound_half < phi_star
            bucket_log.append(BucketDecision(iv, bound_half, phi_star, refined))
            if refined and k == 0:
                group = list(groups[iv])
                ag = aggregate(g, iv)
                scores = rwr_scores(ag, [seeds for seeds, _ in group], cfg.walk)
                batches[iv] = refine_seedings(g, ag, group, scores, norm)
            cands = (batches.pop(iv, None) if k == len(groups[iv]) - 1
                     else batches.get(iv))
            if not refined:
                continue
            cand = cands[k]
            if cand is None:
                continue
            _add_candidate(results, cand)
            if cand.phi < phi_star:
                phi_star = cand.phi
        timings["refine"] = time.perf_counter() - t0

    ranked = sorted(results.values(), key=TemporalCommunity.sort_key)[:cfg.topk]
    best_phi = ranked[0].phi if ranked else math.inf
    phi_star = min(phi_star, best_phi)
    if judged:
        # refinement may have lowered the incumbent since the verdicts were
        # judged; pruning is antitone in it, so judge them again
        verdicts, _ = pruner.judge(phi_star)
    at = [i for i in map(verdicts.index, probes) if verdicts.code[i] == UNPRUNED]
    verdicts.code[at] = PROBED
    return DetectionState(phi_star=phi_star, communities=ranked,
                          verdicts=verdicts, config=cfg,
                          bucket_log=bucket_log, timings=timings)

"""Random-walk-with-restart ranking and conductance sweep cuts over seeds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.sparse.linalg import splu

from .graph import (AggregatedGraph, Interval, NormalizationConfig,
                    TemporalCommunity, TemporalGraph, aggregate, conductance, eta)

DEFAULT_RESTART = 0.15
# above this many positive-volume nodes the walk system is factored sparse
DENSE_WALK_MAX_NODES = 2048


class NoConnectedPrefixError(ValueError):
    """A sweep found no connected prefix (below its limit) to cut at."""


@dataclass(frozen=True)
class WalkParams:
    restart: float = DEFAULT_RESTART

    def __post_init__(self):
        if not (0 < self.restart < 1):
            raise ValueError("restart probability must be in (0, 1)")


@dataclass(frozen=True)
class SweepResult:
    community: TemporalCommunity


def rwr_scores(ag: AggregatedGraph, seed_sets: Sequence[Iterable[int]],
               params: WalkParams = WalkParams()) -> np.ndarray:
    """Stationary restart-walk distributions, one column per seed set, each
    with uniform restart mass on its seeds.

    The walk matrix is W = A D^-1 with self-loops on zero-volume nodes, and
    each column solves (I - (1-c) W) x = c r exactly from one LU
    factorization (Tong, Faloutsos and Pan 2006). A zero-volume node has no
    edge, so it keeps its restart mass and the system is factored on the
    positive-volume support only: dense LAPACK up to DENSE_WALK_MAX_NODES
    nodes, SuperLU above.
    """
    # the restart vectors, overwritten on the support by the solution
    scores = np.zeros((ag.n, len(seed_sets)))
    for j, seeds in enumerate(seed_sets):
        seeds = sorted(set(seeds))
        if not seeds:
            raise ValueError("seeds must be nonempty")
        scores[seeds, j] = 1.0 / len(seeds)
    pos = ag.volumes > 0
    m = int(pos.sum())
    if m == 0:
        return scores
    c = params.restart
    # entry (u, v) of (1-c) A D^-1 for both orientations of every edge,
    # indexed by position in the support
    u = np.concatenate([ag.edge_u, ag.edge_v])
    v = np.concatenate([ag.edge_v, ag.edge_u])
    step = (1.0 - c) * np.concatenate([ag.edge_w, ag.edge_w]) / ag.volumes[v]
    at = np.cumsum(pos) - 1
    rhs = c * scores[pos]
    if m <= DENSE_WALK_MAX_NODES:
        system = np.eye(m, order="F")
        system[at[u], at[v]] -= step
        lu = lu_factor(system, overwrite_a=True, check_finite=False)
        scores[pos] = lu_solve(lu, rhs, overwrite_b=True, check_finite=False)
    else:
        system = (sp.identity(m, format="csc")
                  - sp.csc_matrix((step, (at[u], at[v])), shape=(m, m)))
        scores[pos] = splu(system).solve(rhs)
    return scores


def sweep(ag: AggregatedGraph, ranking: Sequence[int],
          cfg: NormalizationConfig,
          limit: float = math.inf) -> tuple[frozenset[int], int, float]:
    """Minimum-conductance connected prefix of the ranking.

    Cut and volume of every prefix come from cumulative sums along the
    ranking, connectivity from ``_connected_prefixes``; disconnected
    prefixes are skipped, not fatal. Ties go to the shorter prefix.
    Returns (nodes, prefix_length, phi); raises NoConnectedPrefixError when
    no connected prefix has phi below ``limit``.
    """
    ranking = np.asarray(ranking, dtype=np.int64)
    if len(ranking) == 0:
        raise ValueError("ranking must be nonempty")
    if np.bincount(ranking).max() > 1:
        raise ValueError("ranking contains duplicates")
    n = ag.n
    steps = min(len(ranking) - 1, n - 1)
    if steps <= 0:
        raise NoConnectedPrefixError("no connected prefix in the ranking")
    order = ranking[:steps]
    # nodes outside the evaluated prefixes rank last
    rank = np.full(n, steps, dtype=np.int64)
    rank[order] = np.arange(steps)
    ra, rb = rank[ag.edge_u], rank[ag.edge_v]
    # an edge is internal to every prefix from the step its later endpoint
    # joins on
    ru, rv = np.minimum(ra, rb), np.maximum(ra, rb)
    inside = rv < steps
    ru, rv = ru[inside], rv[inside]
    inner = np.bincount(rv, weights=ag.edge_w[inside], minlength=steps)
    vols = ag.volumes[order]
    vol_c = np.cumsum(vols)
    cut = np.cumsum(vols - 2.0 * inner)
    denom = np.minimum(vol_c, ag.total_volume - vol_c)
    phi = np.full(steps, math.inf)
    pos = denom > 0
    phi[pos] = eta(ag.interval, cfg) * cut[pos] / denom[pos]
    ok = phi < limit if limit < math.inf else np.ones(steps, dtype=bool)
    # connectivity is checked only when some prefix could qualify
    if ok.any():
        ok &= _connected_prefixes(ru, rv, steps)
    if not ok.any():
        raise NoConnectedPrefixError("no connected prefix in the ranking")
    i = int(np.flatnonzero(ok)[np.argmin(phi[ok])])
    return frozenset(order[:i + 1].tolist()), i + 1, float(phi[i])


def _connected_prefixes(ru: np.ndarray, rv: np.ndarray,
                        steps: int) -> np.ndarray:
    """Whether each prefix of ranks 0..i is connected, for i < steps, given
    the edges (ru, rv) among ranked nodes, ru < rv, once each.

    When every ranked node after the first has an earlier neighbour, every
    prefix is connected, by induction on its length. Otherwise: an edge lies
    inside prefix i from step rv on. Weighted by that step, a minimum
    spanning forest restricted to weights <= i spans the components of
    prefix i (Kruskal), and, having no cycle, connects its i + 1 nodes iff
    it has i edges.
    """
    if np.bincount(rv, minlength=steps)[1:].all():
        return np.ones(steps, dtype=bool)
    joins = sp.csr_matrix((rv + 1.0, (ru, rv)), shape=(steps, steps))
    tree = minimum_spanning_tree(joins)
    within = np.cumsum(np.bincount(tree.data.astype(np.int64) - 1,
                                   minlength=steps))
    return within == np.arange(steps)


def fiedler_sweep(g: TemporalGraph, iv: Interval, fiedler: np.ndarray,
                  cfg: NormalizationConfig,
                  limit: float = math.inf) -> TemporalCommunity | None:
    """Lowest-conductance connected sweep cut of a Fiedler vector on iv.

    Sweeps the positive-volume nodes in ascending and in descending Fiedler
    order, which covers both sides of every cut, and keeps the better of the
    two, shorter prefix on ties. None when neither order has a connected
    prefix below ``limit``.
    """
    ag = aggregate(g, iv)
    support = np.flatnonzero(ag.volumes > 0)
    order = support[np.argsort(fiedler[support], kind="stable")]
    best = None
    for ranking in (order, order[::-1]):
        try:
            nodes, size, phi = sweep(ag, ranking, cfg, limit)
        except NoConnectedPrefixError:
            continue
        if best is None or (phi, size) < best[:2]:
            best = (phi, size, nodes)
    if best is None:
        return None
    nodes = best[2]
    return TemporalCommunity(nodes=nodes, interval=iv,
                             phi=conductance(g, nodes, iv, cfg))


def refine_bucket(g: TemporalGraph, bucket_entries: Sequence[tuple[int, int]],
                  cfg: NormalizationConfig,
                  params: WalkParams = WalkParams(),
                  ag: AggregatedGraph | None = None,
                  scores: np.ndarray | None = None) -> SweepResult:
    """Expand bucket seeds into a community on the bucket's timestamp span.

    Ranking: bucket nodes by within-bucket multiplicity (then walk score,
    then index), followed by all remaining nodes by volume-normalized walk
    score, so the sweep can grow beyond the bucket. A caller refining many
    buckets with the same span may pass in the aggregated graph and, with
    it, the bucket's column of a batched ``rwr_scores``.
    """
    if not bucket_entries:
        raise ValueError("bucket must be nonempty")
    ts = [t for _, t in bucket_entries]
    iv = Interval(min(ts), max(ts))
    if ag is None or ag.interval != iv:
        ag, scores = aggregate(g, iv), None

    seeds, multiplicity = np.unique([u for u, _ in bucket_entries],
                                    return_counts=True)
    if scores is None:
        scores = rwr_scores(ag, [seeds], params)[:, 0]

    bucket_rank = seeds[np.lexsort((seeds, -scores[seeds], -multiplicity))]
    norm = np.zeros(g.n)
    pos = ag.volumes > 0
    norm[pos] = scores[pos] / ag.volumes[pos]
    norm[seeds] = 0.0  # ranked already
    rest = np.flatnonzero(norm > 0)
    rest = rest[np.lexsort((rest, -norm[rest]))]
    ranking = np.concatenate([bucket_rank, rest])

    nodes, _, _ = sweep(ag, ranking, cfg)
    phi = conductance(g, nodes, iv, cfg)
    community = TemporalCommunity(nodes=nodes, interval=iv, phi=phi)
    return SweepResult(community=community)


def seed_rankings(ag: AggregatedGraph, seeds: Sequence[int],
                  params: WalkParams = WalkParams()) -> list[np.ndarray]:
    """One ranking per seed node: the positive-volume nodes by descending
    volume-normalized walk score from that seed alone, then by index. The
    walks of all seeds come from one ``rwr_scores`` call."""
    support = np.flatnonzero(ag.volumes > 0)
    norm = (rwr_scores(ag, [[u] for u in seeds], params)[support]
            / ag.volumes[support][:, None])
    return [support[np.lexsort((support, -norm[:, j]))]
            for j in range(len(seeds))]

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
                    TemporalCommunity, TemporalGraph, aggregate, conductance,
                    conductances, eta)
from .tlsh import Bucket

DEFAULT_RESTART = 0.15
# above this many positive-volume nodes the walk system is factored sparse
DENSE_WALK_MAX_NODES = 2048
# refine_seedings sweeps its rankings in chunks of rows whose per-row work
# arrays (one entry per edge or node) hold about this many entries in all
SWEEP_CHUNK_ELEMENTS = 2 ** 16


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
    """Minimum-conductance connected prefix of the ranking: the one-row call
    of ``sweep_rows``. Disconnected prefixes are skipped, not fatal. Ties go
    to the shorter prefix. Returns (nodes, prefix_length, phi); raises
    NoConnectedPrefixError when no connected prefix has phi below ``limit``.
    """
    ranking = np.asarray(ranking, dtype=np.int64)
    if len(ranking) == 0:
        raise ValueError("ranking must be nonempty")
    if np.bincount(ranking).max() > 1:
        raise ValueError("ranking contains duplicates")
    steps = min(len(ranking) - 1, ag.n - 1)
    if steps <= 0:
        raise NoConnectedPrefixError("no connected prefix in the ranking")
    sizes, phis = sweep_rows(ag, ranking[None, :steps], np.array([steps]), cfg,
                             limit)
    if sizes[0] == 0:
        raise NoConnectedPrefixError("no connected prefix in the ranking")
    return frozenset(ranking[:sizes[0]].tolist()), int(sizes[0]), float(phis[0])


def sweep_rows(ag: AggregatedGraph, order: np.ndarray, steps: np.ndarray,
               cfg: NormalizationConfig,
               limit: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-conductance connected prefix of each row of a block of
    rankings.

    Row j evaluates the prefixes order[j, :i + 1] for i < steps[j]; its
    entries from steps[j] on are padding, nodes that none of those prefixes
    holds, each at most once. Cut and volume of every prefix come from
    cumulative sums along the row, connectivity from a certificate or
    ``_connected_prefixes``. Each row does the arithmetic of a sweep of its
    ranking alone, in the same order. Returns per row the length of the
    first lowest-phi connected prefix below ``limit`` (0 when there is none)
    and its phi.
    """
    rows, width = order.shape
    cols, row, last = np.arange(width), np.arange(rows)[:, None], steps[:, None]
    valid = cols < last
    # a node outside the evaluated prefixes ranks steps[j] or later, which
    # is all the same to them
    rank = last.repeat(ag.n, axis=1)
    rank[row, order] = cols
    # an edge is internal to every prefix from the step its later endpoint
    # joins on; bin j * stride + step gets row j's edges in edge order, and
    # an edge joining at steps[j] or later lands in a bin past its prefixes
    stride = width + 1
    bins = rank.take(ag.edge_u, axis=1)
    np.maximum(bins, rank.take(ag.edge_v, axis=1), out=bins)
    bins += row * stride
    inner = np.bincount(bins.ravel(),
                        weights=ag.edge_w[None].repeat(rows, axis=0).ravel(),
                        minlength=rows * stride).reshape(rows, stride)[:, :width]
    vols = ag.volumes.take(order)
    vol_c = np.cumsum(vols, axis=1)
    cut = np.cumsum(vols - 2.0 * inner, axis=1)
    denom = np.minimum(vol_c, ag.total_volume - vol_c)
    phi = np.full((rows, width), math.inf)
    pos = (denom > 0) & valid
    phi[pos] = eta(ag.interval, cfg) * cut[pos] / denom[pos]
    # phi is inf past steps[j], so a finite limit leaves out the padding
    ok = phi < limit if limit < math.inf else valid
    found = ok.any(axis=1)
    if not found.any():
        return np.zeros(rows, dtype=np.int64), phi[:, 0]
    # connectivity is checked only in rows where some prefix could qualify:
    # every prefix is connected when each ranked node after the first has
    # an earlier neighbour, so that some edge (of positive weight) joins at
    # each step after the first, by induction on its length
    certified = ((inner > 0) & valid).sum(axis=1) == steps - 1
    for j in np.flatnonzero(found & ~certified):
        s = steps[j]
        rv = bins[j] - j * stride
        inside = rv < s
        ru = np.minimum(rank[j].take(ag.edge_u), rank[j].take(ag.edge_v))
        ok[j, :s] &= _connected_prefixes(ru[inside], rv[inside], s)
        found[j] = ok[j].any()
    # the first lowest phi among the qualifying prefixes; a finite limit
    # admits no inf phi, and without one the one-node prefix qualifies, so
    # when every qualifying phi is inf the first of them is at 0
    key = np.where(ok, phi, math.inf)
    at = key.argmin(axis=1)
    return (at + 1) * found, key.min(axis=1)


def _connected_prefixes(ru: np.ndarray, rv: np.ndarray,
                        steps: int) -> np.ndarray:
    """Whether each prefix of ranks 0..i is connected, for i < steps, given
    the edges (ru, rv) among ranked nodes, ru < rv, once each.

    An edge lies inside prefix i from step rv on. Weighted by that step, a
    minimum spanning forest restricted to weights <= i spans the components
    of prefix i (Kruskal), and, having no cycle, connects its i + 1 nodes
    iff it has i edges.
    """
    # the CSR arrays directly: the edges are unique, so the COO -> CSR
    # conversion's duplicate sum has nothing to do
    at = np.argsort(ru, kind="stable")
    indptr = np.zeros(steps + 1, dtype=np.int64)
    np.cumsum(np.bincount(ru, minlength=steps), out=indptr[1:])
    joins = sp.csr_matrix((rv[at] + 1.0, rv[at], indptr), shape=(steps, steps))
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
    steps = len(order) - 1
    if steps <= 0:
        return None
    sizes, phis = sweep_rows(ag, np.stack([order, order[::-1]])[:, :steps],
                             np.array([steps, steps]), cfg, limit)
    found = [(phis[j], sizes[j], j) for j in (0, 1) if sizes[j]]
    if not found:
        return None
    _, size, j = min(found)
    nodes = frozenset((order if j == 0 else order[::-1])[:size].tolist())
    return TemporalCommunity(nodes=nodes, interval=iv,
                             phi=conductance(g, nodes, iv, cfg))


def refine_bucket(g: TemporalGraph, bucket: Bucket, cfg: NormalizationConfig,
                  params: WalkParams = WalkParams()) -> SweepResult:
    """Expand a bucket's seeding into a community on the bucket's span: the
    one-bucket case of ``refine_seedings``."""
    ag = aggregate(g, Interval(*bucket.span))
    seeding = bucket.seeding
    (community,) = refine_seedings(g, ag, [seeding],
                                   rwr_scores(ag, [seeding[0]], params), cfg)
    if community is None:
        raise NoConnectedPrefixError("no connected prefix in the ranking")
    return SweepResult(community=community)


def refine_seedings(g: TemporalGraph, ag: AggregatedGraph,
                    seedings: Sequence[tuple[Sequence[int], Sequence[int]]],
                    scores: np.ndarray, cfg: NormalizationConfig,
                    ) -> list[TemporalCommunity | None]:
    """Expand each seeding on ag's interval into a community, or None when
    its sweep finds no connected prefix.

    A seeding is (seeds, multiplicities), seeds ascending and unique, and
    column j of ``scores`` is its restart walk. Ranking: the seeds by
    multiplicity (then walk score, then index), followed by every other node
    of positive volume-normalized walk score by that score (then index), so
    the sweep can grow beyond the bucket. One lexsort ranks a chunk of
    seedings, one ``sweep_rows`` sweeps it, and one interval edge sum gives
    its chosen sets' conductances; chunks keep each work array near
    SWEEP_CHUNK_ELEMENTS entries.
    """
    n = g.n
    vols = ag.volumes[:, None]
    norm = np.divide(scores, vols, out=np.zeros_like(scores), where=vols > 0)
    chunk = max(1, SWEEP_CHUNK_ELEMENTS // max(len(ag.edge_w), n + 1))
    out: list[TemporalCommunity | None] = []
    for lo in range(0, len(seedings), chunk):
        part = seedings[lo:lo + chunk]
        rows = len(part)
        seeds = np.concatenate([seeds for seeds, _ in part])
        row = np.repeat(np.arange(rows), [len(seeds) for seeds, _ in part])
        # one sort key per (row, node), most significant last: seeds, then
        # nodes of positive normalized score, then the rest, which no row
        # ranks; seeds by -multiplicity, then -score, the others by -norm;
        # ties keep node order
        key = -norm[:, lo:lo + rows].T
        group = np.where(key < 0, 1, 2).astype(np.int8)
        group[row, seeds] = 0
        key[row, seeds] = -np.concatenate([mult for _, mult in part])
        score_key = np.zeros((rows, n))
        score_key[row, seeds] = -scores[seeds, lo + row]
        order = np.lexsort((score_key, key, group))
        # the last ranked node of a row ends no evaluated prefix
        steps = (group < 2).sum(axis=1) - 1
        order = order[:, :max(1, steps.max())]
        sizes, _ = sweep_rows(ag, order, steps, cfg)
        members = np.zeros((rows, n), dtype=bool)
        members[np.arange(rows)[:, None], order] = \
            np.arange(order.shape[1]) < sizes[:, None]
        phis = conductances(g, members, ag.interval, cfg)
        out.extend(TemporalCommunity(nodes=frozenset(order[j, :size].tolist()),
                                     interval=ag.interval, phi=phis[j])
                   if size else None for j, size in enumerate(sizes))
    return out


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

"""Temporal graph data model, interval aggregation and temporal conductance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

INFINITE_CONDUCTANCE = math.inf


class GraphFormatError(ValueError):
    """Raised for malformed temporal edge-list input."""


class _IntervalBase(NamedTuple):
    start: int
    end: int


class Interval(_IntervalBase):
    """Closed timestamp interval [start, end]."""

    __slots__ = ()

    def __new__(cls, start: int, end: int):
        if not 0 <= start <= end:
            raise ValueError(f"invalid interval [{start}, {end}]")
        return tuple.__new__(cls, (start, end))

    @property
    def length(self) -> int:
        """Number of timestamps covered (duration)."""
        return self.end - self.start + 1

    @property
    def span(self) -> int:
        """end - start."""
        return self.end - self.start


@dataclass(frozen=True)
class NormalizationConfig:
    """Power-law duration normalization with a finite exponent alpha >= 0."""

    alpha: float = 0.0

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:  # NaN included
            raise ValueError("alpha must be finite and non-negative")


def eta(iv: Interval, cfg: NormalizationConfig) -> float:
    """Duration normalization factor max(1, span)**(-alpha).

    The max(1, .) keeps single-timestamp intervals (span 0) finite; for all
    multi-step intervals this is the plain power law.
    """
    if cfg.alpha == 0.0:
        return 1.0
    return float(max(1, iv.span)) ** (-cfg.alpha)


class TemporalGraph:
    """Immutable undirected edge-weighted temporal graph.

    Edges are canonical pairs (u < v) over dense node ids 0..n-1; weights are
    stored per (edge, timestamp) in a dense column-major (m, T) array with 0
    meaning "no interaction", so each snapshot is contiguous. External node
    labels are kept for output.
    """

    def __init__(self, labels: Sequence[str], timeline: int,
                 edge_u: np.ndarray, edge_v: np.ndarray, weights: np.ndarray):
        n = len(labels)
        if timeline < 1:
            raise ValueError("timeline length must be >= 1")
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        weights = np.asfortranarray(weights, dtype=np.float64)
        if weights.shape != (len(edge_u), timeline):
            raise ValueError("weights must have shape (n_edges, T)")
        if np.any(edge_u >= edge_v):
            raise ValueError("edges must be canonical pairs with u < v")
        if len(edge_u) and (edge_u.min() < 0 or edge_v.max() >= n):
            raise ValueError("edge endpoint out of range")
        if np.any(weights < 0):
            raise ValueError("negative weights are not allowed")
        # load's rule, checked there per line: every merged weight,
        # aggregate and volume is at most twice the total, so a finite
        # doubled total keeps the solvers finite
        with np.errstate(over="ignore"):
            total = float(weights.sum())
        if not math.isfinite(2.0 * total):
            raise GraphFormatError(
                "weights take the total volume past the float range")

        self.labels = tuple(str(x) for x in labels)
        self.n = n
        self.T = timeline
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.weights = weights
        for arr in (self.edge_u, self.edge_v, self.weights):
            arr.setflags(write=False)

    @property
    def n_edges(self) -> int:
        return len(self.edge_u)

    @classmethod
    def from_records(cls, labels: Sequence[str], timeline: int,
                     records: Iterable[tuple[int, int, int, float]]) -> "TemporalGraph":
        """Build from (u, v, t, w) records over dense node ids.

        Duplicate (u, v, t) records are merged by summing weights.
        """
        n = len(labels)
        records = list(records)
        for u, v, t, w in records:
            if u == v:
                raise GraphFormatError(f"self-loop on node {labels[u]!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"node id out of range: ({u}, {v})")
            if not (0 <= t < timeline):
                raise GraphFormatError(
                    f"timestamp {t} outside declared timeline [0, {timeline - 1}]")
            if not (w > 0):
                raise GraphFormatError(f"non-positive weight {w}")
        u, v, t, w = zip(*records) if records else ((),) * 4
        return _from_columns(labels, timeline, u, v, t, w)

    def interval_edge_weights(self, iv: Interval) -> np.ndarray:
        """Aggregate weight per edge over [iv.start, iv.end].

        A direct sum of nonnegative terms, so it cannot cancel: its relative
        error is at most about iv.length * eps at every timeline length.
        """
        self._check_interval(iv)
        return self.weights[:, iv.start:iv.end + 1].sum(axis=1)

    def _check_interval(self, iv: Interval) -> None:
        if iv.end >= self.T:
            raise ValueError(f"interval {iv} exceeds timeline length {self.T}")

    def full_interval(self) -> Interval:
        return Interval(0, self.T - 1)


def _from_columns(labels: Sequence[str], timeline: int, u, v, t,
                  w) -> TemporalGraph:
    """The graph of checked (u, v, t, w) records as four columns: edges in
    (min, max) order, ascending; duplicates summed from 0.0 in record order."""
    n = len(labels)
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    pairs, edge = np.unique(np.minimum(u, v) * n + np.maximum(u, v),
                            return_inverse=True)
    weights = np.zeros((len(pairs), timeline), order="F")
    np.add.at(weights, (edge, np.asarray(t, dtype=np.int64)),
              np.asarray(w, dtype=np.float64))
    return TemporalGraph(labels, timeline, *np.divmod(pairs, n), weights)


@dataclass(frozen=True)
class AggregatedGraph:
    """Interval-aggregated weighted graph: each edge of positive aggregate
    weight once, as (edge_u, edge_v, edge_w), with cached node volumes. The
    symmetric sparse adjacency is built on first use."""

    interval: Interval
    n: int
    edge_u: np.ndarray = field(compare=False)
    edge_v: np.ndarray = field(compare=False)
    edge_w: np.ndarray = field(compare=False)
    volumes: np.ndarray = field(compare=False)

    @property
    def total_volume(self) -> float:
        return float(self.volumes.sum())

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        u, v, w = self.edge_u, self.edge_v, self.edge_w
        return sp.csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([u, v]),
                                      np.concatenate([v, u]))),
            shape=(self.n, self.n))


def aggregate(g: TemporalGraph, iv: Interval) -> AggregatedGraph:
    """Aggregate edge weights over iv; edges with zero aggregate are dropped."""
    s = g.interval_edge_weights(iv)
    keep = s > 0
    u, v, w = g.edge_u[keep], g.edge_v[keep], s[keep]
    # float even with no edge, where a weighted bincount is integer
    volumes = (np.bincount(u, weights=w, minlength=g.n)
               + np.bincount(v, weights=w, minlength=g.n)).astype(np.float64)
    volumes.setflags(write=False)
    return AggregatedGraph(interval=iv, n=g.n, edge_u=u, edge_v=v, edge_w=w,
                           volumes=volumes)


def dense_adjacency(g: TemporalGraph, iv: Interval) -> np.ndarray:
    """Interval-aggregated weights as a dense symmetric (n, n) array."""
    s = g.interval_edge_weights(iv)
    adj = np.zeros((g.n, g.n))
    adj[g.edge_u, g.edge_v] = s
    adj[g.edge_v, g.edge_u] = s
    return adj


@dataclass(frozen=True)
class TemporalCommunity:
    """A node set with its activity interval and temporal conductance."""

    nodes: frozenset[int]
    interval: Interval
    phi: float

    def sort_key(self):
        """Deterministic ranking key: (phi, |C|, nodes, interval)."""
        return (self.phi, len(self.nodes), tuple(sorted(self.nodes)),
                self.interval.start, self.interval.end)


def conductance(g: TemporalGraph, c: Iterable[int], iv: Interval,
                cfg: NormalizationConfig) -> float:
    """Temporal conductance eta * cut / min(vol(C), vol(complement)).

    A zero min-volume yields the infinite sentinel (worst possible) so search
    code can skip such sets without special-casing.
    """
    members = np.zeros((1, g.n), dtype=bool)
    idx = np.fromiter(c, dtype=np.int64)
    if len(idx) == 0 or len(np.unique(idx)) >= g.n:
        raise ValueError("C must be a nonempty proper subset of V")
    members[0, idx] = True
    return conductances(g, members, iv, cfg)[0]


def conductances(g: TemporalGraph, members: np.ndarray, iv: Interval,
                 cfg: NormalizationConfig) -> list[float]:
    """``conductance`` of each row of a boolean (sets, n) membership matrix,
    from one interval edge sum; each row sums its own terms in edge order."""
    s = g.interval_edge_weights(iv)
    total = 2.0 * float(s.sum())
    scale = eta(iv, cfg)
    out, node_vols = [], None
    for row, in_u, in_v in zip(members, members.take(g.edge_u, axis=1),
                               members.take(g.edge_v, axis=1)):
        cut = float(s[in_u != in_v].sum())
        denom = vol_c = float(s[in_u].sum() + s[in_v].sum())
        if vol_c > total - vol_c:
            # the complement's volume is summed over its nodes: as
            # total - vol_c it cancels when it is tiny beside the total
            if node_vols is None:
                node_vols = (np.bincount(g.edge_u, weights=s, minlength=g.n)
                             + np.bincount(g.edge_v, weights=s, minlength=g.n))
            denom = float(node_vols[~row].sum())
        out.append(INFINITE_CONDUCTANCE if denom <= 0 else scale * cut / denom)
    return out


def load(path) -> TemporalGraph:
    """Parse the temporal edge-list text format.

    First non-comment line: ``tgraph <n_nodes> <T>``; then one record per
    line ``<u> <v> <t> <w>``. ``#`` starts a comment. Node tokens are opaque
    strings mapped to dense ids in order of first appearance; ids for labels
    never seen in records are still allocated up to the declared node count.
    """
    header = None
    us, vs, ts, ws = [], [], [], []
    total = 0.0
    labels: list[str] = []
    index: dict[str, int] = {}

    def node_id(tok: str, lineno: int, limit: int) -> int:
        if tok not in index:
            if len(labels) >= limit:
                raise GraphFormatError(
                    f"line {lineno}: more node labels than declared ({limit})")
            index[tok] = len(labels)
            labels.append(tok)
        return index[tok]

    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if header is None:
                    if len(parts) != 3 or parts[0] != "tgraph":
                        raise GraphFormatError(
                            f"line {lineno}: expected header 'tgraph <n_nodes> <T>'")
                    try:
                        header = (int(parts[1]), int(parts[2]))
                    except ValueError as exc:
                        raise GraphFormatError(f"line {lineno}: bad header counts") from exc
                    if header[0] < 1 or header[1] < 1:
                        raise GraphFormatError(f"line {lineno}: counts must be positive")
                    continue
                if len(parts) != 4:
                    raise GraphFormatError(
                        f"line {lineno}: expected '<u> <v> <t> <w>', got {line!r}")
                n_nodes, timeline = header
                try:
                    t = int(parts[2])
                    w = float(parts[3])
                except ValueError as exc:
                    raise GraphFormatError(f"line {lineno}: bad timestamp or weight") from exc
                if parts[0] == parts[1]:
                    raise GraphFormatError(f"line {lineno}: self-loop on {parts[0]!r}")
                if not (0 <= t < timeline):
                    raise GraphFormatError(
                        f"line {lineno}: timestamp {t} outside [0, {timeline - 1}]")
                if not (w > 0):
                    raise GraphFormatError(f"line {lineno}: non-positive weight {w}")
                # TemporalGraph's rule on the doubled total, here per line
                total += w
                if math.isinf(2.0 * total):
                    raise GraphFormatError(
                        f"line {lineno}: weight {parts[3]} takes the total "
                        "volume past the float range")
                us.append(node_id(parts[0], lineno, n_nodes))
                vs.append(node_id(parts[1], lineno, n_nodes))
                ts.append(t)
                ws.append(w)
    except UnicodeDecodeError as exc:
        # a second read, only on failure, finds the line of the first
        # undecodable byte, which surrogateescape maps to U+DC80..U+DCFF
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            lineno = next(i for i, raw in enumerate(fh, start=1)
                          if any("\udc80" <= c <= "\udcff" for c in raw))
        raise GraphFormatError(f"line {lineno}: not valid UTF-8") from exc

    if header is None:
        raise GraphFormatError("missing 'tgraph' header line")
    n_nodes, timeline = header
    filler = 0
    while len(labels) < n_nodes:
        while str(filler) in index:
            filler += 1
        index[str(filler)] = len(labels)
        labels.append(str(filler))
    # the checks above cover what from_records checks, and every id is below
    # the declared node count
    return _from_columns(labels, timeline, us, vs, ts, ws)

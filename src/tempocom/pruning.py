"""Multi-scale eigenvalue precomputation, composite/group lower bounds, pruning."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from copy import deepcopy
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .graph import Interval, NormalizationConfig, TemporalGraph, aggregate, eta
from .spectral import EigResult, EigenSolveError, interval_lambda2

STATUS_GROUP_PRUNED = "group-pruned"
STATUS_COMPOSITE_PRUNED = "composite-pruned"
STATUS_EXACT_PRUNED = "exact-pruned"
STATUS_UNPRUNED = "unpruned"
# no verdict has it; the benchmark's tracer (perfbench/tracing.py) counts it
STATUS_PROBED = "probed"

PRUNED_STATUSES = frozenset({STATUS_GROUP_PRUNED, STATUS_COMPOSITE_PRUNED,
                             STATUS_EXACT_PRUNED})
# a verdict's status is stored as its index in STATUSES
STATUSES = (STATUS_UNPRUNED, STATUS_GROUP_PRUNED, STATUS_COMPOSITE_PRUNED,
            STATUS_EXACT_PRUNED)
UNPRUNED, GROUP_PRUNED, COMPOSITE_PRUNED, EXACT_PRUNED = range(4)


@dataclass(frozen=True)
class PruningGroup:
    """Intervals [start, t*] for t* in [prefix_end, group_end], sharing the
    prefix [start, prefix_end]."""

    start: int
    prefix_end: int
    group_end: int

    def members(self):
        return [Interval(self.start, t) for t in range(self.prefix_end, self.group_end + 1)]


class PruneVerdict(NamedTuple):
    interval: Interval
    status: str
    bound_value: float


class Verdicts:
    """A status code and a halved bound for every interval of a T-step
    timeline, in (start, end) order, the order of np.triu_indices(T). A fresh
    table is all unpruned with bound 0. Iterating it yields PruneVerdicts."""

    def __init__(self, T: int):
        self.T = T
        self.code = np.zeros(T * (T + 1) // 2, dtype=np.int8)
        self.bound = np.zeros(len(self.code))

    def index(self, iv: Interval) -> int:
        """Position of iv in the table."""
        return self.position(iv.start, iv.end)

    def position(self, start, end):
        """Position of [start, end] in the table; takes arrays too."""
        return start * self.T - start * (start - 1) // 2 + end - start

    def intervals(self, at: np.ndarray) -> list[Interval]:
        starts, ends = np.triu_indices(self.T)
        return [Interval(s, e) for s, e in
                zip(starts[at].tolist(), ends[at].tolist())]

    def __len__(self) -> int:
        return len(self.code)

    def __iter__(self):
        for iv, c, b in zip(self.intervals(slice(None)), self.code.tolist(),
                            self.bound.tolist()):
            yield PruneVerdict(iv, STATUSES[c], b)


def _levels(T: int, base: int) -> list[int]:
    """Block lengths base**i for i = 0 .. ceil(log_base(T))."""
    top = max(0, math.ceil(math.log(T, base))) if T > 1 else 0
    return [base ** i for i in range(top + 1)]


# bounds are assembled for at most this many (interval, node) cells at a time
CHUNK_CELLS = 1 << 18


class BoundsTable:
    """Precomputed lambda2 at exponentially scaled aligned blocks, and the
    canonical decomposition of any interval into them.

    The aligned blocks are the rows of one table (at most 2T, with a zero
    padding row last), filled with each block's node volumes and lambda2 on
    the first bound asked for.
    """

    def __init__(self, g: TemporalGraph, scale_base: int,
                 entries: dict[Interval, Optional[EigResult]]):
        self.g = g
        self.T = T = g.T
        self.entries = entries
        lengths = _levels(T, scale_base)
        rows: dict[Interval, int] = {}
        # the row of the level-i block at an aligned position, and whether
        # the decomposition may take it: a missing or unusable entry splits
        # finer, and level-0 blocks always fit
        self._row_at = np.zeros((len(lengths), T), dtype=np.int64)
        self._usable = np.zeros((len(lengths), T), dtype=bool)
        # the highest level aligned at each position, and the highest level
        # no longer than each length 0..T
        self._aligned = np.zeros(T, dtype=np.int64)
        for lev, length in enumerate(lengths):
            for pos in range(0, T, length):
                block = Interval(pos, min(pos + length, T) - 1)
                self._row_at[lev, pos] = rows.setdefault(block, len(rows))
                self._usable[lev, pos] = length == 1 or \
                    entries.get(block) is not None
            self._aligned[::length] = lev
        self._fits = np.searchsorted(lengths, np.arange(T + 1),
                                     side="right") - 1
        self.blocks = list(rows)
        self._block_ends = np.array([b.end for b in self.blocks] + [-1])

    @cached_property
    def _block_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Node volumes (rows, n) and lambda2 (rows,) of every block, the
        padding row 0; lambda2 is 0 for unusable entries, a vacuous but sound
        contribution."""
        vols = np.zeros((len(self.blocks) + 1, self.g.n))
        lams = np.zeros(len(self.blocks) + 1)
        for i, block in enumerate(self.blocks):
            vols[i] = aggregate(self.g, block).volumes
            res = self.entries.get(block)
            lams[i] = 0.0 if res is None else res.lambda2
        return vols, lams

    def decomposition(self, starts: np.ndarray, ends: np.ndarray,
                      ) -> list[np.ndarray]:
        """Canonical decomposition of each [starts[i], ends[i]]: greedily
        take the largest aligned usable block fitting in the remainder. One
        array of block rows per block position, the padding row where an
        interval has fewer blocks; <= 2(l-1)*ceil(log_l T) positions."""
        top = len(self._row_at) - 1
        pos = np.array(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        # any level fits at the timeline's end, where blocks are truncated
        cap = np.where(ends == self.T - 1, top, -1)
        out = []
        while True:
            live = pos <= ends
            if not live.any():
                return out
            pos = np.where(live, pos, 0)
            lev = np.minimum(self._aligned[pos], np.maximum(
                cap, self._fits[np.maximum(ends - pos + 1, 0)]))
            # a lower level stays aligned and fits
            bad = ~self._usable[lev, pos]
            while bad.any():
                lev[bad] -= 1
                bad = ~self._usable[lev, pos]
            rows = np.where(live, self._row_at[lev, pos], len(self.blocks))
            out.append(rows)
            pos = np.where(live, self._block_ends[rows] + 1, self.T)

    def decompose(self, iv: Interval) -> tuple[Interval, ...]:
        """The canonical decomposition of one interval, as its blocks."""
        return tuple(self.blocks[r[0]]
                     for r in self.decomposition([iv.start], [iv.end]))

    def lambda2_sums(self, starts, block_ends, vol_ends=None) -> np.ndarray:
        """For each i, the sum over the blocks of [starts[i], block_ends[i]]
        of the block's lambda2 times its min node-volume ratio against
        [starts[i], vol_ends[i]] (default block_ends[i]), over the nodes of
        positive volume there, in decomposition order; 0 with no such node.
        Without vol_ends this is a lower bound on lambda2 of the interval's
        aggregated graph on its positive-volume support: a node of zero
        interval volume has zero block volume too, so leaving it out of the
        min is exact, not just conservative. Volumes add up in decomposition
        order: nonnegative terms, so no volume cancels and none is below a
        block's. Each interval does the float operations of a loop over its
        own blocks, in chunks of at most CHUNK_CELLS (interval, node)
        cells."""
        step = max(1, CHUNK_CELLS // max(self.g.n, 1))
        return np.concatenate([np.zeros(0)] + [
            self._lambda2_sums(starts[i:i + step], block_ends[i:i + step],
                               None if vol_ends is None
                               else vol_ends[i:i + step])
            for i in range(0, len(starts), step)])

    def _lambda2_sums(self, starts, block_ends, vol_ends) -> np.ndarray:
        vols, lams = self._block_values
        blocks = self.decomposition(starts, block_ends)
        parts = blocks if vol_ends is None else \
            self.decomposition(starts, vol_ends)
        vol = vols[parts[0]]
        for rows in parts[1:]:
            vol += vols[rows]
        active = vol > 0
        total = np.zeros(len(starts))
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / vol
            for rows in blocks:
                lam = lams[rows]
                ratio = np.where(active, vols[rows] * inv, np.inf).min(axis=1)
                total += np.where(lam <= 0.0, 0.0, ratio * lam)
        total[~active.any(axis=1)] = 0.0
        return total


def precompute(g: TemporalGraph, l: int = 2, threads: int = 1) -> BoundsTable:
    """Eigensolve all aligned blocks at scales l**i (O(T) solves total).

    Blocks whose eigensolve fails are kept as unusable entries; composite
    bounds route around them by splitting finer.
    """
    if l < 2:
        raise ValueError("scale base must be >= 2")
    blocks: list[Interval] = []
    seen = set()
    for length in _levels(g.T, l):
        for start in range(0, g.T, length):
            block = Interval(start, min(start + length, g.T) - 1)
            if block not in seen:
                seen.add(block)
                blocks.append(block)

    def solve(block: Interval) -> Optional[EigResult]:
        try:
            return interval_lambda2(g, block)
        except EigenSolveError:
            return None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(solve, blocks))
    else:
        results = [solve(b) for b in blocks]
    return BoundsTable(g, l, dict(zip(blocks, results)))


def _etas(T: int, cfg: NormalizationConfig) -> np.ndarray:
    """eta of an interval, indexed by its span."""
    return np.array([eta(Interval(0, span), cfg) for span in range(T)])


def composite_bounds(bt: BoundsTable, starts: np.ndarray, ends: np.ndarray,
                     cfg: NormalizationConfig) -> np.ndarray:
    """eta times the composite lambda2 bound of each [starts[i], ends[i]]."""
    starts, ends = np.asarray(starts), np.asarray(ends)
    return _etas(bt.T, cfg)[ends - starts] * bt.lambda2_sums(starts, ends)


def build_groups(T: int, beta: float) -> list[PruningGroup]:
    """Geometric ladder of shared-prefix groups per start time.

    Members of one group are the intervals [t, t*] with span between the
    prefix span and the group span; spans grow by roughly 1/beta between
    groups, so there are O(log_{1/beta} T) groups per start. Span-0 intervals
    are not grouped (they are precomputed level-0 blocks).
    """
    if not (0 < beta < 1):
        raise ValueError("beta must be in (0, 1)")
    groups: list[PruningGroup] = []
    for t in range(T):
        s = 1
        while t + s <= T - 1:
            widest = max(s, math.floor(s / beta) - 1)
            end_span = min(widest, T - 1 - t)
            groups.append(PruningGroup(t, t + s, t + end_span))
            s = end_span + 1
    return groups


def group_bounds(bt: BoundsTable, starts: np.ndarray, prefix_ends: np.ndarray,
                 group_ends: np.ndarray,
                 cfg: NormalizationConfig) -> np.ndarray:
    """Bound shared by every member [t, t*], t* in [prefix_end, group_end],
    of each group: prefix blocks in the numerator, whole-group volumes in the
    denominator, and the whole-group eta."""
    starts, group_ends = np.asarray(starts), np.asarray(group_ends)
    return _etas(bt.T, cfg)[group_ends - starts] * bt.lambda2_sums(
        starts, np.asarray(prefix_ends), group_ends)


def _half(x):
    # all pruning comparisons fold in the Cheeger 1/2 so the bounds stay
    # sound against actual conductance values
    return x / 2.0


def prune_all(bt: BoundsTable, groups: list[PruningGroup], phi_star: float,
              cfg: NormalizationConfig, use_groups: bool = True) -> Verdicts:
    """Verdict for every interval: group test first, survivors tested with
    their own composite bound. Comparisons are strict so an interval whose
    bound exactly equals the incumbent (possible when the spectral bound is
    tight) is never discarded. Monotone in phi_star."""
    if not (phi_star > 0) or math.isinf(phi_star):
        raise ValueError("phi_star must be a finite positive incumbent conductance")
    out = Verdicts(bt.T)
    grouped = np.zeros(len(out), dtype=bool)
    if use_groups and groups:
        start, prefix_end, group_end = np.array(
            [(grp.start, grp.prefix_end, grp.group_end) for grp in groups]).T
        gb = _half(group_bounds(bt, start, prefix_end, group_end, cfg))
        hit = np.flatnonzero(gb > phi_star)
        # a group's members [start, end] sit side by side in the table
        size = group_end[hit] - prefix_end[hit] + 1
        first = out.position(start[hit], prefix_end[hit])
        at = np.repeat(first - np.cumsum(size) + size, size) + \
            np.arange(size.sum())
        out.bound[at], grouped[at] = np.repeat(gb[hit], size), True
    # single timestamps, which no group holds, and members of groups that
    # do not prune
    rest = np.flatnonzero(~grouped)
    starts, ends = np.triu_indices(bt.T)
    out.bound[rest] = _half(composite_bounds(bt, starts[rest], ends[rest],
                                             cfg))
    out.code[out.bound > phi_star] = COMPOSITE_PRUNED
    out.code[grouped] = GROUP_PRUNED
    return out


class Pruner:
    """The pruning entry point: a verdict for every interval from three tiers
    of lower bounds, cheapest first. Group and composite bounds (prune_all)
    come from the precomputed blocks; the exact tier is eta * lambda2 / 2 of
    the interval's own aggregated graph, one eigensolve per interval the
    other tiers leave open, solved lazily and cached.

    No bound depends on the incumbent, and pruning is antitone in it, so
    judging again against a lower incumbent re-solves nothing.
    """

    def __init__(self, bt: BoundsTable, groups: list[PruningGroup],
                 cfg: NormalizationConfig):
        self.bt = bt
        self.groups = groups
        self.cfg = cfg
        # the precomputed blocks are intervals solved already
        self.exact: dict[Interval, float] = {
            iv: self._exact_half(iv, res) for iv, res in bt.entries.items()
            if res is not None}
        self._base: Verdicts | None = None
        self._base_phi = math.inf

    def _exact_half(self, iv: Interval, res: EigResult) -> float:
        return _half(eta(iv, self.cfg) * res.lambda2)

    def _solve(self, iv: Interval) -> Optional[EigResult]:
        """Exact tier for one interval; caches its halved bound. A failed
        solve gets the vacuous bound 0."""
        try:
            res = interval_lambda2(self.bt.g, iv)
        except EigenSolveError:
            self.exact[iv] = 0.0
            return None
        self.exact[iv] = self._exact_half(iv, res)
        return res

    def exact_bound(self, iv: Interval) -> float:
        if iv not in self.exact:
            self._solve(iv)
        return self.exact[iv]

    def half_bound(self, iv: Interval) -> float:
        """Best known halved lower bound on any conductance within iv, from
        the last judgement's tiers; no new solve."""
        base = self._base.bound[self._base.index(iv)].item()
        return max(base, self.exact.get(iv, -math.inf))

    def judge(self, phi_star: float,
              on_open: Callable[[Interval, EigResult, float], float] | None = None,
              ) -> tuple[Verdicts, float]:
        """Verdicts for every interval against the incumbent, which is
        returned with them.

        Intervals the cheaper tiers leave open are solved in order of their
        composite bound, lowest first. ``on_open(iv, res, phi_star)`` is called
        on each fresh solve that does not prune its interval and returns the
        conductance of a community it found there (inf if none); a lower one
        becomes the incumbent. Every verdict is judged against the final
        incumbent.
        """
        if self._base is None or phi_star > self._base_phi:
            self._base = prune_all(self.bt, self.groups, phi_star, self.cfg)
            self._base_phi = phi_star
        out = deepcopy(self._base)
        pending = np.flatnonzero(out.code == UNPRUNED)
        pending = pending[np.argsort(out.bound[pending], kind="stable")]
        cb, ivs = out.bound[pending], out.intervals(pending)
        for bound, iv in zip(cb.tolist(), ivs):
            if bound > phi_star or iv in self.exact:
                continue
            res = self._solve(iv)
            # a community inside iv has conductance >= the exact bound, so
            # only intervals the exact tier leaves open can improve on phi_star
            if on_open is not None and res is not None \
                    and self.exact[iv] <= phi_star:
                phi_star = min(phi_star, on_open(iv, res, phi_star))
        # the incumbent only fell, so every interval left open by the
        # composite bound has been solved
        eb = np.array([self.exact.get(iv, -math.inf) for iv in ivs])
        composite = cb > phi_star
        out.code[pending[composite]] = COMPOSITE_PRUNED
        out.code[pending[~composite & (eb > phi_star)]] = EXACT_PRUNED
        out.bound[pending] = np.where(composite, cb, np.fmax(cb, eb))
        return out, phi_star

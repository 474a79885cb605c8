"""Multi-scale eigenvalue precomputation, composite/group lower bounds, pruning."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from copy import deepcopy
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .graph import Interval, NormalizationConfig, TemporalGraph, aggregate, eta
from .spectral import EigResult, EigenSolveError, interval_lambda2

STATUS_GROUP_PRUNED = "group-pruned"
STATUS_COMPOSITE_PRUNED = "composite-pruned"
STATUS_EXACT_PRUNED = "exact-pruned"
STATUS_UNPRUNED = "unpruned"
STATUS_PROBED = "probed"

PRUNED_STATUSES = frozenset({STATUS_GROUP_PRUNED, STATUS_COMPOSITE_PRUNED,
                             STATUS_EXACT_PRUNED})
# a verdict's status is stored as its index in STATUSES
STATUSES = (STATUS_UNPRUNED, STATUS_GROUP_PRUNED, STATUS_COMPOSITE_PRUNED,
            STATUS_EXACT_PRUNED, STATUS_PROBED)
UNPRUNED, GROUP_PRUNED, COMPOSITE_PRUNED, EXACT_PRUNED, PROBED = range(5)


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
        return iv.start * self.T - iv.start * (iv.start - 1) // 2 + iv.span

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


class BoundsTable:
    """Precomputed lambda2 at exponentially scaled aligned blocks, plus node
    volumes of any interval as the sum of its blocks' volumes."""

    def __init__(self, g: TemporalGraph, scale_base: int,
                 entries: dict[Interval, Optional[EigResult]]):
        self.g = g
        self.T = g.T
        self.entries = entries
        self._lengths_desc = sorted(_levels(g.T, scale_base), reverse=True)
        self._decomp_cache: dict[Interval, tuple[Interval, ...]] = {}
        self._block_vol_cache: dict[Interval, np.ndarray] = {}

    def block_volumes(self, block: Interval) -> np.ndarray:
        """Node volumes of a decomposition block, cached (at most 2T
        distinct blocks)."""
        vols = self._block_vol_cache.get(block)
        if vols is None:
            vols = self._block_vol_cache[block] = aggregate(self.g, block).volumes
        return vols

    def node_volumes(self, iv: Interval) -> np.ndarray:
        """Node volumes over iv, summed over the blocks of its decomposition:
        nonnegative terms, so no volume cancels and none is below a block's."""
        blocks = self.decompose(iv)
        vol = self.block_volumes(blocks[0]).copy()
        for block in blocks[1:]:
            vol += self.block_volumes(block)
        return vol

    def block_lambda2(self, block: Interval) -> float:
        """0 for unusable entries: a vacuous but sound contribution."""
        res = self.entries.get(block)
        return 0.0 if res is None else res.lambda2

    def decompose(self, iv: Interval) -> tuple[Interval, ...]:
        """Canonical decomposition: greedily take the largest aligned usable
        block fitting in the remainder. Level-0 blocks always fit, so this
        terminates with <= 2(l-1)*ceil(log_l T) blocks."""
        cached = self._decomp_cache.get(iv)
        if cached is not None:
            return cached
        blocks: list[Interval] = []
        pos = iv.start
        while pos <= iv.end:
            for length in self._lengths_desc:
                if pos % length:
                    continue
                end = min(pos + length, self.T) - 1
                if end > iv.end:
                    continue
                # Interval hashes as its (start, end) tuple; a missing or
                # unusable entry splits finer
                if length > 1 and self.entries.get((pos, end)) is None:
                    continue
                break
            blocks.append(Interval(pos, end))
            pos = end + 1
        out = tuple(blocks)
        self._decomp_cache[iv] = out
        return out


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


def _block_sum(bt: BoundsTable, blocks: Interval, volumes: Interval) -> float:
    """Sum over the decomposition of ``blocks`` of each block's lambda2
    times its min node-volume ratio against ``volumes``, over the nodes of
    positive volume in ``volumes``."""
    vol = bt.node_volumes(volumes)
    active = vol > 0
    if not active.any():
        return 0.0
    inv = 1.0 / vol[active]
    total = 0.0
    for block in bt.decompose(blocks):
        lam = bt.block_lambda2(block)
        if lam <= 0.0:
            continue
        ratios = bt.block_volumes(block)[active] * inv
        total += float(ratios.min()) * lam
    return total


def composite_lambda2_bound(bt: BoundsTable, iv: Interval) -> float:
    """Lower bound on lambda2 of the interval's aggregated graph on its
    positive-volume support, assembled from precomputed block eigenvalues
    weighted by min node-volume ratios.

    Nodes with zero interval volume also have zero block volume, so excluding
    them from the min is exact, not just conservative.
    """
    return _block_sum(bt, iv, iv)


def composite_bound(bt: BoundsTable, iv: Interval,
                    cfg: NormalizationConfig) -> float:
    """eta(iv) times the composite lambda2 bound."""
    return eta(iv, cfg) * composite_lambda2_bound(bt, iv)


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


def group_bound(bt: BoundsTable, grp: PruningGroup,
                cfg: NormalizationConfig) -> float:
    """Bound shared by every member [t, t*], t* in [prefix_end, group_end]:
    prefix blocks in the numerator, whole-group volumes in the denominator,
    and the whole-group eta."""
    whole = Interval(grp.start, grp.group_end)
    prefix = Interval(grp.start, grp.prefix_end)
    return eta(whole, cfg) * _block_sum(bt, prefix, whole)


def _half(x: float) -> float:
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
    for grp in groups if use_groups else ():
        gb = _half(group_bound(bt, grp, cfg))
        if gb > phi_star:
            # a group's members [start, end] sit side by side in the table
            lo = out.index(Interval(grp.start, grp.prefix_end))
            hi = lo + grp.group_end - grp.prefix_end + 1
            out.bound[lo:hi], grouped[lo:hi] = gb, True
    # single timestamps, which no group holds, and members of groups that
    # do not prune
    rest = np.flatnonzero(~grouped)
    out.bound[rest] = [_half(composite_bound(bt, iv, cfg))
                       for iv in out.intervals(rest)]
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

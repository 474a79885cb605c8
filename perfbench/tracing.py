"""Per-layer spans around tempocom's module boundaries, recorded from the
benchmark's own files.

``Tracer.installed()`` rebinds, for the duration of a ``with`` block, the
module-level names through which one module calls another (modules import
names directly, as in ``from .spectral import interval_lambda2``, so a span
wraps the name in the module that calls it) and restores them on exit.
Spans are kept in memory as (name, parent, start, end) and aggregated after
the run: a span's self time is its duration less its children's.

Phases of ``detect`` (precompute, estimate, prune, hash, refine) are spans
too, opened and closed at the calls that begin them, so that each layer span
has a phase as its parent and ``driver.<phase>_self_s`` is the phase's time
outside every traced layer.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import math
import time
from collections import Counter, defaultdict

from tempocom import driver, pruning, refine, spectral, tlsh
from tempocom.spectral import EigenSolveError

PHASES = ("precompute", "estimate", "prune", "hash", "refine")

# span name -> [(module, attribute)] whose calls it times
SPANS = {
    "graph.aggregate": [(driver, "aggregate"), (refine, "aggregate"),
                        (spectral, "aggregate")],
    "graph.dense_adjacency": [(spectral, "dense_adjacency")],
    "spectral.interval_lambda2": [(pruning, "interval_lambda2")],
    "spectral.exact_lambda2": [(spectral, "exact_lambda2")],
    "spectral.lanczos": [(spectral, "lambda2")],
    "pruning.prune_all": [(pruning, "prune_all")],
    "pruning.judge": [(pruning.Pruner, "judge")],
    "tlsh.hash_all": [(driver, "hash_all")],
    "refine.refine_bucket": [(driver, "refine_bucket")],
    "refine.rwr": [(refine, "rwr_scores"), (driver, "rwr_scores")],
    "refine.sweep": [(refine, "sweep"), (driver, "sweep")],
    "refine.fiedler_sweep": [(driver, "fiedler_sweep")],
}


class Tracer:
    def __init__(self):
        # (name, parent index or -1, start, end); end is None while open
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.phase: str | None = None
        self.judge_depth = 0
        # per detect: the hash phase's buckets and the refine phase's
        # results, matched afterwards with the detect's bucket_log
        self.hashed: list = []
        self.refined_phis: list[float] = []
        self.detects: list[tuple] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        if self.stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def enter_phase(self, phase: str | None) -> None:
        """Close the open phase span, if any, and open the next one."""
        if self.phase is not None:
            self.close(self.stack[-1])
        self.phase = phase
        if phase is not None:
            self.open(f"driver.{phase}")

    def detect(self, g, cfg):
        """driver.detect under a root span, with its outputs recorded."""
        self.hashed, self.refined_phis = [], []
        root = self.open("driver.detect")
        try:
            state = driver.detect(g, cfg)
        finally:
            self.enter_phase(None)
            self.close(root)
        self.detects.append((state, self.hashed, self.refined_phis))
        return state

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    # -- hooks that add counts or phase boundaries to a span ---------------
    def _hooks(self, originals: dict) -> dict:
        span = {name: self._wrap(name, originals[name]) for name in SPANS}
        hooks = dict(span)

        def precompute(*args, **kwargs):
            self.enter_phase("precompute")
            return originals["precompute"](*args, **kwargs)

        def estimate_initial(*args, **kwargs):
            self.enter_phase("estimate")
            return originals["estimate_initial"](*args, **kwargs)

        def make_pruner(*args, **kwargs):
            self.enter_phase("prune")
            return originals["Pruner"](*args, **kwargs)

        def hash_all(*args, **kwargs):
            main = self.phase == "prune"
            if main:
                self.enter_phase("hash")
            buckets = span["tlsh.hash_all"](*args, **kwargs)
            self.counts["tlsh.buckets"] += len(buckets)
            self.counts["tlsh.bucket_entries"] += sum(len(b.entries)
                                                      for b in buckets)
            if main:
                self.hashed = buckets
                self.enter_phase("refine")
            return buckets

        def judge(*args, **kwargs):
            if self.phase == "refine":
                # the final judgement against the lowered incumbent
                self.enter_phase("final")
            self.judge_depth += 1
            try:
                return span["pruning.judge"](*args, **kwargs)
            finally:
                self.judge_depth -= 1

        def interval_lambda2(*args, **kwargs):
            if self.phase == "precompute":
                self.counts["pruning.precompute_solves"] += 1
            if self.judge_depth:
                self.counts["pruning.exact_tier_solves"] += 1
            return span["spectral.interval_lambda2"](*args, **kwargs)

        def counting_failures(name):
            def solve(*args, **kwargs):
                try:
                    return span[name](*args, **kwargs)
                except EigenSolveError:
                    self.counts["spectral.solve_failures"] += 1
                    raise
            return solve

        lanczos_solve = counting_failures("spectral.lanczos")

        def lanczos(*args, **kwargs):
            res = lanczos_solve(*args, **kwargs)
            self.counts["spectral.lanczos_iterations"] += res.iterations
            return res

        def refine_bucket(*args, **kwargs):
            in_refine = self.phase == "refine"
            try:
                result = span["refine.refine_bucket"](*args, **kwargs)
            except (ValueError, RuntimeError):
                if in_refine:
                    self.refined_phis.append(math.inf)
                raise
            if in_refine:
                self.refined_phis.append(result.community.phi)
            return result

        sample_segments = originals["sample_segments"]

        def count_segments(*args, **kwargs):
            self.counts["tlsh.timestamps_hashed"] += 1
            return sample_segments(*args, **kwargs)

        hooks.update({
            "precompute": precompute, "estimate_initial": estimate_initial,
            "Pruner": make_pruner, "tlsh.hash_all": hash_all,
            "pruning.judge": judge,
            "spectral.interval_lambda2": interval_lambda2,
            "spectral.exact_lambda2": counting_failures("spectral.exact_lambda2"),
            "spectral.lanczos": lanczos,
            "refine.refine_bucket": refine_bucket,
            "sample_segments": count_segments,
        })
        return hooks

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        targets = dict(SPANS)
        targets["precompute"] = [(driver, "precompute")]
        targets["estimate_initial"] = [(driver, "estimate_initial")]
        targets["Pruner"] = [(driver, "Pruner")]
        targets["sample_segments"] = [(tlsh.WeightedMinHasher,
                                       "sample_segments")]
        saved = [(obj, attr, obj.__dict__[attr])
                 for sites in targets.values() for obj, attr in sites]
        # every site of one name holds the same function, so wrap it once
        originals = {name: getattr(*sites[0]) for name, sites in targets.items()}
        hooks = self._hooks(originals)
        try:
            for name, sites in targets.items():
                for obj, attr in sites:
                    setattr(obj, attr, hooks[name])
            yield self
        finally:
            for obj, attr, value in saved:
                setattr(obj, attr, value)

    # -- aggregation -------------------------------------------------------
    def span_totals(self) -> dict[str, list[float]]:
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, _, start, end) in enumerate(self.spans):
            rec = totals[name]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += end - start - child[i]
        return totals

    def write(self, path) -> None:
        """The spans as gzip CSV: id, parent, name, start and end seconds."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start!r},{end!r}\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics summed over every traced detect."""
        totals = self.span_totals()
        out: dict[str, tuple[float, str]] = {}

        def timed(name: str, calls: bool = True):
            n, total, own = totals.get(name, (0, 0.0, 0.0))
            if calls:
                out[f"{name}_calls"] = (n, "count")
            out[f"{name}_s"] = (total, "s")
            out[f"{name}_self_s"] = (own, "s")

        states = [d[0] for d in self.detects]
        for phase in PHASES:
            out[f"driver.{phase}_s"] = (
                sum(s.timings.get(phase, 0.0) for s in states), "s")
            out[f"driver.{phase}_self_s"] = (
                totals.get(f"driver.{phase}", (0, 0.0, 0.0))[2], "s")

        hashed = capped = logged = skipped = refined = improving = 0
        for state, buckets, phis in self.detects:
            cap = state.config.span_cap
            hashed += len(buckets)
            capped += sum(b.span[1] - b.span[0] + 1 > cap * b.key.scale
                          for b in buckets)
            logged += len(state.bucket_log)
            done = [d for d in state.bucket_log if d.refined]
            skipped += len(state.bucket_log) - len(done)
            refined += len(done)
            improving += sum(phi < d.phi_star_before
                             for d, phi in zip(done, phis))
        out["driver.buckets_hashed"] = (hashed, "count")
        out["driver.buckets_span_capped"] = (capped, "count")
        out["driver.buckets_deduplicated"] = (hashed - capped - logged, "count")
        out["driver.buckets_skipped_by_bound"] = (skipped, "count")
        out["driver.buckets_refined"] = (refined, "count")

        timed("graph.aggregate")
        timed("graph.dense_adjacency")
        timed("spectral.interval_lambda2")
        n, total, _ = totals.get("spectral.interval_lambda2", (0, 0.0, 0.0))
        out["spectral.interval_lambda2_ms"] = (1000.0 * total / max(n, 1), "ms")
        timed("spectral.exact_lambda2")
        timed("spectral.lanczos")
        out["spectral.lanczos_iterations"] = (
            self.counts["spectral.lanczos_iterations"], "count")
        out["spectral.solve_failures"] = (
            self.counts["spectral.solve_failures"], "count")

        verdicts = Counter(v.status for s in states for v in s.verdicts)
        exact_solves = self.counts["pruning.exact_tier_solves"]
        out["pruning.precompute_solves"] = (
            self.counts["pruning.precompute_solves"], "count")
        out["pruning.exact_tier_solves"] = (exact_solves, "count")
        timed("pruning.prune_all", calls=False)
        timed("pruning.judge")
        out["pruning.group_pruned"] = (verdicts[pruning.STATUS_GROUP_PRUNED],
                                       "count")
        out["pruning.composite_pruned"] = (
            verdicts[pruning.STATUS_COMPOSITE_PRUNED], "count")
        out["pruning.exact_pruned"] = (verdicts[pruning.STATUS_EXACT_PRUNED],
                                       "count")
        out["pruning.open_intervals"] = (
            verdicts[pruning.STATUS_UNPRUNED] + verdicts[pruning.STATUS_PROBED],
            "count")
        out["pruning.exact_tier_yield"] = (
            verdicts[pruning.STATUS_EXACT_PRUNED] / max(exact_solves, 1),
            "1")

        timed("tlsh.hash_all")
        for key in ("tlsh.timestamps_hashed", "tlsh.buckets",
                    "tlsh.bucket_entries"):
            out[key] = (self.counts[key], "count")

        timed("refine.refine_bucket")
        timed("refine.rwr")
        timed("refine.sweep")
        timed("refine.fiedler_sweep")
        out["refine.improving_share"] = (improving / max(refined, 1), "1")
        return out

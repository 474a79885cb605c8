"""Multi-scale precomputation, composite/group lower bounds, and pruning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tempocom.pruning as pruning
import tempocom.spectral as spectral
from conftest import clique_graph, connected_random_instance, cycle_graph
from tempocom.graph import (Interval, NormalizationConfig, TemporalGraph,
                            aggregate, eta, load)
from tempocom.oracle import brute_force_min_phi
from tempocom.pruning import (PRUNED_STATUSES, STATUS_COMPOSITE_PRUNED,
                              STATUS_EXACT_PRUNED, STATUS_GROUP_PRUNED,
                              STATUS_UNPRUNED, PruneVerdict, Pruner,
                              PruningGroup, build_groups, composite_bounds,
                              group_bounds, precompute, prune_all)
from tempocom.spectral import lambda2_dense


def composite_lambda2_bound(bt, iv):
    return float(bt.lambda2_sums([iv.start], [iv.end])[0])


def composite_bound(bt, iv, cfg):
    return float(composite_bounds(bt, [iv.start], [iv.end], cfg)[0])


def group_bound(bt, grp, cfg):
    return float(group_bounds(bt, [grp.start], [grp.prefix_end],
                              [grp.group_end], cfg)[0])


def identical_snapshot_graph(n: int, T: int, seed: int = 0) -> TemporalGraph:
    rng = np.random.default_rng(seed)
    records = []
    perm = rng.permutation(n)
    for a, b in zip(perm[:-1], perm[1:]):
        u, v = (int(a), int(b)) if a < b else (int(b), int(a))
        w = float(rng.uniform(1, 3))
        for t in range(T):
            records.append((u, v, t, w))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                w = float(rng.uniform(1, 3))
                for t in range(T):
                    records.append((u, v, t, w))
    return TemporalGraph.from_records([str(i) for i in range(n)], T, records)


class TestPrecompute:
    def test_entry_count_power_of_two_timeline(self):
        g = identical_snapshot_graph(6, 8)
        bt = precompute(g, 2)
        assert len(bt.entries) == 8 + 4 + 2 + 1

    def test_truncated_last_block(self):
        g = identical_snapshot_graph(6, 5)
        bt = precompute(g, 2)
        level4 = [iv for iv in bt.entries if iv.start % 4 == 0 and iv.length > 2]
        assert Interval(0, 3) in bt.entries
        assert Interval(4, 4) in bt.entries

    def test_identical_snapshots_identical_lambda2(self):
        g = identical_snapshot_graph(8, 8, seed=3)
        bt = precompute(g, 2)
        vals = [res.lambda2 for res in bt.entries.values() if res is not None]
        assert max(vals) - min(vals) < 1e-7

    def test_eigensolve_count_linear(self):
        g = identical_snapshot_graph(5, 13)
        bt = precompute(g, 2)
        assert len(bt.entries) <= 2 * g.T

    def test_scale_base_below_two_rejected(self):
        g = identical_snapshot_graph(5, 4)
        with pytest.raises(ValueError):
            precompute(g, 1)

    def test_threaded_equals_serial(self):
        g = identical_snapshot_graph(7, 9, seed=5)
        a = precompute(g, 2, threads=1)
        b = precompute(g, 2, threads=3)
        assert a.entries.keys() == b.entries.keys()
        for iv in a.entries:
            assert a.entries[iv].lambda2 == b.entries[iv].lambda2


class TestDecompose:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_blocks_cover_interval_exactly(self, data):
        T = data.draw(st.integers(min_value=2, max_value=20))
        start = data.draw(st.integers(min_value=0, max_value=T - 1))
        end = data.draw(st.integers(min_value=start, max_value=T - 1))
        g = identical_snapshot_graph(5, T)
        bt = precompute(g, 2)
        blocks = bt.decompose(Interval(start, end))
        pos = start
        for b in blocks:
            assert b.start == pos
            pos = b.end + 1
        assert pos == end + 1
        assert len(blocks) <= 2 * (2 - 1) * max(1, math.ceil(math.log2(T)))

    def test_blocks_aligned(self):
        g = identical_snapshot_graph(5, 16)
        bt = precompute(g, 2)
        for b in bt.decompose(Interval(3, 14)):
            assert b.start % b.length == 0 or b.length == 1


def interval_building_decompose(bt, iv, base=2):
    """Reference: the decomposition built with one Interval per block length
    tried, before the fit and usability checks."""
    blocks = []
    pos = iv.start
    while pos <= iv.end:
        chosen = None
        for length in sorted(pruning._levels(bt.T, base), reverse=True):
            if pos % length != 0:
                continue
            block = Interval(pos, min(pos + length, bt.T) - 1)
            if block.end > iv.end:
                continue
            if length > 1 and block not in bt.entries:
                continue
            if length > 1 and bt.entries[block] is None:
                continue
            chosen = block
            break
        assert chosen is not None
        blocks.append(chosen)
        pos = chosen.end + 1
    return tuple(blocks)


class TestDecomposeMatchesIntervalBuilding:
    def test_random_tables(self):
        rng = np.random.default_rng(12)
        usable = object()
        for trial in range(40):
            T = int(rng.integers(1, 601))
            base = int(rng.integers(2, 5))
            g = TemporalGraph.from_records(["a", "b"], T, [(0, 1, 0, 1.0)])
            # aligned blocks as precompute lays them out; some unusable
            # (None) and some missing
            entries = {}
            for length in pruning._levels(T, base):
                for start in range(0, T, length):
                    block = Interval(start, min(start + length, T) - 1)
                    roll = rng.random()
                    if roll < 0.7:
                        entries[block] = usable
                    elif roll < 0.85:
                        entries[block] = None
            bt = pruning.BoundsTable(g, base, entries)
            ref = pruning.BoundsTable(g, base, entries)
            for _ in range(200):
                lo = int(rng.integers(0, T))
                iv = Interval(lo, int(rng.integers(lo, T)))
                got = bt.decompose(iv)
                want = interval_building_decompose(ref, iv, base)
                assert got == want
                assert all(type(b) is Interval for b in got)


def block_sum(bt, base, blocks, volumes):
    """Reference: the per-interval bound loop the array path replaced. The
    sum over the decomposition of ``blocks`` of each block's lambda2 times
    its min node-volume ratio against ``volumes``, over the nodes of
    positive volume in ``volumes``."""
    def block_volumes(block):
        return aggregate(bt.g, block).volumes

    def block_lambda2(block):
        res = bt.entries.get(block)
        return 0.0 if res is None else res.lambda2

    parts = interval_building_decompose(bt, volumes, base)
    vol = block_volumes(parts[0]).copy()
    for block in parts[1:]:
        vol += block_volumes(block)
    active = vol > 0
    if not active.any():
        return 0.0
    inv = 1.0 / vol[active]
    total = 0.0
    for block in interval_building_decompose(bt, blocks, base):
        lam = block_lambda2(block)
        if lam <= 0.0:
            continue
        ratios = block_volumes(block)[active] * inv
        total += float(ratios.min()) * lam
    return total


class TestArrayBoundsMatchPerIntervalLoop:
    @pytest.mark.parametrize("seed", range(8))
    def test_byte_equal(self, seed, monkeypatch):
        rng = np.random.default_rng([101, seed])
        n = int(rng.integers(3, 12))
        # chunks of 1 to 7 intervals, so chunk boundaries fall everywhere
        monkeypatch.setattr(pruning, "CHUNK_CELLS", n * int(rng.integers(1, 8)))
        base = int(rng.choice([2, 3]))
        T = int(rng.choice([5, 7, 12, 19, 26, 33]))  # no power of 2 or 3
        cfg = NormalizationConfig(float(rng.choice([0.0, 0.2, 0.7])))
        # sparse snapshots leave nodes idle in some blocks and intervals
        records = [(u, v, t, float(rng.uniform(0.5, 3.0)))
                   for t in range(T) for u in range(n) for v in range(u + 1, n)
                   if rng.random() < 0.12]
        g = TemporalGraph.from_records([str(i) for i in range(n)], T,
                                       records or [(0, 1, 0, 1.0)])
        entries = precompute(g, base).entries
        # failed block solves leave unusable entries
        entries = {iv: None if rng.random() < 0.25 else res
                   for iv, res in entries.items()}
        bt = pruning.BoundsTable(g, base, entries)
        starts, ends = np.triu_indices(T)
        want = [eta(Interval(s, e), cfg)
                * block_sum(bt, base, Interval(s, e), Interval(s, e))
                for s, e in zip(starts.tolist(), ends.tolist())]
        got = pruning.composite_bounds(bt, starts, ends, cfg)
        assert got.tobytes() == np.array(want).tobytes()
        assert any(w == 0.0 for w in want) and any(w > 0.0 for w in want)

        groups = build_groups(T, float(rng.choice([0.3, 0.5, 0.7])))
        want = [eta(Interval(grp.start, grp.group_end), cfg)
                * block_sum(bt, base, Interval(grp.start, grp.prefix_end),
                            Interval(grp.start, grp.group_end))
                for grp in groups]
        got = pruning.group_bounds(bt, *np.array(
            [(grp.start, grp.prefix_end, grp.group_end) for grp in groups]).T,
            cfg)
        assert got.tobytes() == np.array(want).tobytes()
        for grp, w in zip(groups, want):
            assert group_bound(bt, grp, cfg) == w

        for phi_star in (2.0, 0.3, 0.05):
            for use_groups in (True, False):
                got = prune_all(bt, groups, phi_star, cfg, use_groups)
                assert typed(got) == typed(object_list_prune_all(
                    bt, groups, phi_star, cfg, use_groups,
                    bounds=(reference_composite(base),
                            reference_group(base))))


def reference_composite(base):
    def bound(bt, iv, cfg):
        return eta(iv, cfg) * block_sum(bt, base, iv, iv)
    return bound


def reference_group(base):
    def bound(bt, grp, cfg):
        return eta(Interval(grp.start, grp.group_end), cfg) * block_sum(
            bt, base, Interval(grp.start, grp.prefix_end),
            Interval(grp.start, grp.group_end))
    return bound


class TestCompositeBound:
    def test_identical_snapshots_two_blocks_tight(self):
        g = identical_snapshot_graph(8, 2, seed=1)
        bt = precompute(g, 2)
        iv = Interval(0, 1)
        exact = lambda2_dense(aggregate(g, iv))
        assert composite_lambda2_bound(bt, iv) == pytest.approx(exact, abs=1e-7)

    def test_single_block_equals_eta_lambda2(self):
        g = identical_snapshot_graph(6, 4, seed=2)
        bt = precompute(g, 2)
        iv = Interval(0, 0)
        cfg = NormalizationConfig(0.0)
        assert composite_bound(bt, iv, cfg) == pytest.approx(
            bt.entries[iv].lambda2, rel=1e-12)

    def test_dominated_by_exact_lambda2(self, tmp_path):
        rng = np.random.default_rng(41)
        cases = []
        for trial in range(25):
            n = int(rng.integers(3, 13))
            T = int(rng.integers(2, 9))
            g = connected_random_instance(rng, n, T, density=0.4)
            start = int(rng.integers(0, T))
            end = int(rng.integers(start, T))
            cases.append((g, Interval(start, min(end, T - 1))))
        # a huge weight outside [1, 2] must not cancel node a's volume on
        # [1, 2] to 0 and drop it from the composite bound's min (which
        # would read 2.0 against an exact lambda2 of 1.0)
        path = tmp_path / "g.tgraph"
        path.write_text("tgraph 3 3\na b 0 1e17\nb c 1 2\na b 2 3\n",
                        encoding="utf-8")
        cases.append((load(path), Interval(1, 2)))
        for g, iv in cases:
            bt = precompute(g, 2)
            exact = lambda2_dense(aggregate(g, iv))
            assert composite_lambda2_bound(bt, iv) <= exact + 1e-9


class TestBuildGroups:
    def test_members_cover_every_interval_once(self):
        for T in (2, 5, 8, 16):
            for beta in (0.3, 0.5, 0.7):
                groups = build_groups(T, beta)
                seen = set()
                for grp in groups:
                    for iv in grp.members():
                        assert iv not in seen
                        seen.add(iv)
                expected = {Interval(t, t2) for t in range(T)
                            for t2 in range(t + 1, T)}
                assert seen == expected

    def test_prefix_fraction_invariant(self):
        for grp in build_groups(32, 0.5):
            assert (grp.prefix_end - grp.start) / (grp.group_end - grp.start) >= 0.5 - 1e-12

    def test_beta_bounds_rejected(self):
        with pytest.raises(ValueError):
            build_groups(8, 1.0)
        with pytest.raises(ValueError):
            build_groups(8, 0.0)

    def test_group_count_logarithmic(self):
        groups = build_groups(1000, 0.5)
        assert len(groups) <= 1000 * math.ceil(math.log2(1000))


class TestGroupBound:
    def test_degenerate_group_equals_composite(self):
        g = identical_snapshot_graph(7, 6, seed=4)
        bt = precompute(g, 2)
        cfg = NormalizationConfig(0.2)
        grp = PruningGroup(1, 3, 3)
        assert group_bound(bt, grp, cfg) == pytest.approx(
            composite_bound(bt, Interval(1, 3), cfg), rel=1e-12)

    def test_dominated_by_every_member(self):
        rng = np.random.default_rng(43)
        cfg = NormalizationConfig(0.2)
        for trial in range(15):
            n = int(rng.integers(3, 11))
            T = int(rng.integers(3, 9))
            g = connected_random_instance(rng, n, T, density=0.4)
            bt = precompute(g, 2)
            for grp in build_groups(T, 0.5):
                gb = group_bound(bt, grp, cfg)
                for iv in grp.members():
                    assert gb <= composite_bound(bt, iv, cfg) + 1e-9

    def test_identical_snapshots_closed_form(self):
        # with identical snapshots and alpha=0, block volumes scale with block
        # length, so the group bound is (prefix length / group length) * lambda2
        g = identical_snapshot_graph(8, 8, seed=6)
        bt = precompute(g, 2)
        cfg = NormalizationConfig(0.0)
        grp = PruningGroup(0, 3, 7)
        lam = lambda2_dense(aggregate(g, Interval(0, 7)))
        expected = (4 / 8) * lam
        assert group_bound(bt, grp, cfg) == pytest.approx(expected, abs=1e-7)


class TestPruneAll:
    def test_invalid_phi_star_rejected(self):
        g = identical_snapshot_graph(5, 4)
        bt = precompute(g, 2)
        groups = build_groups(g.T, 0.5)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                prune_all(bt, groups, bad, NormalizationConfig(0.0))

    def test_verdict_for_every_interval(self):
        g = identical_snapshot_graph(6, 7, seed=8)
        bt = precompute(g, 2)
        verdicts = prune_all(bt, build_groups(g.T, 0.5), 0.4,
                             NormalizationConfig(0.0))
        assert len(verdicts) == g.T * (g.T + 1) // 2
        assert {v.interval for v in verdicts} == {
            Interval(t, t2) for t in range(g.T) for t2 in range(t, g.T)}

    def test_monotone_in_phi_star(self):
        g = identical_snapshot_graph(8, 8, seed=9)
        bt = precompute(g, 2)
        groups = build_groups(g.T, 0.5)
        cfg = NormalizationConfig(0.0)
        lo = prune_all(bt, groups, 0.2, cfg)
        hi = prune_all(bt, groups, 0.5, cfg)
        for a, b in zip(lo, hi):
            if a.status in PRUNED_STATUSES:
                assert b.status in PRUNED_STATUSES or b.bound_value <= 0.5

    def test_improving_incumbent_never_unprunes(self):
        # the incumbent only decreases during a run; pruning must be antitone
        # in it: once an interval is pruned at some incumbent, any smaller
        # incumbent keeps it pruned
        rng = np.random.default_rng(47)
        g = connected_random_instance(rng, 8, 6, density=0.5)
        bt = precompute(g, 2)
        groups = build_groups(g.T, 0.5)
        cfg = NormalizationConfig(0.2)
        prev_pruned: set = set()
        for phi_star in (2.0, 0.8, 0.3, 0.1, 0.05):
            pruned = {v.interval for v in prune_all(bt, groups, phi_star, cfg)
                      if v.status in PRUNED_STATUSES}
            assert prev_pruned <= pruned
            prev_pruned = pruned

    def test_group_pruned_implies_members_composite_prunable(self):
        rng = np.random.default_rng(53)
        cfg = NormalizationConfig(0.0)
        for T in (4, 8, 16):
            g = connected_random_instance(rng, 6, T, density=0.5)
            bt = precompute(g, 2)
            groups = build_groups(T, 0.5)
            phi_star = 0.3
            with_g = prune_all(bt, groups, phi_star, cfg, use_groups=True)
            without = prune_all(bt, groups, phi_star, cfg, use_groups=False)
            surv_g = {v.interval for v in with_g if v.status not in PRUNED_STATUSES}
            surv_n = {v.interval for v in without if v.status not in PRUNED_STATUSES}
            assert surv_g == surv_n

    def test_soundness_against_brute_force(self):
        rng = np.random.default_rng(59)
        cfg = NormalizationConfig(0.0)
        for trial in range(20):
            n = int(rng.integers(3, 11))
            T = int(rng.integers(2, 9))
            g = connected_random_instance(rng, n, T, density=0.4)
            bt = precompute(g, 2)
            phi_star = 0.4
            verdicts = prune_all(bt, build_groups(T, 0.5), phi_star, cfg)
            for v in verdicts:
                if v.status not in PRUNED_STATUSES:
                    continue
                phi, nodes = brute_force_min_phi(g, v.interval, cfg)
                if nodes is None:
                    continue
                assert phi >= phi_star - 1e-12, (trial, v)

    def test_bound_value_recorded(self):
        g = identical_snapshot_graph(6, 4, seed=10)
        bt = precompute(g, 2)
        verdicts = prune_all(bt, build_groups(g.T, 0.5), 1e9,
                             NormalizationConfig(0.0))
        for v in verdicts:
            if v.status in PRUNED_STATUSES:
                assert v.bound_value > 1e9
            else:
                assert v.bound_value <= 1e9


class TestExactTier:
    def test_soundness_against_brute_force(self):
        rng = np.random.default_rng(59)
        cfg = NormalizationConfig(0.0)
        exact_pruned = 0
        for trial in range(20):
            n = int(rng.integers(3, 11))
            T = int(rng.integers(2, 9))
            g = connected_random_instance(rng, n, T, density=0.4)
            bt = precompute(g, 2)
            phi_star = 0.4
            pruner = Pruner(bt, build_groups(T, 0.5), cfg)
            verdicts, final = pruner.judge(phi_star)
            assert final == phi_star
            for iv, half in pruner.exact.items():
                phi, nodes = brute_force_min_phi(g, iv, cfg)
                if nodes is not None:
                    assert half <= phi + 1e-12, (trial, iv)
            for v in verdicts:
                if v.status not in PRUNED_STATUSES:
                    continue
                exact_pruned += v.status == STATUS_EXACT_PRUNED
                phi, nodes = brute_force_min_phi(g, v.interval, cfg)
                if nodes is None:
                    continue
                assert phi >= phi_star - 1e-12, (trial, v)
        assert exact_pruned > 0

    def test_soundness_on_the_lanczos_branch(self, monkeypatch):
        monkeypatch.setattr(spectral, "DENSE_MAX_NODES", 0)
        rng = np.random.default_rng(53)
        cfg = NormalizationConfig(0.2)
        for trial in range(8):
            g = connected_random_instance(rng, int(rng.integers(3, 10)),
                                          int(rng.integers(2, 7)), density=0.4)
            pruner = Pruner(precompute(g, 2), build_groups(g.T, 0.5), cfg)
            verdicts, _ = pruner.judge(0.3)
            for iv, half in pruner.exact.items():
                phi, nodes = brute_force_min_phi(g, iv, cfg)
                if nodes is not None:
                    assert half <= phi, (trial, iv)
            for v in verdicts:
                if v.status in PRUNED_STATUSES:
                    phi, nodes = brute_force_min_phi(g, v.interval, cfg)
                    assert nodes is None or phi >= 0.3, (trial, v)

    def test_even_clique_never_pruned_at_its_optimum(self):
        # every interval of an even clique with alpha = 0 attains the
        # Cheeger bound exactly (lambda2 / 2 = 0.6 for K6), so no tier may
        # prune any interval against that optimum
        g = clique_graph(6, T=4)
        cfg = NormalizationConfig(0.0)
        opt, _ = brute_force_min_phi(g, Interval(0, 0), cfg)
        assert opt == pytest.approx(0.6, abs=1e-12)
        pruner = Pruner(precompute(g, 2), build_groups(g.T, 0.5), cfg)
        verdicts, _ = pruner.judge(opt)
        for v in verdicts:
            assert v.status == STATUS_UNPRUNED, v
            assert v.bound_value <= opt
            assert pruner.exact_bound(v.interval) <= opt
            assert v.bound_value == pytest.approx(opt, abs=1e-9)

    def test_disconnected_interval_bound_is_exactly_zero(self):
        # two triangles at timestamp 0, joined by an edge at timestamp 1
        records = [(u, v, 0, 1.0) for base in (0, 3)
                   for u, v in ((base, base + 1), (base + 1, base + 2),
                                (base, base + 2))] + [(2, 3, 1, 1.0)]
        g = TemporalGraph.from_records([str(i) for i in range(6)], 2, records)
        cfg = NormalizationConfig(0.0)
        iv = Interval(0, 0)
        assert brute_force_min_phi(g, iv, cfg)[0] == 0.0
        pruner = Pruner(precompute(g, 2), build_groups(g.T, 0.5), cfg)
        assert composite_bound(pruner.bt, iv, cfg) == 0.0
        assert pruner.exact_bound(iv) == 0.0
        pruner.judge(0.5)
        # a zero-conductance incumbent must not prune the interval holding it
        verdicts, _ = pruner.judge(0.0)
        v = next(v for v in verdicts if v.interval == iv)
        assert v.status == STATUS_UNPRUNED
        assert v.bound_value == 0.0

    def test_improving_incumbent_never_unprunes(self):
        rng = np.random.default_rng(47)
        g = connected_random_instance(rng, 8, 6, density=0.5)
        bt = precompute(g, 2)
        groups = build_groups(g.T, 0.5)
        cfg = NormalizationConfig(0.2)
        reused = Pruner(bt, groups, cfg)
        prev_pruned: set = set()
        for phi_star in (2.0, 0.8, 0.3, 0.1, 0.05):
            fresh, _ = Pruner(bt, groups, cfg).judge(phi_star)
            again, _ = reused.judge(phi_star)
            pruned = {v.interval for v in fresh if v.status in PRUNED_STATUSES}
            # the tier credited may differ; the pruned set may not
            assert pruned == {v.interval for v in again
                              if v.status in PRUNED_STATUSES}
            assert prev_pruned <= pruned
            prev_pruned = pruned

    def test_exact_bound_dominates_composite(self):
        rng = np.random.default_rng(61)
        cfg = NormalizationConfig(0.2)
        for trial in range(10):
            g = connected_random_instance(rng, int(rng.integers(3, 11)),
                                          int(rng.integers(2, 9)), density=0.4)
            pruner = Pruner(precompute(g, 2), build_groups(g.T, 0.5), cfg)
            for t in range(g.T):
                for t2 in range(t, g.T):
                    iv = Interval(t, t2)
                    assert pruner.exact_bound(iv) >= \
                        composite_bound(pruner.bt, iv, cfg) / 2 - 1e-9

    def test_verdict_bounds_match_statuses(self):
        rng = np.random.default_rng(67)
        g = connected_random_instance(rng, 9, 8, density=0.4)
        pruner = Pruner(precompute(g, 2), build_groups(g.T, 0.5),
                        NormalizationConfig(0.2))
        for phi_star in (0.6, 0.3):
            verdicts, _ = pruner.judge(phi_star)
            assert [v.interval for v in verdicts] == [
                Interval(t, t2) for t in range(g.T) for t2 in range(t, g.T)]
            for v in verdicts:
                if v.status in PRUNED_STATUSES:
                    assert v.bound_value > phi_star
                else:
                    assert v.status == STATUS_UNPRUNED
                    assert v.bound_value <= phi_star

    def test_open_callback_lowers_incumbent(self):
        rng = np.random.default_rng(71)
        g = connected_random_instance(rng, 9, 6, density=0.4)
        cfg = NormalizationConfig(0.2)
        pruner = Pruner(precompute(g, 2), build_groups(g.T, 0.5), cfg)
        seen = []

        def on_open(iv, res, phi_star):
            seen.append((iv, phi_star))
            assert pruner.exact[iv] <= phi_star
            return phi_star / 2

        verdicts, final = pruner.judge(5.0, on_open=on_open)
        assert seen
        assert final == seen[-1][1] / 2
        stars = [p for _, p in seen]
        assert stars == sorted(stars, reverse=True)
        for v in verdicts:
            if v.status in PRUNED_STATUSES:
                assert v.bound_value > final
            else:
                assert v.bound_value <= final


def object_list_prune_all(bt, groups, phi_star, cfg, use_groups=True,
                          bounds=(composite_bound, group_bound)):
    """prune_all as one PruneVerdict per interval, built in a Python loop:
    the reference the verdict table must match."""
    composite_bound, group_bound = bounds
    if not (phi_star > 0) or math.isinf(phi_star):
        raise ValueError("phi_star must be a finite positive incumbent conductance")
    T = bt.T
    offsets = [0] * T
    acc = 0
    for t in range(T):
        offsets[t] = acc
        acc += T - t
    out: list = [None] * acc
    for t in range(T):
        iv = Interval(t, t)
        cb = composite_bound(bt, iv, cfg) / 2.0
        status = STATUS_COMPOSITE_PRUNED if cb > phi_star else STATUS_UNPRUNED
        out[offsets[t]] = PruneVerdict(iv, status, cb)
    for grp in groups:
        gb = group_bound(bt, grp, cfg) / 2.0 if use_groups else -math.inf
        base = offsets[grp.start] - grp.start
        if gb > phi_star:
            out[base + grp.prefix_end:base + grp.group_end + 1] = [
                PruneVerdict(Interval(grp.start, end), STATUS_GROUP_PRUNED, gb)
                for end in range(grp.prefix_end, grp.group_end + 1)]
            continue
        for end in range(grp.prefix_end, grp.group_end + 1):
            iv = Interval(grp.start, end)
            cb = composite_bound(bt, iv, cfg) / 2.0
            status = STATUS_COMPOSITE_PRUNED if cb > phi_star else STATUS_UNPRUNED
            out[base + end] = PruneVerdict(iv, status, cb)
    return out


class ObjectListPruner(Pruner):
    """Pruner.judge over PruneVerdict lists, with per-verdict _replace."""

    def half_bound(self, iv):
        T = self.bt.T
        i = iv.start * T - iv.start * (iv.start - 1) // 2 + iv.span
        return max(self._base[i].bound_value, self.exact.get(iv, -math.inf))

    def judge(self, phi_star, on_open=None):
        if self._base is None or phi_star > self._base_phi:
            self._base = object_list_prune_all(self.bt, self.groups, phi_star,
                                               self.cfg)
            self._base_phi = phi_star
        pending = sorted((v.bound_value, v.interval) for v in self._base
                         if v.status not in PRUNED_STATUSES)
        for cb, iv in pending:
            if cb > phi_star or iv in self.exact:
                continue
            res = self._solve(iv)
            if on_open is not None and res is not None \
                    and self.exact[iv] <= phi_star:
                phi_star = min(phi_star, on_open(iv, res, phi_star))
        return [self._verdict(v, phi_star) for v in self._base], phi_star

    def _verdict(self, v, phi_star):
        if v.status in PRUNED_STATUSES:
            return v
        if v.bound_value > phi_star:
            return v._replace(status=STATUS_COMPOSITE_PRUNED)
        eb = self.exact_bound(v.interval)
        if eb > phi_star:
            return v._replace(status=STATUS_EXACT_PRUNED, bound_value=eb)
        return v._replace(bound_value=max(v.bound_value, eb))


def typed(verdicts):
    return [(v.interval, v.status, v.bound_value, type(v.bound_value))
            for v in verdicts]


class TestVerdictTableMatchesObjectLists:
    @pytest.mark.parametrize("seed", range(6))
    def test_prune_all(self, seed):
        rng = np.random.default_rng([83, seed])
        cfg = NormalizationConfig(float(rng.choice([0.0, 0.2])))
        for trial in range(4):
            g = connected_random_instance(rng, int(rng.integers(3, 11)),
                                          int(rng.integers(2, 13)),
                                          density=float(rng.uniform(0.2, 0.7)))
            bt = precompute(g, 2)
            groups = build_groups(g.T, 0.5)
            for phi_star in (2.0, 0.5, 0.2, 0.05):
                for use_groups in (True, False):
                    got = prune_all(bt, groups, phi_star, cfg, use_groups)
                    assert len(got) == g.T * (g.T + 1) // 2
                    assert typed(got) == typed(object_list_prune_all(
                        bt, groups, phi_star, cfg, use_groups))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("with_open", [False, True])
    @pytest.mark.parametrize("failing", [False, True])
    def test_judge_on_a_reused_pruner(self, seed, with_open, failing,
                                      monkeypatch):
        if failing:
            # a failed solve bounds its interval by 0, below the composite
            # bound, and leaves a precomputed block unusable
            def some_fail(g, iv, solve=pruning.interval_lambda2):
                if (7 * iv.start + iv.end) % 4 == 0:
                    raise spectral.EigenSolveError("planted failure")
                return solve(g, iv)
            monkeypatch.setattr(pruning, "interval_lambda2", some_fail)
        rng = np.random.default_rng([89, seed])
        cfg = NormalizationConfig(float(rng.choice([0.0, 0.2])))
        for trial in range(3):
            g = connected_random_instance(rng, int(rng.integers(3, 11)),
                                          int(rng.integers(2, 13)),
                                          density=float(rng.uniform(0.2, 0.7)))
            bt = precompute(g, 2)
            groups = build_groups(g.T, 0.5)
            table, objects = Pruner(bt, groups, cfg), \
                ObjectListPruner(bt, groups, cfg)
            calls: dict = {id(table): [], id(objects): []}

            def on_open(pruner):
                def found(iv, res, phi_star):
                    calls[id(pruner)].append((iv, phi_star))
                    # a community below the incumbent in every third interval
                    return phi_star * 0.9 if (iv.start + iv.end) % 3 == 0 \
                        else math.inf
                return found if with_open else None

            stars = sorted(rng.uniform(0.02, 2.0, size=4).tolist(), reverse=True)
            for phi_star in stars + [0.0] * int(rng.integers(0, 2)):
                got, got_phi = table.judge(phi_star, on_open(table))
                want, want_phi = objects.judge(phi_star, on_open(objects))
                assert got_phi == want_phi
                assert typed(got) == typed(want)
                for v in want:
                    half = table.half_bound(v.interval)
                    assert type(half) is float
                    assert half == objects.half_bound(v.interval)
            assert calls[id(table)] == calls[id(objects)]
            assert table.exact == objects.exact

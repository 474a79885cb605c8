"""Weighted minhash, temporal pivot hashing, composite signatures, buckets."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clique_graph, cycle_graph, random_instance
from tempocom.graph import Interval
from tempocom.tlsh import (Bucket, CompositeSignature, TemporalPivotHasher,
                           WeightedMinHasher, _eligible_timestamps, _pack64,
                           composite_collision_count, hash_all,
                           minhash_collision_count, optimal_pivots,
                           pivot_collision_count, scale_ladder,
                           weighted_jaccard)


def three_sigma(p, trials):
    return 3.0 * math.sqrt(max(p * (1 - p), 1e-12) * trials)


class TestWeightedJaccard:
    def test_identical_sets(self):
        assert weighted_jaccard({1: 2.0, 2: 0.5}, {1: 2.0, 2: 0.5}) == 1.0

    def test_disjoint_supports(self):
        assert weighted_jaccard({1: 2.0}, {2: 3.0}) == 0.0

    def test_hand_example(self):
        a = {"a": 2.0, "b": 1.0}
        b = {"a": 1.0, "b": 1.0, "c": 2.0}
        assert weighted_jaccard(a, b) == pytest.approx(0.4, rel=1e-12)

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_jaccard({}, {})

    @given(scale=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, scale):
        a = {1: 2.0, 2: 1.0}
        b = {1: 1.0, 3: 4.0}
        a2 = {k: v * scale for k, v in a.items()}
        b2 = {k: v * scale for k, v in b.items()}
        assert weighted_jaccard(a, b) == pytest.approx(
            weighted_jaccard(a2, b2), rel=1e-9)


class TestWeightedMinHasher:
    def test_determinism(self):
        h = WeightedMinHasher(4, 10, seed=1)
        keys = np.array([0, 3, 7])
        vals = np.array([1.0, 2.0, 0.5])
        a = h.sample(keys, vals)
        b = h.sample(keys, vals)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_empty_set_rejected(self):
        h = WeightedMinHasher(2, 4, seed=0)
        with pytest.raises(ValueError):
            h.sample(np.array([], dtype=np.int64), np.array([]))

    def test_collision_rate_matches_jaccard(self):
        a = {0: 1.0}
        b = {0: 1.0, 1: 1.5}  # J_W = 1 / 2.5 = 0.4
        jw = weighted_jaccard(a, b)
        trials = 10_000
        hits = minhash_collision_count(a, b, trials, seed=101)
        assert abs(hits - jw * trials) <= three_sigma(jw, trials)

    def test_scaled_weights_same_collision_rate(self):
        a = {0: 1.0, 1: 2.0}
        b = {0: 2.0, 1: 1.0, 2: 1.0}
        jw = weighted_jaccard(a, b)
        trials = 10_000
        h1 = minhash_collision_count(a, b, trials, seed=7)
        a10 = {k: 10 * v for k, v in a.items()}
        b10 = {k: 10 * v for k, v in b.items()}
        assert weighted_jaccard(a10, b10) == pytest.approx(jw, rel=1e-12)
        h2 = minhash_collision_count(a10, b10, trials, seed=7)
        assert abs(h1 - h2) <= 2 * three_sigma(jw, trials)

    def test_sample_segments_matches_per_segment_sample(self):
        rng = np.random.default_rng(19)
        h = WeightedMinHasher(6, 30, seed=5)
        seg_lens = rng.integers(1, 8, size=12)
        starts = np.zeros(len(seg_lens), dtype=np.int64)
        np.cumsum(seg_lens[:-1], out=starts[1:])
        total = int(seg_lens.sum())
        keys = rng.integers(0, 30, size=total)
        vals = rng.uniform(0.2, 5.0, size=total)
        skeys, levels = h.sample_segments(keys, vals, starts, seg_lens)
        for i, (s, L) in enumerate(zip(starts, seg_lens)):
            k1, l1 = h.sample(keys[s:s + L], vals[s:s + L])
            assert np.array_equal(skeys[i], k1)
            assert np.array_equal(levels[i], l1)


class TestTemporalPivotHasher:
    def test_equal_timestamps_always_collide(self):
        h = TemporalPivotHasher(10, 50, seed=3)
        assert h.pivot_hash(17) == h.pivot_hash(17)

    def test_monotone_in_time(self):
        h = TemporalPivotHasher(8, 40, seed=4)
        vals = [h.pivot_hash(t) for t in range(41)]
        assert vals == sorted(vals)

    def test_collision_rate_closed_form(self):
        T, dt, k, trials = 100, 10, 20, 20_000
        p = (1 - dt / T) ** k
        hits = pivot_collision_count(30.0, 40.0, T, k, trials, seed=11)
        assert abs(hits - p * trials) <= three_sigma(p, trials)

    def test_full_timeline_gap_never_collides(self):
        hits = pivot_collision_count(0.0, 100.0, 100, 5, 5_000, seed=13)
        assert hits == 0

    def test_monotone_sensitivity_in_gap(self):
        T, k, trials = 100, 10, 30_000
        rates = []
        for dt in (5, 15, 30, 60):
            hits = pivot_collision_count(10.0, 10.0 + dt, T, k, trials, seed=17)
            rates.append(hits / trials)
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_needs_a_pivot(self):
        with pytest.raises(ValueError):
            TemporalPivotHasher(0, 10, seed=0)


class TestOptimalPivots:
    def test_large_timeline(self):
        assert optimal_pivots(10, 1000) == 200

    def test_whole_timeline_clamps_to_two(self):
        assert optimal_pivots(100, 100) == 2

    def test_quarter_timeline(self):
        assert optimal_pivots(25, 100) == 8

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            optimal_pivots(0, 100)
        with pytest.raises(ValueError):
            optimal_pivots(101, 100)


class TestCompositeCollisionLaw:
    def test_joint_law_grid(self):
        T, trials = 100, 10_000
        for jw_target, wa, wb in [
            (0.5, {0: 1.0}, {0: 1.0, 1: 1.0}),
            (0.25, {0: 1.0}, {0: 1.0, 1: 3.0}),
        ]:
            for dt in (5, 20):
                for (r, k) in [(2, 10), (4, 5)]:
                    jw = weighted_jaccard(wa, wb)
                    p = jw ** r * (1 - dt / T) ** k
                    hits = composite_collision_count(
                        wa, wb, dt, T, r, k, trials, seed=[23, dt, r, k])
                    assert abs(hits - p * trials) <= three_sigma(p, trials), \
                        (jw, dt, r, k, hits / trials, p)

    def test_banding_law(self):
        # collision in >= 1 of b bands happens with probability 1-(1-p)^b
        rng_seed, trials, b = 29, 8_000, 3
        wa, wb = {0: 1.0}, {0: 1.0, 1: 1.0}
        dt, T, r, k = 10, 100, 2, 8
        jw = weighted_jaccard(wa, wb)
        p = jw ** r * (1 - dt / T) ** k
        per_band = np.zeros(trials, dtype=bool)
        any_band = np.zeros(trials, dtype=bool)
        for j in range(b):
            hits_mask = np.zeros(trials, dtype=bool)
            # reuse the counting helper per band with band-specific seeds by
            # drawing trials independently; accumulate OR empirically
            hits = composite_collision_count(wa, wb, dt, T, r, k,
                                             trials, seed=[rng_seed, j])
            # per-band rate check
            assert abs(hits - p * trials) <= three_sigma(p, trials)
        # direct OR simulation
        rng = np.random.default_rng(31)
        collide_any = 0
        sub = 4_000
        for _ in range(sub):
            got = False
            for j in range(b):
                s = int(rng.integers(0, 2 ** 31))
                if composite_collision_count(wa, wb, dt, T, r, k, 1, seed=s):
                    got = True
                    break
            collide_any += got
        p_or = 1 - (1 - p) ** b
        assert abs(collide_any - p_or * sub) <= three_sigma(p_or, sub)


def fill_factor(bk):
    """Entries over distinct nodes times distinct timestamps."""
    nodes = {u for u, _ in bk.entries}
    times = {t for _, t in bk.entries}
    return len(bk.entries) / (len(nodes) * len(times))


class TestBuckets:
    def test_sort_by_consistency_then_size(self):
        # hash_all ranks buckets by descending fill factor, then size, then
        # ascending key
        g = random_instance(np.random.default_rng(3), 10, 8, density=0.3)
        buckets = hash_all(g, [Interval(0, 7)], [1, 2, 4], r=1, b=3, seed=4)
        keys = [(-fill_factor(bk), -len(bk.entries), bk.key.scale, bk.key.band,
                 bk.key.time_part, bk.key.graph_part) for bk in buckets]
        assert len({key[0] for key in keys}) > 1
        assert keys == sorted(keys)


class TestScaleLadder:
    def test_geometric_up_to_half(self):
        assert scale_ladder(100) == [1, 2, 4, 8, 16, 32]
        assert scale_ladder(8) == [1, 2, 4]
        assert scale_ladder(1) == [1]
        assert scale_ladder(2) == [1]


class TestHashAll:
    def test_no_open_intervals_no_work(self):
        g = clique_graph(5, T=4)
        assert hash_all(g, [], [1, 2], r=2, b=2, seed=0) == []

    def test_every_active_pair_hashed(self):
        g = cycle_graph(5, T=4)
        buckets = hash_all(g, [Interval(0, 3)], [1, 2], r=2, b=2, seed=0,
                           min_entries=1)
        for s in (1, 2):
            total = sum(len(b.entries) for b in buckets if b.key.scale == s)
            assert total == 2 * g.n * g.T  # b bands per (node, timestamp)

    def test_determinism(self):
        g = cycle_graph(6, T=5)
        a = hash_all(g, [Interval(1, 3)], [1, 2], r=2, b=2, seed=9)
        b = hash_all(g, [Interval(1, 3)], [1, 2], r=2, b=2, seed=9)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.key == y.key and x.entries == y.entries

    def test_entries_sorted_canonically(self):
        g = cycle_graph(6, T=5)
        for b in hash_all(g, [Interval(0, 4)], [1], r=2, b=2, seed=2):
            assert b.entries == sorted(b.entries)

    def test_eligibility_window(self):
        # at scale s only the timestamps of intervals no longer than
        # span_cap * s are hashed, with no window around them
        g = cycle_graph(5, T=12)
        intervals = [Interval(0, 1), Interval(4, 11)]

        def hashed(span_cap):
            buckets = hash_all(g, intervals, [2], r=2, b=2, seed=1,
                               min_entries=1, span_cap=span_cap)
            return {t for b in buckets for _, t in b.entries}

        assert hashed(1.0) == {0, 1}
        assert hashed(3.5) == {0, 1}
        assert hashed(4.0) == {0, 1} | set(range(4, 12))
        assert hashed(math.inf) == hashed(4.0)
        assert hash_all(g, intervals, [2], r=2, b=2, seed=1,
                        span_cap=0.5) == []

    def test_eligible_timestamps(self):
        elig = _eligible_timestamps(10, np.array([2, 3, 8]), np.array([4, 3, 9]))
        assert np.flatnonzero(elig).tolist() == [2, 3, 4, 8, 9]
        none = np.array([], dtype=np.int64)
        assert not _eligible_timestamps(10, none, none).any()


def capped_eligible(T, intervals, s, span_cap):
    """hash_all's rule: timestamps inside some interval no longer than
    span_cap * s."""
    elig = np.zeros(T, dtype=bool)
    for iv in intervals:
        if iv.length <= span_cap * s:
            elig[iv.start:iv.end + 1] = True
    return elig


def window_eligible(T, intervals, s, span_cap=None):
    """The ±s window rule: timestamps t such that some interval, whatever
    its length, intersects [t - s, t + s]."""
    return np.array([any(iv.start <= t + s and t - s <= iv.end
                         for iv in intervals) for t in range(T)], dtype=bool)


def dict_loop_hash_all(g, intervals, scales, r, b, seed, min_entries,
                       span_cap=math.inf, eligible=capped_eligible):
    """Reference bucket table: one dict of entry lists filled one (node,
    timestamp, band) at a time, then a stable sort of the buckets by
    (-fill factor, -size, key), each with the span and seeding counted from
    its entries. Hashing per timestamp is hash_all's; which timestamps a
    scale hashes is ``eligible``'s."""
    intervals = list(intervals)
    tables = {}
    if not intervals:
        return []
    owner = np.concatenate([g.edge_u, g.edge_v])
    inc_keys = np.concatenate([g.edge_v, g.edge_u])
    inc_eids = np.concatenate([np.arange(g.n_edges)] * 2)
    order = np.argsort(owner, kind="stable")
    owner, inc_keys, inc_eids = owner[order], inc_keys[order], inc_eids[order]
    for s in scales:
        elig = eligible(g.T, intervals, s, span_cap)
        if not elig.any():
            continue
        k = optimal_pivots(min(2 * s, g.T), g.T)
        graph_hasher = WeightedMinHasher(b * r, g.n, seed=[seed, s, 0])
        pivot_hashers = [TemporalPivotHasher(k, g.T, seed=[seed, s, 1, j])
                         for j in range(b)]
        for t in np.flatnonzero(elig):
            t = int(t)
            time_parts = [ph.pivot_hash(t) for ph in pivot_hashers]
            w = g.weights[:, t][inc_eids]
            live = w > 0
            keys_l, owner_l, w_l = inc_keys[live], owner[live], w[live]
            if len(owner_l) == 0:
                continue
            vols = np.bincount(owner_l, weights=w_l, minlength=g.n)
            active = np.flatnonzero(vols > 0)
            seg_len = np.bincount(owner_l, minlength=g.n)[active] + 1
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
            packed = _pack64(*graph_hasher.sample_segments(keys, vals, starts,
                                                           seg_len))
            for j in range(b):
                for i, u in enumerate(active.tolist()):
                    gp = tuple(int(x) for x in packed[i, j * r:(j + 1) * r])
                    tables.setdefault((s, j, time_parts[j], gp), []).append((u, t))
    buckets = []
    for (s, j, tp, gp), entries in tables.items():
        if len(entries) >= min_entries:
            entries.sort()
            ts = [t for _, t in entries]
            seeding = tuple(zip(*sorted(Counter(u for u, _ in entries).items())))
            buckets.append(Bucket(CompositeSignature(s, j, tp, gp), entries,
                                  (min(ts), max(ts)), seeding))
    return sorted(buckets, key=lambda bk: (-fill_factor(bk), -len(bk.entries),
                                           (bk.key.scale, bk.key.band,
                                            bk.key.time_part, bk.key.graph_part)))


def random_hash_input(rng):
    g = random_instance(rng, int(rng.integers(3, 12)), int(rng.integers(1, 16)),
                        density=float(rng.uniform(0.1, 0.8)))
    intervals = []
    for _ in range(int(rng.integers(1, 4))):
        lo = int(rng.integers(0, g.T))
        intervals.append(Interval(lo, int(rng.integers(lo, g.T))))
    return g, intervals


def assert_same_buckets(got, want):
    for field in ("key", "entries", "span", "seeding"):
        assert [getattr(bk, field) for bk in got] == \
            [getattr(bk, field) for bk in want]


class TestHashAllMatchesDictLoop:
    @pytest.mark.parametrize("r, b, scales, min_entries, seed", [
        (1, 1, [1], 1, 0),
        (2, 2, [1, 2, 4], 2, 3),
        (3, 4, [2, 8], 3, 11),
        (1, 3, [4, 1, 2], 2, 5),
        (4, 2, [1, 2, 4, 8], 1, 7),
    ])
    # every case draws its instances from the rng stream [seed, 4096]
    @pytest.mark.parametrize("stream", [4096])
    def test_random_instances(self, r, b, scales, min_entries, seed, stream):
        rng = np.random.default_rng([seed, stream])
        for trial in range(4):
            g, intervals = random_hash_input(rng)
            args = (g, intervals, scales, r, b, seed)
            for span_cap in (math.inf, 1.0, 2.0):
                assert_same_buckets(
                    hash_all(*args, min_entries=min_entries, span_cap=span_cap),
                    dict_loop_hash_all(*args, min_entries, span_cap))


class TestSpanCapKeepsRefinableBuckets:
    @given(seed=st.integers(0, 2 ** 32 - 1),
           span_cap=st.sampled_from([math.inf, 1.0, 2.0, 3.0]),
           min_entries=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_against_window_rule(self, seed, span_cap, min_entries):
        # a bucket whose span fits in one interval within the span cap keeps
        # its key and entries; a bucket of the window rule loses entries only
        # to leave a span no interval within the cap holds
        rng = np.random.default_rng(seed)
        g, intervals = random_hash_input(rng)
        args = (g, intervals, scale_ladder(g.T), 2, 2, seed % 97)
        got = hash_all(*args, min_entries=min_entries, span_cap=span_cap)
        want = dict_loop_hash_all(*args, min_entries, eligible=window_eligible)
        got_by_key = {bk.key: bk.entries for bk in got}
        want_by_key = {bk.key: bk.entries for bk in want}
        assert len(got_by_key) == len(got) and len(want_by_key) == len(want)
        for bk in want:
            lo, hi = bk.span
            if any(iv.start <= lo and hi <= iv.end
                   and iv.length <= span_cap * bk.key.scale
                   for iv in intervals):
                assert got_by_key.get(bk.key) == bk.entries
        for key, entries in got_by_key.items():
            assert set(entries) <= set(want_by_key[key])

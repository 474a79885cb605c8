"""Random-walk-with-restart scores, sweep cuts, and bucket refinement."""

import math

import networkx as nx
import numpy as np
import pytest

from conftest import (bucket_of, clique_graph, connected_random_instance,
                      cycle_graph, random_instance)
from tempocom.graph import (Interval, NormalizationConfig, TemporalGraph,
                            aggregate, conductance, eta)
from tempocom.graph import dense_adjacency
from tempocom.oracle import brute_force_best, brute_force_min_phi
from tempocom import refine
from tempocom.refine import (NoConnectedPrefixError, WalkParams, fiedler_sweep,
                             refine_bucket, refine_seedings, rwr_scores,
                             seed_rankings, sweep)
from tempocom.spectral import exact_lambda2
from tempocom.synth import SynthConfig, generate
from tempocom.tlsh import Bucket, CompositeSignature


def agg(g):
    return aggregate(g, g.full_interval())


def assert_sweep_matches_oracle(g, ranking, cfg):
    """sweep over the full interval against an enumeration of all prefixes,
    connectivity checked by networkx."""
    ag = agg(g)
    n = g.n
    G = nx.Graph()
    coo = ag.adjacency.tocoo()
    G.add_nodes_from(range(n))
    G.add_edges_from((int(u), int(v)) for u, v in zip(coo.row, coo.col))
    best = None
    for L in range(1, n):
        pref = set(ranking[:L])
        if not nx.is_connected(G.subgraph(pref)):
            continue
        key = (conductance(g, pref, ag.interval, cfg), L)
        if best is None or key < best[0]:
            best = (key, frozenset(pref))
    assert best is not None
    result = sweep(ag, ranking, cfg)
    nodes, size, phi = result
    # ties between prefixes may break differently under cumulative-sum
    # arithmetic; the achieved value must match the enumerated optimum
    if math.isinf(best[0][0]):
        assert math.isinf(phi)
    else:
        assert phi == pytest.approx(best[0][0], rel=1e-9)
        assert conductance(g, nodes, ag.interval, cfg) == \
            pytest.approx(best[0][0], rel=1e-9)
    assert nodes == frozenset(ranking[:size])
    assert nx.is_connected(G.subgraph(nodes))
    return result


def power_iteration(ag, seeds, c, tol=1e-14):
    """The restart walk iterated to an L1 change below tol, with self-loops
    on zero-volume nodes."""
    restart = np.zeros(ag.n)
    restart[seeds] = 1 / len(seeds)
    walk = np.zeros((ag.n, ag.n))
    pos = ag.volumes > 0
    walk[:, pos] = ag.adjacency.toarray()[:, pos] / ag.volumes[pos]
    walk[~pos, ~pos] = 1.0
    x = restart.copy()
    for _ in range(100_000):
        nxt = (1 - c) * walk @ x + c * restart
        if np.abs(nxt - x).sum() < tol:
            return nxt
        x = nxt
    raise AssertionError("power iteration did not converge")


class TestRwrScores:
    def test_scores_are_a_distribution(self):
        rng = np.random.default_rng(61)
        g = connected_random_instance(rng, 15, 2)
        s = rwr_scores(agg(g), [[0, 3]])[:, 0]
        assert np.all(s >= 0)
        assert s.sum() == pytest.approx(1.0, abs=1e-8)

    def test_symmetric_seeds_on_clique(self):
        g = clique_graph(4)
        s = rwr_scores(agg(g), [[0]])[:, 0]
        # all non-seed nodes are automorphic images of one another
        assert s[1] == pytest.approx(s[2], abs=1e-12)
        assert s[2] == pytest.approx(s[3], abs=1e-12)
        assert s[0] > s[1]

    def test_mass_stays_on_reachable_component(self):
        records = [(0, 1, 0, 1.0), (2, 3, 0, 1.0)]
        g = TemporalGraph.from_records([str(i) for i in range(4)], 1, records)
        s = rwr_scores(agg(g), [[0]])[:, 0]
        assert s[0] + s[1] == pytest.approx(1.0, abs=1e-8)
        assert s[2] == 0.0 and s[3] == 0.0

    def test_matches_dense_linear_solve(self):
        rng = np.random.default_rng(67)
        g = connected_random_instance(rng, 10, 2)
        ag = agg(g)
        c = 0.15
        seeds = [1, 4]
        restart = np.zeros(ag.n)
        restart[seeds] = 1 / len(seeds)
        P = ag.adjacency.toarray() / ag.volumes[:, None]
        x = np.linalg.solve(np.eye(ag.n) - (1 - c) * P.T, c * restart)
        got = rwr_scores(ag, [seeds], WalkParams(restart=c))[:, 0]
        assert np.allclose(got, x, atol=1e-12)

    def test_columns_equal_single_set_calls(self):
        rng = np.random.default_rng(53)
        g = random_instance(rng, 20, 3, density=0.15)
        ag = agg(g)
        seed_sets = [[0], [3, 7], [19, 2, 5], [0]]
        got = rwr_scores(ag, seed_sets)
        assert got.shape == (20, 4)
        # a multi-column triangular solve may round differently from a
        # single-column one, in the last bits only
        for j, seeds in enumerate(seed_sets):
            assert np.abs(got[:, j] - rwr_scores(ag, [seeds])[:, 0]).max() \
                < 1e-15

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(59)
        for trial in range(5):
            g = random_instance(rng, 25, 2, density=0.12)
            ag = agg(g)
            c = float(rng.uniform(0.05, 0.5))
            seed_sets = [[int(u) for u in rng.choice(25, size=k, replace=False)]
                         for k in (1, 2, 4)]
            got = rwr_scores(ag, seed_sets, WalkParams(restart=c))
            for j, seeds in enumerate(seed_sets):
                ref = power_iteration(ag, seeds, c)
                assert np.abs(got[:, j] - ref).max() < 1e-10

    def test_idle_nodes_keep_exactly_their_restart_mass(self):
        # nodes 3 and 4 have no edge on the interval
        records = [(0, 1, 0, 1.0), (1, 2, 0, 2.0), (3, 4, 1, 1.0)]
        g = TemporalGraph.from_records([str(i) for i in range(5)], 2, records)
        ag = aggregate(g, Interval(0, 0))
        s = rwr_scores(ag, [[0, 3, 4], [3], [1]])
        assert s[3, 0] == 1 / 3 and s[4, 0] == 1 / 3
        assert s[3, 1] == 1.0 and s[4, 1] == 0.0
        assert s[3, 2] == 0.0 and s[4, 2] == 0.0
        assert s.sum(axis=0) == pytest.approx(1.0, abs=1e-12)

    def test_sparse_factorization_matches_dense(self, monkeypatch):
        rng = np.random.default_rng(47)
        g = random_instance(rng, 40, 3, density=0.1)
        ag = agg(g)
        seed_sets = [[0], [5, 9], [int(u) for u in range(0, 40, 7)]]
        dense = rwr_scores(ag, seed_sets)
        monkeypatch.setattr(refine, "DENSE_WALK_MAX_NODES", 0)
        sparse = rwr_scores(ag, seed_sets)
        assert np.abs(sparse - dense).max() < 1e-12

    def test_empty_seeds_rejected(self):
        g = clique_graph(3)
        with pytest.raises(ValueError):
            rwr_scores(agg(g), [[0], []])

    def test_restart_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            WalkParams(restart=0.0)
        with pytest.raises(ValueError):
            WalkParams(restart=1.0)

    def test_seed_rankings_sort_each_walk(self):
        rng = np.random.default_rng(43)
        g = random_instance(rng, 18, 2, density=0.2)
        ag = agg(g)
        active = np.flatnonzero(ag.volumes > 0)
        seeds = [int(u) for u in active[:4]]
        scores = rwr_scores(ag, [[u] for u in seeds])
        for j, ranking in enumerate(seed_rankings(ag, seeds)):
            norm = {int(v): scores[v, j] / ag.volumes[v] for v in active}
            assert ranking.tolist() == sorted(norm, key=lambda v: (-norm[v], v))


class TestSweep:
    def test_four_cycle_best_prefix(self):
        g = cycle_graph(4)
        nodes, size, phi = sweep(agg(g), [0, 1, 2, 3], NormalizationConfig(0.0))
        assert nodes == frozenset({0, 1})
        assert size == 2
        assert phi == pytest.approx(0.5, abs=1e-12)

    def test_clique_best_is_any_pair(self):
        g = clique_graph(4)
        nodes, size, phi = sweep(agg(g), [2, 0, 3, 1], NormalizationConfig(0.0))
        assert size == 2
        assert phi == pytest.approx(2 / 3, abs=1e-12)

    def test_full_set_excluded(self):
        g = clique_graph(5)
        nodes, _, _ = sweep(agg(g), list(range(5)), NormalizationConfig(0.0))
        assert len(nodes) < 5

    def test_duplicates_rejected(self):
        g = clique_graph(3)
        with pytest.raises(ValueError):
            sweep(agg(g), [0, 0, 1], NormalizationConfig(0.0))

    def test_no_evaluable_prefix_raises(self):
        # a length-1 ranking has no proper prefix to evaluate
        g = clique_graph(3)
        with pytest.raises(NoConnectedPrefixError):
            sweep(agg(g), [0], NormalizationConfig(0.0))

    def test_disconnected_prefixes_skipped_not_fatal(self):
        g = cycle_graph(6)
        # prefix {0, 3} is disconnected; sweep must skip it and continue
        nodes, _, phi = sweep(agg(g), [0, 3, 1, 2, 4], NormalizationConfig(0.0))
        assert math.isfinite(phi)

    def test_matches_prefix_enumeration_oracle(self):
        rng = np.random.default_rng(71)
        cfg = NormalizationConfig(0.0)
        for trial in range(25):
            n = int(rng.integers(4, 10))
            g = connected_random_instance(rng, n, 2, density=0.4)
            assert_sweep_matches_oracle(g, [int(x) for x in rng.permutation(n)],
                                        cfg)

    def test_matches_oracle_with_disconnected_prefixes(self):
        # sparse graphs that are mostly disconnected: most prefixes fail
        rng = np.random.default_rng(83)
        cfg = NormalizationConfig(0.2)
        for trial in range(25):
            n = int(rng.integers(6, 30))
            g = random_instance(rng, n, 2, density=float(rng.uniform(0.05, 0.3)))
            if agg(g).total_volume == 0:
                continue
            assert_sweep_matches_oracle(g, [int(x) for x in rng.permutation(n)],
                                        cfg)

    def test_certificate_and_forest_paths_match_oracle(self, monkeypatch):
        # in BFS order every node after the first has an earlier neighbour,
        # which certifies every prefix connected without the spanning
        # forest; moving a non-neighbour of the root to second place breaks
        # the certificate, so the same graph takes the forest path
        forests = []
        mst = refine.minimum_spanning_tree
        monkeypatch.setattr(refine, "minimum_spanning_tree",
                            lambda *a: forests.append(1) or mst(*a))
        rng = np.random.default_rng(97)
        cfg = NormalizationConfig(0.2)
        moved_trials = 0
        for trial in range(20):
            n = int(rng.integers(5, 14))
            g = connected_random_instance(rng, n, 2, density=0.25)
            G = nx.from_scipy_sparse_array(agg(g).adjacency)
            root = int(rng.integers(n))
            bfs = [root] + [int(v) for _, v in nx.bfs_edges(G, root)]
            assert_sweep_matches_oracle(g, bfs, cfg)
            assert len(forests) == moved_trials
            far = [v for v in bfs[2:] if not G.has_edge(root, v)]
            if not far:
                continue
            moved = [root, far[0]] + [v for v in bfs[1:] if v != far[0]]
            assert_sweep_matches_oracle(g, moved, cfg)
            moved_trials += 1
            assert len(forests) == moved_trials
        assert moved_trials >= 10

    def test_low_phi_prefixes_disconnected(self):
        # six separate components, each a clique of 4 + b nodes with one
        # pendant node; ranked clique by clique in growing size, pendants
        # last. Unions of whole cliques up to half the volume have lower phi
        # than clique 0 alone, but only prefixes within clique 0 are
        # connected.
        records, cliques, pendants = [], [], []
        base = 0
        for b in range(6):
            size = 4 + b
            members = list(range(base, base + size))
            records += [(u, v, 0, 1.0) for i, u in enumerate(members)
                        for v in members[i + 1:]]
            records.append((base, base + size, 0, 1.0))
            cliques.append(members)
            pendants.append(base + size)
            base += size + 1
        g = TemporalGraph.from_records([str(i) for i in range(base)], 1,
                                       records)
        ranking = [u for members in cliques for u in members] + pendants
        cfg = NormalizationConfig(0.0)
        iv = Interval(0, 0)
        first = conductance(g, set(cliques[0]), iv, cfg)
        lower = [L for L in range(len(cliques[0]) + 1, len(ranking))
                 if conductance(g, set(ranking[:L]), iv, cfg) < first]
        assert len(lower) >= 4
        nodes, size, phi = assert_sweep_matches_oracle(g, ranking, cfg)
        assert nodes == frozenset(cliques[0]) and phi == pytest.approx(first)

    def test_limit_keeps_only_prefixes_below_it(self):
        rng = np.random.default_rng(89)
        cfg = NormalizationConfig(0.0)
        for trial in range(10):
            g = connected_random_instance(rng, 9, 2, density=0.4)
            ranking = [int(x) for x in rng.permutation(9)]
            _, size, phi = sweep(agg(g), ranking, cfg)
            assert sweep(agg(g), ranking, cfg, limit=phi * 1.001)[1] == size
            with pytest.raises(NoConnectedPrefixError):
                sweep(agg(g), ranking, cfg, limit=phi)

    def test_no_worse_than_best_singleton(self):
        rng = np.random.default_rng(73)
        cfg = NormalizationConfig(0.0)
        g = connected_random_instance(rng, 8, 2)
        ag = agg(g)
        ranking = list(range(8))
        _, _, phi = sweep(ag, ranking, cfg)
        best_single = min(conductance(g, {u}, ag.interval, cfg) for u in ranking)
        assert phi <= best_single + 1e-12


def barbell(k: int, T: int = 1) -> TemporalGraph:
    """Two k-cliques joined by one edge between node k-1 and node k."""
    records = [(u, v, t, 1.0) for base in (0, k)
               for u in range(base, base + k) for v in range(u + 1, base + k)
               for t in range(T)]
    records += [(k - 1, k, t, 1.0) for t in range(T)]
    return TemporalGraph.from_records([str(i) for i in range(2 * k)], T,
                                      records)


class TestFiedlerSweep:
    def test_barbell_splits_at_the_bridge(self):
        g = barbell(5)
        iv = Interval(0, 0)
        res = exact_lambda2(dense_adjacency(g, iv))
        cand = fiedler_sweep(g, iv, res.fiedler, NormalizationConfig(0.0))
        assert cand.nodes in (frozenset(range(5)), frozenset(range(5, 10)))
        assert cand.phi == pytest.approx(1 / 21, rel=1e-12)

    def test_connected_real_and_above_optimum(self):
        rng = np.random.default_rng(79)
        cfg = NormalizationConfig(0.2)
        for trial in range(15):
            g = connected_random_instance(rng, int(rng.integers(3, 11)), 3,
                                          density=0.3)
            iv = Interval(0, int(rng.integers(0, 3)))
            res = exact_lambda2(dense_adjacency(g, iv))
            cand = fiedler_sweep(g, iv, res.fiedler, cfg)
            assert cand.phi == pytest.approx(
                conductance(g, cand.nodes, iv, cfg), rel=1e-12)
            nodes = sorted(cand.nodes)
            sub = nx.Graph()
            sub.add_nodes_from(nodes)
            sub.add_edges_from((int(u), int(v)) for u, v in
                               zip(g.edge_u, g.edge_v)
                               if u in cand.nodes and v in cand.nodes)
            assert nx.is_connected(sub)
            opt, _ = brute_force_min_phi(g, iv, cfg)
            assert cand.phi >= opt - 1e-12

    def test_disconnected_interval_yields_a_component(self):
        records = [(u, v, 0, 1.0) for base in (0, 3)
                   for u, v in ((base, base + 1), (base + 1, base + 2),
                                (base, base + 2))]
        g = TemporalGraph.from_records([str(i) for i in range(7)], 1, records)
        iv = Interval(0, 0)
        res = exact_lambda2(dense_adjacency(g, iv))
        assert res.lambda2 <= 1e-12
        cand = fiedler_sweep(g, iv, res.fiedler, NormalizationConfig(0.0))
        assert cand.nodes in (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
        assert cand.phi == 0.0

    def test_limit_discards_cuts_at_or_above_it(self):
        g = barbell(5)
        iv = Interval(0, 0)
        res = exact_lambda2(dense_adjacency(g, iv))
        cfg = NormalizationConfig(0.0)
        assert fiedler_sweep(g, iv, res.fiedler, cfg, limit=0.04) is None
        assert fiedler_sweep(g, iv, res.fiedler, cfg, limit=0.05) is not None


class TestRefineBucket:
    def test_phi_matches_recomputation(self):
        rng = np.random.default_rng(79)
        g = connected_random_instance(rng, 10, 4)
        entries = [(0, 1), (2, 1), (0, 3), (5, 2)]
        res = refine_bucket(g, bucket_of(entries), NormalizationConfig(0.2))
        c = res.community
        assert c.interval == Interval(1, 3)
        assert c.phi == conductance(g, c.nodes, c.interval,
                                    NormalizationConfig(0.2))

    def test_planted_bucket_recovers_optimum(self):
        norm = NormalizationConfig(0.2)
        g, truth = generate(SynthConfig(n=10, attachment=2, timeline=6,
                                        planted_nodes=4, planted_length=3,
                                        contrast=9.0, seed=12), norm)
        best = brute_force_best(g, norm)
        entries = [(u, t) for u in sorted(truth.nodes)
                   for t in range(truth.interval.start, truth.interval.end + 1)]
        res = refine_bucket(g, bucket_of(entries), norm)
        assert res.community.phi >= best.phi - 1e-12

    def test_singleton_bucket_valid(self):
        rng = np.random.default_rng(83)
        g = connected_random_instance(rng, 8, 3)
        res = refine_bucket(g, bucket_of([(2, 1)]), NormalizationConfig(0.0))
        assert math.isfinite(res.community.phi)
        assert 0 < len(res.community.nodes) < g.n

    def test_empty_bucket_rejected(self):
        g = clique_graph(3)
        empty = Bucket(CompositeSignature(1, 0, 1, (0,)), [], (0, 0), ((), ()))
        with pytest.raises(ValueError):
            refine_bucket(g, empty, NormalizationConfig(0.0))

    def test_multiplicity_orders_bucket_nodes_first(self):
        g = clique_graph(6, T=4)
        entries = [(3, 0), (3, 1), (3, 2), (1, 0), (1, 1), (4, 2)]
        res = refine_bucket(g, bucket_of(entries), NormalizationConfig(0.0))
        # node 3 has the highest multiplicity; the minimum-size prefix always
        # contains it
        assert 3 in res.community.nodes


# -- reference: the one-bucket-at-a-time refine and 1-D sweep -------------

def reference_conductance(g, nodes, iv, cfg):
    """graph.conductance as a direct sum over one membership mask."""
    members = np.zeros(g.n, dtype=bool)
    members[list(nodes)] = True
    s = g.interval_edge_weights(iv)
    in_u, in_v = members[g.edge_u], members[g.edge_v]
    cut = float(s[in_u != in_v].sum())
    vol_c = float(s[in_u].sum() + s[in_v].sum())
    # a smaller complement volume summed over its nodes, not total - vol_c
    node_vols = (np.bincount(g.edge_u, weights=s, minlength=g.n)
                 + np.bincount(g.edge_v, weights=s, minlength=g.n))
    denom = (vol_c if vol_c <= 2.0 * float(s.sum()) - vol_c
             else float(node_vols[~members].sum()))
    if denom <= 0:
        return math.inf
    return eta(iv, cfg) * cut / denom


def reference_sweep(ag, ranking, cfg, limit=math.inf):
    """(nodes, size, phi) of the first lowest-phi connected prefix below
    limit, or None; one ranking, cumulative sums along it."""
    ranking = np.asarray(ranking, dtype=np.int64)
    n = ag.n
    steps = min(len(ranking) - 1, n - 1)
    if steps <= 0:
        return None
    order = ranking[:steps]
    rank = np.full(n, steps, dtype=np.int64)
    rank[order] = np.arange(steps)
    ra, rb = rank[ag.edge_u], rank[ag.edge_v]
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
    if ok.any():
        G = nx.Graph()
        G.add_nodes_from(range(steps))
        for i in range(steps):
            G.add_edges_from((int(a), int(b)) for a, b in zip(ru, rv)
                             if b == i)
            ok[i] &= nx.is_connected(G.subgraph(range(i + 1)))
    if not ok.any():
        return None
    i = int(np.flatnonzero(ok)[np.argmin(phi[ok])])
    return frozenset(order[:i + 1].tolist()), i + 1, float(phi[i])


def reference_refine(g, ag, seeds, multiplicity, scores, cfg):
    """(nodes, interval, phi) of one bucket's refinement, or None."""
    bucket_rank = seeds[np.lexsort((seeds, -scores[seeds], -multiplicity))]
    norm = np.zeros(g.n)
    pos = ag.volumes > 0
    norm[pos] = scores[pos] / ag.volumes[pos]
    norm[seeds] = 0.0
    rest = np.flatnonzero(norm > 0)
    rest = rest[np.lexsort((rest, -norm[rest]))]
    found = reference_sweep(ag, np.concatenate([bucket_rank, rest]), cfg)
    if found is None:
        return None
    nodes = found[0]
    return nodes, ag.interval, reference_conductance(g, nodes, ag.interval, cfg)


def bits(result):
    return None if result is None else (result[0], result[1],
                                        float(result[2]).hex())


def seeding_instances(rng):
    """(graph, interval) pairs: sparse random graphs, most of them
    disconnected on the interval, and symmetric ones with tied walk
    scores."""
    for _ in range(30):
        n = int(rng.integers(4, 22))
        T = int(rng.integers(1, 5))
        g = random_instance(rng, n, T, density=float(rng.uniform(0.08, 0.4)))
        start = int(rng.integers(T))
        yield g, Interval(start, int(rng.integers(start, T)))
    yield clique_graph(6, T=2), Interval(0, 1)
    yield cycle_graph(8), Interval(0, 0)
    yield cycle_graph(7, T=3), Interval(1, 2)


class TestFiedlerSweepMatchesTwoSweeps:
    def test_random_instances(self):
        # the better of an ascending and a descending sweep, the ascending
        # one on ties, with and without a limit
        rng = np.random.default_rng(199)
        cfg = NormalizationConfig(0.2)
        for g, iv in seeding_instances(rng):
            ag = aggregate(g, iv)
            support = np.flatnonzero(ag.volumes > 0)
            # rounded scores tie often, and stable ordering keeps index order
            fiedler = np.round(rng.normal(size=g.n), 1)
            order = support[np.argsort(fiedler[support], kind="stable")]
            for limit in (math.inf, float(rng.uniform(0.1, 1.0))):
                found = [(r[2], r[1], r[0]) for r in (
                    reference_sweep(ag, order, cfg, limit),
                    reference_sweep(ag, order[::-1], cfg, limit))
                    if r is not None]
                cand = fiedler_sweep(g, iv, fiedler, cfg, limit)
                if not found:
                    assert cand is None
                    continue
                phi, _, nodes = min(found, key=lambda f: f[:2])
                assert cand.nodes == nodes
                assert cand.phi == reference_conductance(g, nodes, iv, cfg)


class TestRefineSeedingsMatchesPerBucketRefine:
    @pytest.mark.parametrize("one_row_chunks", [False, True])
    def test_random_instances(self, monkeypatch, one_row_chunks):
        if one_row_chunks:
            monkeypatch.setattr(refine, "SWEEP_CHUNK_ELEMENTS", 1)
        forests = []
        mst = refine.minimum_spanning_tree
        monkeypatch.setattr(refine, "minimum_spanning_tree",
                            lambda *a: forests.append(1) or mst(*a))
        rng = np.random.default_rng(191)
        cfg = NormalizationConfig(0.2)
        seen = {"none": 0, "found": 0, "lengths": 0, "tied": 0}
        for g, iv in seeding_instances(rng):
            ag = aggregate(g, iv)
            if ag.total_volume == 0:
                continue
            seedings = []
            for _ in range(int(rng.integers(1, 9))):
                k = int(rng.integers(1, min(4, g.n) + 1))
                seeds = np.sort(rng.choice(g.n, size=k, replace=False))
                seedings.append((seeds, rng.integers(1, 3, size=k)))
            scores = rwr_scores(ag, [seeds for seeds, _ in seedings])
            got = refine_seedings(g, ag, seedings, scores, cfg)
            assert len(got) == len(seedings)
            lengths = set()
            for j, ((seeds, mult), res) in enumerate(zip(seedings, got)):
                want = reference_refine(g, ag, seeds, mult, scores[:, j], cfg)
                assert bits(None if res is None else
                            (res.nodes, res.interval, res.phi)) == bits(want)
                seen["none" if want is None else "found"] += 1
                lengths.add(int((scores[:, j] > 0).sum()))
                seen["tied"] += len(set(mult)) < len(mult)
            seen["lengths"] += len(lengths) > 1
        assert all(seen.values()), seen
        assert forests

    def test_refine_bucket_is_the_one_bucket_case(self):
        rng = np.random.default_rng(193)
        cfg = NormalizationConfig(0.2)
        for g, iv in seeding_instances(rng):
            entries = [(int(u), t) for u in rng.choice(g.n, size=3)
                       for t in (iv.start, iv.end)]
            ag = aggregate(g, iv)
            seeds, mult = np.unique([u for u, _ in entries],
                                    return_counts=True)
            want = reference_refine(g, ag, seeds, mult,
                                    rwr_scores(ag, [seeds])[:, 0], cfg)
            try:
                c = refine_bucket(g, bucket_of(entries), cfg).community
                got = (c.nodes, c.interval, c.phi)
            except NoConnectedPrefixError:
                got = None
            assert bits(got) == bits(want)


class TestSweepRows:
    def test_rows_match_one_dimensional_sweeps(self):
        # rows of different lengths, padded with the rest of a permutation,
        # each checked against a sweep of its ranking alone, with and
        # without a limit
        rng = np.random.default_rng(197)
        for trial in range(40):
            n = int(rng.integers(3, 16))
            g = random_instance(rng, n, 2, density=float(rng.uniform(0.1, 0.6)))
            ag = agg(g)
            if ag.total_volume == 0:
                continue
            cfg = NormalizationConfig(0.2)
            perms = [rng.permutation(n) for _ in range(int(rng.integers(1, 6)))]
            rankings = [p[:int(rng.integers(2, n + 1))] for p in perms]
            steps = np.array([len(r) - 1 for r in rankings])
            order = np.stack(perms)[:, :steps.max()]
            for limit in (math.inf, float(rng.uniform(0.05, 1.5))):
                sizes, phis = refine.sweep_rows(ag, order, steps, cfg, limit)
                for j, r in enumerate(rankings):
                    want = reference_sweep(ag, r, cfg, limit)
                    if want is None:
                        assert sizes[j] == 0
                        continue
                    assert (frozenset(r[:sizes[j]].tolist()), int(sizes[j]),
                            float(phis[j]).hex()) == \
                        (want[0], want[1], want[2].hex())

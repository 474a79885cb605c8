"""End-to-end detection pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clique_graph, connected_random_instance
from tempocom import driver, pruning
from tempocom.driver import (RunConfig, detect, estimate_initial,
                             fiedler_candidates)
from tempocom.graph import (Interval, NormalizationConfig, TemporalCommunity,
                            TemporalGraph, conductance)
from tempocom.oracle import brute_force_best
from tempocom.pruning import PRUNED_STATUSES, STATUS_UNPRUNED, precompute
from tempocom.refine import rwr_scores
from tempocom.spectral import EigenSolveError
from tempocom.synth import SynthConfig, generate


class TestEstimateInitial:
    def test_estimate_is_finite_and_achievable(self):
        # the candidates are the blocks' Fiedler sweep cuts, best first, and
        # the incumbent is the best of them
        rng = np.random.default_rng(103)
        g = connected_random_instance(rng, 12, 6, density=0.4)
        cfg = RunConfig(alpha=0.2)
        bt = precompute(g, cfg.scale_base)
        phi_star, cands = estimate_initial(g, bt, cfg)
        fiedler = fiedler_candidates(g, bt, cfg.norm())
        assert len(fiedler) == sum(res is not None for res in bt.entries.values())
        assert cands == sorted(fiedler, key=TemporalCommunity.sort_key)
        assert math.isfinite(phi_star) and phi_star > 0
        assert phi_star == min(c.phi for c in cands) == cands[0].phi
        for c in cands:
            assert c.phi == pytest.approx(
                conductance(g, c.nodes, c.interval, cfg.norm()), rel=1e-12)

    def test_failed_block_solves_fall_back_to_static_sweep(self, monkeypatch):
        # with every eigensolve failing no block has a Fiedler vector, so
        # the estimate is the static sweep, nothing is pruned, and the
        # answer stays sound
        def failing(g, iv):
            raise EigenSolveError("solver failed")

        calls = []
        fallback = driver._fallback_sweep

        def counting(g, cfg):
            calls.append(g.T)
            return fallback(g, cfg)

        rng = np.random.default_rng(109)
        g = connected_random_instance(rng, 9, 5, density=0.4)
        cfg = RunConfig(alpha=0.2)
        monkeypatch.setattr(pruning, "interval_lambda2", failing)
        monkeypatch.setattr(driver, "_fallback_sweep", counting)
        state = detect(g, cfg)
        assert calls == [g.T]
        assert all(v.status == STATUS_UNPRUNED for v in state.verdicts)
        top = state.communities[0]
        assert state.phi_star == top.phi == pytest.approx(
            conductance(g, top.nodes, top.interval, cfg.norm()), rel=1e-12)
        assert state.phi_star >= brute_force_best(g, cfg.norm()).phi - 1e-9

    def test_estimate_quality_on_desk_instances(self):
        rng = np.random.default_rng(109)
        cfg = RunConfig(alpha=0.2)
        good = 0
        trials = 50
        for _ in range(trials):
            n = int(rng.integers(5, 11))
            T = int(rng.integers(2, 7))
            g = connected_random_instance(rng, n, T, density=0.4)
            bt = precompute(g, cfg.scale_base)
            phi_star, _ = estimate_initial(g, bt, cfg)
            opt = brute_force_best(g, cfg.norm()).phi
            assert phi_star >= opt - 1e-12
            if phi_star <= 2.0 * opt + 1e-12:
                good += 1
        assert good >= int(0.8 * trials)


class TestDetect:
    def test_smoke_returns_ranked_communities(self):
        rng = np.random.default_rng(113)
        g = connected_random_instance(rng, 15, 8, density=0.3)
        state = detect(g, RunConfig(alpha=0.2, topk=5))
        assert 1 <= len(state.communities) <= 5
        phis = [c.phi for c in state.communities]
        assert phis == sorted(phis)
        assert state.phi_star == phis[0]
        assert len(state.verdicts) == g.T * (g.T + 1) // 2
        assert set(state.timings) >= {"precompute", "estimate", "prune"}

    def test_reported_phi_values_are_real(self):
        rng = np.random.default_rng(127)
        g = connected_random_instance(rng, 12, 6, density=0.4)
        cfg = RunConfig(alpha=0.2)
        state = detect(g, cfg)
        for c in state.communities:
            assert c.phi == pytest.approx(
                conductance(g, c.nodes, c.interval, cfg.norm()), rel=1e-12)

    def test_never_better_than_brute_force(self):
        rng = np.random.default_rng(131)
        cfg = RunConfig(alpha=0.2)
        for _ in range(10):
            n = int(rng.integers(5, 11))
            T = int(rng.integers(2, 7))
            g = connected_random_instance(rng, n, T, density=0.4)
            state = detect(g, cfg)
            opt = brute_force_best(g, cfg.norm()).phi
            assert state.phi_star >= opt - 1e-9

    def test_verdicts_judged_against_reported_incumbent(self):
        rng = np.random.default_rng(163)
        cfg = RunConfig(alpha=0.2)
        for _ in range(5):
            g = connected_random_instance(rng, int(rng.integers(8, 15)),
                                          int(rng.integers(4, 11)), density=0.3)
            state = detect(g, cfg)
            for v in state.verdicts:
                if v.status in PRUNED_STATUSES:
                    assert v.bound_value > state.phi_star
                else:
                    assert v.status == STATUS_UNPRUNED
                    assert v.bound_value <= state.phi_star

    def test_refinement_guard_audit(self):
        # bound/2 >= incumbent must always skip; refined buckets must have
        # had bound/2 < incumbent at decision time
        rng = np.random.default_rng(137)
        g = connected_random_instance(rng, 14, 10, density=0.3)
        state = detect(g, RunConfig(alpha=0.2))
        for dec in state.bucket_log:
            if dec.refined:
                assert dec.bound_half < dec.phi_star_before
            else:
                assert dec.bound_half >= dec.phi_star_before

    def test_one_walk_solve_per_refined_interval(self, monkeypatch):
        calls = []

        def counting(ag, seed_sets, params):
            calls.append((ag.interval, len(seed_sets)))
            return rwr_scores(ag, seed_sets, params)

        rng = np.random.default_rng(137)
        g = connected_random_instance(rng, 14, 10, density=0.3)
        plain = detect(g, RunConfig(alpha=0.2))
        monkeypatch.setattr(driver, "rwr_scores", counting)
        state = detect(g, RunConfig(alpha=0.2))
        refined = [d.interval for d in state.bucket_log if d.refined]
        assert len(refined) > len(set(refined)) > 0
        assert sorted(iv for iv, _ in calls) == sorted(set(refined))
        # every refined bucket found its walk among the solved columns
        assert sum(k for _, k in calls) >= len(refined)
        assert [(c.nodes, c.interval, c.phi) for c in state.communities] == \
            [(c.nodes, c.interval, c.phi) for c in plain.communities]

    def test_refine_failures_other_than_no_prefix_propagate(self, monkeypatch):
        def failing(ag, seed_sets, params):
            raise RuntimeError("walk solver failed")

        rng = np.random.default_rng(137)
        g = connected_random_instance(rng, 14, 10, density=0.3)
        monkeypatch.setattr(driver, "rwr_scores", failing)
        with pytest.raises(RuntimeError, match="walk solver failed"):
            detect(g, RunConfig(alpha=0.2))

    def test_incumbent_is_monotone_in_log(self):
        rng = np.random.default_rng(139)
        g = connected_random_instance(rng, 14, 10, density=0.3)
        state = detect(g, RunConfig(alpha=0.2))
        stars = [d.phi_star_before for d in state.bucket_log]
        assert all(a >= b - 1e-15 for a, b in zip(stars, stars[1:]))

    def test_pruned_optimal_interval_never_contains_optimum(self):
        rng = np.random.default_rng(149)
        cfg = RunConfig(alpha=0.2)
        for _ in range(10):
            n = int(rng.integers(5, 10))
            T = int(rng.integers(3, 7))
            g = connected_random_instance(rng, n, T, density=0.4)
            state = detect(g, cfg)
            opt = brute_force_best(g, cfg.norm())
            if state.phi_star <= opt.phi + 1e-12:
                continue  # optimum found; pruning it away is moot
            for v in state.verdicts:
                if v.status in PRUNED_STATUSES:
                    assert v.interval != opt.interval

    def test_small_planted_community_recovered(self):
        norm_alpha = 0.2
        g, truth = generate(SynthConfig(n=60, attachment=3, timeline=20,
                                        planted_nodes=12, planted_length=5,
                                        contrast=10.0, seed=4),
                            NormalizationConfig(norm_alpha))
        state = detect(g, RunConfig(alpha=norm_alpha, rows=2, min_entries=3))
        assert state.phi_star <= truth.phi + 1e-9

    def test_thread_count_does_not_change_result(self):
        rng = np.random.default_rng(151)
        g = connected_random_instance(rng, 14, 8, density=0.3)
        a = detect(g, RunConfig(alpha=0.2, threads=1))
        b = detect(g, RunConfig(alpha=0.2, threads=4))
        assert [(c.nodes, c.interval, c.phi) for c in a.communities] == \
            [(c.nodes, c.interval, c.phi) for c in b.communities]
        assert [(v.interval, v.status) for v in a.verdicts] == \
            [(v.interval, v.status) for v in b.verdicts]

    def test_same_seed_same_result(self):
        rng = np.random.default_rng(157)
        g = connected_random_instance(rng, 14, 8, density=0.3)
        a = detect(g, RunConfig(alpha=0.2, seed=9))
        b = detect(g, RunConfig(alpha=0.2, seed=9))
        assert [(c.nodes, c.interval, c.phi) for c in a.communities] == \
            [(c.nodes, c.interval, c.phi) for c in b.communities]

    def test_single_timestamp_graph(self):
        g = clique_graph(6, T=1)
        state = detect(g, RunConfig(alpha=0.0))
        assert math.isfinite(state.phi_star)
        assert len(state.verdicts) == 1

    def test_zero_incumbent_table(self):
        # two triangles at timestamp 0: each is a community of conductance 0,
        # so detect stops at the estimate with the all-unpruned table
        records = [(u, v, 0, 1.0) for base in (0, 3)
                   for u, v in ((base, base + 1), (base + 1, base + 2),
                                (base, base + 2))] + [(0, 1, 1, 1.0)]
        g = TemporalGraph.from_records([str(i) for i in range(6)], 2, records)
        state = detect(g, RunConfig(alpha=0.2))
        assert state.phi_star == 0.0
        assert state.bucket_log == []
        verdicts = list(state.verdicts)
        assert [v.interval for v in verdicts] == [
            Interval(0, 0), Interval(0, 1), Interval(1, 1)]
        for v in verdicts:
            assert v.status == STATUS_UNPRUNED
            assert v.bound_value == 0.0 and type(v.bound_value) is float


@st.composite
def adversarial_graphs(draw):
    """Tiny graphs of what the connected, uniform-weight instances of the
    acceptance criteria leave out: isolated nodes, edges active at one
    timestamp, disconnected snapshots and aggregates, duplicate records and
    weights from 1e-6 to 1e6."""
    n = draw(st.integers(3, 8))
    T = draw(st.integers(1, 5))
    node = st.integers(0, n - 1)
    weight = st.one_of(st.sampled_from([1e-6, 1.0, 1e6]),
                       st.floats(1e-6, 1e6))
    records = draw(st.lists(
        st.tuples(node, node, st.integers(0, T - 1), weight)
        .filter(lambda r: r[0] != r[1]), min_size=1, max_size=3 * n))
    # a duplicated record merges into its edge's weight
    records += draw(st.lists(st.sampled_from(records), max_size=3))
    return TemporalGraph.from_records([str(i) for i in range(n)], T, records)


class TestDetectOnAdversarialGraphs:
    @given(g=adversarial_graphs())
    @settings(max_examples=40, deadline=None)
    def test_sound_against_brute_force(self, g):
        cfg = RunConfig(alpha=0.2)
        state = detect(g, cfg)
        for c in state.communities:
            assert c.phi == pytest.approx(
                conductance(g, c.nodes, c.interval, cfg.norm()), rel=1e-12)
        opt = brute_force_best(g, cfg.norm())
        assert state.phi_star >= opt.phi - 1e-9
        verdict = list(state.verdicts)[state.verdicts.index(opt.interval)]
        assert verdict.status not in PRUNED_STATUSES

"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Each test prints a `[PASS]/[FAIL] criterion N` line (bypassing capture) before
asserting, so the verdict for every criterion is visible even on failure.
"""

import gc
import math
import time

import numpy as np
import pytest

from conftest import clique_graph, connected_random_instance, path_graph
from tempocom.driver import RunConfig, detect
from tempocom.cli import main as cli_main
from tempocom.graph import Interval, NormalizationConfig, aggregate, conductance
from tempocom.oracle import brute_force_best, brute_force_min_phi
from tempocom.pruning import (PRUNED_STATUSES, BoundsTable, build_groups,
                              composite_bounds, group_bounds, precompute,
                              prune_all)
from tempocom.refine import WalkParams
from tempocom.spectral import cheeger_lower_bound, lambda2, lambda2_dense
from tempocom.synth import SynthConfig, generate
from tempocom.tlsh import (composite_collision_count, optimal_pivots,
                           perfect_partition_counts, weighted_jaccard)

ALPHA = 0.2
NORM = NormalizationConfig(ALPHA)


def _report(capsys, ok: bool, line: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {line}", flush=True)


def _soundness_instances():
    rng = np.random.default_rng(11)
    out = []
    for _ in range(200):
        n = int(rng.integers(3, 11))
        T = int(rng.integers(1, 9))
        out.append(connected_random_instance(rng, n, T, density=0.4))
    return out


def test_criterion_1_bound_soundness(capsys):
    t0 = time.perf_counter()
    cheeger_viol = composite_viol = group_viol = 0
    for g in _soundness_instances():
        bt = precompute(g, 2)
        for t in range(g.T):
            for t2 in range(t, g.T):
                iv = Interval(t, t2)
                ag = aggregate(g, iv)
                exact = lambda2_dense(ag)
                if bt.lambda2_sums([t], [t2])[0] > exact + 1e-9:
                    composite_viol += 1
                phi, nodes = brute_force_min_phi(g, iv, NORM)
                if nodes is not None and \
                        cheeger_lower_bound(ag, NORM) > phi + 1e-9:
                    cheeger_viol += 1
        for grp in build_groups(g.T, 0.5):
            gb = group_bounds(bt, [grp.start], [grp.prefix_end],
                              [grp.group_end], NORM)[0]
            for iv in grp.members():
                if gb > composite_bounds(bt, [iv.start], [iv.end],
                                         NORM)[0] + 1e-9:
                    group_viol += 1
    elapsed = time.perf_counter() - t0
    ok = cheeger_viol == composite_viol == group_viol == 0 and elapsed < 120
    _report(capsys, ok,
            f"criterion 1: bound soundness, 200 instances — cheeger={cheeger_viol} "
            f"composite={composite_viol} group={group_viol} violations, "
            f"{elapsed:.1f}s (<120s)")
    assert ok


def test_criterion_2_pruning_never_loses_optimum(capsys):
    violations = 0
    cfg = RunConfig(alpha=ALPHA)
    for g in _soundness_instances():
        opt = brute_force_best(g, NORM)
        state = detect(g, cfg)
        if state.phi_star >= opt.phi - 1e-12:
            for v in state.verdicts:
                if v.interval == opt.interval and v.status in PRUNED_STATUSES:
                    violations += 1
    ok = violations == 0
    _report(capsys, ok,
            f"criterion 2: pruning never loses the optimum, 200 instances — "
            f"{violations} violations")
    assert ok


def test_criterion_3_lsh_calibration(capsys):
    t0 = time.perf_counter()
    T, trials = 100, 10_000
    worst_z = 0.0
    cells = 0
    for j in (0.3, 0.5, 0.7, 0.9):
        wa = {0: 1.0}
        wb = {0: 1.0, 1: 1.0 / j - 1.0}
        assert weighted_jaccard(wa, wb) == pytest.approx(j, abs=1e-12)
        for frac in (0.02, 0.05, 0.1, 0.2):
            dt = max(1, round(frac * T))
            for (r, k) in ((1, 4), (2, 4), (2, 8)):
                hits = composite_collision_count(
                    wa, wb, dt, T, r, k, trials,
                    seed=[0, int(j * 10), dt, r, k])
                p = j ** r * (1 - dt / T) ** k
                sigma = math.sqrt(p * (1 - p) / trials)
                worst_z = max(worst_z, abs(hits / trials - p) / sigma)
                cells += 1
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 3.0 and cells == 48 and elapsed < 300
    _report(capsys, ok,
            f"criterion 3: LSH calibration, 4x4x3 grid x {trials} trials — "
            f"worst |z|={worst_z:.2f} (<=3), {elapsed:.1f}s (<300s)")
    assert ok


def test_criterion_4_optimal_pivot_count(capsys):
    results = []
    for (T, delta) in ((100, 25), (1000, 10)):
        k_star = optimal_pivots(delta, T)
        ks = [k_star // 2, k_star, 2 * k_star]
        counts = perfect_partition_counts(delta, T, ks, 50_000, seed=2)
        best = counts[k_star] >= counts[k_star // 2] and \
            counts[k_star] >= counts[2 * k_star]
        results.append((T, delta, k_star, counts, best))
    ok = all(r[4] for r in results)
    detail = "; ".join(
        f"T={T} d={d} k*={k}: {c}" for (T, d, k, c, _) in results)
    _report(capsys, ok, f"criterion 4: optimal pivot count — {detail}")
    assert ok


def test_criterion_5_eigensolver_accuracy(capsys):
    analytic_err = 0.0
    for n in (3, 4, 7, 10, 25):
        got = lambda2(aggregate(clique_graph(n), Interval(0, 0))).lambda2
        analytic_err = max(analytic_err, abs(got - n / (n - 1)))
    p3 = lambda2(aggregate(path_graph(3), Interval(0, 0))).lambda2
    analytic_err = max(analytic_err, abs(p3 - 1.0))

    rng = np.random.default_rng(17)
    lanczos_err = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 51))
        g = connected_random_instance(rng, n, 1, density=0.2)
        ag = aggregate(g, Interval(0, 0))
        lanczos_err = max(lanczos_err,
                          abs(lambda2(ag).lambda2 - lambda2_dense(ag)))
    ok = analytic_err <= 1e-8 and lanczos_err <= 1e-7
    _report(capsys, ok,
            f"criterion 5: eigensolver — analytic err {analytic_err:.2e} "
            f"(<=1e-8), Lanczos-vs-dense err {lanczos_err:.2e} (<=1e-7)")
    assert ok


def test_criterion_6_planted_recovery(capsys):
    t0 = time.perf_counter()
    cfg = RunConfig(alpha=ALPHA, seed=7, rows=2, min_entries=3)
    recovered = surpassed = 0
    pruned_fracs = []
    for seed in range(20):
        g, truth = generate(SynthConfig(n=200, attachment=60, timeline=100,
                                        planted_nodes=45, planted_length=10,
                                        contrast=8.0, seed=seed), NORM)
        state = detect(g, cfg)
        top = state.communities[0]
        node_jac = len(top.nodes & truth.nodes) / len(top.nodes | truth.nodes)
        lo = max(top.interval.start, truth.interval.start)
        hi = min(top.interval.end, truth.interval.end)
        inter = max(0, hi - lo + 1)
        union = top.interval.length + truth.interval.length - inter
        iv_overlap = inter / union
        if node_jac >= 0.8 and iv_overlap >= 0.8:
            recovered += 1
        elif conductance(g, top.nodes, top.interval, NORM) < truth.phi - 1e-9:
            # the planted set is a reference, not necessarily the optimum
            # (see synth.generate): ranking a strictly better community
            # first is not a miss
            surpassed += 1
        pruned_fracs.append(
            sum(v.status in PRUNED_STATUSES for v in state.verdicts)
            / len(state.verdicts))
    elapsed = time.perf_counter() - t0
    mean_pruned = float(np.mean(pruned_fracs))
    recovery_ok = recovered + surpassed >= 16
    pruned_ok = mean_pruned >= 0.8
    time_ok = elapsed < 600
    ok = recovery_ok and pruned_ok and time_ok
    _report(capsys, ok,
            f"criterion 6: planted recovery — {recovered}/20 recovered, "
            f"{surpassed}/20 surpassed the planted set (sum >=16: "
            f"{'ok' if recovery_ok else 'FAIL'}), pruned fraction "
            f"{mean_pruned:.2f} (>=0.80: {'ok' if pruned_ok else 'FAIL'}), "
            f"{elapsed:.0f}s (<600s: {'ok' if time_ok else 'FAIL'})")
    assert ok


def test_criterion_7_grouping_speedup(capsys):
    phi_star = 0.02
    best: dict = {}
    for T in (256, 512):
        g, _ = generate(SynthConfig(n=200, attachment=5, timeline=T,
                                    planted_nodes=20, planted_length=10,
                                    contrast=8.0, seed=1), NORM)
        bt = precompute(g, 2)
        groups = build_groups(T, 0.5)
        for use_groups in (True, False):
            for _ in range(3):
                fresh = BoundsTable(g, 2, bt.entries)
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                prune_all(fresh, groups, phi_star, NORM,
                          use_groups=use_groups)
                dt = time.perf_counter() - t0
                gc.enable()
                key = (T, use_groups)
                best[key] = min(best.get(key, math.inf), dt)
    ratio = best[(512, True)] / best[(512, False)]
    growth = best[(512, True)] / best[(256, True)]
    ok = ratio <= 0.5 and growth <= 3.0
    _report(capsys, ok,
            f"criterion 7: grouping speedup — grouped/plain at T=512: "
            f"{ratio:.3f} (<=0.5), grouped T512/T256 growth: {growth:.2f} "
            f"(<=3)")
    assert ok


def test_criterion_8_oracle_parity(capsys):
    rng = np.random.default_rng(7)
    cfg = RunConfig(alpha=ALPHA, rows=1, bands=8, min_entries=1, span_cap=8.0)
    equal = below = 0
    for i in range(50):
        sc = SynthConfig(n=int(rng.integers(8, 13)), attachment=2,
                         timeline=int(rng.integers(4, 9)),
                         planted_nodes=int(rng.integers(3, 6)),
                         planted_length=int(rng.integers(2, 4)),
                         contrast=12.0, seed=700 + i)
        g, _ = generate(sc, NORM)
        opt = brute_force_best(g, NORM).phi
        state = detect(g, cfg)
        if state.phi_star < opt - 1e-9:
            below += 1
        elif state.phi_star <= opt + 1e-9:
            equal += 1
    ok = equal >= 30 and below == 0
    _report(capsys, ok,
            f"criterion 8: oracle parity — optimum matched {equal}/50 "
            f"(>=30), below optimum {below} (must be 0)")
    assert ok


def test_criterion_9_determinism_across_threads(capsys, tmp_path):
    inst = tmp_path / "inst.tgraph"
    rc = cli_main(["generate", "--out", str(inst), "--nodes", "60",
                   "--attachment", "3", "--timeline", "16",
                   "--planted-nodes", "10", "--planted-length", "4",
                   "--contrast", "8", "--seed", "5"])
    assert rc == 0
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"run{threads}"
        rc = cli_main(["detect", "--input", str(inst), "--alpha", "0.2",
                       "--seed", "9", "--threads", threads,
                       "--out", str(out)])
        assert rc == 0
        outputs.append((out / "communities.jsonl").read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(capsys, ok,
            f"criterion 9: determinism — communities.jsonl byte-identical "
            f"across thread counts: {outputs[0] == outputs[1]}")
    assert ok

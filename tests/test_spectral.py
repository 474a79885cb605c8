"""Normalized Laplacian eigenvalues and the Cheeger-style lower bound."""

import numpy as np
import pytest

from conftest import (clique_graph, connected_random_instance, cycle_graph,
                      path_graph, random_instance)
from tempocom.graph import (Interval, NormalizationConfig, TemporalGraph,
                            aggregate, conductance, dense_adjacency)
from tempocom.oracle import brute_force_min_phi
import tempocom.spectral as spectral
from tempocom.spectral import (LAMBDA2_SLACK, cheeger_lower_bound,
                               exact_lambda2, interval_lambda2, lambda2,
                               lambda2_dense, normalized_laplacian)


def agg(g):
    return aggregate(g, g.full_interval())


class TestLambda2:
    def test_complete_graph_analytic(self):
        for n in (3, 4, 7, 10):
            res = lambda2(agg(clique_graph(n)))
            assert res.lambda2 == pytest.approx(n / (n - 1), abs=1e-8)

    def test_path_three_analytic(self):
        res = lambda2(agg(path_graph(3)))
        assert res.lambda2 == pytest.approx(1.0, abs=1e-8)

    def test_disconnected_returns_zero(self):
        records = [(0, 1, 0, 1.0), (1, 2, 0, 1.0), (0, 2, 0, 1.0),
                   (3, 4, 0, 1.0), (4, 5, 0, 1.0), (3, 5, 0, 1.0)]
        g = TemporalGraph.from_records([str(i) for i in range(6)], 1, records)
        res = lambda2(agg(g))
        assert res.lambda2 == 0.0 and res.iterations == 0
        # a null vector D-orthogonal to 1: constant on each triangle
        f = res.fiedler
        assert np.allclose(f[:3], f[0]) and np.allclose(f[3:], f[3])
        assert f[0] != f[3] and agg(g).volumes @ f == pytest.approx(0.0)

    def test_zero_volume_nodes_left_out(self):
        # the support decides: an idle node is not a component
        g = TemporalGraph.from_records(
            ["0", "1", "2", "3"], 1,
            [(0, 1, 0, 1.0), (1, 2, 0, 1.0), (0, 2, 0, 1.0)])
        res = lambda2(agg(g))
        assert res.lambda2 == pytest.approx(1.5, abs=1e-12)
        assert res.lambda2 == pytest.approx(lambda2_dense(agg(g)), abs=1e-12)
        assert res.fiedler[3] == 0.0
        edge = TemporalGraph.from_records(["0", "1", "2"], 1, [(0, 1, 0, 1.0)])
        assert lambda2(agg(edge)).lambda2 == 2.0

    def test_too_small_rejected(self):
        g = TemporalGraph.from_records(["0"], 1, [])
        with pytest.raises(ValueError):
            lambda2(agg(g))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(4, 51))
            g = connected_random_instance(rng, n, 1, density=0.2)
            ag = agg(g)
            assert lambda2(ag).lambda2 == pytest.approx(
                lambda2_dense(ag), abs=1e-7)

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        g = connected_random_instance(rng, 12, 2)
        g2 = TemporalGraph(g.labels, g.T, g.edge_u, g.edge_v, g.weights * 7.5)
        a = lambda2(agg(g)).lambda2
        b = lambda2(agg(g2)).lambda2
        assert a == pytest.approx(b, abs=1e-8)

    def test_residual_within_tolerance(self):
        rng = np.random.default_rng(29)
        g = connected_random_instance(rng, 20, 1)
        res = lambda2(agg(g), tol=1e-8)
        assert res.residual <= 1e-6
        assert 0.0 <= res.lambda2 <= 2.0 + 1e-9

    def test_deterministic_given_interval(self):
        rng = np.random.default_rng(31)
        g = connected_random_instance(rng, 15, 3)
        ag = aggregate(g, Interval(0, 2))
        assert lambda2(ag).lambda2 == lambda2(ag).lambda2


class TestExactLambda2:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            n = int(rng.integers(4, 51))
            g = connected_random_instance(rng, n, 2, density=0.2)
            iv = Interval(0, 1)
            res = exact_lambda2(dense_adjacency(g, iv))
            assert res.lambda2 == pytest.approx(
                lambda2_dense(aggregate(g, iv)), abs=1e-10)

    def test_fiedler_vector_solves_generalized_problem(self):
        # L x = lambda2 x with x = D^{1/2} f  <=>  (D - A) f = lambda2 D f,
        # and f is D-orthogonal to the constant vector
        rng = np.random.default_rng(21)
        g = connected_random_instance(rng, 15, 3)
        adj = dense_adjacency(g, Interval(0, 2))
        res = exact_lambda2(adj)
        f = res.fiedler
        d = adj.sum(axis=1)
        assert np.allclose((np.diag(d) - adj) @ f, res.lambda2 * d * f,
                           atol=1e-10)
        assert abs(d @ f) <= 1e-10
        assert res.residual <= 1e-10

    def test_zero_volume_nodes_left_out(self):
        g = TemporalGraph.from_records(
            ["0", "1", "2", "3"], 1,
            [(0, 1, 0, 1.0), (1, 2, 0, 1.0), (0, 2, 0, 1.0)])
        res = exact_lambda2(dense_adjacency(g, Interval(0, 0)))
        # the triangle on the support: lambda2 = 3/2
        assert res.lambda2 == pytest.approx(1.5, abs=1e-12)
        assert res.fiedler[3] == 0.0

    def test_lanczos_vector_is_a_fiedler_vector(self):
        rng = np.random.default_rng(27)
        g = connected_random_instance(rng, 20, 1)
        res = lambda2(agg(g))
        adj = dense_adjacency(g, Interval(0, 0))
        d = adj.sum(axis=1)
        f = res.fiedler / np.linalg.norm(np.sqrt(d) * res.fiedler)
        assert np.allclose((np.diag(d) - adj) @ f, res.lambda2 * d * f,
                           atol=1e-6)


def eigh_lambda2(adj):
    """exact_lambda2's solve through scipy.linalg.eigh: (lambda2, residual,
    Fiedler vector)."""
    import scipy.linalg as sla
    vols = adj.sum(axis=1)
    support = np.flatnonzero(vols > 0)
    sub = adj[np.ix_(support, support)]
    dinv = 1.0 / np.sqrt(vols[support])
    lap = np.eye(len(support)) - dinv[:, None] * sub * dinv[None, :]
    vals, vecs = sla.eigh(lap, subset_by_index=[1, 1])
    theta, x = float(vals[0]), vecs[:, 0]
    fiedler = np.zeros(len(vols))
    fiedler[support] = x * dinv
    return (max(theta, 0.0), float(np.linalg.norm(lap @ x - theta * x)),
            fiedler)


class TestDirectSyevr:
    def test_bitwise_equal_to_eigh(self):
        rng = np.random.default_rng(97)
        for n in range(2, 65):
            adj = np.triu(rng.uniform(0.1, 2.0, (n, n))
                          * (rng.random((n, n)) < 0.5), 1)
            adj[np.arange(n - 1), np.arange(1, n)] = 1.0  # a path: connected
            adj += adj.T
            res = exact_lambda2(adj)
            lam, resid, fiedler = eigh_lambda2(adj)
            assert (res.lambda2, res.residual) == (lam, resid), n
            assert res.fiedler.tobytes() == fiedler.tobytes(), n

    def test_bitwise_equal_on_a_disconnected_support(self):
        # two triangles and an idle node
        adj = np.zeros((7, 7))
        for base in (0, 3):
            for u, v in ((0, 1), (1, 2), (0, 2)):
                adj[base + u, base + v] = adj[base + v, base + u] = 1.5
        res = exact_lambda2(adj)
        lam, resid, fiedler = eigh_lambda2(adj)
        assert (res.lambda2, res.residual) == (lam, resid)
        assert res.fiedler.tobytes() == fiedler.tobytes()
        assert res.lambda2 < 1e-12

    def test_solver_failure_raises_eigen_solve_error(self, monkeypatch):
        def failing(a, **kwargs):
            n = len(a)
            return np.zeros(n), np.zeros((n, 1)), 0, np.zeros(0, np.int32), 3
        monkeypatch.setattr(spectral, "_syevr", failing)
        with pytest.raises(spectral.EigenSolveError, match="info 3"):
            exact_lambda2(np.ones((4, 4)) - np.eye(4))


class TestIntervalLambda2:
    @pytest.fixture(params=["dense", "lanczos"])
    def branch(self, request, monkeypatch):
        if request.param == "lanczos":
            monkeypatch.setattr(spectral, "DENSE_MAX_NODES", 0)
        return request.param

    def test_certified_below_solver_value(self, branch):
        rng = np.random.default_rng(23)
        for trial in range(10):
            g = connected_random_instance(rng, int(rng.integers(4, 30)), 2,
                                          density=0.3)
            iv = Interval(0, 1)
            res = interval_lambda2(g, iv)
            oracle = lambda2_dense(aggregate(g, iv))
            assert res.lambda2 <= oracle - LAMBDA2_SLACK / 2
            assert res.lambda2 == pytest.approx(oracle, abs=1e-7)

    def test_disconnected_is_exactly_zero(self, branch):
        # two triangles, and a third component that is a single edge
        records = [(u, v, 0, 1.0) for base in (0, 3)
                   for u, v in ((base, base + 1), (base + 1, base + 2),
                                (base, base + 2))] + [(6, 7, 0, 2.0)]
        g = TemporalGraph.from_records([str(i) for i in range(8)], 1, records)
        assert interval_lambda2(g, Interval(0, 0)).lambda2 == 0.0
        raw = exact_lambda2(dense_adjacency(g, Interval(0, 0))).lambda2
        assert raw <= 1e-12

    def test_graphs_above_the_dense_limit_use_arpack(self):
        n = spectral.DENSE_MAX_NODES + 1
        g = connected_random_instance(np.random.default_rng(29), n, 1,
                                      density=0.05)
        iv = Interval(0, 0)
        res = interval_lambda2(g, iv)
        dense = exact_lambda2(dense_adjacency(g, iv))
        # exact_lambda2 reports one iteration; ARPACK its operator products
        assert res.iterations > 1
        assert res.lambda2 == pytest.approx(dense.lambda2, abs=1e-7)
        assert res.lambda2 <= dense.lambda2
        assert res.fiedler is not None and res.fiedler.shape == (n,)

    def test_idle_node_above_the_dense_limit(self):
        # both paths solve on the positive-volume support: one idle node
        # neither zeroes lambda2 nor drops the Fiedler vector
        n = spectral.DENSE_MAX_NODES + 1
        h = connected_random_instance(np.random.default_rng(31), n - 1, 1,
                                      density=0.05)
        g = TemporalGraph(list(h.labels) + ["idle"], 1, h.edge_u, h.edge_v,
                          h.weights)
        iv = Interval(0, 0)
        res = interval_lambda2(g, iv)
        dense = exact_lambda2(dense_adjacency(g, iv))
        assert res.iterations > 1
        assert res.lambda2 == pytest.approx(dense.lambda2, abs=1e-7)
        assert dense.lambda2 > 1e-3
        assert res.fiedler is not None and res.fiedler[n - 1] == 0.0

    def test_two_node_support_on_the_arpack_path(self, monkeypatch):
        monkeypatch.setattr(spectral, "DENSE_MAX_NODES", 0)
        g = TemporalGraph.from_records(["0", "1", "2"], 1, [(0, 1, 0, 4.0)])
        res = interval_lambda2(g, Interval(0, 0))
        assert res.lambda2 == 2.0 - LAMBDA2_SLACK
        f = res.fiedler
        assert f[2] == 0.0 and f[0] == pytest.approx(-f[1])


class TestNormalizedLaplacian:
    def test_nullvector(self):
        g = clique_graph(5)
        lap, support, dsqrt = normalized_laplacian(agg(g))
        assert np.allclose(lap @ dsqrt, 0.0, atol=1e-12)
        assert len(support) == 5

    def test_zero_volume_nodes_excluded(self):
        g = TemporalGraph.from_records(["0", "1", "2"], 2,
                                       [(0, 1, 0, 1.0), (0, 1, 1, 1.0),
                                        (1, 2, 0, 1.0)])
        lap, support, _ = normalized_laplacian(aggregate(g, Interval(1, 1)))
        assert list(support) == [0, 1]
        assert lap.shape == (2, 2)


class TestCheegerBound:
    def test_clique_bound_is_tight(self):
        g = clique_graph(4)
        ag = agg(g)
        cfg = NormalizationConfig(0.0)
        bound = cheeger_lower_bound(ag, cfg)
        assert bound == pytest.approx(2.0 / 3.0, abs=1e-8)
        phi, nodes = brute_force_min_phi(g, Interval(0, 0), cfg)
        assert phi == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert bound <= phi + 1e-8

    def test_path_three_bound(self):
        g = path_graph(3)
        cfg = NormalizationConfig(0.0)
        bound = cheeger_lower_bound(agg(g), cfg)
        assert bound == pytest.approx(0.5, abs=1e-8)
        phi, _ = brute_force_min_phi(g, Interval(0, 0), cfg)
        assert phi == pytest.approx(1.0, abs=1e-12)

    def test_disconnected_bound_vacuous(self):
        records = [(0, 1, 0, 1.0), (2, 3, 0, 1.0)]
        g = TemporalGraph.from_records([str(i) for i in range(4)], 1, records)
        assert cheeger_lower_bound(agg(g), NormalizationConfig(0.0)) == 0.0

    def test_bound_below_brute_force_minimum(self):
        rng = np.random.default_rng(37)
        cfg = NormalizationConfig(0.0)
        for trial in range(30):
            n = int(rng.integers(3, 11))
            g = connected_random_instance(rng, n, 1, density=0.4)
            ag = agg(g)
            phi, nodes = brute_force_min_phi(g, Interval(0, 0), cfg)
            if nodes is None:
                continue
            assert cheeger_lower_bound(ag, cfg) <= phi + 1e-9

    def test_eta_applied(self):
        g = cycle_graph(6, T=4)
        ag = aggregate(g, Interval(0, 3))
        a0 = cheeger_lower_bound(ag, NormalizationConfig(0.0))
        a1 = cheeger_lower_bound(ag, NormalizationConfig(1.0))
        assert a1 == pytest.approx(a0 / 3.0, rel=1e-9)

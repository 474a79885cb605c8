"""Synthetic benchmark generator."""

import numpy as np
import pytest

from tempocom.graph import NormalizationConfig, conductance
from tempocom.synth import SynthConfig, generate


class TestConfigValidation:
    def test_contrast_below_one_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(contrast=0.5)

    def test_planted_length_exceeds_timeline(self):
        with pytest.raises(ValueError):
            SynthConfig(timeline=5, planted_length=6)

    def test_planted_nodes_out_of_range(self):
        with pytest.raises(ValueError):
            SynthConfig(n=10, planted_nodes=11)
        with pytest.raises(ValueError):
            SynthConfig(planted_nodes=0)

    @pytest.mark.parametrize("n, attachment", [(10, 10), (10, 11), (10, 0),
                                               (10, -1)])
    def test_attachment_out_of_range_names_both_values(self, n, attachment):
        with pytest.raises(ValueError, match=rf"attachment {attachment} .*"
                                             rf"n = {n}\b"):
            SynthConfig(n=n, attachment=attachment, planted_nodes=3,
                        timeline=4, planted_length=2)

    def test_attachment_bounds_accepted(self):
        generate(SynthConfig(n=10, attachment=9, planted_nodes=3, timeline=4,
                             planted_length=2))
        generate(SynthConfig(n=10, attachment=1, planted_nodes=3, timeline=4,
                             planted_length=2))


class TestGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(n=50, attachment=3, timeline=10, seed=5,
                          planted_nodes=8, planted_length=4)
        g1, t1 = generate(cfg)
        g2, t2 = generate(cfg)
        assert np.array_equal(g1.weights, g2.weights)
        assert np.array_equal(g1.edge_u, g2.edge_u)
        assert t1.nodes == t2.nodes
        assert t1.interval == t2.interval
        assert t1.phi == t2.phi

    def test_different_seeds_differ(self):
        g1, _ = generate(SynthConfig(n=50, attachment=3, timeline=10, seed=1,
                                     planted_nodes=8, planted_length=4))
        g2, _ = generate(SynthConfig(n=50, attachment=3, timeline=10, seed=2,
                                     planted_nodes=8, planted_length=4))
        assert not np.array_equal(g1.weights, g2.weights)

    def test_weights_positive_integers(self):
        g, _ = generate(SynthConfig(n=40, attachment=2, timeline=6,
                                    planted_nodes=6, planted_length=3))
        assert np.all(g.weights >= 1)
        assert np.all(g.weights == np.round(g.weights))

    def test_background_mean_weight(self):
        cfg = SynthConfig(n=300, attachment=5, timeline=80, mean_weight=5.0,
                          planted_nodes=10, planted_length=5, seed=11)
        g, truth = generate(cfg)
        planted = truth.nodes
        internal = np.array([u in planted and v in planted
                             for u, v in zip(g.edge_u, g.edge_v)])
        bg = g.weights[~internal, :]
        # zero-truncated Poisson(5) has mean 5 / (1 - e^-5)
        expected = 5.0 / (1 - np.exp(-5.0))
        assert bg.mean() == pytest.approx(expected, rel=0.02)

    def test_planted_cells_boosted(self):
        cfg = SynthConfig(n=300, attachment=5, timeline=40, mean_weight=5.0,
                          planted_nodes=30, planted_length=20, contrast=8.0,
                          seed=13)
        g, truth = generate(cfg)
        planted = truth.nodes
        internal = np.array([u in planted and v in planted
                             for u, v in zip(g.edge_u, g.edge_v)])
        assert internal.sum() > 0
        iv = truth.interval
        inside = g.weights[internal, iv.start:iv.end + 1]
        assert inside.mean() == pytest.approx(8.0 * 5.0, rel=0.05)
        # outside the window the same edges stay at the background mean
        mask = np.ones(g.T, dtype=bool)
        mask[iv.start:iv.end + 1] = False
        if mask.any():
            outside = g.weights[internal][:, mask]
            assert outside.mean() < 2.0 * 5.0

    def test_truth_is_valid_community(self):
        norm = NormalizationConfig(0.2)
        g, truth = generate(SynthConfig(n=60, attachment=3, timeline=12,
                                        planted_nodes=10, planted_length=4,
                                        seed=3), norm)
        assert len(truth.nodes) == 10
        assert truth.interval.length == 4
        assert 0 <= truth.interval.start
        assert truth.interval.end < g.T
        assert truth.phi == conductance(g, truth.nodes, truth.interval, norm)

    def test_topology_replicated_over_time(self):
        g, _ = generate(SynthConfig(n=40, attachment=2, timeline=7,
                                    planted_nodes=6, planted_length=3, seed=9))
        # every edge carries positive weight at every timestamp
        assert np.all(g.weights > 0)

    def test_hub_degrees_emerge(self):
        g, _ = generate(SynthConfig(n=500, attachment=4, timeline=2,
                                    planted_nodes=10, planted_length=1,
                                    seed=21))
        deg = np.zeros(g.n)
        np.add.at(deg, g.edge_u, 1)
        np.add.at(deg, g.edge_v, 1)
        assert deg.max() >= 5 * 4

    def test_planted_set_connected(self):
        import networkx as nx
        g, truth = generate(SynthConfig(n=80, attachment=3, timeline=8,
                                        planted_nodes=12, planted_length=3,
                                        seed=17))
        G = nx.Graph()
        G.add_edges_from(zip(g.edge_u.tolist(), g.edge_v.tolist()))
        assert nx.is_connected(G.subgraph(truth.nodes))

"""Data model, loading, aggregation, and the conductance objective."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clique_graph, cycle_graph, random_instance
from tempocom.graph import (GraphFormatError, Interval, NormalizationConfig,
                            TemporalGraph, aggregate, conductance, eta, load)


# header and record words, numbers the loader must refuse, a comment mark,
# a byte-order mark and digits outside ASCII
LOAD_TOKENS = ["tgraph", "a", "b", "c", "0", "1", "2", "3", "-1", "1.5", "nan",
               "inf", "1e308", "#", "\ufeff", "\u0663", "\u00b2", "\r"]


def write(tmp_path, text):
    p = tmp_path / "g.tgraph"
    p.write_text(text, encoding="utf-8")
    return p


class TestLoad:
    def test_duplicate_records_merge_additively(self, tmp_path):
        g = load(write(tmp_path, "tgraph 2 1\na b 0 2.0\na b 0 3.0\n"))
        assert g.n_edges == 1
        assert g.weights[0, 0] == 5.0

    def test_empty_edge_section_is_valid(self, tmp_path):
        g = load(write(tmp_path, "tgraph 3 2\n"))
        assert g.n == 3 and g.T == 2 and g.n_edges == 0

    def test_self_loop_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="self-loop"):
            load(write(tmp_path, "tgraph 2 1\na a 0 1.0\n"))

    def test_malformed_line_reports_line_number(self, tmp_path):
        with pytest.raises(GraphFormatError, match="line 3"):
            load(write(tmp_path, "tgraph 2 1\na b 0 1.0\na b 0\n"))

    def test_non_positive_weight_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="non-positive"):
            load(write(tmp_path, "tgraph 2 1\na b 0 0.0\n"))
        with pytest.raises(GraphFormatError, match="non-positive"):
            load(write(tmp_path, "tgraph 2 1\na b 0 -1.5\n"))

    def test_weights_past_the_float_range_rejected(self, tmp_path):
        # rejected at the loader, not deep inside an eigensolver
        with pytest.raises(GraphFormatError, match="line 3: weight inf"):
            load(write(tmp_path, "tgraph 4 1\na b 0 1\nb c 0 inf\n"))
        with pytest.raises(GraphFormatError, match="line 2: weight 1e308"):
            load(write(tmp_path, "tgraph 4 1\nb c 0 1e308\nb c 0 1e308\n"))
        # each record is fine alone; their merged sum is not
        with pytest.raises(GraphFormatError, match="line 3: weight 6e307"):
            load(write(tmp_path, "tgraph 4 1\nb c 0 6e307\nc b 0 6e307\n"))
        g = load(write(tmp_path, "tgraph 4 1\nb c 0 6e307\n"))
        assert np.isfinite(aggregate(g, g.full_interval()).volumes).all()

    def test_undecodable_byte_reports_line_number(self, tmp_path):
        p = tmp_path / "g.tgraph"
        p.write_bytes(b"tgraph 3 2\na b 0 1\nb\x80 c 1 1\n")
        with pytest.raises(GraphFormatError, match="line 3: not valid UTF-8"):
            load(p)

    @given(lines=st.lists(st.lists(st.sampled_from(LOAD_TOKENS), max_size=5)
                          .map(" ".join), max_size=8),
           header=st.booleans(), tail=st.binary(max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_returns_graph_or_format_error(self, lines, header, tail):
        text = "\n".join((["tgraph 3 2"] if header else []) + lines)
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "g.tgraph"
            p.write_bytes(text.encode("utf-8") + tail)
            try:
                g = load(p)
            except GraphFormatError:
                return
        assert isinstance(g, TemporalGraph)

    def test_timestamp_beyond_declared_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="timestamp 4"):
            load(write(tmp_path, "tgraph 2 4\na b 4 1.0\n"))

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        g = load(write(tmp_path, "# header comment\n\ntgraph 2 1\n# mid\na b 0 1.0\n"))
        assert g.n_edges == 1

    def test_label_roundtrip(self, tmp_path):
        g = load(write(tmp_path, "tgraph 3 1\nalpha beta 0 1.0\nbeta gamma 0 2.0\n"))
        assert set(g.labels) == {"alpha", "beta", "gamma"}
        assert g.labels[0] == "alpha"

    def test_too_many_labels_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="more node labels"):
            load(write(tmp_path, "tgraph 2 1\na b 0 1.0\nb c 0 1.0\n"))

    def test_missing_header_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="header"):
            load(write(tmp_path, "a b 0 1.0\n"))


class TestInterval:
    def test_length_and_span(self):
        iv = Interval(2, 4)
        assert iv.length == 3 and iv.span == 2

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 2)
        with pytest.raises(ValueError):
            Interval(-1, 2)


class TestAggregate:
    def test_interval_sum(self):
        g = TemporalGraph.from_records(["0", "1"], 3,
                                       [(0, 1, 1, 2.0), (0, 1, 2, 3.0)])
        ag = aggregate(g, Interval(1, 2))
        assert ag.adjacency[0, 1] == 5.0

    def test_single_timestamp_equals_snapshot(self):
        g = TemporalGraph.from_records(["0", "1", "2"], 2,
                                       [(0, 1, 0, 1.5), (1, 2, 1, 2.5)])
        ag = aggregate(g, Interval(1, 1))
        assert ag.adjacency[1, 2] == 2.5
        assert ag.adjacency[0, 1] == 0.0

    def test_interval_without_edges_has_float_volumes(self):
        # a weighted bincount of no entries is integer; block volumes of an
        # idle block are added to float ones
        g = TemporalGraph.from_records(["0", "1"], 2, [(0, 1, 0, 1.5)])
        ag = aggregate(g, Interval(1, 1))
        assert ag.volumes.dtype == np.float64
        assert ag.volumes.tolist() == [0.0, 0.0]

    def test_volumes_match_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        g = random_instance(rng, 20, 6)
        iv = Interval(0, 4)
        ag = aggregate(g, iv)
        vols = np.zeros(g.n)
        for e in range(g.n_edges):
            for t in range(iv.start, iv.end + 1):
                w = g.weights[e, t]
                vols[g.edge_u[e]] += w
                vols[g.edge_v[e]] += w
        assert np.allclose(ag.volumes, vols, rtol=1e-12, atol=0)

    def test_volumes_are_row_sums(self):
        rng = np.random.default_rng(3)
        g = random_instance(rng, 12, 4)
        ag = aggregate(g, Interval(1, 3))
        rows = np.asarray(ag.adjacency.sum(axis=1)).ravel()
        assert np.allclose(ag.volumes, rows, rtol=1e-12, atol=0)

    def test_interval_beyond_timeline_rejected(self):
        g = TemporalGraph.from_records(["0", "1"], 2, [(0, 1, 0, 1.0)])
        with pytest.raises(ValueError):
            aggregate(g, Interval(0, 2))

    def test_interval_sums_match_direct_summation(self):
        # a huge weight just outside the interval must not cancel the small
        # one inside it, on a timeline of any length
        g = TemporalGraph.from_records(["0", "1"], 70,
                                       [(0, 1, 0, 1e17), (0, 1, 1, 1.0)])
        assert g.interval_edge_weights(Interval(1, 1)).tolist() == [1.0]
        assert g.interval_edge_weights(Interval(0, 69)).tolist() == [1e17 + 1.0]
        rng = np.random.default_rng(11)
        T = 100
        records = [(u, v, t, float(rng.integers(1, 9)))
                   for (u, v) in [(0, 1), (1, 2), (0, 2)]
                   for t in range(T)]
        g = TemporalGraph.from_records(["0", "1", "2"], T, records)
        for (a, b) in [(0, 0), (3, 77), (0, T - 1), (50, 51)]:
            direct = [g.weights[e, a:b + 1].sum() for e in range(g.n_edges)]
            assert g.interval_edge_weights(Interval(a, b)).tolist() == direct


class TestEta:
    def test_alpha_zero_is_one(self):
        assert eta(Interval(0, 5), NormalizationConfig(0.0)) == 1.0
        assert eta(Interval(2, 2), NormalizationConfig(0.0)) == 1.0

    def test_alpha_one_halves_span_two(self):
        assert eta(Interval(2, 4), NormalizationConfig(1.0)) == 0.5

    def test_single_timestamp_stays_finite(self):
        assert eta(Interval(3, 3), NormalizationConfig(1.0)) == 1.0

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            NormalizationConfig(-0.1)


class TestConductance:
    def test_four_cycle_half(self):
        g = cycle_graph(4)
        phi = conductance(g, {1, 2}, Interval(0, 0), NormalizationConfig(0.0))
        assert phi == pytest.approx(0.5, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        g = random_instance(rng, 8, 3)
        g2 = TemporalGraph(g.labels, g.T, g.edge_u, g.edge_v, g.weights * 2.0)
        iv = Interval(0, 2)
        cfg = NormalizationConfig(0.3)
        c = {0, 1, 2}
        assert conductance(g, c, iv, cfg) == pytest.approx(
            conductance(g2, c, iv, cfg), rel=1e-12)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(9)
        g = random_instance(rng, 9, 2)
        iv = Interval(0, 1)
        cfg = NormalizationConfig(0.0)
        c = {0, 3, 5}
        cbar = set(range(g.n)) - c
        assert conductance(g, c, iv, cfg) == pytest.approx(
            conductance(g, cbar, iv, cfg), rel=1e-12)

    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(13)
        g = random_instance(rng, 10, 3)
        iv = Interval(0, 2)
        dense = np.zeros((g.n, g.n))
        for e in range(g.n_edges):
            w = g.weights[e, iv.start:iv.end + 1].sum()
            dense[g.edge_u[e], g.edge_v[e]] += w
            dense[g.edge_v[e], g.edge_u[e]] += w
        vols = dense.sum(axis=1)
        for c in [{0}, {1, 2}, {0, 3, 7}, set(range(5))]:
            mask = np.zeros(g.n, dtype=bool)
            mask[list(c)] = True
            cut = dense[mask][:, ~mask].sum()
            denom = min(vols[mask].sum(), vols[~mask].sum())
            expected = cut / denom if denom > 0 else math.inf
            assert conductance(g, c, iv, NormalizationConfig(0.0)) == \
                pytest.approx(expected, rel=1e-12)

    def test_zero_min_volume_is_infinite(self):
        g = TemporalGraph.from_records(["0", "1", "2"], 2,
                                       [(0, 1, 0, 1.0), (0, 1, 1, 1.0),
                                        (1, 2, 0, 1.0)])
        phi = conductance(g, {2}, Interval(1, 1), NormalizationConfig(0.0))
        assert math.isinf(phi)

    def test_tiny_complement_volume_does_not_cancel(self):
        # {a, b} on the path a -1e6- b -1e-6- c: the complement {c} has
        # volume 1e-6 beside a total of 2e6, so total - vol(C) cancels
        g = TemporalGraph.from_records(["a", "b", "c"], 1,
                                       [(0, 1, 0, 1e6), (1, 2, 0, 1e-6)])
        phi = conductance(g, {0, 1}, Interval(0, 0), NormalizationConfig(0.0))
        assert phi == 1.0

    def test_empty_or_full_rejected(self):
        g = clique_graph(4)
        with pytest.raises(ValueError):
            conductance(g, set(), Interval(0, 0), NormalizationConfig(0.0))
        with pytest.raises(ValueError):
            conductance(g, {0, 1, 2, 3}, Interval(0, 0), NormalizationConfig(0.0))

    @given(scale=st.floats(min_value=0.1, max_value=100.0,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity_property(self, scale):
        rng = np.random.default_rng(21)
        g = random_instance(rng, 7, 2)
        g2 = TemporalGraph(g.labels, g.T, g.edge_u, g.edge_v, g.weights * scale)
        cfg = NormalizationConfig(0.5)
        iv = Interval(0, 1)
        a = conductance(g, {0, 1}, iv, cfg)
        b = conductance(g2, {0, 1}, iv, cfg)
        if math.isinf(a):
            assert math.isinf(b)
        else:
            assert a == pytest.approx(b, rel=1e-9)

    def test_normalization_can_reorder_communities(self):
        # two triangles joined by a bridge whose weight grows over time: the
        # same node set has slightly higher raw conductance on the longer
        # interval, but a large enough alpha makes the longer interval win
        records = []
        tri1 = [(0, 1), (1, 2), (0, 2)]
        tri2 = [(3, 4), (4, 5), (3, 5)]
        T = 5
        for (u, v) in tri1 + tri2:
            for t in range(T):
                records.append((u, v, t, 4.0))
        for t in range(T):
            records.append((2, 3, t, 1.0 + 0.5 * t))
        g = TemporalGraph.from_records([str(i) for i in range(6)], T, records)
        c = {0, 1, 2}
        short, long_ = Interval(0, 1), Interval(0, 4)
        a0 = NormalizationConfig(0.0)
        phi_short = conductance(g, c, short, a0)
        phi_long = conductance(g, c, long_, a0)
        assert phi_short < phi_long
        # pick alpha from the crossover condition
        # phi_short / phi_long > (span_short / span_long) ** alpha
        alpha = math.log(phi_short / phi_long) / math.log(short.span / long_.span) + 1.0
        cfg = NormalizationConfig(alpha)
        assert conductance(g, c, long_, cfg) < conductance(g, c, short, cfg)


class TestTemporalGraphInvariants:
    def test_non_canonical_edge_rejected(self):
        with pytest.raises(ValueError):
            TemporalGraph(["0", "1"], 1, np.array([1]), np.array([0]),
                          np.array([[1.0]]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            TemporalGraph(["0", "1"], 1, np.array([0]), np.array([1]),
                          np.array([[-1.0]]))

    def test_non_finite_weights_rejected(self):
        # rejected where the graph is built, not deep inside an eigensolver
        with pytest.raises(GraphFormatError, match="float range"):
            TemporalGraph.from_records(["a", "b", "c"], 2,
                                       [(0, 1, 0, 1.0), (1, 2, 1, math.inf)])
        with pytest.raises(GraphFormatError, match="float range"):
            TemporalGraph(["0", "1"], 1, np.array([0]), np.array([1]),
                          np.array([[math.nan]]))

    def test_overflowing_total_rejected(self):
        # each weight and each edge is finite; the doubled total is not
        triangle = [(0, 1, 0, 1e308), (1, 2, 0, 1e308), (0, 2, 0, 1e308)]
        with pytest.raises(GraphFormatError, match="float range"):
            TemporalGraph.from_records(["a", "b", "c"], 1, triangle)
        g = TemporalGraph.from_records(["a", "b", "c"], 1, [(0, 1, 0, 6e307)])
        assert np.isfinite(aggregate(g, g.full_interval()).volumes).all()

    def test_immutable_arrays(self):
        g = clique_graph(3)
        with pytest.raises(ValueError):
            g.weights[0, 0] = 5.0

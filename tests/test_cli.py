"""Command-line interface end-to-end checks."""

import csv
import json

import pytest

from tempocom import driver
from tempocom.cli import main


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "bench.tgraph"
    rc = main(["generate", "--out", str(path), "--nodes", "30",
               "--attachment", "2", "--timeline", "8",
               "--planted-nodes", "6", "--planted-length", "3",
               "--contrast", "10", "--seed", "3"])
    assert rc == 0
    return path


class TestGenerate:
    def test_writes_graph_and_truth_sidecar(self, instance_path):
        header = instance_path.read_text().splitlines()[0].split()
        assert header == ["tgraph", "30", "8"]
        truth = json.loads(
            instance_path.with_suffix(".truth.json").read_text())
        assert len(truth["nodes"]) == 6
        assert truth["t_end"] - truth["t"] + 1 == 3

    def test_attachment_not_below_nodes_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.tgraph"
        rc = main(["generate", "--out", str(out), "--nodes", "10",
                   "--attachment", "10", "--timeline", "4",
                   "--planted-nodes", "3", "--planted-length", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "attachment 10" in err and "n = 10" in err
        assert not out.exists()


    @pytest.mark.parametrize("args", [
        ["--mean-weight", "0"], ["--mean-weight", "-1"],
        ["--mean-weight", "nan"], ["--mean-weight", "inf"], ["--seed", "-1"]])
    def test_invalid_parameter_exit_2(self, tmp_path, capsys, args):
        out = tmp_path / "x.tgraph"
        rc = main(["generate", "--out", str(out), "--nodes", "10",
                   "--attachment", "2", "--timeline", "4",
                   "--planted-nodes", "3", "--planted-length", "2"] + args)
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error:")
        assert not out.exists()


class TestDetect:
    def test_outputs_written(self, instance_path, tmp_path):
        out = tmp_path / "run"
        rc = main(["detect", "--input", str(instance_path), "--alpha", "0.2",
                   "--rows", "2", "--min-entries", "3", "--out", str(out)])
        assert rc == 0

        lines = (out / "communities.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"nodes", "t", "t_end", "phi"}
            assert rec["t"] <= rec["t_end"]
            assert rec["phi"] > 0

        with open(out / "verdicts.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 * 9 // 2
        assert set(rows[0]) == {"start", "length", "status", "bound"}

        run = json.loads((out / "run.json").read_text())
        assert run["config"]["alpha"] == 0.2
        assert run["config"]["min_entries"] == 3
        assert run["phi_star"] == json.loads(lines[0])["phi"]
        assert "precompute" in run["timings"]

    def test_missing_input_exit_2(self, tmp_path):
        rc = main(["detect", "--input", str(tmp_path / "nope.tgraph"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.tgraph"
        bad.write_text("tgraph 3 2\na b not_a_time 1.0\n")
        rc = main(["detect", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("args", [
        ["--beta", "1"], ["--alpha", "-1"], ["--alpha", "nan"],
        ["--alpha", "inf"], ["--scale-base", "1"], ["--rows", "0"],
        ["--seed", "-1"], ["--topk", "-1"], ["--topk", "0"], ["--threads", "0"],
        ["--min-entries", "-5"], ["--min-entries", "0"], ["--span-cap", "nan"],
        ["--span-cap", "-1"], ["--span-cap", "0"]])
    def test_invalid_parameter_exit_2(self, instance_path, tmp_path, capsys,
                                      args):
        rc = main(["detect", "--input", str(instance_path),
                   "--out", str(tmp_path / "o")] + args)
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error:")
        assert not (tmp_path / "o").exists()

    def test_boundary_parameters_accepted(self, instance_path, tmp_path):
        rc = main(["detect", "--input", str(instance_path),
                   "--min-entries", "1", "--span-cap", "inf", "--topk", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert len((tmp_path / "o" / "communities.jsonl").read_text()
                   .splitlines()) == 1

    def test_graph_without_edges_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.tgraph"
        empty.write_text("tgraph 3 2\n")
        rc = main(["detect", "--input", str(empty), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "has no edges" in capsys.readouterr().err

    def test_pipeline_value_error_is_not_an_input_error(
            self, instance_path, tmp_path, capsys, monkeypatch):
        def failing(ag, seed_sets, params):
            raise ValueError("walk solver failed")

        monkeypatch.setattr(driver, "rwr_scores", failing)
        with pytest.raises(ValueError, match="walk solver failed"):
            main(["detect", "--input", str(instance_path), "--alpha", "0.2",
                  "--rows", "2", "--min-entries", "3",
                  "--out", str(tmp_path / "o")])
        assert "input error" not in capsys.readouterr().err


class TestPruneBoundsOracle:
    def test_prune_csv(self, instance_path, capsys):
        rc = main(["prune", "--input", str(instance_path), "--alpha", "0.2"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "start,length,status,bound"
        assert len(out) == 1 + 8 * 9 // 2
        assert {line.split(",")[2] for line in out[1:]} <= {
            "group-pruned", "composite-pruned", "exact-pruned", "unpruned"}

    @pytest.mark.parametrize("phi_star", [[], ["--phi-star", "0"]])
    def test_prune_zero_incumbent_writes_the_zero_table(self, tmp_path, capsys,
                                                        phi_star):
        # two triangles at timestamp 0: a zero-conductance community, which
        # detect accepts as optimal; prune must too
        path = tmp_path / "zero.tgraph"
        path.write_text("tgraph 6 2\na b 0 1\nb c 0 1\na c 0 1\nd e 0 1\n"
                        "e f 0 1\nd f 0 1\na b 1 1\n")
        rc = main(["prune", "--input", str(path)] + phi_star)
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "start,length,status,bound", "0,1,unpruned,0", "0,2,unpruned,0",
            "1,1,unpruned,0"]

    @pytest.mark.parametrize("bad", ["-1", "nan", "inf"])
    def test_prune_invalid_incumbent_exit_2(self, instance_path, bad):
        rc = main(["prune", "--input", str(instance_path), "--phi-star", bad])
        assert rc == 2

    @pytest.mark.parametrize("command", ["prune", "bounds", "oracle"])
    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exit_2(self, instance_path, capsys, command,
                                     alpha):
        rc = main([command, "--input", str(instance_path), "--alpha", alpha])
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error: alpha")

    def test_bounds_csv(self, instance_path, capsys):
        rc = main(["bounds", "--input", str(instance_path), "--alpha", "0.0"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "start,end,lambda2,bound"
        assert len(out) == 1 + 8 * 9 // 2

    def test_oracle_small_instance(self, tmp_path, capsys):
        path = tmp_path / "small.tgraph"
        path.write_text("tgraph 4 2\n"
                        "a b 0 1\nb c 0 1\nc d 0 1\nd a 0 1\n"
                        "a b 1 1\nb c 1 1\nc d 1 1\nd a 1 1\n")
        rc = main(["oracle", "--input", str(path)])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["phi"] == pytest.approx(0.5)

    def test_oracle_too_large_exit_2(self, instance_path):
        rc = main(["oracle", "--input", str(instance_path)])
        assert rc == 2


class TestHashCalibrate:
    def test_csv_shape_and_agreement(self, capsys):
        rc = main(["hash-calibrate", "--trials", "2000", "--timeline", "100"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "jaccard,delta_frac,r,k,empirical,theoretical"
        assert len(out) == 1 + 4 * 4 * 3
        for line in out[1:]:
            parts = line.split(",")
            emp, theo = float(parts[4]), float(parts[5])
            sigma = max((theo * (1 - theo) / 2000) ** 0.5, 1e-9)
            # near-zero cells are granular at 2000 trials; allow two counts
            assert abs(emp - theo) <= 5 * sigma + 2 / 2000

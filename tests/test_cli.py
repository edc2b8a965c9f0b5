"""Command-line interface: subcommands, files, exit codes."""

import json

import numpy as np
import pytest

from beliefsel.cli import main


def run_gen(tmp_path, name="parity33", seed=0):
    assert main(["gen", name, "--out-dir", str(tmp_path), "--seed", str(seed)]) == 0
    return tmp_path / f"{name}.csv", tmp_path / f"{name}.truth.json"


def stable_report(path):
    """Parsed report with the wall-clock timings block removed."""
    doc = json.loads(path.read_text())
    doc["metadata"].pop("timings", None)
    return doc


class TestGen:
    def test_writes_data_truth_and_metadata(self, tmp_path, capsys):
        data, truth = run_gen(tmp_path)
        assert data.exists() and truth.exists()
        meta = json.loads((tmp_path / "parity33.meta.json").read_text())
        assert meta["n_features"] == 12
        assert meta["kinds"] == ["nominal"] * 12
        listing = json.loads(capsys.readouterr().out)
        assert listing["n_instances"] == 64

    def test_generated_csv_parses_back(self, tmp_path):
        data, _ = run_gen(tmp_path, "xor100", seed=3)
        from beliefsel.dataset import parse_csv
        with open(data) as fh:
            ds = parse_csv(fh)
        assert (ds.n_instances, ds.n_features) == (50, 99)

    def test_unknown_name_is_data_error(self, tmp_path):
        assert main(["gen", "nope", "--out-dir", str(tmp_path)]) == 2


class TestSelectAndRank:
    def test_select_writes_json_report(self, tmp_path):
        data, _ = run_gen(tmp_path)
        out = tmp_path / "sel.json"
        code = main(["select", "--input", str(data), "--nfeat", "3",
                     "--sample-rate", "1.0", "--k", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["selected"]) == 3
        assert doc["method"] == "belief"
        assert doc["metadata"]["config"]["theta"] == 0.5
        assert set(doc["selected"][0]) == {
            "feature", "weight", "normalized_weight", "penalty", "score"}

    def test_select_finds_parity_bits_with_penalty(self, tmp_path):
        data, truth_path = run_gen(tmp_path)
        out = tmp_path / "sel.json"
        assert main(["select", "--input", str(data), "--nfeat", "3",
                     "--out", str(out)]) == 0
        picked = {s["feature"] for s in json.loads(out.read_text())["selected"]}
        assert picked == {0, 1, 2}

    def test_rank_reports_every_feature_by_default(self, tmp_path):
        data, _ = run_gen(tmp_path)
        out = tmp_path / "rank.json"
        assert main(["rank", "--input", str(data), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["selected"]) == 12
        assert doc["metadata"]["config"]["theta"] == 0.0

    def test_rank_nfeat_truncates(self, tmp_path):
        data, _ = run_gen(tmp_path)
        out = tmp_path / "rank.json"
        assert main(["rank", "--input", str(data), "--nfeat", "4",
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["selected"]) == 4

    def test_deterministic_runs_repeat_exactly(self, tmp_path):
        # Everything but the wall-clock timings must repeat bit for bit,
        # weights included: json emits full float repr.
        data, _ = run_gen(tmp_path, "xor100")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["select", "--input", str(data), "--nfeat", "5",
                "--partitions", "4"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert stable_report(a) == stable_report(b)

    def test_missing_input_is_exit_two(self, tmp_path):
        assert main(["select", "--input", str(tmp_path / "none.csv"),
                     "--nfeat", "2"]) == 2

    def test_non_finite_input_is_exit_two(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("a,b,class\n1.0,2.0,0\n3.0,inf,1\n")
        assert main(["select", "--input", str(data), "--nfeat", "1"]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_oversized_selection_is_exit_two(self, tmp_path):
        data, _ = run_gen(tmp_path)
        assert main(["select", "--input", str(data), "--nfeat", "99"]) == 2


class TestMrmr:
    def test_selects_and_reports(self, tmp_path):
        data, _ = run_gen(tmp_path)
        out = tmp_path / "mrmr.json"
        assert main(["mrmr", "--input", str(data), "--nfeat", "3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "mrmr"
        assert len(doc["selected"]) == 3
        assert doc["metadata"]["bins"] == 10


class TestEval:
    def test_success_scoring_against_truth(self, tmp_path):
        data, truth_path = run_gen(tmp_path)
        sel = tmp_path / "sel.json"
        assert main(["select", "--input", str(data), "--nfeat", "3",
                     "--out", str(sel)]) == 0
        out = tmp_path / "eval.json"
        assert main(["eval", "--input", str(data), "--selection", str(sel),
                     "--truth", str(truth_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["success"] == 1.0

    def test_truth_without_selection_is_exit_two(self, tmp_path):
        data, truth_path = run_gen(tmp_path)
        assert main(["eval", "--input", str(data),
                     "--truth", str(truth_path)]) == 2

    def test_no_mode_at_all_is_exit_two(self, tmp_path):
        data, _ = run_gen(tmp_path)
        assert main(["eval", "--input", str(data)]) == 2

    def test_cross_validation_mode(self, tmp_path):
        data, _ = run_gen(tmp_path, "xor100")
        out = tmp_path / "cv.json"
        assert main(["eval", "--input", str(data), "--cv", "2",
                     "--method", "mrmr", "--nfeat", "3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())["cv"]
        assert doc["folds"] == 2
        assert 0.0 <= doc["accuracy_mean"] <= 1.0
        assert len(doc["selected_per_fold"]) == 2

    def test_cross_validation_of_belief_selects_inside_each_fold(self, tmp_path):
        from beliefsel.dataset import parse_csv
        from beliefsel.evaluation import stratified_folds
        from beliefsel.selection import SelectorConfig, run_belief
        data, _ = run_gen(tmp_path, "xor100")
        out = tmp_path / "cv.json"
        assert main(["eval", "--input", str(data), "--cv", "3",
                     "--method", "belief", "--nfeat", "2", "--theta", "0.5",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())["cv"]
        assert doc["folds"] == 3
        assert len(doc["per_fold"]) == 3
        with open(data) as fh:
            ds = parse_csv(fh)
        folds = stratified_folds(ds.labels, 3, seed=0)
        config = SelectorConfig(n_select=2, theta=0.5)
        assert doc["selected_per_fold"] == [
            run_belief(ds.subset(np.flatnonzero(folds != f)), config).selected_features()
            for f in range(3)]


class TestBench:
    def test_accounting_report(self, tmp_path):
        data, _ = run_gen(tmp_path, "xor100")
        out = tmp_path / "bench.json"
        assert main(["bench", "--input", str(data), "--partitions", "2",
                     "--sample-rate", "0.5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["within_bound"] is True
        assert doc["locator_records"] <= doc["record_bound"]
        assert doc["locator_bytes"] == doc["locator_records"] * 16
        assert doc["sample_size"] == 25
        assert 0.0 < doc["byte_ratio"] < 1.0


class TestArgparseMapping:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        data, _ = run_gen(tmp_path)
        assert main(["rank", "--input", str(data), "--bogus"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen" in capsys.readouterr().out

    def test_missing_required_nfeat_is_usage_error(self, tmp_path):
        data, _ = run_gen(tmp_path)
        assert main(["mrmr", "--input", str(data)]) == 1


class TestCsvLabelColumn:
    def test_numeric_position_and_name_agree(self, tmp_path):
        text = "class,a,b\n0,1.0,2.0\n1,3.0,4.0\n0,5.0,6.0\n1,0.5,1.5\n"
        path = tmp_path / "d.csv"
        path.write_text(text)
        out_pos = tmp_path / "p.json"
        out_name = tmp_path / "n.json"
        base = ["rank", "--input", str(path), "--k", "1"]
        assert main(base + ["--label-column", "0", "--out", str(out_pos)]) == 0
        assert main(base + ["--label-column", "class", "--out", str(out_name)]) == 0
        assert stable_report(out_pos) == stable_report(out_name)

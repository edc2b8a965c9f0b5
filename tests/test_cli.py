"""Command-line interface: subcommands, files, exit codes."""

import json
import re

import numpy as np
import pytest

from beliefsel import cli
from beliefsel.cli import main
from beliefsel.dataset import Dataset, FeatureKind, write_csv
from beliefsel.selection import minmax_normalize


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

    def test_threshold_reports_strong_features(self, tmp_path):
        # Binary data with three mean-shifted columns, the rest pure noise.
        rng = np.random.default_rng(5)
        y = rng.integers(0, 2, 120)
        y[:2] = [0, 1]
        X = rng.standard_normal((120, 8))
        X[:, :3] += np.array([2.0, 1.5, 1.2]) * y[:, None]
        data = tmp_path / "shifted.csv"
        with open(data, "w") as fh:
            write_csv(Dataset(X, y, [FeatureKind.NUMERIC] * 8), fh)
        out = tmp_path / "rank.json"
        assert main(["rank", "--input", str(data), "--threshold", "0.5",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        weights = np.zeros(8)
        for row in doc["weights"]:
            weights[row["feature"]] = row["weight"]
        wn = minmax_normalize(weights)
        above = doc["metadata"]["above_threshold"]
        assert 0 in above
        assert above == [j for j in range(8) if wn[j] > 0.5]

    @pytest.mark.parametrize("nfeat", ["0", "-3"])
    def test_rank_nfeat_below_one_is_exit_two(self, tmp_path, capsys, nfeat):
        data, _ = run_gen(tmp_path)
        assert main(["rank", "--input", str(data), "--nfeat", nfeat]) == 2
        assert f"--nfeat must be >= 1, got {nfeat}" in capsys.readouterr().err

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

    def test_out_of_range_kappa_is_exit_two(self, tmp_path, capsys):
        data, _ = run_gen(tmp_path)
        assert main(["select", "--input", str(data), "--nfeat", "2",
                     "--kappa", "1.5"]) == 2
        assert "kappa" in capsys.readouterr().err


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


class TestRender:
    @pytest.mark.parametrize("command", ["select", "mrmr"])
    def test_weights_are_written_as_json_dumps_writes_them(self, tmp_path, command):
        data, _ = run_gen(tmp_path, "corral100")
        out = tmp_path / "out.json"
        assert main([command, "--input", str(data), "--nfeat", "3", "--out", str(out)]) == 0
        text = out.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        for w, v in zip(doc["weights"], (-0.0, 5e-324, 1e300, -2.5e-308, 0.1, 1 / 3)):
            w["weight"] = v
        assert cli._render(doc) == json.dumps(doc, indent=2)
        doc["weights"][-1]["weight"] = float("nan")  # json's own path
        assert cli._render(doc) == json.dumps(doc, indent=2)
        assert cli._render({"weights": []}) == json.dumps({"weights": []}, indent=2)


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
        # Only the score and the picks: nothing else of the selection file.
        picks = [s["feature"] for s in json.loads(sel.read_text())["selected"]]
        assert list(doc) == ["success", "selected"] and doc["selected"] == picks

    def test_truth_without_selection_is_exit_two(self, tmp_path):
        data, truth_path = run_gen(tmp_path)
        assert main(["eval", "--input", str(data),
                     "--truth", str(truth_path)]) == 2

    @pytest.mark.parametrize("bad,text,message", [
        ("truth", '{"n_features": 33', "Expecting"),
        ("truth", '{"n_features": 33}', "ground truth has no 'relevant' key"),
        ("truth", "[33]", "ground truth has no 'n_features' key"),
        ("selection", "not json", "Expecting value"),
        ("selection", '{"selected": [{"feature": 0}, {"score": 1.0}]}',
         "a selected entry has no 'feature' key"),
        ("selection", "[]", "not an object with a 'selected' list"),
        ("selection", '{"selected": 5}', "not an object with a 'selected' list"),
        ("selection", '{"selected": [3]}', "a selected entry has no 'feature' key"),
        ("selection", '{"selected": [{"feature": "x"}]}', "is not an integer"),
        ("selection", '{"selected": [{"feature": 1.5}]}', "is not an integer"),
    ])
    def test_malformed_json_is_exit_two(self, tmp_path, capsys, bad, text, message):
        # These died with a KeyError, JSONDecodeError, AttributeError,
        # TypeError or ValueError traceback, exit 1; a float feature was
        # read as its integer part.
        data, truth_path = run_gen(tmp_path)
        sel = tmp_path / "sel.json"
        sel.write_text('{"selected": [{"feature": 0}]}')
        files = {"selection": sel, "truth": truth_path}
        files[bad] = tmp_path / "bad.json"
        files[bad].write_text(text)
        assert main(["eval", "--input", str(data), "--selection", str(files["selection"]),
                     "--truth", str(files["truth"])]) == 2
        err = capsys.readouterr().err
        assert f"{files[bad]}: " in err and message in err

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
        assert doc["locator_records"] <= doc["measured_pairs"]
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


# -- the JSON layout, pinned ---------------------------------------------------

TINY_CSV = """\
a,b,c,d,class
-0.4,0.0,-0.2,-0.2,0
1.1,0.3,0.3,-0.0,1
0.6,-0.7,-0.4,-0.9,0
-0.7,-1.7,0.1,-0.8,1
-0.8,-0.6,0.4,0.6,0
1.7,1.4,3.0,0.3,1
0.2,-2.2,-1.7,2.2,0
3.7,0.9,-0.1,0.6,1
"""

# Each command's JSON on TINY_CSV, with every timing read as 0.0.
PINNED = {
    ("select", "--nfeat", "2"): """\
{
  "selected": [
    {
      "feature": 0,
      "weight": 0.18954166526829952,
      "normalized_weight": 1.0,
      "penalty": 0.0,
      "score": 1.0
    },
    {
      "feature": 1,
      "weight": -0.039826849819513566,
      "normalized_weight": 0.5816670514029497,
      "penalty": 0.811529163971053,
      "score": 0.1759024694174232
    }
  ],
  "weights": [
    {
      "feature": 0,
      "weight": 0.18954166526829952
    },
    {
      "feature": 1,
      "weight": -0.039826849819513566
    },
    {
      "feature": 2,
      "weight": -0.2945718858876847
    },
    {
      "feature": 3,
      "weight": -0.35875011011549196
    }
  ],
  "method": "belief",
  "metadata": {
    "config": {
      "n_select": 2,
      "k": 3,
      "sample_rate": 1.0,
      "batches": 1,
      "theta": 0.5,
      "kappa": 0.8,
      "partitions": 1,
      "seed": 0
    },
    "n_instances": 8,
    "n_features": 4,
    "n_classes": 2,
    "sample_size": 8,
    "timings": {
      "normalize_s": 0.0,
      "sample_s": 0.0,
      "search_s": 0.0,
      "estimate_s": 0.0,
      "redundancy_s": 0.0,
      "select_s": 0.0
    },
    "locator_records": 48,
    "measured_pairs": 48,
    "locator_bytes": 768,
    "full_instance_bytes": 1536
  }
}
""",
    ("rank", "--nfeat", "3"): """\
{
  "selected": [
    {
      "feature": 0,
      "weight": 0.18954166526829952,
      "normalized_weight": 1.0,
      "penalty": 0.0,
      "score": 1.0
    },
    {
      "feature": 1,
      "weight": -0.039826849819513566,
      "normalized_weight": 0.5816670514029497,
      "penalty": 0.0,
      "score": 0.5816670514029497
    },
    {
      "feature": 2,
      "weight": -0.2945718858876847,
      "normalized_weight": 0.1170512254773182,
      "penalty": 0.0,
      "score": 0.1170512254773182
    }
  ],
  "weights": [
    {
      "feature": 0,
      "weight": 0.18954166526829952
    },
    {
      "feature": 1,
      "weight": -0.039826849819513566
    },
    {
      "feature": 2,
      "weight": -0.2945718858876847
    },
    {
      "feature": 3,
      "weight": -0.35875011011549196
    }
  ],
  "method": "belief",
  "metadata": {
    "config": {
      "n_select": 4,
      "k": 3,
      "sample_rate": 1.0,
      "batches": 1,
      "theta": 0.0,
      "kappa": 0.8,
      "partitions": 1,
      "seed": 0
    },
    "n_instances": 8,
    "n_features": 4,
    "n_classes": 2,
    "sample_size": 8,
    "timings": {
      "normalize_s": 0.0,
      "sample_s": 0.0,
      "search_s": 0.0,
      "estimate_s": 0.0,
      "redundancy_s": 0.0,
      "select_s": 0.0
    },
    "locator_records": 48,
    "measured_pairs": 48,
    "locator_bytes": 768,
    "full_instance_bytes": 1536
  }
}
""",
    ("mrmr", "--nfeat", "2"): """\
{
  "selected": [
    {
      "feature": 1,
      "weight": 0.75,
      "normalized_weight": 0.75,
      "penalty": 0.0,
      "score": 0.75
    },
    {
      "feature": 0,
      "weight": 0.6556390622295665,
      "normalized_weight": 0.6556390622295665,
      "penalty": 1.9056390622295665,
      "score": -1.25
    }
  ],
  "weights": [
    {
      "feature": 1,
      "weight": 0.75
    },
    {
      "feature": 0,
      "weight": 0.6556390622295665
    },
    {
      "feature": 2,
      "weight": 0.4056390622295664
    },
    {
      "feature": 3,
      "weight": 0.25
    }
  ],
  "method": "mrmr",
  "metadata": {
    "bins": 10
  }
}
""",
}


class TestPinnedLayout:
    @pytest.mark.parametrize("argv", list(PINNED), ids=lambda argv: argv[0])
    def test_report_text_is_unchanged(self, tmp_path, argv):
        # Keys, key order and the repr of every float: a change to the
        # result layout cannot alter the report silently.
        data = tmp_path / "tiny.csv"
        data.write_text(TINY_CSV)
        out = tmp_path / "out.json"
        assert main([argv[0], "--input", str(data), "--out", str(out), *argv[1:]]) == 0
        text = re.sub(r'("[a-z]+_s": )[^,\n]+', r"\g<1>0.0", out.read_text())
        assert text == PINNED[argv]

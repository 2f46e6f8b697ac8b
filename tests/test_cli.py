import csv
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from rmgcr import cli, files, geogrid, ground
from rmgcr.cli import build_parser, main
from rmgcr.errors import InputError
from rmgcr.geogrid import DEFAULT_FIXED_CELLS, GridConfig, ObsIndex, config_to_dict
from rmgcr.rm import StepFromTerminalError

from test_ground import format_1_pvfs

SEQUENCE = "tasks/sequence.rm"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small end-to-end run shared by the CLI tests: dataset + models."""
    root = tmp_path_factory.mktemp("cli")
    dataset = root / "data.jsonl"
    models = root / "models"
    assert main(["gen-dataset", "--out", str(dataset), "--n", "60", "--seed", "1"]) == 0
    assert main(["ground", "--dataset", str(dataset), "--out", str(models)]) == 0
    return {"root": root, "dataset": dataset, "models": models}


@pytest.fixture(scope="module")
def sparse_models(tmp_path_factory):
    """Models grounded on two 20-step walks: the PVFs have no entry for most cells of the layout."""
    root = tmp_path_factory.mktemp("sparse")
    dataset = root / "data.jsonl"
    assert main(["gen-dataset", "--out", str(dataset), "--n", "2", "--seed", "4", "--episode-len", "20"]) == 0
    assert main(["ground", "--dataset", str(dataset), "--out", str(root / "models")]) == 0
    pvfs = files.load_pvfs(root / "models" / "pvfs.json")
    unseen = pvfs.unseen(geogrid.Layout.fixed(GridConfig()).obs)
    assert 0 < sum(unseen) < len(unseen)
    return root / "models", unseen


class TestGenDataset:
    def test_writes_file_and_prints_frequencies(self, tmp_path, capsys):
        out = tmp_path / "ds.jsonl"
        assert main(["gen-dataset", "--out", str(out), "--n", "5", "--seed", "3"]) == 0
        printed = capsys.readouterr().out
        assert out.exists()
        for atom in ("red", "green", "blue", "triangle", "circle"):
            assert atom in printed

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["gen-dataset", "--out", str(a), "--n", "5", "--seed", "3"])
        main(["gen-dataset", "--out", str(b), "--n", "5", "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_n_zero_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["gen-dataset", "--out", str(tmp_path / "x.jsonl"), "--n", "0"])
        assert e.value.code == 2

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"episode_len": 5}))
        out = tmp_path / "ds.jsonl"
        main(["gen-dataset", "--out", str(out), "--config", str(cfg), "--n", "2", "--seed", "0"])
        first = json.loads(out.read_text().splitlines()[1])
        assert len(first["actions"]) == 5

    def test_config_is_checked_with_the_flags_over_it(self, tmp_path):
        # the start lies outside the file's default 6 x 6 grid but inside the flags' 8 x 8
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"agent_start": [7, 7], "episode_len": 0}))
        out = tmp_path / "ds.jsonl"
        argv = ["gen-dataset", "--out", str(out), "--config", str(cfg), "--n", "1"]
        assert main(argv + ["--width", "8", "--height", "8"]) == 0
        config = json.loads(out.read_text().splitlines()[0])["meta"]["config"]
        assert (config["width"], config["height"], config["agent_start"]) == (8, 8, [7, 7])


class TestGround:
    def test_outputs(self, pipeline):
        models = pipeline["models"]
        assert (models / "label_model.json").exists()
        assert (models / "pvfs.json").exists()
        metrics = json.loads((models / "metrics.json").read_text())
        assert all(acc >= 0.99 for acc in metrics["holdout_accuracy"].values())
        assert metrics["accuracy_split"] == "holdout"  # 6 of the 60 trajectories

    def test_too_few_trajectories_to_hold_out_report_training_accuracy(self, tmp_path, capsys):
        dataset, models = tmp_path / "data.jsonl", tmp_path / "models"
        assert main(["gen-dataset", "--out", str(dataset), "--n", "5", "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["ground", "--dataset", str(dataset), "--out", str(models)]) == 0
        printed = capsys.readouterr().out
        assert "training accuracy red" in printed and "held-out" not in printed
        assert json.loads((models / "metrics.json").read_text())["accuracy_split"] == "train"
        assert json.loads((models / "label_model.json").read_text())["accuracy_split"] == "train"

    def test_missing_dataset_is_runtime_error(self, tmp_path):
        code = main(["ground", "--dataset", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)])
        assert code == 4

    def test_header_only_dataset_is_validation_error(self, pipeline, tmp_path):
        header = pipeline["dataset"].read_text().split("\n", 1)[0]
        empty = tmp_path / "empty.jsonl"
        empty.write_text(header + "\n")
        code = main(["ground", "--dataset", str(empty), "--out", str(tmp_path / "models")])
        assert code == 3

    def test_ground_adds_no_observation_per_step(self, tmp_path, monkeypatch):
        # the walk and the loader each number a distinct observation once; nothing re-interns a step
        added = []
        add = ObsIndex.add
        monkeypatch.setattr(ObsIndex, "add", lambda self, *a: added.append(1) or add(self, *a))
        dataset = tmp_path / "data.jsonl"
        assert main(["gen-dataset", "--out", str(dataset), "--n", "50", "--seed", "4"]) == 0
        generated = len(added)
        assert main(["ground", "--dataset", str(dataset), "--out", str(tmp_path / "models")]) == 0
        header = json.loads(dataset.read_text().split("\n", 1)[0])
        distinct = len(header["observations"])
        assert generated == len(added) - generated == distinct
        assert len(added) <= 2 * distinct < 50 * 61

    def test_observation_labelled_two_ways_is_validation_error(self, pipeline, tmp_path, capsys):
        # the same observation bytes twice in the table, with two labels, both referenced
        header, *records = pipeline["dataset"].read_text().splitlines()
        head = json.loads(header)
        twin = len(head["observations"])
        head["observations"].append(head["observations"][0])
        head["labels"].append([] if head["labels"][0] else ["red"])
        extra = json.dumps({"actions": [0], "ids": [0, twin]})
        bad = tmp_path / "relabelled.jsonl"
        bad.write_text("\n".join([json.dumps(head), *records, extra]) + "\n")
        code = main(["ground", "--dataset", str(bad), "--out", str(tmp_path / "models")])
        assert code == 3
        assert "labelled both" in capsys.readouterr().err

    def test_format_one_dataset_is_validation_error(self, tmp_path, capsys):
        old = tmp_path / "old.jsonl"
        header = {"format_version": 1, "vocab": ["red"], "meta": {"seed": 1}}
        record = {"obs": [[[0, 1]]], "actions": [], "labels": [[]]}
        old.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        code = main(["ground", "--dataset", str(old), "--out", str(tmp_path / "models")])
        assert code == 3
        assert f"rmgcr gen-dataset --out {old} --n 1 --seed 1" in capsys.readouterr().err

    def test_out_dir_env_override(self, pipeline, tmp_path, monkeypatch):
        target = tmp_path / "redirected"
        monkeypatch.setenv("RMGCR_OUT_DIR", str(target))
        code = main(
            ["ground", "--dataset", str(pipeline["dataset"]), "--out", str(tmp_path / "ignored")]
        )
        assert code == 0
        assert (target / "pvfs.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_mc_method(self, pipeline, tmp_path):
        out = tmp_path / "mc_models"
        code = main(
            ["ground", "--dataset", str(pipeline["dataset"]), "--out", str(out), "--method", "mc"]
        )
        assert code == 0
        assert json.loads((out / "pvfs.json").read_text())["method"] == "mc"


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_a_later_call_sees_its_own_defaults(self, pipeline, tmp_path):
        argv = ["train", "--rm", SEQUENCE, "--models", str(pipeline["models"])]
        argv += ["--episodes", "2", "--eval-episodes", "2", "--max-steps", "5"]
        first, second = tmp_path / "first", tmp_path / "second"
        extra = ["--seeds", "1", "2", "--shaping", "none", "high-level"]
        assert main(argv + ["--out", str(first)] + extra) == 0
        assert main(argv + ["--out", str(second)]) == 0
        summary = json.loads((second / "summary.json").read_text())
        assert summary["seeds"] == [0]
        assert list(summary["results"]) == ["composed"]
        assert [r["seed"] for r in summary["results"]["composed"]["per_seed"]] == [0]


class TestOracle:
    def test_models_csv_contents(self, pipeline, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main(
            ["oracle", "--rm", SEQUENCE, "--models", str(pipeline["models"]), "--out", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = [row for row in csv.DictReader(fh) if row["composed"]]
        assert len(rows) == 6 * 6 * 3  # cells x non-terminal RM states
        for row in rows:
            assert abs(float(row["composed"]) - float(row["exact"])) == pytest.approx(
                float(row["abs_deviation"])
            )

    def test_models_print_max_deviation(self, pipeline, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        argv = ["oracle", "--rm", SEQUENCE, "--models", str(pipeline["models"])]
        assert main(argv + ["--out", str(out)]) == 0
        with open(out) as fh:
            worst = max(float(row["abs_deviation"]) for row in csv.DictReader(fh) if row["composed"])
        capsys.readouterr()
        assert main(argv) == 0  # no --out: the deviation is still reported
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"max absolute deviation from the exact oracle: {worst:.6f}"
        assert lines[-1] == "bounds PASS"

    def test_cells_the_pvfs_have_no_entry_for_are_left_empty_with_a_warning(
        self, sparse_models, tmp_path, capsys
    ):
        models, unseen = sparse_models
        out = tmp_path / "oracle.csv"
        capsys.readouterr()
        assert main(["oracle", "--rm", SEQUENCE, "--models", str(models), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"warning: the PVFs have no entry for {sum(unseen)} of the 36 cells and value them 0.0; "
            "their composed values are left out of the table and the deviation"
        ]
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        # sequence.rm has one terminal state of four: unseen cells are left empty, as terminal rows are
        for row in rows:
            i = int(row["row"]) * 6 + int(row["col"])
            compared = not unseen[i] and row["rm_state"] != "0"
            assert bool(row["composed"]) == bool(row["abs_deviation"]) == compared
        compared = [row for row in rows if row["composed"]]
        assert len(compared) == 3 * (36 - sum(unseen))
        worst = max(float(row["abs_deviation"]) for row in compared)
        assert f"max absolute deviation from the exact oracle: {worst:.6f}" in captured.out.splitlines()

    def test_no_cell_compared_prints_no_deviation(self, tmp_path, capsys):
        # PVFs grounded on a 5 x 5 grid have no entry for any cell of the 6 x 6 default layout
        models = tmp_path / "models"
        models.mkdir()
        coverage = geogrid.full_coverage_dataset(GridConfig(width=5, height=5))
        files.save_pvfs(ground.train_pvfs_fqi(coverage, 0.97), models / "pvfs.json")
        out = tmp_path / "oracle.csv"
        assert main(["oracle", "--rm", SEQUENCE, "--models", str(models), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: the PVFs have no entry for 36 of the 36 cells")
        assert "max absolute deviation from the exact oracle: none (no cell was compared)" in captured.out
        assert "0.000000" not in captured.out
        with open(out) as fh:
            assert not any(row["composed"] or row["abs_deviation"] for row in csv.DictReader(fh))

    def test_no_models_no_deviation(self, capsys):
        assert main(["oracle", "--rm", SEQUENCE]) == 0
        assert "deviation" not in capsys.readouterr().out

    def test_only_models_encode_the_layout(self, pipeline, monkeypatch):
        # the encoded layout takes cells^2 * 6 bytes, 48.6 GB on a 300 x 300 grid the oracle solves
        calls = []
        encode_layout = geogrid.encode_layout
        monkeypatch.setattr(geogrid, "encode_layout", lambda state: calls.append(state) or encode_layout(state))
        assert main(["oracle", "--rm", SEQUENCE]) == 0
        assert len(calls) == 0
        assert main(["oracle", "--rm", SEQUENCE, "--models", str(pipeline["models"])]) == 0
        assert len(calls) == 1

    def test_loop_at_a_gamma_the_sweeps_could_not_reach(self, capsys):
        # about 23 / (1 - gamma) = 230,000 sweeps, over the cap, so policy iteration values it
        assert main(["oracle", "--rm", "tasks/loop.rm", "--gamma", "0.9999"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("bounds PASS")


    def test_bounds_pass(self, pipeline, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        code = main(
            ["oracle", "--rm", SEQUENCE, "--models", str(pipeline["models"]), "--out", str(out)]
        )
        printed = capsys.readouterr().out
        assert code == 0
        assert "bounds PASS" in printed
        assert out.exists()

    def test_models_of_another_vocabulary_are_validation_error(self, pipeline, capsys):
        # lava.rm speaks of lava; the models were grounded on the grid's colours and shapes
        argv = ["oracle", "--rm", "tasks/lava.rm", "--models", str(pipeline["models"])]
        assert main(argv) == 3
        assert "vocabularies differ" in capsys.readouterr().err

    def test_nondeterministic_rm_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.rm"
        bad.write_text(
            "vocab: red triangle\nstates: 2\n(1, 0, red, 1)\n(1, 0, red & triangle, 1)\n"
        )
        assert main(["oracle", "--rm", str(bad)]) == 3

    def test_randomized_layout_is_validation_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"layout_mode": "randomized", "objects": []}))
        assert main(["oracle", "--rm", SEQUENCE, "--env", str(cfg)]) == 3

    def test_fixed_layout_with_no_free_cell_for_the_agent_is_validation_error(self, tmp_path, capsys):
        # six objects fill a 2 x 3 grid, and the agent may start on none of them
        objects = [[c, s, [i // 3, i % 3]] for i, (c, s) in enumerate(DEFAULT_FIXED_CELLS)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"width": 3, "height": 2, "objects": objects, "exclude_agent_from_objects": True})
        )
        assert main(["oracle", "--rm", SEQUENCE, "--env", str(cfg)]) == 3
        assert "no free cell for the agent" in capsys.readouterr().err

    def test_gamma_one_fails_fast(self):
        # before gamma was checked, value iteration at gamma = 1 never ended
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-m", "rmgcr.cli", "oracle", "--rm", "tasks/loop.rm", "--gamma", "1"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            timeout=30,
        )
        assert done.returncode != 0


@pytest.mark.parametrize(
    "command, model_file, tamper",
    [
        ("oracle", "pvfs.json", lambda d: d["estimators"]["+red"].update(kind="tabular_q")),
        ("train", "label_model.json", lambda d: d.update(feature_version=0)),
    ],
)
def test_tampered_model_file_is_validation_error(pipeline, tmp_path, command, model_file, tamper):
    models = tmp_path / "models"
    shutil.copytree(pipeline["models"], models)
    data = json.loads((models / model_file).read_text())
    tamper(data)
    (models / model_file).write_text(json.dumps(data))
    argv = [command, "--rm", SEQUENCE, "--models", str(models)]
    if command == "train":
        argv += ["--out", str(tmp_path / "runs"), "--episodes", "1", "--eval-episodes", "1"]
    assert main(argv) == 3


@pytest.mark.parametrize(
    "tamper, message",
    [
        (format_1_pvfs, "regenerate it with `rmgcr ground --dataset <dataset> --out "),
        (lambda d: d["observations"][0].pop(), "table entry 0 is not a [shape, hex] pair"),
        (lambda d: d["estimators"]["+red"]["v"].pop(), "the values of +red are not a list of one"),
        (lambda d: d.update(gamma=float("nan")), "pvfs.json field 'gamma' must be a number, not nan"),
        (lambda d: d["estimators"]["+red"]["v"].__setitem__(0, float("nan")), "the values of +red are not a list"),
    ],
    ids=["format-1", "short-entry", "short-values", "gamma-nan", "tabular-value-nan"],
)
def test_unreadable_pvf_file_is_validation_error(pipeline, tmp_path, capsys, tamper, message):
    models = tmp_path / "models"
    shutil.copytree(pipeline["models"], models)
    data = json.loads((models / "pvfs.json").read_text())
    tamper(data)
    (models / "pvfs.json").write_text(json.dumps(data))
    assert main(["oracle", "--rm", SEQUENCE, "--models", str(models)]) == 3
    assert message in capsys.readouterr().err


# a format-2 pvfs.json up to its estimators
PVFS_HEADER = (
    '{"format_version": 2, "feature_version": 1, "vocab": ["red"], "gamma": 0.97, '
    '"method": "fqi", "observations": [], '
)
# a label_model.json up to its backend, with no weights, bias or table
LABEL_MODEL_HEADER = '{"feature_version": 1, "vocab": ["red"], "threshold": 0.5, '


# a label_model.json with every field but one, which each case puts first
LABEL_MODEL_REST = '"feature_version": 1, "backend": "linear", "weights": [], "bias": []}'


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("policy.json", '{"00/0": [0, 0', " is not JSON"),
        ("policy.json", "[1, 2]", " is not a JSON object"),
        ("policy.json", '{"zz/1": [0, 0, 0, 0]}', ": policy key 'zz/1' is not <hex>/<int>"),
        ("policy.json", '{"00/x": [0, 0, 0, 0]}', ": policy key '00/x' is not <hex>/<int>"),
        ("policy.json", '{"00": [0, 0, 0, 0]}', ": policy key '00' is not <hex>/<int>"),
        ("policy.json", '{"00/0": "abc"}', ": the values of policy key '00/0' are not a list of 4"),
        ("policy.json", '{"00/0": [0, 0, 0]}', ": the values of policy key '00/0' are not a list of 4"),
        ("policy.json", '{"00/0": [0, 0, "1", 0]}', ": the values of policy key '00/0' are not a list"),
        ("policy.json", '{"00/0": [0, 0, NaN, 0]}', ": the values of policy key '00/0' are not a list"),
        ("policy.json", '{"00/0": [0, 0, 0, 0], "0000/1": [0, 0, 0, 0]}', ": the policy keys' observations"),
        ("pvfs.json", '{"format_version": 2', " is not JSON"),
        ("pvfs.json", '{"format_version": 2, "feature_version": 1}', " lacks vocab, gamma, method"),
        ("pvfs.json", PVFS_HEADER + '"estimators": {"+red": 1, "-red": 1}}', ": the estimator of +red is not"),
        ("pvfs.json", PVFS_HEADER + '"estimators": {"+red": {"kind": "linear"}}}', ": the estimator of +red lacks"),
        ("pvfs.json", PVFS_HEADER + '"estimators": {"+red": {"kind": "tabular"}}}', ": the values of +red are not"),
        ("pvfs.json", '{"estimators": {"+red": 1}}', " is a format-1 PVF file"),
        ("label_model.json", '{"vocab": [', " is not JSON"),
        ("label_model.json", '{"feature_version": 1}', " lacks vocab, backend, threshold"),
        ("label_model.json", LABEL_MODEL_HEADER + '"backend": "linear"}', " lacks weights, bias"),
        ("label_model.json", LABEL_MODEL_HEADER + '"backend": "forest"}', ": unknown label backend 'forest'"),
        ("label_model.json", '{"vocab": 5, "threshold": 0.5, ' + LABEL_MODEL_REST,
         " field 'vocab' must be a list of strings, not 5"),
        ("label_model.json", '{"threshold": "x", "vocab": ["red"], ' + LABEL_MODEL_REST,
         " field 'threshold' must be a number, not 'x'"),
        ("label_model.json", '{"threshold": Infinity, "vocab": ["red"], ' + LABEL_MODEL_REST,
         " field 'threshold' must be a number, not inf"),
        ("label_model.json", LABEL_MODEL_HEADER + '"backend": "linear", "weights": "x", "bias": []}',
         " field 'weights' must be a list, not 'x'"),
        ("pvfs.json", PVFS_HEADER.replace('["red"]', "5") + '"estimators": {}}',
         " field 'vocab' must be a list of strings, not 5"),
        ("pvfs.json", PVFS_HEADER + '"estimators": []}', " field 'estimators' must be a JSON object, not []"),
        ("pvfs.json", PVFS_HEADER + '"estimators": {"": {"kind": "linear", "weights": []}}}',
         ": estimator key '' names no literal of the vocabulary ['red']"),
        ("pvfs.json", PVFS_HEADER.replace("0.97", '"x"') + '"estimators": {}}',
         " field 'gamma' must be a number, not 'x'"),
        ("pvfs.json", PVFS_HEADER + '"estimators": {"+red": {"kind": "linear", "weights": [[0], [0], [0], [0]]}}}',
         ": the estimators are not one per literal of the vocabulary ['red']"),
        ("label_model.json", LABEL_MODEL_HEADER + '"backend": "tabular", "table": {"zz": [1]}}',
         ": table key 'zz' is not hex"),
        ("label_model.json", LABEL_MODEL_HEADER + '"backend": "tabular", "table": {"00": [1, 0]}}',
         ": the value of table key '00' is not a list of 1 numbers"),
        ("label_model.json", LABEL_MODEL_HEADER + '"backend": "tabular", "table": {"00": ["1"]}}',
         ": the value of table key '00' is not a list of 1 numbers"),
        ("label_model.json", LABEL_MODEL_HEADER + '"backend": "linear", "weights": [[0], [0]], "bias": [0]}',
         ": the weights are not 1 equally long lists of numbers, one per atom"),
        ("label_model.json", LABEL_MODEL_HEADER + '"backend": "linear", "weights": [0], "bias": [0]}',
         ": the weights are not 1 equally long lists of numbers, one per atom"),
        ("label_model.json", LABEL_MODEL_HEADER + '"backend": "linear", "weights": [["a"]], "bias": [0]}',
         ": the weights are not 1 equally long lists of numbers, one per atom"),
        ("label_model.json", LABEL_MODEL_HEADER + '"backend": "linear", "weights": [[NaN]], "bias": [0]}',
         ": the weights are not 1 equally long lists of numbers, one per atom"),
        ("label_model.json", LABEL_MODEL_HEADER + '"backend": "linear", "weights": [[0]], "bias": [0, 0]}',
         ": the bias is not a list of 1 numbers, one per atom"),
        ("pvfs.json", PVFS_HEADER + '"estimators": {"+red": {"kind": "linear", "weights": [["a"]]}}}',
         ": the weights of +red are not 4 equally long lists of numbers"),
        ("pvfs.json", PVFS_HEADER + '"estimators": {"+red": {"kind": "linear", "weights": [[0], [0], [0]]}}}',
         ": the weights of +red are not 4 equally long lists of numbers"),
        ("pvfs.json", PVFS_HEADER + '"estimators": {"+red": {"kind": "linear", "weights": [[0], [0], [0], [0, 1]]}}}',
         ": the weights of +red are not 4 equally long lists of numbers"),
    ],
    ids=["policy-not-json", "policy-list", "policy-bad-hex", "policy-bad-state", "policy-no-state",
         "policy-values-not-a-list", "policy-short-values", "policy-string-value", "policy-nan-value",
         "policy-observations-differ", "pvfs-not-json", "pvfs-no-gamma", "pvfs-estimator-a-number",
         "pvfs-linear-no-weights", "pvfs-tabular-no-values", "pvfs-format-1-estimator-a-number",
         "label-model-not-json", "label-model-no-vocab", "label-model-no-weights",
         "label-model-unknown-backend", "label-model-vocab-a-number", "label-model-threshold-a-string",
         "label-model-threshold-infinite",
         "label-model-weights-a-string", "pvfs-vocab-a-number", "pvfs-estimators-a-list",
         "pvfs-empty-estimator-key", "pvfs-gamma-a-string", "pvfs-literal-without-estimator",
         "label-model-table-key-not-hex", "label-model-table-value-too-long",
         "label-model-table-value-a-string", "label-model-weights-too-many-rows",
         "label-model-weights-row-a-number", "label-model-weights-a-string-entry", "label-model-weight-nan",
         "label-model-bias-too-long", "pvfs-weights-a-string-entry", "pvfs-weights-too-few-rows",
         "pvfs-weights-ragged"],
)
def test_malformed_model_or_policy_file_is_validation_error(pipeline, tmp_path, capsys, name, text, message):
    models = tmp_path / "models"
    shutil.copytree(pipeline["models"], models)
    (models / name).write_text(text)
    if name == "policy.json":
        argv = ["eval", "--rm", SEQUENCE, "--policy", str(models / name), "--episodes", "1"]
    elif name == "pvfs.json":
        argv = ["oracle", "--rm", SEQUENCE, "--models", str(models)]
    else:  # oracle --models reads no label model; train reads it first
        argv = [arg.format(models=models, out=tmp_path / "out") for arg in TRAIN]
    assert main(argv) == 3
    # every message names the file, then what in it is at fault
    assert f"error: {models / name}{message}" in capsys.readouterr().err


def _huge_pvf_value(models):
    data = json.loads((models / "pvfs.json").read_text())
    data["estimators"]["+red"]["v"][0] = 10**400
    (models / "pvfs.json").write_text(json.dumps(data))
    return ["oracle", "--rm", SEQUENCE, "--models", str(models)], "the values of +red are not a list of one"


def _huge_label_bias(models):
    data = json.loads((models / "label_model.json").read_text())
    data["bias"][0] = 10**400
    (models / "label_model.json").write_text(json.dumps(data))
    argv = [arg.format(models=models, out=models.parent / "out") for arg in TRAIN]
    return argv, "the bias is not a list of 5 numbers, one per atom"


def _huge_policy_value(models):
    (models / "policy.json").write_text('{"00/0": [0, 0, 0, 1%s]}' % ("0" * 400))
    argv = ["eval", "--rm", SEQUENCE, "--policy", str(models / "policy.json"), "--episodes", "1"]
    return argv, "the values of policy key '00/0' are not a list of 4 numbers"


@pytest.mark.parametrize("tamper", [_huge_pvf_value, _huge_label_bias, _huge_policy_value],
                         ids=["pvfs", "label-model-bias", "policy"])
def test_an_int_beyond_float_range_is_validation_error(pipeline, tmp_path, capsys, tamper):
    # before, oracle and train failed converting it (exit 4) and eval loaded an object-dtype row (exit 0)
    models = tmp_path / "models"
    shutil.copytree(pipeline["models"], models)
    argv, message = tamper(models)
    assert main(argv) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("vocab: red\nstates: 0\n", "need at least one state"),
        ("vocab: red\nstates: 2\ninitial: 0\n", "initial state cannot be terminal"),
    ],
    ids=["no-states", "terminal-initial"],
)
def test_task_file_with_no_usable_initial_state_is_validation_error(tmp_path, capsys, text, message):
    task = tmp_path / "bad.rm"
    task.write_text(text)
    assert main(["oracle", "--rm", str(task)]) == 3
    assert message in capsys.readouterr().err


def test_any_input_error_exits_3_and_a_caller_bug_exits_4(monkeypatch, capsys):
    class FreshInputError(InputError):
        pass

    for error, code in ((FreshInputError("fresh"), 3), (StepFromTerminalError("state 0 is terminal"), 4)):
        def load_rm(path, error=error):
            raise error

        monkeypatch.setattr(cli, "load_rm", load_rm)  # the first thing the oracle reads
        assert main(["oracle", "--rm", SEQUENCE]) == code
        assert f"error: {error}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"widht": 4}', "unknown grid config fields ['widht']"),
        ('{"objects": [["red", "triangle"]]}', "'objects' must be a list of"),
        ("[1, 2]", "must be a JSON object, not list"),
        ('{"width": "6"}', "'width' must be an integer, not '6'"),
        ('{"width": 6', "is not JSON"),
        ('{"layout_mode": "drifting"}', "unknown layout_mode 'drifting'"),
        ('{"agent_start": [-1, 0]}', "agent_start (-1,0) out of bounds"),
        ('{"agent_start": [9, 9]}', "agent_start (9,9) out of bounds"),
        ('{"seed": -5}', "seed must be non-negative, not -5"),
    ],
    ids=[
        "unknown-key",
        "short-object",
        "not-an-object",
        "string-width",
        "not-json",
        "unknown-mode",
        "start-below",
        "start-beyond",
        "negative-seed",
    ],
)
@pytest.mark.parametrize("command", ["gen-dataset", "eval", "oracle"])
def test_bad_grid_config_file_is_validation_error(tmp_path, capsys, text, message, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    if command == "gen-dataset":
        argv = ["gen-dataset", "--out", str(tmp_path / "ds.jsonl"), "--n", "1"]
        argv += ["--config", str(cfg)]
    elif command == "eval":
        argv = ["eval", "--rm", SEQUENCE, "--random", "--episodes", "1", "--env", str(cfg)]
    else:
        argv = ["oracle", "--rm", SEQUENCE, "--env", str(cfg)]
    assert main(argv) == 3
    assert message in capsys.readouterr().err


TRAIN = ["train", "--rm", SEQUENCE, "--models", "{models}", "--out", "{out}", "--episodes", "1"]
GROUND = ["ground", "--dataset", "{dataset}", "--out", "{out}"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracle", "--rm", SEQUENCE, "--gamma", "1.0"], "gamma must lie in (0, 1), not 1.0"),
        (["oracle", "--rm", SEQUENCE, "--gamma", "nan"], "gamma must lie in (0, 1), not nan"),
        (TRAIN + ["--gamma-rm", "1.5"], "gamma_rm must lie in (0, 1), not 1.5"),
        (TRAIN + ["--lam", "-1"], "lam must be non-negative, not -1.0"),
        (TRAIN + ["--shaping", "none", "--gamma", "1.5"], "gamma must lie in (0, 1), not 1.5"),
        (TRAIN + ["--shaping", "none", "--gamma", "1.0"], "gamma must lie in (0, 1), not 1.0"),
        (TRAIN + ["--shaping", "none", "--gamma", "nan"], "gamma must lie in (0, 1), not nan"),
        (GROUND + ["--gamma", "1.0"], "gamma must lie in (0, 1), not 1.0"),
        (GROUND + ["--threshold", "2"], "threshold must lie in (0, 1), not 2.0"),
        (GROUND + ["--iters", "0"], "iters must be at least 1, not 0"),
        (GROUND + ["--iters", "-5"], "iters must be at least 1, not -5"),
        (TRAIN + ["--shaping", "none", "--episodes", "0"], "episodes must be at least 1, not 0"),
        (TRAIN + ["--shaping", "none", "--max-steps", "0"], "max_steps must be at least 1, not 0"),
        (TRAIN + ["--shaping", "none", "--gamma-rm", "1.5"], "gamma_rm must lie in (0, 1), not 1.5"),
        (["eval", "--rm", SEQUENCE, "--random", "--episodes", "0"], "n_episodes must be at least 1, not 0"),
        (["eval", "--rm", SEQUENCE, "--random", "--max-steps", "0"], "max_steps must be at least 1, not 0"),
        (["oracle", "--rm", SEQUENCE, "--gamma-rm", "1.5"], "gamma_rm must lie in (0, 1), not 1.5"),
        (["gen-dataset", "--out", "{out}", "--n", "1", "--seed", "-1"], "seed must be non-negative, not -1"),
        (GROUND + ["--seed", "-1"], "seed must be non-negative, not -1"),
        (TRAIN + ["--shaping", "none", "--seeds", "-3"], "seed must be non-negative, not -3"),
        (TRAIN + ["--shaping", "none", "--eval-seed", "-1"], "eval_seed must be non-negative, not -1"),
        (["eval", "--rm", SEQUENCE, "--random", "--seed", "-2"], "seed must be non-negative, not -2"),
    ],
    ids=[
        "oracle-gamma-1",
        "oracle-gamma-nan",
        "train-gamma-rm",
        "train-lam",
        "train-gamma-1.5",
        "train-gamma-1",
        "train-gamma-nan",
        "ground-gamma",
        "ground-threshold",
        "ground-iters-0",
        "ground-iters-negative",
        "train-episodes-0",
        "train-max-steps-0",
        "train-unshaped-gamma-rm",
        "eval-episodes-0",
        "eval-max-steps-0",
        "oracle-gamma-rm",
        "gen-dataset-seed-negative",
        "ground-seed-negative",
        "train-seeds-negative",
        "train-eval-seed-negative",
        "eval-seed-negative",
    ],
)
def test_out_of_range_setting_is_validation_error(pipeline, tmp_path, capsys, argv, message):
    paths = {"models": pipeline["models"], "dataset": pipeline["dataset"], "out": tmp_path / "out"}
    assert main([arg.format(**paths) for arg in argv]) == 3
    assert message in capsys.readouterr().err


class TestTrainEval:
    def test_train_writes_reports_and_eval_reads_policy(self, pipeline, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main(
            [
                "train",
                "--rm",
                SEQUENCE,
                "--models",
                str(pipeline["models"]),
                "--out",
                str(out),
                "--shaping",
                "composed",
                "--episodes",
                "150",
                "--seeds",
                "0",
                "--eval-episodes",
                "10",
            ]
        )
        assert code == 0
        csv_path = out / "train_composed_seed0.csv"
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 150
        assert set(rows[0]) == {"episode", "perceived_return", "actual_return", "steps"}
        summary = json.loads((out / "summary.json").read_text())
        assert "composed" in summary["results"]
        assert summary["grid"]["width"] == 6  # config echoed for provenance

        capsys.readouterr()
        code = main(
            [
                "eval",
                "--rm",
                SEQUENCE,
                "--policy",
                str(out / "policy_composed_seed0.json"),
                "--episodes",
                "10",
            ]
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert set(stats) == {"mean", "stderr"}

    def test_unseen_label_observations_warn(self, pipeline, tmp_path, capsys):
        models = tmp_path / "models"
        argv = ["ground", "--dataset", str(pipeline["dataset"]), "--out", str(models)]
        assert main(argv + ["--label-backend", "tabular"]) == 0
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"layout_mode": "randomized", "objects": []}))
        train = ["train", "--rm", SEQUENCE, "--env", str(env), "--shaping", "none"]
        train += ["--episodes", "5", "--eval-episodes", "1", "--out", str(tmp_path / "runs")]
        capsys.readouterr()
        assert main(train + ["--models", str(models)]) == 0
        err = capsys.readouterr().err.splitlines()
        warnings = [l for l in err if l.startswith("warning:") and "label model" in l]
        assert len(warnings) == 1 and "no entry for" in warnings[0]
        # the linear label model scores every observation: no label warning
        assert main(train + ["--models", str(pipeline["models"])]) == 0
        assert "label model" not in capsys.readouterr().err

    def test_potentials_the_pvfs_have_no_entry_for_warn_once_per_seed(
        self, pipeline, sparse_models, tmp_path, capsys
    ):
        models, unseen = sparse_models
        train = ["train", "--rm", SEQUENCE, "--out", str(tmp_path / "runs"), "--seeds", "0", "1"]
        train += ["--shaping", "none", "composed", "--episodes", "5", "--eval-episodes", "1"]
        capsys.readouterr()
        assert main(train + ["--models", str(models)]) == 0
        warnings = [l for l in capsys.readouterr().err.splitlines() if "PVFs" in l]
        # a fixed layout's potentials are one table, which values every cell: the count is the layout's
        assert warnings == [
            f"warning: composed seed {seed}: the PVFs have no entry for {sum(unseen)} observations at "
            "which training valued the shaping potential (on a fixed layout, every cell of the layout), "
            "and value them 0.0 there"
            for seed in (0, 1)
        ]
        # PVFs grounded on 60 walks have an entry at every cell
        assert main(train + ["--models", str(pipeline["models"])]) == 0
        assert "PVFs" not in capsys.readouterr().err

    def test_policy_fallbacks_warn_on_stderr_only(self, pipeline, tmp_path, capsys):
        out = tmp_path / "runs"
        train = ["train", "--rm", SEQUENCE, "--models", str(pipeline["models"]), "--out", str(out)]
        train += ["--shaping", "none", "--episodes", "150", "--eval-episodes", "10"]
        assert main(train) == 0
        capsys.readouterr()
        cfg = config_to_dict(GridConfig())
        for obj in cfg["objects"]:  # every object one column to the right
            obj[2] = [obj[2][0], (obj[2][1] + 1) % cfg["width"]]
        shifted = tmp_path / "shifted.json"
        shifted.write_text(json.dumps(cfg))
        evaluate = ["eval", "--rm", SEQUENCE, "--env", str(shifted)]
        # the random policy never falls back; the greedy one meets cells it never saw
        greedy = ["--policy", str(out / "policy_none_seed0.json")]
        for policy, warnings in (["--random"], 0), (greedy, 1):
            assert main(evaluate + policy) == 0
            captured = capsys.readouterr()
            assert set(json.loads(captured.out)) == {"mean", "stderr"}
            err = captured.err.splitlines()
            assert len(err) == warnings
            assert all(l.startswith("warning: the policy has no entry for") for l in err)

    def test_random_eval(self, capsys):
        code = main(["eval", "--rm", SEQUENCE, "--random", "--episodes", "10"])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["mean"] <= 0.5

    def test_gamma_rm_near_one_trains(self, pipeline, tmp_path):
        argv = ["train", "--rm", "tasks/loop.rm", "--models", str(pipeline["models"])]
        argv += ["--out", str(tmp_path), "--shaping", "high-level", "--gamma-rm", "0.99999999"]
        assert main(argv + ["--episodes", "2", "--eval-episodes", "2"]) == 0

    def test_unknown_shaping_is_usage_error(self, pipeline, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(
                [
                    "train",
                    "--rm",
                    SEQUENCE,
                    "--models",
                    str(pipeline["models"]),
                    "--out",
                    str(tmp_path),
                    "--shaping",
                    "telepathy",
                ]
            )
        assert e.value.code == 2

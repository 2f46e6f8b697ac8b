"""Tests of the benchmark harness itself.

Run from the repository root with `python -m pytest bench` (about a
minute); the library's own suite under tests/ does not collect them.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import run

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

run.import_library()


def _result_line(cwd, *args):
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return done, done.stdout.rstrip("\n").split("\n")[-1]


def _work_counts(name, seed):
    line, report = run.run_workload(name, seed, seconds=1, trace=1, rounds=1)
    assert line["correct"], report["failures"]
    return {k: m["value"] for k, m in line["metrics"].items() if m["unit"] in ("count", "bytes")}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_work_counts_repeat_for_a_seed_and_change_with_it(name):
    counts = _work_counts(name, 0)
    assert any(counts.values())
    assert _work_counts(name, 0) == counts
    assert _work_counts(name, 1) != counts


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_holds_the_declared_metrics(trace, kind):
    done, last = _result_line(
        ROOT, "--workload", "compose", "--seed", "3", "--seconds", "1", "--trace", str(trace)
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done, last = _result_line(
        tmp_path, "--workload", "ground", "--seed", "0", "--seconds", "1", "--trace", "0"
    )
    assert done.returncode != 0
    assert not last.startswith("{")


class _HangingOracle:
    """One unit per round: the exact oracle at gamma = 1, which never converges."""

    name = "hang"
    item = "states"
    throughput_name = "states_per_s"
    nominal_round_s = 1.0
    setup_repeats = 1

    def __init__(self, root, seed, tmp):
        self.root = root

    def prepare(self):
        pass

    def setup(self):
        from rmgcr import rm

        self.machine = rm.load_rm(self.root / "tasks" / "loop.rm")

    def round(self, r):
        from workloads import Unit

        return [Unit("loop.rm at gamma 1", ())]

    def run(self, unit, workdir):
        from rmgcr import compose
        from rmgcr.geogrid import GridConfig

        return compose.exact_product_values(GridConfig(), self.machine, gamma=1.0)

    def check(self, unit, workdir, result):
        raise AssertionError("the unit cannot finish")

    def summary(self):
        return {}


def test_a_unit_that_hangs_or_raises_counts_as_failed(monkeypatch):
    import workloads

    monkeypatch.setitem(workloads.WORKLOADS, "hang", _HangingOracle)
    monkeypatch.setattr(run, "UNIT_TIMEOUT_S", 1.0)
    line, report = run.run_workload("hang", 0, seconds=1, trace=0, rounds=2)
    assert (line["attempted"], line["failed"], line["correct"]) == (1, 1, False)
    assert report["failed_frac"] == 1.0

"""The library surface that the benchmark in `bench/` calls, pinned with the argument shapes it uses.

`bench/workloads.py` drives the library through the CLI and through these
functions, `bench/tracer.py` patches the layer-boundary functions by name
and binds some of their parameters by name, and `bench/test_bench.py`
runs a unit that must fail. A renamed function, parameter or field here
makes a benchmark unit crash, so each is called here as the benchmark
calls it.
"""

import inspect

import numpy as np
import pytest

from rmgcr import agent, cli, compose, geogrid, ground, logic, rm
from rmgcr.geogrid import VOCAB, CellGraph, GridConfig
from rmgcr.logic import DnfFormula, Not, Var

from conftest import TASKS_DIR

GAMMA = 0.97
GAMMA_RM = 0.97**10

# module -> the functions the tracer patches by name (a dotted name is a method)
TRACED = {
    logic: ("evaluate", "to_dnf"),
    rm: ("rm_step", "load_rm"),
    geogrid: ("step", "encode_obs", "true_label", "generate_dataset", "save_dataset", "load_dataset"),
    ground: ("predict_labels", "train_label_model", "train_pvfs_fqi", "PvfSet.value", "save_pvfs"),
    # on a fixed layout, as in every workload, the agent no longer calls composed_value (it reads
    # one composed_table per run), but the tracer still patches it, and bench/run.py reads its
    # calls inside agent.train
    compose: ("composed_value", "exact_product_values", "make_composed_value_fn", "rm_value_iteration"),
    agent: ("train", "evaluate"),
    cli: ("main",),
}


@pytest.fixture(scope="module")
def coverage():
    return geogrid.full_coverage_dataset(GridConfig())


@pytest.fixture(scope="module")
def pvfs(coverage):
    return ground.train_pvfs_fqi(coverage, GAMMA)


class OnlyAction:
    """A policy with nothing but `action`, as the benchmark's counting wrapper."""

    def __init__(self, policy):
        self.policy = policy

    def action(self, *args, **kwargs):
        return self.policy.action(*args, **kwargs)


def test_traced_functions_exist():
    for module, names in TRACED.items():
        for name in names:
            owner, _, attr = name.rpartition(".")
            assert callable(getattr(getattr(module, owner) if owner else module, attr)), name


def test_parameter_names_the_tracer_binds():
    assert list(inspect.signature(geogrid.save_dataset).parameters)[1] == "path"
    assert list(inspect.signature(ground.save_pvfs).parameters)[1] == "path"
    params = inspect.signature(ground.train_label_model).parameters
    assert list(params)[0] == "ds" and "holdout_fraction" in params
    assert list(inspect.signature(cli.main).parameters) == ["argv"]


def test_exact_product_values_and_its_gamma_check():
    cfg = GridConfig()
    table = compose.exact_product_values(cfg, rm.reachability_rm(VOCAB, Var("red")), 0.97)
    assert table.value_at((0, 1), 1) == pytest.approx(0.97)  # red triangle one step away
    machine = rm.load_rm(TASKS_DIR / "loop.rm")
    with pytest.raises(ValueError):
        compose.exact_product_values(GridConfig(), machine, gamma=1.0)


def test_composition_bounds_fields():
    graph = CellGraph(GridConfig())
    guards = [logic.Or((Var("red"), Not(Var("blue")))), DnfFormula(((("blue", True), ("circle", True)),))]
    checks = compose.composition_bounds(graph, VOCAB, guards, GAMMA)
    assert [c.kind for c in checks] == ["disjunction underestimation", "conjunction overestimation"]
    assert all(isinstance(c.guard, DnfFormula) and c.ok for c in checks)


def test_label_models(coverage):
    ds = geogrid.generate_dataset(GridConfig(), 20, seed=3)
    assert set(ground.train_label_model(ds).holdout_accuracy) == set(VOCAB)
    tabular = ground.train_label_model(coverage, backend="tabular", holdout_fraction=0.0)
    assert set(tabular.holdout_accuracy) == set(VOCAB)


def test_model_files(tmp_path, coverage, pvfs):
    ground.save_pvfs(pvfs, tmp_path / "pvfs.json")
    labels = ground.train_label_model(coverage, backend="tabular", holdout_fraction=0.0)
    ground.save_label_model(labels, tmp_path / "label_model.json")
    loaded = ground.load_pvfs(tmp_path / "pvfs.json")
    obs = geogrid.encode_obs(geogrid.reset(GridConfig()))
    for atom in VOCAB:
        for positive in (True, False):
            assert loaded.value((atom, positive), obs) == pvfs.value((atom, positive), obs)


def test_trajectory_observations():
    # the tracer counts the label fit's rows and distinct observations from these
    ds = geogrid.generate_dataset(GridConfig(), 2, seed=0)
    for tr in ds.trajectories:
        assert all(isinstance(obs, np.ndarray) and obs.tobytes() for obs in tr.observations)
        assert len(tr.observations) == len(tr.ids)


def test_train_and_evaluate(pvfs):
    cfg = GridConfig()
    machine = rm.load_rm(TASKS_DIR / "logic.rm")
    labels = ground.train_label_model(geogrid.generate_dataset(cfg, 20, seed=1))
    cvf = compose.make_composed_value_fn(machine, pvfs, GAMMA_RM)
    rm_values = compose.rm_value_iteration(machine, GAMMA_RM, GAMMA)
    policy, report = agent.train(
        cfg,
        machine,
        labels,
        agent.AgentConfig(shaping="composed", episodes=3, seed=5),
        cvf=cvf,
        rm_values=rm_values,
    )
    assert len(report.episodes) == 3
    for e in report.episodes:
        assert isinstance(e.perceived_return, float) and isinstance(e.actual_return, float)
        assert e.steps > 0
    stats = agent.evaluate(OnlyAction(policy), cfg, machine, n_episodes=2, seed=7)
    assert len(stats["returns"]) == 2 and isinstance(stats["mean"], float)


def test_cli_commands_the_benchmark_runs(tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    models = tmp_path / "models"
    assert cli.main(["gen-dataset", "--out", str(dataset), "--n", "5", "--seed", "4"]) == 0
    assert cli.main(["ground", "--dataset", str(dataset), "--out", str(models)]) == 0
    assert (models / "metrics.json").exists()
    out = tmp_path / "oracle.csv"
    argv = ["oracle", "--rm", str(TASKS_DIR / "sequence.rm"), "--models", str(models), "--out", str(out)]
    assert cli.main(argv) == 0
    assert "abs_deviation" in out.read_text().splitlines()[0]
    assert capsys.readouterr().out.rstrip().endswith("bounds PASS")

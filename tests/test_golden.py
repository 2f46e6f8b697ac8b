"""Fixed-seed regression pins for `train`, `evaluate`, policies, `oracle`, `gen-dataset`, `ground`.

The training digests were recorded before the Q-learning hot path moved
to dense observation ids and a tabulated RM step; the oracle digests
before the oracle, the bound checks and `oracle --models` moved onto a
cell graph built once per command; the first four `ground` digests
before the dataset file moved to format 2, which writes each distinct
observation once, and before `generate_dataset` encoded each distinct
state once. The `gen-dataset` file digests (fixed and randomized
layouts), the `ground` digests of a randomized-layout dataset and of a
hand-built file in which one (observation, action) pair has two
successors were recorded before `generate_dataset` walked cell ids with
one action draw per trajectory and before tabular FQI took its target
once per state. The `ground` value digests, which read the PVFs back
from `pvfs.json`, were recorded before that file wrote its observation
table once (format 2); its byte digests were re-recorded then. The
300-episode `train` pins (`LONG_GOLDEN`) were recorded before the training
step drew its exploration from raw PCG64 blocks and carried its potential
and Q row from step to step, and before `GreedyPolicy` kept each greedy
action. A change to the RNG draw order, to a tie-break, to the update
arithmetic or to a signed zero shows up here as a changed digest, even
when every behavioural test still passes.

Every training pin (`GOLDEN`, `LONG_GOLDEN`, the randomized one under
linear PVFs and the episode-loop edge cases of `EDGE_GOLDEN`) was recorded
before the training step read its draws from one stream of raw words
compared against a per-episode exploration threshold, its RM steps from
per-label step columns and its Q rows from a list indexed by product
state, and before each episode became a bounded `for` loop. They were
also recorded before the step columns moved onto the reward machine
(`RewardMachine.column`), before each layout was encoded, labelled and
scored by the label model in one call, and before the greedy step took
the bootstrap's maximum. The last three `EDGE_GOLDEN` pins (composed and
high-level shaping at lam = 2.5, and a pinned agent start) were recorded
before each (product state, action) kept its successor, rewards and
shaping term in a step cache filled on first use.

The partial tabular FQI pins (`FQI_PARTIAL_GOLDEN`) were recorded before
the sweeps alternated two preallocated Q tables, so they catch a fit that
stops on the wrong one of the two.
"""

import hashlib
import json
import warnings

import pytest

from rmgcr.agent import AgentConfig, evaluate, train
from rmgcr.cli import main
from rmgcr.compose import make_composed_value_fn, rm_value_iteration
from rmgcr.files import load_pvfs, save_policy, save_pvfs
from rmgcr.geogrid import (
    COLORS,
    VOCAB,
    GridConfig,
    ObjectSpec,
    cell_states,
    encode_obs,
    full_coverage_dataset,
    generate_dataset,
    reset,
    true_label,
)
from rmgcr.ground import NonConvergenceWarning, train_pvfs_fqi
from rmgcr.logic import Or, Var
from rmgcr.rm import load_rm, reachability_rm

from conftest import GAMMA, GAMMA_RM, TASKS_DIR

EPISODES = 40
EVAL_EPISODES = 20

# (layout, task, shaping, shaping mode, label model fixture) -> digests of
# (TrainReport episodes, evaluate returns, save_policy bytes)
GOLDEN = {
    ("fixed", "sequence.rm", "none", "undiscounted", "desk_label_model"): (
        "9a54c218bcf32df2",
        "1c3982f0c3d2f96a",
        "2f402a06fe4b65e1",
    ),
    ("fixed", "sequence.rm", "none", "discounted", "desk_label_model"): (
        "9a54c218bcf32df2",
        "1c3982f0c3d2f96a",
        "2f402a06fe4b65e1",
    ),
    ("fixed", "sequence.rm", "composed", "undiscounted", "desk_label_model"): (
        "e46e0c528108dedb",
        "70c1e5257dda7ce7",
        "9f24255bb03f48d8",
    ),
    ("fixed", "sequence.rm", "composed", "discounted", "desk_label_model"): (
        "d3bfdaa05b517341",
        "fc2cb0ed9117b0bf",
        "97655435b7de5cea",
    ),
    ("fixed", "sequence.rm", "high-level", "undiscounted", "desk_label_model"): (
        "f673a7f20a666aed",
        "70c1e5257dda7ce7",
        "955ac89367bc3725",
    ),
    ("fixed", "sequence.rm", "high-level", "discounted", "desk_label_model"): (
        "1b596759e238d422",
        "ddcb666cf511b6d8",
        "4cffc0c4fbff88ec",
    ),
    ("fixed", "logic.rm", "none", "undiscounted", "desk_label_model"): (
        "0cf9609efb3a50e6",
        "1c3982f0c3d2f96a",
        "2568d87edb6419f8",
    ),
    ("fixed", "logic.rm", "none", "discounted", "desk_label_model"): (
        "0cf9609efb3a50e6",
        "1c3982f0c3d2f96a",
        "2568d87edb6419f8",
    ),
    ("fixed", "logic.rm", "composed", "undiscounted", "desk_label_model"): (
        "9750926c5f2e58d7",
        "1c3982f0c3d2f96a",
        "9e57787375ae576d",
    ),
    ("fixed", "logic.rm", "composed", "discounted", "desk_label_model"): (
        "0b57f56fb0bb0ed6",
        "87c6ec00d2ca3fc8",
        "26403b350012f5c7",
    ),
    ("fixed", "logic.rm", "high-level", "undiscounted", "desk_label_model"): (
        "2c426e5dcda3e3d6",
        "1c3982f0c3d2f96a",
        "33e5d58523ea929d",
    ),
    ("fixed", "logic.rm", "high-level", "discounted", "desk_label_model"): (
        "1e1170eb553effc7",
        "81bc4df082993bff",
        "3b0615c33f1f9b97",
    ),
    ("randomized", "logic.rm", "composed", "undiscounted", "exact_label_model"): (
        "74e4ec6c08bb134b",
        "1c3982f0c3d2f96a",
        "efe12b4ba780692f",
    ),
}


# 300-episode runs on logic.rm, the scale of the `reinforce` benchmark: the
# long exploring phase (epsilon decays over 150 episodes) draws far more
# exploration actions than the 40-episode pins above reach.
LONG_EPISODES = 300
LONG_GOLDEN = {
    ("fixed", "logic.rm", "none", "undiscounted", "desk_label_model"): (
        "a5f0574ebcd4ca12",
        "1c3982f0c3d2f96a",
        "ebe2a4e621de6bd5",
    ),
    ("fixed", "logic.rm", "composed", "undiscounted", "desk_label_model"): (
        "ed926ea3c75e59be",
        "52cfe93009beb0a1",
        "b320982ed44e6be8",
    ),
    ("fixed", "logic.rm", "composed", "discounted", "desk_label_model"): (
        "cfdef5c57f69729e",
        "70c1e5257dda7ce7",
        "f17d0606915f2541",
    ),
    ("fixed", "logic.rm", "high-level", "undiscounted", "desk_label_model"): (
        "7202c1b0de7b4dfb",
        "70c1e5257dda7ce7",
        "beaa2fc30e8b7925",
    ),
}


def _digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _train_digests(cfg, rm, label_model, agent_cfg, pvfs, tmp_path, eval_steps=100):
    """The TrainReport of one run and the digests of (its episodes, evaluate returns, save_policy bytes)."""
    shaping = agent_cfg.shaping
    policy, report = train(
        cfg,
        rm,
        label_model,
        agent_cfg,
        cvf=make_composed_value_fn(rm, pvfs, GAMMA_RM) if shaping == "composed" else None,
        rm_values=rm_value_iteration(rm, GAMMA_RM, GAMMA) if shaping == "high-level" else None,
    )
    returns = evaluate(policy, cfg, rm, EVAL_EPISODES, seed=3, max_steps=eval_steps)["returns"]
    save_policy(policy, tmp_path / "policy.json")
    return report, (
        _digest([[e.perceived_return, e.actual_return, e.steps] for e in report.episodes]),
        _digest(returns),
        _digest((tmp_path / "policy.json").read_bytes()),
    )


def _run_digests(case, episodes, request, pvfs, tmp_path):
    layout, task, shaping, mode, label_fixture = case
    agent_cfg = AgentConfig(shaping=shaping, shaping_mode=mode, episodes=episodes, seed=7)
    label_model = request.getfixturevalue(label_fixture)
    cfg, rm = GridConfig(layout_mode=layout), load_rm(TASKS_DIR / task)
    return _train_digests(cfg, rm, label_model, agent_cfg, pvfs, tmp_path)[1]


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(c[:4]))
def test_fixed_seed_run_matches_recorded_digests(case, request, desk_pvfs, tmp_path):
    assert _run_digests(case, EPISODES, request, desk_pvfs, tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(LONG_GOLDEN), ids=lambda c: "-".join(c[:4]))
def test_benchmark_scale_run_matches_recorded_digests(case, request, desk_pvfs, tmp_path):
    got = _run_digests(case, LONG_EPISODES, request, desk_pvfs, tmp_path)
    assert got == LONG_GOLDEN[case]


# The randomized pin above reads tabular PVFs of the fixed layout, which hold
# no entry for a randomized layout's observations, so its potentials do not
# vary by cell. Linear PVFs value each observation apart, so this run's policy
# depends on the potential of each (observation, RM state) that training on
# randomized layouts reads.
RANDOMIZED_LINEAR_GOLDEN = ("74e4ec6c08bb134b", "1c3982f0c3d2f96a", "6675aec36df6aca6")


def test_randomized_run_under_linear_pvfs_matches_recorded_digests(request, desk_cfg, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergenceWarning)
        pvfs = train_pvfs_fqi(full_coverage_dataset(desk_cfg), GAMMA, iters=5, backend="linear")
    case = ("randomized", "logic.rm", "composed", "undiscounted", "exact_label_model")
    assert _run_digests(case, EPISODES, request, pvfs, tmp_path) == RANDOMIZED_LINEAR_GOLDEN


# Edge cases of the episode loop, recorded before the training step read its
# draws from one stream of raw words, its RM steps from per-label columns and
# its Q rows from a list: a cap of one step; one episode, whose epsilon of 1
# explores on every step; a machine that can terminate on the first step;
# and a cap that some episodes hit and others do not. Then shaping at a
# lam other than 1, on a fixed and on a randomized layout, and a fixed layout
# with a pinned agent start. Evaluation runs under the same step cap.
# name -> (layout mode or GridConfig, task, AgentConfig fields, digests as GOLDEN's)
REACH_ANY_OBJECT = "any object"
EDGE_GOLDEN = {
    "max-steps-1": (
        "fixed",
        "logic.rm",
        dict(shaping="composed", max_steps=1),
        (
            "585a60e1f034a15d",
            "1c3982f0c3d2f96a",
            "f3b51c8bb1e9a260",
        ),
    ),
    "one-episode": (
        "fixed",
        "sequence.rm",
        dict(episodes=1, max_steps=300),
        (
            "ab8874ab4a4376a0",
            "1c3982f0c3d2f96a",
            "2e48d91644598c63",
        ),
    ),
    "first-step-terminates": (
        "fixed",
        REACH_ANY_OBJECT,
        dict(shaping="high-level"),
        (
            "f698daafecfa52e7",
            "70c1e5257dda7ce7",
            "c249a159cc55ccd6",
        ),
    ),
    "step-cap": (
        "randomized",
        "sequence.rm",
        dict(max_steps=12, episodes=80),
        (
            "2c419f7d61a69a3b",
            "1c3982f0c3d2f96a",
            "6bb5e16af464f5e8",
        ),
    ),
    "composed-lam": (
        "fixed",
        "logic.rm",
        dict(shaping="composed", shaping_mode="discounted", lam=2.5),
        (
            "8e32597253f14694",
            "1c3982f0c3d2f96a",
            "053b9670111a58ed",
        ),
    ),
    "high-level-lam-randomized": (
        "randomized",
        "sequence.rm",
        dict(shaping="high-level", shaping_mode="discounted", lam=2.5),
        (
            "31036e05fd9df8c2",
            "1c3982f0c3d2f96a",
            "96b283b75931fe12",
        ),
    ),
    "pinned-start": (
        GridConfig(agent_start=(2, 3)),
        "sequence.rm",
        dict(shaping="composed"),
        (
            "d4eaaaa8c7cb3672",
            "70c1e5257dda7ce7",
            "64a25458a0db6af1",
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_GOLDEN))
def test_episode_loop_edge_cases_match_recorded_digests(case, desk_label_model, desk_pvfs, tmp_path):
    layout, task, fields, digests = EDGE_GOLDEN[case]
    if task == REACH_ANY_OBJECT:
        rm = reachability_rm(VOCAB, Or(tuple(Var(c) for c in COLORS)))
    else:
        rm = load_rm(TASKS_DIR / task)
    agent_cfg = AgentConfig(**{"episodes": EPISODES, "seed": 7, **fields})
    cfg = layout if isinstance(layout, GridConfig) else GridConfig(layout_mode=layout)
    report, got = _train_digests(
        cfg, rm, desk_label_model, agent_cfg, desk_pvfs, tmp_path, eval_steps=agent_cfg.max_steps
    )
    steps = [e.steps for e in report.episodes]
    assert len(steps) == agent_cfg.episodes and all(1 <= s <= agent_cfg.max_steps for s in steps)
    if case == "first-step-terminates":
        assert any(e.steps == 1 and e.perceived_return == 1.0 for e in report.episodes)
    if case == "step-cap":
        assert min(steps) < agent_cfg.max_steps == max(steps)
    assert got == digests


# `rmgcr oracle` on every task file the grid can label and on two fixed
# multi-clause guards, with no models and with tabular and linear PVFs:
# (task, PVF backend) -> digests of (CSV bytes, stdout)
ORACLE_GUARDS = {
    "guard_a.rm": "(red & !triangle) | (blue & circle) | green",
    "guard_b.rm": "(!red & triangle) | (blue & !circle & !green) | (red & circle)",
}
ORACLE_GOLDEN = {
    ("logic.rm", "none"): ("11410dc2b3d6e3f3", "e8746f55d71911bc"),
    ("logic.rm", "tabular"): ("2ba99b089c483e9e", "a59286d94f757345"),
    ("logic.rm", "linear"): ("9907c92a93d8f1db", "3d5f63707beed360"),
    ("loop.rm", "none"): ("98aa4369a323dc30", "4222c1927ce8919c"),
    ("loop.rm", "tabular"): ("766e7b718ff0d548", "0c97cab38b64dbb2"),
    ("loop.rm", "linear"): ("f001f26928853d26", "337a14c9652631f5"),
    ("safety.rm", "none"): ("1b447edad01f3716", "d2a0dea76247b873"),
    ("safety.rm", "tabular"): ("0d26cb229f97ae8e", "47de9517fe2d872b"),
    ("safety.rm", "linear"): ("2c3bc71e0a4ea5fd", "ceabb1378c3fca4c"),
    ("sequence.rm", "none"): ("8df9dd0e5f4d2f8d", "13e9e78f3256be75"),
    ("sequence.rm", "tabular"): ("44c60cdb9f42716f", "ef7180565710d25a"),
    ("sequence.rm", "linear"): ("aadaaa1824b9a715", "851f8c4aa8c4eb7b"),
    ("guard_a.rm", "none"): ("d598c157733a85b3", "abc248902d2b8d6f"),
    ("guard_a.rm", "tabular"): ("3279d9559104b8a7", "e9add59056476a3b"),
    ("guard_a.rm", "linear"): ("3279d9559104b8a7", "e9add59056476a3b"),
    ("guard_b.rm", "none"): ("084b0610b46fdcf4", "0c3131ea7f7eff58"),
    ("guard_b.rm", "tabular"): ("c91298b91d0f4a51", "8cfb1e133099335e"),
    ("guard_b.rm", "linear"): ("c91298b91d0f4a51", "8cfb1e133099335e"),
}


@pytest.fixture(scope="module")
def oracle_models(tmp_path_factory, desk_cfg):
    root = tmp_path_factory.mktemp("oracle_models")
    coverage = full_coverage_dataset(desk_cfg)
    # 5 linear sweeps stop short of the fixed point that the tabular PVFs reach
    for backend, iters in (("tabular", 200), ("linear", 5)):
        (root / backend).mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            pvfs = train_pvfs_fqi(coverage, GAMMA, iters=iters, backend=backend)
        save_pvfs(pvfs, root / backend / "pvfs.json")
    return root


def _oracle_task(task, tmp_path):
    if task in ORACLE_GUARDS:
        path = tmp_path / task
        path.write_text(f"vocab: {' '.join(VOCAB)}\nstates: 2\n(1, 0, {ORACLE_GUARDS[task]}, 1)\n")
        return path
    return TASKS_DIR / task


@pytest.mark.parametrize(
    "case",
    [
        (task, backend)
        for task in ("logic.rm", "loop.rm", "safety.rm", "sequence.rm", *ORACLE_GUARDS)
        for backend in ("none", "tabular", "linear")
    ],
    ids="-".join,
)
def test_oracle_output_matches_recorded_digests(case, oracle_models, tmp_path, capsys):
    task, backend = case
    out = tmp_path / "oracle.csv"
    argv = ["oracle", "--rm", str(_oracle_task(task, tmp_path)), "--out", str(out)]
    if backend != "none":
        argv += ["--models", str(oracle_models / backend)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    got = (_digest(out.read_bytes()), _digest(stdout.encode()))
    assert got == ORACLE_GOLDEN[case]


# `rmgcr gen-dataset --n 50 --seed S` then `rmgcr ground`:
# (seed, label backend, method) -> digests of (label_model.json, pvfs.json, metrics.json,
# the loaded PVF values)
GROUND_GOLDEN = {
    (3, "linear", "fqi"): ("0ec1a6974be61803", "f522452c5c9f574f", "d1761f9741dc39e9", "2d641826c40ec486"),
    (3, "tabular", "mc"): ("bd693129e0a50fdd", "2f3dfb832bd450ff", "036d0934004d85cf", "e4cfe445ddb867db"),
    (17, "linear", "fqi"): ("2aa717a6cac3f553", "3a6c391bb95760a2", "d1761f9741dc39e9", "ba40eec855561935"),
    (17, "tabular", "mc"): ("bd693129e0a50fdd", "1bc7a8d00b396330", "036d0934004d85cf", "5477afef4013f178"),
}


def _model_digests(models) -> tuple:
    """Digests of the three model files, then of the PVF values loaded from pvfs.json.

    The value digest holds float.hex of each literal's entry at every
    observation a tabular estimator holds (None where it has none), so it
    does not depend on how pvfs.json lays the values out.
    """
    files = tuple(
        _digest((models / name).read_bytes())
        for name in ("label_model.json", "pvfs.json", "metrics.json")
    )
    pvfs = load_pvfs(models / "pvfs.json")
    keys = sorted({k for est in pvfs.estimators.values() for k in est.v})
    values = [
        [list(lit), [est.v[k].hex() if k in est.v else None for k in keys]]
        for lit, est in sorted(pvfs.estimators.items())
    ]
    return files + (_digest(values),)


@pytest.mark.parametrize("case", sorted(GROUND_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_ground_outputs_match_recorded_digests(case, tmp_path):
    seed, label_backend, method = case
    dataset, models = tmp_path / "data.jsonl", tmp_path / "models"
    assert main(["gen-dataset", "--out", str(dataset), "--n", "50", "--seed", str(seed)]) == 0
    argv = ["ground", "--dataset", str(dataset), "--out", str(models)]
    assert main(argv + ["--label-backend", label_backend, "--method", method]) == 0
    assert _model_digests(models) == GROUND_GOLDEN[case]


# `reset(cfg, seed)` over 200 seeds: small ones, ones below 2**63 as the walks
# draw them, and ones of five or more 32-bit words; case -> digest of the
# (agent, placements) per seed
RESET_SEEDS = [
    *range(100),
    *(k * 0x9E3779B97F4A7C15 % 2**63 for k in range(1, 97)),
    2**128,
    2**128 + 1,
    3**90,
    2**200 + 5,
]
RESET_CONFIGS = {
    "default": GridConfig(),
    "exclude_agent_from_objects": GridConfig(exclude_agent_from_objects=True),
    "agent_start": GridConfig(agent_start=(2, 3)),
    "7x3 exclude_agent_from_objects": GridConfig(
        width=7,
        height=3,
        objects=(ObjectSpec("red", "circle", (0, 0)), ObjectSpec("blue", "triangle", (2, 5))),
        exclude_agent_from_objects=True,
    ),
    "randomized": GridConfig(layout_mode="randomized"),
}
RESET_GOLDEN = {
    "7x3 exclude_agent_from_objects": "e2150158846b5274",
    "agent_start": "7830d6d44b6b2c6d",
    "default": "1e5478ae69ffcf20",
    "exclude_agent_from_objects": "5e15218b2284ac3d",
    "randomized": "78d3a5a3d0b985f9",
}


@pytest.mark.parametrize("case", sorted(RESET_GOLDEN))
def test_reset_matches_recorded_digest(case):
    cfg = RESET_CONFIGS[case]
    starts = [reset(cfg, seed) for seed in RESET_SEEDS]
    assert _digest([[s.agent, s.placements] for s in starts]) == RESET_GOLDEN[case]


# `rmgcr gen-dataset --n 50 --seed S [--layout randomized]`:
# (layout, seed) -> digest of the dataset file's bytes
GEN_DATASET_GOLDEN = {
    ("fixed", 5): "937611e0808136dd",
    ("fixed", 23): "1226e1135c91c744",
    ("randomized", 5): "103d650ed8f4f3b1",
    ("randomized", 23): "d745682bc9404e8a",
}


@pytest.mark.parametrize("case", sorted(GEN_DATASET_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_gen_dataset_file_matches_recorded_digest(case, tmp_path):
    layout, seed = case
    dataset = tmp_path / "data.jsonl"
    argv = ["gen-dataset", "--out", str(dataset), "--n", "50", "--seed", str(seed)]
    assert main(argv + ["--layout", layout]) == 0
    assert _digest(dataset.read_bytes()) == GEN_DATASET_GOLDEN[case]


def _ground_digests(dataset, models) -> tuple:
    assert main(["ground", "--dataset", str(dataset), "--out", str(models)]) == 0
    return _model_digests(models)


def test_ground_on_a_randomized_layout_matches_recorded_digests(tmp_path):
    dataset = tmp_path / "data.jsonl"
    argv = ["gen-dataset", "--out", str(dataset), "--n", "50", "--seed", "9"]
    assert main(argv + ["--layout", "randomized"]) == 0
    assert _ground_digests(dataset, tmp_path / "models") == (
        "f92a91a559f8b11c",
        "be60e901e61486a4",
        "d1761f9741dc39e9",
        "a850c9242ce5e819",
    )


def test_ground_averages_the_successors_of_a_repeated_pair(tmp_path):
    """Tabular FQI on a hand-built file: (observation 1, right) leads to 2 once, to 1 three times."""
    cfg = GridConfig(
        width=3,
        height=1,
        objects=(ObjectSpec("blue", "circle", (0, 0)), ObjectSpec("red", "circle", (0, 2))),
    )
    states = list(cell_states(cfg).values())
    header = {
        "format_version": 2,
        "vocab": ["red", "blue", "circle"],
        "meta": {},
        "observations": [[list(o.shape), o.tobytes().hex()] for o in map(encode_obs, states)],
        "labels": [sorted(true_label(s)) for s in states],
    }
    records = [
        {"ids": [0, 1, 2, 1], "actions": [3, 3, 2]},
        {"ids": [1, 1, 0, 0], "actions": [3, 2, 2]},
        {"ids": [2, 1, 1, 1], "actions": [2, 3, 3]},
        {"ids": [0, 1, 0], "actions": [3, 2]},
    ]
    dataset = tmp_path / "data.jsonl"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in (header, *records)))
    assert _ground_digests(dataset, tmp_path / "models") == (
        "b6108475f0f32a8d",
        "bc61f01c422673f9",
        "5270055a30c2984b",
        "d443888a3c6dfa92",
    )


# tabular `train_pvfs_fqi` on `generate_dataset(GridConfig(), 50, seed=3)`, stopped after
# iters sweeps, short of convergence: iters -> digest of float.hex of every literal's entries
FQI_PARTIAL_GOLDEN = {
    1: "0e233e1a8fab5af9",
    2: "bf2b12be16f859ef",
    5: "5083775b80917e7e",
}


@pytest.mark.parametrize("iters", sorted(FQI_PARTIAL_GOLDEN))
def test_fqi_stopped_before_convergence_matches_recorded_digest(iters):
    ds = generate_dataset(GridConfig(), 50, seed=3)
    with pytest.warns(NonConvergenceWarning):
        pvfs = train_pvfs_fqi(ds, GAMMA, iters=iters)
    values = [
        [list(lit), [est.v[k].hex() for k in sorted(est.v)]]
        for lit, est in sorted(pvfs.estimators.items())
    ]
    assert _digest(values) == FQI_PARTIAL_GOLDEN[iters]

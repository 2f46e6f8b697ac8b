"""Fixed-seed regression pins for `train`, `evaluate` and saved policies.

The digests below were recorded before the Q-learning hot path moved to
dense observation ids and a tabulated RM step. A change to the RNG draw
order, to a tie-break or to the update arithmetic shows up here as a
changed digest, even when every behavioural test still passes.
"""

import hashlib
import json

import pytest

from rmgcr.agent import AgentConfig, evaluate, train
from rmgcr.cli import save_policy
from rmgcr.compose import make_composed_value_fn, rm_value_iteration
from rmgcr.geogrid import GridConfig
from rmgcr.rm import load_rm

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


def _digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data).encode()
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(c[:4]))
def test_fixed_seed_run_matches_recorded_digests(case, request, desk_pvfs, tmp_path):
    layout, task, shaping, mode, label_fixture = case
    cfg = GridConfig(layout_mode=layout)
    rm = load_rm(TASKS_DIR / task)
    label_model = request.getfixturevalue(label_fixture)
    policy, report = train(
        cfg,
        rm,
        label_model,
        AgentConfig(shaping=shaping, shaping_mode=mode, episodes=EPISODES, seed=7),
        cvf=make_composed_value_fn(rm, desk_pvfs, GAMMA_RM) if shaping == "composed" else None,
        rm_values=rm_value_iteration(rm, GAMMA_RM, GAMMA) if shaping == "high-level" else None,
    )
    returns = evaluate(policy, cfg, rm, EVAL_EPISODES, seed=3)["returns"]
    save_policy(policy, tmp_path / "policy.json")
    got = (
        _digest([[e.perceived_return, e.actual_return, e.steps] for e in report.episodes]),
        _digest(returns),
        _digest((tmp_path / "policy.json").read_bytes()),
    )
    assert got == GOLDEN[case]

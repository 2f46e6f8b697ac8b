"""End-to-end acceptance checks for the full pipeline.

Each test prints a single PASS line on success (pytest reports the FAIL
case); tolerances are pinned in the assertions.
"""

import itertools

import numpy as np
import pytest

from rmgcr.agent import AgentConfig, RandomPolicy, evaluate, train
from rmgcr.compose import (
    BOUND_TOL,
    composed_value,
    composition_bounds,
    exact_product_values,
    make_composed_value_fn,
    rm_value_iteration,
)
from rmgcr.geogrid import cell_states, encode_obs
from rmgcr.logic import DnfFormula, Not, Var, evaluate as eval_formula, to_dnf
from rmgcr.rm import reachability_rm, run_rm
from conftest import GAMMA, GAMMA_RM, all_assignments
from test_logic import random_formula

GEO = ("red", "green", "blue", "triangle", "circle")


def test_criterion_01_rm_semantics_golden_traces(
    sequence_rm, loop_rm, safety_rm, logic_rm, lava_rm
):
    # tolerance: exact
    rewards, states, done = run_rm(
        sequence_rm, [{"red", "triangle"}, {"green", "triangle"}, {"blue", "circle"}]
    )
    assert (rewards, states, done) == ([0.0, 0.0, 1.0], [2, 3, 0], 2)

    cycle = [{"red", "triangle"}, {"green", "triangle"}, {"blue", "triangle"}]
    rewards, states, done = run_rm(loop_rm, cycle * 2)
    assert (rewards, states, done) == ([0.0, 0.0, 1.0] * 2, [2, 0, 1, 2, 0, 1], None)

    rewards, states, done = run_rm(
        safety_rm, [{"red", "circle"}, {"blue", "circle"}, {"green", "circle"}]
    )
    assert (rewards, states, done) == ([0.0, 0.0, 1.0], [2, 3, 0], 2)
    rewards, states, done = run_rm(safety_rm, [{"red", "circle"}, {"blue", "triangle"}])
    assert (rewards, states, done) == ([0.0, -1.0], [2, 0], 1)

    visits = [
        {"red", "triangle"},
        {"red", "circle"},
        {"blue", "circle"},
        {"blue", "triangle"},
        {"green", "triangle"},
        {"green", "circle"},
    ]
    rewards, states, done = run_rm(logic_rm, visits)
    assert (rewards, states, done) == ([0.0] * 5 + [1.0], [2, 4, 6, 7, 8, 0], 5)
    rewards, states, done = run_rm(logic_rm, [{"blue", "triangle"}])
    assert (rewards, states, done) == ([0.0], [0], 0)

    rewards, states, done = run_rm(lava_rm, [{"lava"}, {"lava"}, set()])
    assert (rewards, states, done) == ([-1.0, -1.0, 0.0], [1, 1, 0], 2)
    print("CRITERION 1 (RM semantics golden traces): PASS")


def test_criterion_02_logic_round_trip_exhaustive():
    # 10^4 random formulas over 5 atoms, all 32 assignments each; exact
    rng = np.random.default_rng(2024)
    assignments = list(all_assignments(GEO))
    for _ in range(10_000):
        f = random_formula(rng, GEO, depth=4)
        d = to_dnf(f)
        for w in assignments:
            assert eval_formula(d, w) == eval_formula(f, w)
    print("CRITERION 2 (DNF round-trip, 10^4 formulas x 32 assignments): PASS")


def test_criterion_03_pvf_exactness(desk_cfg, desk_pvfs):
    # tabular FQI with full coverage vs exact value iteration; < 1e-6
    worst = 0.0
    for atom in GEO:
        for positive in (True, False):
            guard = Var(atom) if positive else Not(Var(atom))
            oracle = exact_product_values(desk_cfg, reachability_rm(GEO, guard), GAMMA)
            for cell, state in cell_states(desk_cfg).items():
                got = desk_pvfs.value((atom, positive), encode_obs(state))
                worst = max(worst, abs(got - oracle.value_at(cell, 1)))
    assert worst < 1e-6
    print(f"CRITERION 3 (FQI matches exact values, max err {worst:.2e} < 1e-6): PASS")


def test_criterion_04_rm_value_iteration_fixed_points(sequence_rm, lava_rm):
    vals = rm_value_iteration(sequence_rm, gamma_rm=0.5, gamma=0.97)
    assert vals.residual < 1e-9
    for u, want in [(3, 0.5), (2, 0.25), (1, 0.125)]:
        assert abs(vals[u] - want) < 1e-9

    lava_vals = rm_value_iteration(lava_rm, gamma_rm=0.5, gamma=0.9)
    assert lava_vals.residual < 1e-9
    assert abs(lava_vals[1] - (-0.5 / 0.9)) < 1e-9
    print("CRITERION 4 (RM-graph value iteration closed forms, residual < 1e-9): PASS")


def test_criterion_05_composition_bounds_exhaustive(desk_cfg):
    # every single-clause and two-clause guard over {red, blue, triangle}:
    # disjunction never overestimates, conjunction never underestimates
    assert BOUND_TOL == 1e-9
    atoms = ("red", "blue", "triangle")
    clauses = []
    for k in (1, 2, 3):
        for subset in itertools.combinations(atoms, k):
            for polarity in itertools.product((True, False), repeat=k):
                clauses.append(tuple(zip(subset, polarity)))
    assert len(clauses) == 26

    guards = [DnfFormula((c,)) for c in clauses]
    guards += [DnfFormula(pair) for pair in itertools.combinations(clauses, 2)]
    checks = composition_bounds(desk_cfg, guards, GAMMA)
    conjunctions = {c.guard for c in checks if c.kind == "conjunction overestimation"}
    disjunctions = [c.guard for c in checks if c.kind == "disjunction underestimation"]
    assert conjunctions == {DnfFormula((c,)) for c in clauses if len(c) >= 2}
    assert len(conjunctions) == 20 and len(disjunctions) == 325
    violations = [c for c in checks if not c.ok]
    assert not violations, violations
    print(
        "CRITERION 5 (composition bounds, 26 clauses and "
        f"{len(disjunctions)} disjunctions, zero violations): PASS"
    )


def test_criterion_06_degenerate_exactness(desk_cfg, desk_pvfs):
    # single-literal single-edge tasks: composed value equals the oracle
    worst = 0.0
    for atom in GEO:
        for positive in (True, False):
            guard = Var(atom) if positive else Not(Var(atom))
            rm = reachability_rm(GEO, guard)
            cvf = make_composed_value_fn(rm, desk_pvfs, GAMMA_RM)
            oracle = exact_product_values(desk_cfg, rm, GAMMA)
            for cell, state in cell_states(desk_cfg).items():
                got = composed_value(cvf, encode_obs(state), 1)
                worst = max(worst, abs(got - oracle.value_at(cell, 1)))
    assert worst < 1e-6
    print(f"CRITERION 6 (single-literal composed exactness, max dev {worst:.2e}): PASS")


def test_criterion_07_shaping_policy_invariance(
    desk_cfg, sequence_rm, desk_label_model, desk_pvfs
):
    # discounted-mode potential shaping must leave the converged greedy
    # policy's evaluated returns identical to the unshaped run
    cvf = make_composed_value_fn(sequence_rm, desk_pvfs, GAMMA_RM)
    shaped_policy, _ = train(
        desk_cfg,
        sequence_rm,
        desk_label_model,
        AgentConfig(shaping="composed", shaping_mode="discounted", episodes=800, seed=3),
        cvf=cvf,
    )
    plain_policy, _ = train(
        desk_cfg, sequence_rm, desk_label_model, AgentConfig(episodes=800, seed=3)
    )
    shaped = evaluate(shaped_policy, desk_cfg, sequence_rm, n_episodes=100, seed=55)
    plain = evaluate(plain_policy, desk_cfg, sequence_rm, n_episodes=100, seed=55)
    diffs = np.abs(np.array(shaped["returns"]) - np.array(plain["returns"]))
    assert diffs.max() < 1e-9
    assert abs(shaped["mean"] - plain["mean"]) < 1e-9
    print(f"CRITERION 7 (policy invariance, max per-episode diff {diffs.max():.1e}): PASS")


def test_criterion_08_shaping_outperforms_on_long_horizon(
    desk_cfg, logic_rm, desk_label_model, desk_pvfs
):
    # thresholds pinned from pilot runs: 300 episodes, 5 seeds, 30 eval
    # episodes; the contract is composed >= 0.9, none < 0.5, and the
    # ordering none <= high-level <= composed up to 0.05
    cvf = make_composed_value_fn(logic_rm, desk_pvfs, GAMMA_RM)
    rm_values = rm_value_iteration(logic_rm, GAMMA_RM, GAMMA)
    seeds = [0, 1, 2, 3, 4]
    means = {}
    for shaping in ("composed", "high-level", "none"):
        evals = []
        for seed in seeds:
            policy, _ = train(
                desk_cfg,
                logic_rm,
                desk_label_model,
                AgentConfig(shaping=shaping, episodes=300, seed=seed),
                cvf=cvf,
                rm_values=rm_values,
            )
            evals.append(evaluate(policy, desk_cfg, logic_rm, n_episodes=30, seed=7)["mean"])
        means[shaping] = float(np.mean(evals))
    assert means["composed"] >= 0.9
    assert means["none"] < 0.5
    assert means["none"] <= means["high-level"] + 0.05
    assert means["high-level"] <= means["composed"] + 0.05
    print(
        "CRITERION 8 (long-horizon ordering composed "
        f"{means['composed']:.2f} >= high-level {means['high-level']:.2f} "
        f">= none {means['none']:.2f}): PASS"
    )


def test_criterion_09_perceived_actual_alignment(
    desk_cfg, sequence_rm, desk_label_model, desk_pvfs
):
    for acc in desk_label_model.holdout_accuracy.values():
        assert acc >= 0.99
    cvf = make_composed_value_fn(sequence_rm, desk_pvfs, GAMMA_RM)
    _, report = train(
        desk_cfg,
        sequence_rm,
        desk_label_model,
        AgentConfig(shaping="composed", episodes=400, seed=0),
        cvf=cvf,
    )
    tail = report.episodes[-100:]
    gap = float(np.mean([abs(ep.perceived_return - ep.actual_return) for ep in tail]))
    assert gap < 0.05
    print(f"CRITERION 9 (perceived vs actual mean gap {gap:.4f} < 0.05): PASS")


def test_criterion_10_loop_repetition(desk_cfg, loop_rm, desk_label_model, desk_pvfs):
    random_mean = evaluate(RandomPolicy(), desk_cfg, loop_rm, n_episodes=200, seed=11)["mean"]
    assert random_mean > 0.0
    cvf = make_composed_value_fn(loop_rm, desk_pvfs, GAMMA_RM)
    policy, _ = train(
        desk_cfg,
        loop_rm,
        desk_label_model,
        AgentConfig(shaping="composed", episodes=500, seed=0),
        cvf=cvf,
    )
    shaped_mean = evaluate(policy, desk_cfg, loop_rm, n_episodes=50, seed=11)["mean"]
    assert shaped_mean >= 10.0 * random_mean
    print(
        f"CRITERION 10 (loop return {shaped_mean:.2f} >= 10x random {random_mean:.3f}): PASS"
    )

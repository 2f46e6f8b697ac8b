import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rmgcr import agent, geogrid, rm as rm_module
from rmgcr.agent import (
    AgentConfig,
    ConfigMismatchError,
    EpisodeRecord,
    GreedyPolicy,
    RandomPolicy,
    RawDraws,
    TrainReport,
    episodes_to_threshold,
    evaluate,
    potential_table,
    train,
)
from rmgcr.compose import UnsatisfiableGuardError, composed_value, make_composed_value_fn, rm_value_iteration
from rmgcr.geogrid import VOCAB, GridConfig, cell_states, encode_obs, obs_key, step, reset, true_label
from rmgcr.ground import LabelModel, LinearPvf, PvfSet, TabularPvf, observation_features, predict_labels
from rmgcr.logic import FALSE
from rmgcr.rm import MAX_EXHAUSTIVE_VOCAB, RmTransition, make_rm, run_rm

from test_compose import small_machines
from test_geogrid import grid_configs

GAMMA = 0.97
GAMMA_RM = 0.97 ** 10
LITERALS = [(a, pol) for a in VOCAB for pol in (True, False)]


class TestAgentConfig:
    def test_defaults(self):
        cfg = AgentConfig()
        assert cfg.gamma == 0.97 and cfg.lam == 1.0 and cfg.shaping == "none"

    def test_bad_shaping(self):
        with pytest.raises(ValueError):
            AgentConfig(shaping="maximal")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            AgentConfig(shaping_mode="sideways")

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            AgentConfig(lam=-0.5)


class TestTrainValidation:
    def test_vocab_mismatch(self, desk_cfg, lava_rm, desk_label_model):
        with pytest.raises(ConfigMismatchError):
            train(desk_cfg, lava_rm, desk_label_model, AgentConfig(episodes=1))

    def test_composed_requires_cvf(self, desk_cfg, sequence_rm, desk_label_model):
        with pytest.raises(ConfigMismatchError):
            train(desk_cfg, sequence_rm, desk_label_model, AgentConfig(shaping="composed", episodes=1))

    def test_composed_gamma_must_match(self, desk_cfg, sequence_rm, desk_label_model, desk_pvfs):
        cvf = make_composed_value_fn(sequence_rm, desk_pvfs, GAMMA_RM, gamma=0.9)
        with pytest.raises(ConfigMismatchError):
            train(
                desk_cfg,
                sequence_rm,
                desk_label_model,
                AgentConfig(shaping="composed", episodes=1),
                cvf=cvf,
            )

    def test_high_level_requires_rm_values(self, desk_cfg, sequence_rm, desk_label_model):
        with pytest.raises(ConfigMismatchError):
            train(desk_cfg, sequence_rm, desk_label_model, AgentConfig(shaping="high-level", episodes=1))


class TestTraining:
    def test_deterministic_given_seed(self, desk_cfg, sequence_rm, desk_label_model):
        cfg = AgentConfig(episodes=40, seed=9)
        _, r1 = train(desk_cfg, sequence_rm, desk_label_model, cfg)
        _, r2 = train(desk_cfg, sequence_rm, desk_label_model, cfg)
        assert r1.episodes == r2.episodes

    def test_different_seeds_differ(self, desk_cfg, sequence_rm, desk_label_model):
        _, r1 = train(desk_cfg, sequence_rm, desk_label_model, AgentConfig(episodes=40, seed=1))
        _, r2 = train(desk_cfg, sequence_rm, desk_label_model, AgentConfig(episodes=40, seed=2))
        assert r1.episodes != r2.episodes

    def test_perceived_equals_actual_with_exact_labels(
        self, desk_cfg, exact_label_model, sequence_rm, safety_rm, loop_rm
    ):
        for rm in (sequence_rm, safety_rm, loop_rm):
            _, report = train(desk_cfg, rm, exact_label_model, AgentConfig(episodes=60, seed=4))
            for ep in report.episodes:
                assert ep.perceived_return == ep.actual_return

    def test_perceived_excludes_shaping(self, desk_cfg, sequence_rm, exact_label_model, desk_pvfs):
        cvf = make_composed_value_fn(sequence_rm, desk_pvfs, GAMMA_RM)
        _, shaped = train(
            desk_cfg,
            sequence_rm,
            exact_label_model,
            AgentConfig(shaping="composed", episodes=60, seed=4),
            cvf=cvf,
        )
        # the perceived return is the raw task reward, so it stays in the
        # task's return range even though shaping terms flow into the update
        for ep in shaped.episodes:
            assert ep.perceived_return in (0.0, 1.0)

    def test_rm_tracking_matches_run_rm(self, desk_cfg, sequence_rm, desk_label_model):
        # the online product-state tracking folds exactly like run_rm over
        # the predicted assignment sequence
        rng = np.random.default_rng(0)
        state = reset(desk_cfg, seed=3)
        preds = []
        states = [state]
        for _ in range(40):
            state = step(state, int(rng.integers(4)))
            states.append(state)
            preds.append(predict_labels(desk_label_model, encode_obs(state)))
        rewards, rm_states, terminated_at = run_rm(sequence_rm, preds)
        u = sequence_rm.initial
        from rmgcr.rm import rm_step

        for i, w in enumerate(preds[: len(rm_states)]):
            stp = rm_step(sequence_rm, u, w)
            assert stp.next_state == rm_states[i]
            u = stp.next_state

    def test_report_meta(self, desk_cfg, sequence_rm, desk_label_model):
        _, report = train(desk_cfg, sequence_rm, desk_label_model, AgentConfig(episodes=5, seed=0))
        assert report.meta["evaluation_policy"] == "greedy"
        assert report.meta["shaping"] == "none"

    def test_solves_sequence_with_composed_shaping(
        self, desk_cfg, sequence_rm, desk_label_model, desk_pvfs
    ):
        cvf = make_composed_value_fn(sequence_rm, desk_pvfs, GAMMA_RM)
        policy, _ = train(
            desk_cfg,
            sequence_rm,
            desk_label_model,
            AgentConfig(shaping="composed", episodes=400, seed=0),
            cvf=cvf,
        )
        stats = evaluate(policy, desk_cfg, sequence_rm, n_episodes=30, seed=17)
        assert stats["mean"] == pytest.approx(1.0)


class TestHotPath:
    def _counting(self, monkeypatch, module, name, counts):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def test_per_observation_work_runs_once(self, monkeypatch, desk_cfg, logic_rm, desk_label_model):
        counts: dict = {}
        for module, name in (
            (geogrid, "encode_obs"),
            (agent, "predict_labels"),
            (geogrid, "true_label"),
            (geogrid, "step"),
            (rm_module, "rm_step"),
        ):
            self._counting(monkeypatch, module, name, counts)
        _, report = train(desk_cfg, logic_rm, desk_label_model, AgentConfig(episodes=200, seed=3))
        steps = sum(e.steps for e in report.episodes)
        n_cells = desk_cfg.width * desk_cfg.height
        assert steps > 5000
        # once per observation, per (observation, action) and per (RM state, assignment)
        assert counts["encode_obs"] <= n_cells
        assert counts["predict_labels"] <= n_cells
        assert counts["true_label"] <= n_cells
        assert counts.get("step", 0) <= n_cells * 4
        assert counts["rm_step"] <= logic_rm.num_states * 2 ** len(logic_rm.vocab)

    def test_composed_shaping_values_a_fixed_layout_in_one_table(
        self, monkeypatch, logic_rm, desk_label_model, desk_pvfs
    ):
        counts: dict = {}
        self._counting(monkeypatch, agent, "composed_table", counts)
        self._counting(monkeypatch, agent, "composed_value", counts)
        cvf = make_composed_value_fn(logic_rm, desk_pvfs, GAMMA_RM)
        agent_cfg = AgentConfig(shaping="composed", episodes=30, seed=3)
        train(GridConfig(), logic_rm, desk_label_model, agent_cfg, cvf=cvf)
        assert counts == {"composed_table": 1}

    def test_composed_shaping_values_only_the_cells_a_randomized_layout_reads(
        self, monkeypatch, logic_rm, desk_label_model, desk_pvfs
    ):
        counts: dict = {}
        self._counting(monkeypatch, agent, "composed_table", counts)
        valued = []  # the (observation, RM state) of each composed_value call
        scalar = agent.composed_value

        def recorded(cvf, obs, u):
            valued.append((obs_key(obs), u))
            return scalar(cvf, obs, u)

        monkeypatch.setattr(agent, "composed_value", recorded)
        cvf = make_composed_value_fn(logic_rm, desk_pvfs, GAMMA_RM)
        agent_cfg = AgentConfig(shaping="composed", episodes=30, seed=3)
        _, report = train(GridConfig(layout_mode="randomized"), logic_rm, desk_label_model, agent_cfg, cvf=cvf)
        # no two episodes share a layout, and each reads one potential per step and one at its start
        assert counts == {}
        assert len(set(valued)) == len(valued) <= sum(e.steps + 1 for e in report.episodes)

    @pytest.mark.parametrize("layout", ["fixed", "randomized"])
    def test_a_false_guard_stops_training_only_where_an_episode_enters_its_state(
        self, layout, sequence_rm, desk_label_model, desk_pvfs
    ):
        def with_false_edge(src):  # from src, a new RM state past sequence.rm's or its initial one
            edges = sequence_rm.transitions + (RmTransition(src, 0, FALSE, 0.0),)
            machine = make_rm(sequence_rm.vocab, max(src + 1, sequence_rm.num_states), edges)
            return machine, make_composed_value_fn(machine, desk_pvfs, GAMMA_RM)

        cfg, agent_cfg = GridConfig(layout_mode=layout), AgentConfig(shaping="composed", episodes=5, seed=0)
        machine, cvf = with_false_edge(sequence_rm.num_states)  # unreachable
        _, report = train(cfg, machine, desk_label_model, agent_cfg, cvf=cvf)
        assert len(report.episodes) == 5
        machine, cvf = with_false_edge(sequence_rm.initial)
        with pytest.raises(UnsatisfiableGuardError):
            train(cfg, machine, desk_label_model, agent_cfg, cvf=cvf)

    def test_machine_beyond_the_exhaustive_vocab_trains_and_evaluates(self, desk_cfg, sequence_rm):
        # sequence.rm plus atoms the grid never labels: the same episodes,
        # Q values and returns as over the five grid atoms
        extra = tuple(f"x{i}" for i in range(MAX_EXHAUSTIVE_VOCAB + 1 - len(sequence_rm.vocab)))
        vocab = sequence_rm.vocab + extra
        wide_rm = make_rm(vocab, sequence_rm.num_states, sequence_rm.transitions)
        assert len(vocab) > MAX_EXHAUSTIVE_VOCAB

        def exact_labels(vocab):
            table = {}
            for state in cell_states(desk_cfg).values():
                label = true_label(state)
                table[obs_key(encode_obs(state))] = np.array([float(a in label) for a in vocab])
            return LabelModel(vocab, "tabular", table=table)

        runs = []
        for machine in (sequence_rm, wide_rm):
            policy, report = train(
                desk_cfg, machine, exact_labels(machine.vocab), AgentConfig(episodes=80, seed=2)
            )
            stats = evaluate(policy, desk_cfg, machine, n_episodes=10, seed=1)
            q = {k: v.tolist() for k, v in policy.q.items()}
            runs.append((report.episodes, q, stats["returns"]))
        assert runs[0] == runs[1]


class TestPotentialTable:
    @settings(max_examples=60, deadline=None)
    @given(cfg=grid_configs(), machine=small_machines(), seed=st.integers(0, 2**32 - 1), linear=st.booleans())
    def test_rows_equal_the_scalar_potentials(self, cfg, machine, seed, linear):
        start = reset(cfg, seed)
        cells = range(cfg.width * cfg.height)
        observations = [encode_obs(replace(start, agent=divmod(i, cfg.width))) for i in cells]
        rng = np.random.default_rng(seed)
        if linear:
            n_features = len(observation_features(observations[0]))
            estimators = {lit: LinearPvf(GAMMA, rng.normal(0.3, 0.5, (4, n_features))) for lit in LITERALS}
        else:  # values that hit the clip and both signed zeros, and observations with no entry
            values = [-0.5, -0.0, 0.0, 0.25, 0.97, 1.5]
            keys = [obs_key(o) for o in observations]
            estimators = {
                lit: TabularPvf(GAMMA, {k: values[rng.integers(6)] for k in keys if rng.random() < 0.7})
                for lit in LITERALS
            }
        cvf = make_composed_value_fn(machine, PvfSet(VOCAB, GAMMA, "fqi", estimators), GAMMA_RM)
        table = potential_table("composed", start, machine, cvf, None)
        lazy = potential_table("composed", start, machine, cvf, None, observations.__getitem__)
        for i, obs in enumerate(observations):
            for u in range(machine.num_states):
                assert table[u][i].hex() == lazy[u][i].hex() == composed_value(cvf, obs, u).hex()
        rm_values = rm_value_iteration(machine, GAMMA_RM, GAMMA)
        table = potential_table("high-level", start, machine, None, rm_values)
        for u in range(machine.num_states):
            assert [x.hex() for x in table[u]] == [rm_values[u].hex()] * len(observations)


class TestUnseenLabelObservations:
    def test_zero_for_linear_and_full_tables(
        self, desk_cfg, sequence_rm, desk_label_model, exact_label_model
    ):
        for label_model in (desk_label_model, exact_label_model):
            _, report = train(desk_cfg, sequence_rm, label_model, AgentConfig(episodes=20, seed=0))
            assert report.meta["unseen_label_obs"] == 0

    def test_counts_each_unseen_observation_once(self, desk_cfg, sequence_rm, exact_label_model):
        dropped = {obs_key(encode_obs(s)) for cell, s in cell_states(desk_cfg).items() if cell[0] == 5}
        table = {k: v for k, v in exact_label_model.table.items() if k not in dropped}
        partial = LabelModel(exact_label_model.vocab, "tabular", table=table)
        # 100 episodes of mostly random moves visit every cell, each many times
        _, report = train(desk_cfg, sequence_rm, partial, AgentConfig(episodes=100, seed=0))
        assert report.meta["unseen_label_obs"] == len(dropped) == desk_cfg.width


class TestEvaluate:
    def test_zero_episodes_rejected(self, desk_cfg, sequence_rm):
        with pytest.raises(ValueError):
            evaluate(GreedyPolicy({}), desk_cfg, sequence_rm, n_episodes=0)

    def test_deterministic(self, desk_cfg, sequence_rm):
        a = evaluate(GreedyPolicy({}), desk_cfg, sequence_rm, n_episodes=10, seed=2)
        b = evaluate(GreedyPolicy({}), desk_cfg, sequence_rm, n_episodes=10, seed=2)
        assert a == b

    def test_random_policy_rarely_succeeds(self, desk_cfg, sequence_rm):
        stats = evaluate(RandomPolicy(), desk_cfg, sequence_rm, n_episodes=100, seed=0)
        assert 0.0 <= stats["mean"] <= 0.3

    def test_stats_shape(self, desk_cfg, sequence_rm):
        stats = evaluate(RandomPolicy(), desk_cfg, sequence_rm, n_episodes=5, seed=0)
        assert set(stats) == {"mean", "stderr", "returns", "unseen_policy_states"}
        assert len(stats["returns"]) == 5
        assert stats["unseen_policy_states"] == 0


class TestUnseenPolicyStates:
    class Recording:
        """Forwards to a policy and records every (key, u) it is asked about."""

        def __init__(self, policy):
            self.policy = policy
            self.met = set()

        def action(self, key, u, rng, unseen=None):
            self.met.add((key, u))
            return self.policy.action(key, u, rng, unseen)

    def test_counts_distinct_pairs_without_a_q_entry(self, desk_cfg, sequence_rm, desk_label_model):
        agent_cfg = AgentConfig(episodes=150, seed=0)
        policy, _ = train(desk_cfg, sequence_rm, desk_label_model, agent_cfg)
        # the same objects, each one column to the right
        shifted = replace(
            desk_cfg,
            objects=tuple(
                replace(o, cell=(o.cell[0], (o.cell[1] + 1) % desk_cfg.width))
                for o in desk_cfg.objects
            ),
        )
        recording = self.Recording(policy)
        stats = evaluate(recording, shifted, sequence_rm, n_episodes=20, seed=4)
        missing = {pair for pair in recording.met if pair not in policy.q}
        assert stats["unseen_policy_states"] == len(missing) > 0
        # counting changes no action
        assert stats["returns"] == evaluate(policy, shifted, sequence_rm, 20, seed=4)["returns"]

    def test_empty_policy_falls_back_everywhere_once_per_pair(self, desk_cfg, sequence_rm):
        recording = self.Recording(GreedyPolicy({}))
        stats = evaluate(recording, desk_cfg, sequence_rm, n_episodes=5, seed=0)
        assert stats["unseen_policy_states"] == len(recording.met) < 5 * 100


class TestEpisodesToThreshold:
    def _report(self, values):
        return TrainReport(episodes=[EpisodeRecord(v, v, 1) for v in values])

    def test_zero_threshold(self):
        assert episodes_to_threshold(self._report([0.0, 0.0]), 0.0) == 1

    def test_unreachable(self):
        assert episodes_to_threshold(self._report([0.0] * 50), 0.5) is None

    def test_window_mean(self):
        values = [0.0] * 30 + [1.0] * 30
        got = episodes_to_threshold(self._report(values), 0.95)
        # 1-based index of the first episode whose trailing 20 contain 19 ones
        assert got == 49


class TestPolicies:
    def test_greedy_unseen_state_default_action(self):
        assert GreedyPolicy({}).action(b"missing", 1) == 0

    def test_greedy_argmax(self):
        q = {(b"k", 1): np.array([0.0, 2.0, 1.0, 0.0])}
        assert GreedyPolicy(q).action(b"k", 1) == 1

    def test_greedy_takes_the_first_maximum_on_every_call(self):
        policy = GreedyPolicy({(b"k", 1): np.array([0.0, 2.0, 2.0, 1.0])})
        assert [policy.action(b"k", 1) for _ in range(3)] == [1, 1, 1]

    def test_random_policy_seeded(self):
        rng = np.random.default_rng(0)
        acts = [RandomPolicy().action(b"k", 1, rng) for _ in range(20)]
        assert set(acts) <= {0, 1, 2, 3}


DRAWS = {
    "random": lambda rng: rng.random(),
    "integers4": lambda rng: int(rng.integers(4)),
    "integers63": lambda rng: int(rng.integers(2**63)),
}


def _assert_draws_match_generator(seed, ops):
    rng = np.random.default_rng((seed, 0xA6E47))
    draws = RawDraws(np.random.default_rng((seed, 0xA6E47)).bit_generator)
    for op in ops:
        got, want = getattr(draws, op)(), DRAWS[op](rng)
        assert got == want and type(got) is type(want), (op, got, want)


class TestRawDraws:
    """`RawDraws` against the `np.random.Generator` calls it stands in for.

    A lead of `random()` draws stops 0-8 words short of the end of the
    first raw block, so the interleaving under test crosses a refill at
    any point; runs of integers4 leave the 32-bit buffer full or empty
    before the next 64-bit draw and across the refill.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(0, 8),
        st.lists(st.sampled_from(sorted(DRAWS)), max_size=40),
    )
    @example(0, 1, ["integers4", "random", "integers4", "integers4", "integers63", "integers4"])
    @example(1, 2, ["integers4", "integers4", "integers4", "random", "integers4", "random"])
    def test_interleavings_across_a_refill_match_the_generator(self, seed, short, ops):
        lead = ["random"] * (agent._RAW_BLOCK - short)
        _assert_draws_match_generator(seed, lead + ops)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
    def test_training_mixes_match_the_generator(self, seed, order):
        # the mix of a training run: random() per step, integers(4) on a
        # share of them, integers(2**63) per episode; 2,500 draws cross
        # two refills
        ops = random.Random(order).choices(list(DRAWS), weights=(10, 3, 1), k=2500)
        _assert_draws_match_generator(seed, ops)

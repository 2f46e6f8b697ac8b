import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rmgcr import agent, compose, geogrid, rm as rm_module
from rmgcr.agent import (
    AgentConfig,
    ConfigMismatchError,
    EpisodeRecord,
    GreedyPolicy,
    RandomPolicy,
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
from rmgcr.rm import MAX_EXHAUSTIVE_VOCAB, RmTransition, load_rm, make_rm, run_rm

from conftest import TASKS_DIR
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

    def test_composed_value_fn_of_another_machine(
        self, desk_cfg, sequence_rm, logic_rm, safety_rm, desk_label_model, desk_pvfs
    ):
        agent_cfg = AgentConfig(shaping="composed", episodes=1)
        cvf = make_composed_value_fn(sequence_rm, desk_pvfs, GAMMA_RM)
        for machine in (logic_rm, safety_rm):  # more states than sequence.rm, and as many
            with pytest.raises(ConfigMismatchError):
                train(desk_cfg, machine, desk_label_model, agent_cfg, cvf=cvf)
        # an equal machine loaded apart is the same machine
        train(desk_cfg, load_rm(TASKS_DIR / "sequence.rm"), desk_label_model, agent_cfg, cvf=cvf)

    def test_rm_values_of_another_machine(self, desk_cfg, sequence_rm, logic_rm, desk_label_model):
        agent_cfg = AgentConfig(shaping="high-level", episodes=1)
        for made_for, machine in ((sequence_rm, logic_rm), (logic_rm, sequence_rm)):  # too few states, too many
            rm_values = rm_value_iteration(made_for, GAMMA_RM, GAMMA)
            with pytest.raises(ConfigMismatchError):
                train(desk_cfg, machine, desk_label_model, agent_cfg, rm_values=rm_values)


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

    def _count_layout_work(self, monkeypatch) -> dict:
        counts: dict = {}
        for module, name in (
            (geogrid, "encode_layout"),
            (geogrid, "layout_labels"),
            (LabelModel, "scores"),
            (geogrid, "encode_obs"),
            (geogrid, "true_label"),
            (geogrid, "step"),
        ):
            self._counting(monkeypatch, module, name, counts)
        return counts

    def test_per_observation_work_runs_once(self, monkeypatch, desk_cfg, desk_label_model):
        machine = load_rm(TASKS_DIR / "logic.rm")  # fresh, so that its columns are filled here
        counts = self._count_layout_work(monkeypatch)
        self._counting(monkeypatch, rm_module, "rm_step", counts)
        _, report = train(desk_cfg, machine, desk_label_model, AgentConfig(episodes=200, seed=3))
        assert sum(e.steps for e in report.episodes) > 5000
        # the layout is encoded, labelled and scored once, and each (RM state, assignment) stepped once
        assert counts.pop("rm_step") <= machine.num_states * 2 ** len(machine.vocab)
        assert counts == {"encode_layout": 1, "layout_labels": 1, "scores": 1}

    def test_a_randomized_walk_encodes_and_scores_each_layout_once(
        self, monkeypatch, logic_rm, desk_label_model, desk_pvfs
    ):
        counts = self._count_layout_work(monkeypatch)
        cvf = make_composed_value_fn(logic_rm, desk_pvfs, GAMMA_RM)
        agent_cfg = AgentConfig(shaping="composed", episodes=30)
        train(GridConfig(layout_mode="randomized"), logic_rm, desk_label_model, agent_cfg, cvf=cvf)
        # every episode starts on a new layout, which its potentials and its start cell share
        assert counts == {"encode_layout": 30, "layout_labels": 30, "scores": 30}

    def test_composed_shaping_values_a_fixed_layout_in_one_table(
        self, monkeypatch, logic_rm, desk_label_model, desk_pvfs
    ):
        counts: dict = {}
        self._counting(monkeypatch, compose, "composed_table", counts)
        self._counting(monkeypatch, agent, "composed_value", counts)
        self._counting(monkeypatch, geogrid, "encode_layout", counts)
        cvf = make_composed_value_fn(logic_rm, desk_pvfs, GAMMA_RM)
        agent_cfg = AgentConfig(shaping="composed", episodes=30, seed=3)
        train(GridConfig(), logic_rm, desk_label_model, agent_cfg, cvf=cvf)
        assert counts == {"composed_table": 1, "encode_layout": 1}  # the table reads the walk's array
        # a second train on the same value function and layout encodes it again but reads the kept table
        train(GridConfig(), logic_rm, desk_label_model, replace(agent_cfg, seed=4), cvf=cvf)
        assert counts == {"composed_table": 1, "encode_layout": 2}

    def test_composed_shaping_computes_one_term_per_product_state_and_action(
        self, monkeypatch, logic_rm, desk_label_model, desk_pvfs
    ):
        counts: dict = {}
        self._counting(monkeypatch, agent, "shaping_term", counts)
        cfg = GridConfig()
        cvf = make_composed_value_fn(logic_rm, desk_pvfs, GAMMA_RM)
        agent_cfg = AgentConfig(shaping="composed", episodes=200, seed=2)
        _, report = train(cfg, logic_rm, desk_label_model, agent_cfg, cvf=cvf)
        assert sum(e.steps for e in report.episodes) > 5000
        # one observation per cell of the fixed layout, and one term per (observation, RM state, action)
        assert counts["shaping_term"] <= agent.N_ACTIONS * cfg.width * cfg.height * logic_rm.num_states

    def test_composed_shaping_values_only_the_cells_a_randomized_layout_reads(
        self, monkeypatch, logic_rm, desk_label_model, desk_pvfs
    ):
        counts: dict = {}
        self._counting(monkeypatch, compose, "composed_table", counts)
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
        assert cvf._tables == {}  # only a table built in full is kept

    def test_machine_beyond_the_exhaustive_vocab_trains_and_evaluates(self, desk_cfg, sequence_rm):
        # sequence.rm plus atoms the grid never labels, after the grid atoms or
        # before them, past a 64-bit label mask: the same episodes, Q values and
        # returns as over the five grid atoms
        extra = tuple(f"x{i}" for i in range(MAX_EXHAUSTIVE_VOCAB + 1 - len(sequence_rm.vocab)))
        vocab = sequence_rm.vocab + extra
        wide_rm = make_rm(vocab, sequence_rm.num_states, sequence_rm.transitions)
        assert len(vocab) > MAX_EXHAUSTIVE_VOCAB
        first = tuple(f"y{i}" for i in range(64)) + sequence_rm.vocab
        late_rm = make_rm(first, sequence_rm.num_states, sequence_rm.transitions)

        def exact_labels(vocab):
            table = {}
            for state in cell_states(desk_cfg).values():
                label = true_label(state)
                table[obs_key(encode_obs(state))] = np.array([float(a in label) for a in vocab])
            return LabelModel(vocab, "tabular", table=table)

        runs = []
        for machine in (sequence_rm, wide_rm, late_rm):
            policy, report = train(
                desk_cfg, machine, exact_labels(machine.vocab), AgentConfig(episodes=80, seed=2)
            )
            stats = evaluate(policy, desk_cfg, machine, n_episodes=10, seed=1)
            q = {k: v.tolist() for k, v in policy.q.items()}
            runs.append((report.episodes, q, stats["returns"]))
        assert runs[0] == runs[1] == runs[2]


class TestSharedColumns:
    def test_calls_on_one_machine_match_fresh_machines_and_step_it_once(
        self, monkeypatch, desk_cfg, desk_label_model
    ):
        def run(machines):  # two trains and an evaluate, each on the next machine
            out = []
            for seed in (1, 2):
                agent_cfg = AgentConfig(episodes=60, seed=seed)
                policy, report = train(desk_cfg, next(machines), desk_label_model, agent_cfg)
                out.append((report.episodes, {k: v.tolist() for k, v in policy.q.items()}))
            out.append(evaluate(policy, desk_cfg, next(machines), n_episodes=20, seed=3))
            return out

        path = TASKS_DIR / "logic.rm"
        fresh = run(load_rm(path) for _ in range(3))
        calls = []
        step = rm_module.rm_step
        monkeypatch.setattr(rm_module, "rm_step", lambda *args: calls.append(args) or step(*args))
        machine = load_rm(path)
        per_call = []

        def shared():
            while True:
                per_call.append(len(calls))
                yield machine

        assert run(shared()) == fresh
        per_call.append(len(calls))
        # the first train fills the columns; the second train and the evaluate step no RM state again
        assert per_call[1] > 0 and per_call[1:] == [per_call[1]] * 3


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
        pvfs = PvfSet(VOCAB, GAMMA, "fqi", estimators)
        cvf = make_composed_value_fn(machine, pvfs, GAMMA_RM)
        unseen_table, unseen_lazy = set(), set()
        stacked = np.stack(observations)
        table = potential_table("composed", stacked, machine, cvf, None, unseen=unseen_table)
        lazy = potential_table("composed", stacked, machine, cvf, None, lazy=True, unseen=unseen_lazy)
        for i, obs in enumerate(observations):
            for u in range(machine.num_states):
                assert table[u][i].hex() == lazy[u][i].hex() == composed_value(cvf, obs, u).hex()
        # every cell was read at a non-terminal RM state: both count the cells a guard's PVF has no entry for
        flagged = {obs_key(o) for o, f in zip(observations, pvfs.unseen(observations)) if f}
        assert unseen_table == unseen_lazy <= flagged
        if linear:
            assert not unseen_table
        # the rows are kept on the value function: a second call on the layout builds no table
        again = set()
        assert potential_table("composed", stacked, machine, cvf, None, unseen=again) is table
        assert again == unseen_table
        assert potential_table("composed", stacked.copy(), machine, cvf, None) is table  # keyed by content
        # a value function made by replace keeps no rows of the one it was made from
        other = replace(cvf, gamma=cvf.gamma)
        assert other._tables == {} and potential_table("composed", stacked, machine, other, None) is not table
        rm_values = rm_value_iteration(machine, GAMMA_RM, GAMMA)
        table = potential_table("high-level", np.stack(observations), machine, None, rm_values)
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

    class PerEntryArgmax:
        """The greedy readout entry by entry: np.argmax of the entry, or action 0 where there is none."""

        def __init__(self, q):
            self.q = q

        def action(self, key, u, rng=None, unseen=None):
            entry = self.q.get((key, u))
            if entry is None:
                if unseen is not None:
                    unseen.add((key, u))
                return 0
            return int(np.argmax(entry))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_greedy_table_equals_a_per_entry_argmax(self, desk_cfg, sequence_rm, data, seed):
        # few distinct values, both zeros among them: rows with ties, and ties between -0.0 and 0.0
        states = range(sequence_rm.num_states)
        pairs = [(obs_key(encode_obs(s)), u) for s in cell_states(desk_cfg).values() for u in states]
        entry = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), min_size=4, max_size=4)
        q = {pair: np.array(data.draw(entry)) for pair in pairs if data.draw(st.booleans())}
        greedy, reference = GreedyPolicy(q), self.PerEntryArgmax(q)
        got, want = set(), set()
        for pair in pairs:
            assert greedy.action(*pair, unseen=got) == reference.action(*pair, unseen=want)
        assert got == want == set(pairs) - set(q)
        want = evaluate(reference, desk_cfg, sequence_rm, 5, seed)
        assert evaluate(greedy, desk_cfg, sequence_rm, 5, seed) == want

    def test_random_policy_seeded(self):
        rng = np.random.default_rng(0)
        acts = [RandomPolicy().action(b"k", 1, rng) for _ in range(20)]
        assert set(acts) <= {0, 1, 2, 3}


DRAWS = {
    "random": lambda rng: rng.random(),
    "integers4": lambda rng: int(rng.integers(4)),
    "integers63": lambda rng: int(rng.integers(2**63)),
}


def _assert_draws_match_generator(seed, ops, epsilons):
    """Read `ops` from `raw_words` by the rules in its docstring, as `train` does,
    against the same calls on the Generator; each "random" op also checks the
    decisions `x < explore_threshold(e)` against `random() < e` for the next
    epsilon of `epsilons` and for the drawn value and its two float neighbours."""
    rng = np.random.default_rng((seed, 0xA6E47))
    words = agent.raw_words(np.random.default_rng((seed, 0xA6E47)).bit_generator)
    epsilons = iter(epsilons)
    half = -1  # the buffered high half's integers(4) draw, or -1
    for op in ops:
        want = DRAWS[op](rng)
        if op == "random":
            x = next(words)
            got = (x >> 11) * 2**-53
            near = [float(np.nextafter(want, 0.0)), want, float(np.nextafter(want, 1.0))]
            for e in [next(epsilons, 0.5), *near]:
                assert (x < agent.explore_threshold(e)) == (want < e), (x, e)
        elif op == "integers4":
            if half < 0:
                x = next(words)
                got, half = (x & 0xFFFFFFFF) >> 30, x >> 62
            else:
                got, half = half, -1
        else:
            got = next(words) >> 1
        assert got == want and type(got) is type(want), (op, got, want)


class TestRawDraws:
    """The draws and exploration decisions read from `raw_words` against the
    `np.random.Generator` calls they stand in for.

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
        st.lists(st.floats(0.0, 1.0), max_size=40),
    )
    @example(0, 1, ["integers4", "random", "integers4", "integers4", "integers63", "integers4"], [0.0, 1.0])
    @example(1, 2, ["integers4", "integers4", "integers4", "random", "integers4", "random"], [5e-324, 0.05])
    def test_interleavings_across_a_refill_match_the_generator(self, seed, short, ops, epsilons):
        lead = ["random"] * (agent._RAW_BLOCK - short)
        _assert_draws_match_generator(seed, lead + ops, [0.5] * len(lead) + epsilons)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
    def test_training_mixes_match_the_generator(self, seed, order):
        # the mix of a training run: random() per step, integers(4) on a
        # share of them, integers(2**63) per episode, with epsilon falling
        # from 1 to 0.05; 2,500 draws cross two refills
        ops = random.Random(order).choices(list(DRAWS), weights=(10, 3, 1), k=2500)
        _assert_draws_match_generator(seed, ops, np.linspace(1.0, 0.05, 2500).tolist())

    def test_thresholds_at_the_ends_of_the_epsilon_range(self):
        # epsilon 1 explores on every 64-bit word, epsilon 0 on none
        assert agent.explore_threshold(1.0) == 2**64
        assert agent.explore_threshold(0.0) == 0
        assert agent.explore_threshold(2**-53) == 2**11

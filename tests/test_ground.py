import json
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rmgcr import files, ground
from rmgcr.geogrid import (
    COLORS,
    SHAPES,
    VOCAB,
    GridConfig,
    GroundingDataset,
    InconsistentLabelError,
    ObjectSpec,
    cell_states,
    encode_layout,
    encode_obs,
    full_coverage_dataset,
    generate_dataset,
    obs_key,
    reset,
    step,
    true_label,
)
from rmgcr.errors import InputError
from rmgcr.ground import (
    DegenerateAtomError,
    EmptyDatasetError,
    LabelModel,
    NonConvergenceWarning,
    TabularPvf,
    mc_targets,
    observation_features,
    predict_labels,
    train_label_model,
    train_pvfs_fqi,
    train_pvfs_mc,
)
from rmgcr.logic import Not, Var
from rmgcr.files import FormatError, load_label_model, load_pvfs, save_label_model, save_pvfs
from rmgcr.rm import reachability_rm
from rmgcr.compose import exact_product_values

from test_compose import const_pvfs, linear_pvfs, tabular_pvfs
from test_geogrid import grid_configs

GAMMA = 0.97


class TestFeatures:
    def test_product_features_flag_agent_cell_properties(self, desk_cfg):
        obs = encode_obs(cell_states(desk_cfg)[(0, 0)])  # red triangle
        f = observation_features(obs)
        # first five entries: is the agent on a red/green/blue/triangle/circle cell
        assert f[:5].tolist() == [1.0, 0.0, 0.0, 1.0, 0.0]

    def test_feature_length(self, desk_cfg):
        obs = encode_obs(reset(desk_cfg))
        assert observation_features(obs).shape == (5 + obs.size,)

    @given(arrays(np.uint8, st.tuples(*[st.integers(1, 4)] * 3, st.integers(2, 6))))
    def test_a_stack_gives_each_observation_its_own_features(self, stack):
        each = np.array([observation_features(obs) for obs in stack])
        batched = observation_features(stack)
        assert batched.dtype == each.dtype and np.array_equal(batched, each)


def _reference_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -60), 60)))


SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan] + [
    sign * (edge + d) for edge in (37.0, 60.0, 745.0) for d in (-1e-9, 0.0, 1e-9) for sign in (1, -1)
]


class TestSigmoid:
    @settings(max_examples=200)
    @given(
        st.lists(
            st.one_of(
                st.floats(),
                st.sampled_from(SIGMOID_EDGES),
                st.sampled_from((37.0, 60.0, 745.0)).flatmap(
                    lambda edge: st.floats(-edge - 1.0, -edge + 1.0) | st.floats(edge - 1.0, edge + 1.0)
                ),
            ),
            min_size=1,
            max_size=20,
        ),
        st.booleans(),
    )
    @example(SIGMOID_EDGES, False)
    @example(SIGMOID_EDGES, True)
    def test_equals_the_clamped_formula_bit_for_bit(self, values, into_out):
        # the upper clamp at 60 is gone: there 1 + exp(-z) already rounds to 1.0
        z = np.array(values, dtype=np.float64)
        want = [v.hex() for v in _reference_sigmoid(z).tolist()]
        out = np.full_like(z, 7.0) if into_out else None
        got = ground._sigmoid(z, out)
        assert [v.hex() for v in got.tolist()] == want
        np.testing.assert_array_equal(z, values)  # z is left as it was
        if into_out:
            assert got is out


class TestLabelModel:
    def test_holdout_accuracy_high(self, desk_label_model):
        assert desk_label_model.accuracy_split == "holdout"
        for atom, acc in desk_label_model.holdout_accuracy.items():
            assert acc >= 0.99, f"{atom}: {acc}"

    def test_no_holdout_means_training_accuracy(self, exact_label_model):
        assert exact_label_model.accuracy_split == "train"

    def test_unseen_only_for_tabular_misses(self, desk_cfg, desk_label_model, exact_label_model):
        seen = encode_obs(reset(desk_cfg))
        blank = np.zeros_like(seen)
        assert not exact_label_model.unseen(seen) and exact_label_model.unseen(blank)
        assert predict_labels(exact_label_model, blank) == frozenset()
        assert not desk_label_model.unseen(blank)

    def test_predictions_match_ground_truth(self, desk_cfg, desk_label_model):
        s = cell_states(desk_cfg)[(0, 0)]
        assert predict_labels(desk_label_model, encode_obs(s)) == frozenset({"red", "triangle"})
        s = cell_states(desk_cfg)[(3, 1)]
        assert predict_labels(desk_label_model, encode_obs(s)) == frozenset()

    def test_degenerate_atom(self, desk_cfg):
        # agent pinned to an empty cell and never moving: every atom constant false
        cfg = GridConfig(agent_start=(3, 0), episode_len=0)
        ds = generate_dataset(cfg, 5, seed=0)
        with pytest.raises(DegenerateAtomError):
            train_label_model(ds)

    def test_tabular_memorizes(self, desk_cfg):
        ds = full_coverage_dataset(desk_cfg)
        model = train_label_model(ds, backend="tabular", holdout_fraction=0.0)
        for tr in ds.trajectories:
            for obs, lab in zip(tr.observations, tr.labels):
                assert predict_labels(model, obs) == lab

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            LabelModel(("red",), "tabular", threshold=1.5)
        with pytest.raises(ValueError):
            LabelModel(("red",), "tabular", threshold=0.0)

    def test_all_zero_observation_is_total(self, desk_cfg, desk_label_model):
        obs = np.zeros_like(encode_obs(reset(desk_cfg)))
        pred = predict_labels(desk_label_model, obs)
        assert pred <= set(desk_label_model.vocab)

    def test_holdout_fraction_validation(self, desk_cfg):
        ds = generate_dataset(desk_cfg, 5, seed=3)
        for bad in (-0.1, 1.0):
            with pytest.raises(ValueError):
                train_label_model(ds, holdout_fraction=bad)

    def test_features_and_predictions_once_per_distinct_observation(self, desk_cfg, monkeypatch):
        ds = generate_dataset(desk_cfg, 40, seed=2)  # 2440 rows, 36 observations
        held_out = ds.trajectories[36:]  # the trailing 10 %
        rows = sum(len(tr.observations) for tr in held_out)
        distinct = len({obs_key(o) for tr in ds.trajectories for o in tr.observations})
        distinct_train = len({obs_key(o) for tr in ds.trajectories[:36] for o in tr.observations})
        distinct_held_out = len({obs_key(o) for tr in held_out for o in tr.observations})
        calls = {"observation_features": [], "predict_labels": [], "_sigmoid": []}
        for name in calls:
            original = getattr(ground, name)

            def recorded(arg, *args, _name=name, _original=original):
                calls[_name].append(np.shape(arg))
                return _original(arg, *args)

            monkeypatch.setattr(ground, name, recorded)
        model = train_label_model(ds)
        # the fit featurizes every observation in one batch, each descent
        # step scores each training observation once, and the accuracy pass
        # scores each held-out observation once from those features
        atoms = len(model.vocab)
        assert calls["observation_features"] == [(distinct, *encode_obs(reset(desk_cfg)).shape)]
        assert calls["predict_labels"] == []
        descent = [(distinct_train, atoms)] * ground.LABEL_EPOCHS
        assert calls["_sigmoid"] == descent + [(distinct_held_out, atoms)]
        assert distinct_held_out < rows
        assert model.accuracy_split == "holdout"

    def test_accuracy_counts_rows_not_observations(self, desk_cfg):
        states = cell_states(desk_cfg)
        empty, on_red = encode_obs(states[(3, 1)]), encode_obs(states[(0, 0)])
        train_cells = [(3, 1), (4, 2), (0, 4)]  # empty, green circle, blue triangle
        train = (
            [encode_obs(states[c]) for c in train_cells],
            [0, 0],
            [true_label(states[c]) for c in train_cells],
        )
        red = frozenset({"red", "triangle"})
        held_out = ([on_red] * 3 + [empty], [0, 0, 0], [red] * 3 + [frozenset()])
        ds = GroundingDataset.from_steps(VOCAB, [train, held_out])
        # the table never saw on_red, so it predicts no atoms on 3 of the 4 held-out rows
        model = train_label_model(ds, backend="tabular", holdout_fraction=0.5)
        assert model.holdout_accuracy == {
            "red": 0.25, "green": 1.0, "blue": 1.0, "triangle": 0.25, "circle": 1.0
        }

    def test_unknown_backend(self, desk_cfg):
        ds = generate_dataset(desk_cfg, 5, seed=3)
        with pytest.raises(ValueError):
            train_label_model(ds, backend="quadratic")

    def test_save_load(self, desk_label_model, desk_cfg, tmp_path):
        path = tmp_path / "labels.json"
        save_label_model(desk_label_model, path)
        back = load_label_model(path)
        obs = encode_obs(cell_states(desk_cfg)[(4, 4)])
        assert predict_labels(back, obs) == predict_labels(desk_label_model, obs)
        assert back.holdout_accuracy == desk_label_model.holdout_accuracy
        assert back.accuracy_split == desk_label_model.accuracy_split


def steps_of(trajectories):
    """The (observations, actions, labels) of each trajectory, as GroundingDataset.from_steps takes them."""
    return [(tr.observations, tr.actions, tr.labels) for tr in trajectories]


def relabelled_dataset(cfg):
    """A random-walk dataset in which the first observation recurs with a different label.

    Building it raises, so no fit is ever handed an observation with two labels.
    """
    ds = generate_dataset(cfg, 20, seed=7)
    first = ds.trajectories[0]
    wrong = frozenset() if first.labels[0] else frozenset({"red"})
    copy = (first.observations, first.actions, [wrong] + first.labels[1:])
    return GroundingDataset.from_steps(ds.vocab, steps_of(ds.trajectories) + [copy])


@pytest.mark.parametrize(
    "fit",
    [
        lambda ds: train_label_model(ds),
        lambda ds: train_label_model(ds, backend="tabular"),
        lambda ds: train_pvfs_fqi(ds, GAMMA),
        lambda ds: train_pvfs_mc(ds, GAMMA),
    ],
    ids=["linear-labels", "tabular-labels", "fqi", "mc"],
)
def test_observation_labelled_two_ways_is_rejected(desk_cfg, fit):
    with pytest.raises(InconsistentLabelError):
        fit(relabelled_dataset(desk_cfg))


class TestFqiCorridor:
    def test_distance_discounting(self, corridor_cfg, corridor_pvfs):
        # red triangle sits at the right end; value decays gamma^distance
        for col, k in [(2, 1), (1, 2), (0, 3)]:
            obs = encode_obs(cell_states(corridor_cfg)[(0, col)])
            assert corridor_pvfs.value(("red", True), obs) == pytest.approx(GAMMA**k, abs=1e-9)

    def test_on_target_cell_takes_one_step(self, corridor_cfg, corridor_pvfs):
        # staying put (off-grid no-op) re-satisfies the literal next step
        obs = encode_obs(cell_states(corridor_cfg)[(0, 3)])
        assert corridor_pvfs.value(("red", True), obs) == pytest.approx(GAMMA, abs=1e-9)

    def test_negation_one_step(self, corridor_cfg, corridor_pvfs):
        # from every cell some move (or stay) lands on a non-red cell next step
        for col in range(4):
            obs = encode_obs(cell_states(corridor_cfg)[(0, col)])
            assert corridor_pvfs.value(("red", False), obs) == pytest.approx(GAMMA, abs=1e-9)

    def test_unreachable_literal_is_zero_without_warning(self, corridor_cfg):
        ds = full_coverage_dataset(corridor_cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonConvergenceWarning)
            pvfs = train_pvfs_fqi(ds, GAMMA)
        for col in range(4):
            obs = encode_obs(cell_states(corridor_cfg)[(0, col)])
            assert pvfs.value(("green", True), obs) == 0.0


class TestFqiExactness:
    def test_matches_exact_value_iteration(self, desk_cfg, desk_pvfs):
        for atom in desk_pvfs.vocab:
            for positive in (True, False):
                guard = Var(atom) if positive else Not(Var(atom))
                oracle = exact_product_values(desk_cfg, reachability_rm(desk_pvfs.vocab, guard), GAMMA)
                for cell, state in cell_states(desk_cfg).items():
                    got = desk_pvfs.value((atom, positive), encode_obs(state))
                    assert got == pytest.approx(oracle.value_at(cell, 1), abs=1e-6)

    def test_values_clamped(self, desk_pvfs, desk_cfg):
        for lit in desk_pvfs.literals:
            v = desk_pvfs.value(lit, encode_obs(reset(desk_cfg)))
            assert 0.0 <= v <= 1.0

    def test_unseen_observation_reads_zero(self, desk_pvfs):
        assert desk_pvfs.value(("red", True), np.ones((6, 6, 6), dtype=np.uint8)) == 0.0

    def test_gamma_validation(self, desk_cfg):
        ds = full_coverage_dataset(desk_cfg)
        with pytest.raises(ValueError):
            train_pvfs_fqi(ds, 1.0)

    def test_unknown_backend(self, corridor_cfg):
        with pytest.raises(ValueError):
            train_pvfs_fqi(full_coverage_dataset(corridor_cfg), GAMMA, backend="quadratic")

    @pytest.mark.parametrize("backend", ["tabular", "linear"])
    def test_a_dataset_without_trajectories_is_a_typed_error(self, backend):
        assert issubclass(EmptyDatasetError, InputError)
        with pytest.raises(EmptyDatasetError, match="the dataset has no trajectories"):
            train_pvfs_fqi(GroundingDataset.from_steps(VOCAB, []), GAMMA, backend=backend)

    def test_observations_outside_transitions_get_no_entry(self, corridor_cfg):
        # no action is taken from an observation no transition reaches, nor from a
        # walk's last step, so nothing estimates their values
        states = cell_states(corridor_cfg)
        alone, last = encode_obs(states[(0, 0)]), encode_obs(states[(0, 1)])
        alone[0, 0, -1] = 0  # no agent: an observation no transition reaches
        last[0, 0, -1] = 1  # two agents: an observation met only as a walk's last step
        steps = steps_of(full_coverage_dataset(corridor_cfg).trajectories)
        walk = ([encode_obs(states[(0, 0)]), last], [3], [true_label(states[(0, 0)]), frozenset()])
        ds = GroundingDataset.from_steps(VOCAB, steps + [([alone], [], [frozenset()]), walk])
        for pvfs in (train_pvfs_fqi(ds, GAMMA), train_pvfs_mc(ds, GAMMA)):
            for obs in (alone, last):
                assert all(obs_key(obs) not in est.v for est in pvfs.estimators.values())
            assert pvfs.unseen([alone, last]) == [True, True]

    def test_linear_backend_runs(self, corridor_cfg):
        ds = full_coverage_dataset(corridor_cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            pvfs = train_pvfs_fqi(ds, GAMMA, backend="linear", iters=60)
        obs = encode_obs(cell_states(corridor_cfg)[(0, 2)])
        assert pvfs.value(("red", True), obs) == pytest.approx(GAMMA, abs=0.05)


class TestMonteCarloTargets:
    # ids number the walk's observations; sat[i] says whether the literal holds at id i
    def test_definition(self):
        t = mc_targets([0, 0, 1, 0], [False, True], GAMMA)
        assert t == pytest.approx([GAMMA**2, GAMMA, 0.0, 0.0])

    def test_never_satisfied(self):
        assert mc_targets([0, 1, 0, 1], [False, False], GAMMA) == [0.0] * 4

    def test_satisfaction_counts_from_next_step(self):
        # the literal holding *now* does not award gamma^0
        assert mc_targets([1, 0], [False, True], GAMMA) == [0.0, 0.0]


def rightward_corridor_dataset(cfg):
    """Demonstration trajectories walking right from each start cell."""
    trajectories = []
    for col in range(cfg.width):
        s = cell_states(cfg)[(0, col)]
        observations, labels, actions = [encode_obs(s)], [true_label(s)], []
        for _ in range(cfg.width):
            s = step(s, 3)
            actions.append(3)
            observations.append(encode_obs(s))
            labels.append(true_label(s))
        trajectories.append((observations, actions, labels))
    return GroundingDataset.from_steps(("red", "green", "blue", "triangle", "circle"), trajectories)


class TestMonteCarloRegression:
    def test_equals_fqi_on_demonstrations(self, corridor_cfg, corridor_pvfs):
        # trajectories that reach the literal as fast as possible make the
        # Monte-Carlo estimate coincide with the optimal fixed point
        ds = rightward_corridor_dataset(corridor_cfg)
        mc = train_pvfs_mc(ds, GAMMA)
        for col in range(4):
            obs = encode_obs(cell_states(corridor_cfg)[(0, col)])
            assert mc.value(("red", True), obs) == pytest.approx(
                corridor_pvfs.value(("red", True), obs), abs=1e-9
            )

    def test_a_dataset_without_trajectories_is_a_typed_error(self):
        with pytest.raises(EmptyDatasetError, match="the dataset has no trajectories"):
            train_pvfs_mc(GroundingDataset.from_steps(VOCAB, []), GAMMA)

    def test_random_walk_mc_underestimates_optimum(self, corridor_cfg, corridor_pvfs):
        ds = generate_dataset(replace(corridor_cfg, episode_len=8), 200, seed=4)
        mc = train_pvfs_mc(ds, GAMMA)
        obs = encode_obs(cell_states(corridor_cfg)[(0, 0)])
        assert mc.value(("red", True), obs) <= corridor_pvfs.value(("red", True), obs) + 1e-9


def batched_labels(model, observations):
    """The labels a model predicts on a stack of observations, from one scores call, as agent.train reads them."""
    hits = model.scores(observations) >= model.threshold
    return [frozenset(a for a, hit in zip(model.vocab, row) if hit) for row in hits]


class TestBatchedPredictions:
    @settings(max_examples=60, deadline=None)
    @given(
        cfg=grid_configs(),
        seed=st.integers(0, 2**31 - 1),
        tabular=st.booleans(),
        threshold=st.sampled_from([0.5, 0.25, 0.9]),
    )
    def test_one_call_per_layout_equals_predict_labels_per_observation(self, cfg, seed, tabular, threshold):
        layout = encode_layout(reset(cfg, seed=seed))
        rng = np.random.default_rng(seed)
        if tabular:  # entries for some cells, with scores on the threshold
            scores = [0.0, 0.25, 0.5, 0.9, 1.0]
            table = {obs_key(o): rng.choice(scores, len(VOCAB)) for o in layout if rng.random() < 0.7}
            model = LabelModel(VOCAB, "tabular", threshold=threshold, table=table)
        else:
            n_features = observation_features(layout[0]).shape[0]
            weights = rng.normal(0.0, 1.0, (len(VOCAB), n_features))
            model = LabelModel(VOCAB, "linear", threshold, weights=weights, bias=rng.normal(0.0, 1.0, len(VOCAB)))
        assert batched_labels(model, layout) == [predict_labels(model, o) for o in layout]
        singles = np.array([model.scores(o) for o in layout])
        assert np.abs(model.scores(layout) - singles).max() <= 1e-15  # summation order only

    def test_the_fitted_model_scores_a_layout_as_its_cells(self, desk_cfg, desk_label_model):
        layout = encode_layout(reset(desk_cfg))
        singles = np.array([desk_label_model.scores(o) for o in layout])
        assert np.abs(desk_label_model.scores(layout) - singles).max() <= 2**-52
        assert batched_labels(desk_label_model, layout) == [predict_labels(desk_label_model, o) for o in layout]


class TestSerialization:
    def test_pvf_roundtrip(self, desk_pvfs, desk_cfg, tmp_path):
        path = tmp_path / "pvfs.json"
        save_pvfs(desk_pvfs, path)
        back = load_pvfs(path)
        assert back.vocab == desk_pvfs.vocab
        assert back.gamma == desk_pvfs.gamma
        obs = encode_obs(cell_states(desk_cfg)[(1, 1)])
        for lit in desk_pvfs.literals:
            assert back.value(lit, obs) == pytest.approx(desk_pvfs.value(lit, obs), abs=1e-12)

    def test_mc_pvf_roundtrip(self, corridor_cfg, tmp_path):
        ds = rightward_corridor_dataset(corridor_cfg)
        mc = train_pvfs_mc(ds, GAMMA)
        path = tmp_path / "mc.json"
        save_pvfs(mc, path)
        back = load_pvfs(path)
        obs = encode_obs(cell_states(corridor_cfg)[(0, 1)])
        assert back.value(("red", True), obs) == pytest.approx(mc.value(("red", True), obs))

    def test_unknown_estimator_kind_rejected(self, corridor_pvfs, tmp_path):
        path = tmp_path / "pvfs.json"
        save_pvfs(corridor_pvfs, path)
        data = json.loads(path.read_text())
        data["estimators"]["+red"]["kind"] = "tabular_q"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError):
            load_pvfs(path)

    @pytest.mark.parametrize("which", ["pvfs", "label_model"])
    def test_feature_version_mismatch_rejected(
        self, which, corridor_pvfs, desk_label_model, tmp_path
    ):
        save, load, model = {
            "pvfs": (save_pvfs, load_pvfs, corridor_pvfs),
            "label_model": (save_label_model, load_label_model, desk_label_model),
        }[which]
        path = tmp_path / f"{which}.json"
        save(model, path)
        data = json.loads(path.read_text())
        data["feature_version"] += 1
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError):
            load(path)


def format_1_pvfs(data: dict) -> None:
    """Turn a saved pvfs.json's data back into format 1: hex-keyed value dicts and no table."""
    keys = [raw for _, raw in data.pop("observations")]
    del data["format_version"]
    for entry in data["estimators"].values():
        if entry["kind"] == "tabular":
            entry["v"] = {k: v for k, v in zip(keys, entry["v"]) if v is not None}


def assert_same_pvfs(back, pvfs):
    """Equal PVF sets: the same header, and each estimator's entries equal under float.hex."""
    assert (back.vocab, back.gamma, back.method) == (pvfs.vocab, pvfs.gamma, pvfs.method)
    assert set(back.literals) == set(pvfs.literals)
    if any(isinstance(est, ground.TabularPvf) and est.v for est in pvfs.estimators.values()):
        assert back.obs_shape == pvfs.obs_shape  # read off the table, which is empty otherwise
    for lit, est in pvfs.estimators.items():
        got = back.estimators[lit]
        assert type(got) is type(est)
        if isinstance(est, ground.TabularPvf):
            assert {k: v.hex() for k, v in got.v.items()} == {k: v.hex() for k, v in est.v.items()}
        else:
            assert got.weights.tobytes() == est.weights.tobytes()


def assert_values_match(pvfs, observations):
    """PvfSet.values over every literal equals PvfSet.value at each entry under float.hex."""
    lits = sorted(pvfs.literals)
    table = pvfs.values(lits, observations)
    assert table.shape == (len(lits), len(observations))
    for row, lit in zip(table, lits):
        want = [float(pvfs.value(lit, obs)).hex() for obs in observations]
        assert [x.hex() for x in row.tolist()] == want


@st.composite
def const_pvf_sets(draw):
    """Stub estimators, neither tabular nor linear, of one constant each, signed zeros included."""
    values = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
    return const_pvfs(VOCAB, {(a, pol): draw(values) for a in VOCAB for pol in (True, False)})


class TestPvfFile:
    def test_table_holds_each_observation_once_and_the_literals_share_it(self, desk_pvfs, tmp_path):
        path = tmp_path / "pvfs.json"
        save_pvfs(desk_pvfs, path)
        data = json.loads(path.read_text())
        assert data["format_version"] == files.PVF_FORMAT_VERSION
        assert [shape for shape, _ in data["observations"]] == [[6, 6, 6]] * 36
        assert len({raw for _, raw in data["observations"]}) == 36
        back = load_pvfs(path)
        assert back.obs_shape == desk_pvfs.obs_shape == (6, 6, 6)
        key_ids = [[id(k) for k in est.v] for est in back.estimators.values()]
        assert all(ids == key_ids[0] for ids in key_ids)

    def test_format_1_file_names_the_command_that_regenerates_it(self, corridor_pvfs, tmp_path):
        path = tmp_path / "pvfs.json"
        save_pvfs(corridor_pvfs, path)
        data = json.loads(path.read_text())
        format_1_pvfs(data)
        path.write_text(json.dumps(data, sort_keys=True))
        want = "format-1 PVF file, which this version no longer reads; regenerate it with `rmgcr ground"
        with pytest.raises(FormatError, match=re.escape(want)):
            load_pvfs(path)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda d: d["observations"][0].pop(), "table entry 0 is not a [shape, hex] pair"),
            (lambda d: d["observations"][1].insert(1, "00"), "table entry 1 is not a [shape, hex] pair"),
            (lambda d: d["observations"][2][0].append(2), "table entry 2 has 48 hex digits; shape"),
            (lambda d: d["observations"][1][0].reverse(), "table entry 1 has shape [6, 4, 1], not [1, 4, 6]"),
            (lambda d: d["observations"][0][0].insert(0, -1), "table entry 0 has shape [-1, 1, 4, 6]"),
            (lambda d: d["estimators"]["+red"]["v"].pop(), "the values of +red are not a list of one"),
            (lambda d: d["estimators"]["-red"].update(v={}), "the values of -red are not a list of one"),
            (lambda d: d["estimators"]["+red"]["v"].__setitem__(0, "x"), "the values of +red are not a list"),
            (lambda d: d.update(format_version=3), "unsupported PVF file format 3"),
        ],
        ids=["short-entry", "long-entry", "hex-too-short", "other-shape", "bad-shape",
             "short-values", "values-dict", "string-value", "format-3"],
    )
    def test_a_table_that_does_not_fit_is_rejected(self, corridor_pvfs, tmp_path, tamper, message):
        path = tmp_path / "pvfs.json"
        save_pvfs(corridor_pvfs, path)
        data = json.loads(path.read_text())
        tamper(data)
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError, match=re.escape(message)):
            load_pvfs(path)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_a_value_list_loads_iff_each_entry_is_a_finite_number_or_null(self, corridor_pvfs, data):
        # the largest float is 2**1024 - 2**971; float() holds every int up to it and none from 2**1024
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pvfs.json"
            save_pvfs(corridor_pvfs, path)
            saved = json.loads(path.read_text())
            n = len(saved["observations"])
            number = st.one_of(
                st.none(), st.integers(-(2**64), 2**64), st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([2**1024 - 2**971, -(2**1024 - 2**971), -0.0]),
            )
            values = data.draw(st.lists(number, min_size=n, max_size=n))
            bad = [True, False, "0.5", [0.5], {"v": 0.5}, float("nan"), float("inf"), -float("inf"),
                   10**400, 2**1024, -(2**1024)]
            leaf = data.draw(st.none() | st.tuples(st.integers(0, n - 1), st.sampled_from(bad)))
            if leaf is not None:
                values[leaf[0]] = leaf[1]
            saved["estimators"]["+red"]["v"] = values
            path.write_text(json.dumps(saved))
            if leaf is not None:
                with pytest.raises(FormatError, match=re.escape("the values of +red are not a list of one")):
                    load_pvfs(path)
                return
            keys = [bytes.fromhex(raw) for _, raw in saved["observations"]]
            want = {k: float(v).hex() for k, v in zip(keys, values) if v is not None}
            got = load_pvfs(path).estimators["red", True].v
            assert {k: v.hex() for k, v in got.items()} == want

    def test_tabular_pvfs_without_an_obs_shape_are_not_saved(self, corridor_pvfs, tmp_path):
        pvfs = replace(corridor_pvfs, obs_shape=None)
        with pytest.raises(ValueError, match="obs_shape"):
            save_pvfs(pvfs, tmp_path / "pvfs.json")

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(tabular_pvfs(), linear_pvfs()))
    def test_round_trip_keeps_every_entry_under_float_hex(self, pvfs):
        # missing entries, -0.0 and values outside [0, 1] come back as they went in
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pvfs.json"
            save_pvfs(pvfs, path)
            assert_same_pvfs(load_pvfs(path), pvfs)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(tabular_pvfs(), linear_pvfs(), const_pvf_sets()))
    def test_values_equal_value_bit_for_bit(self, pvfs):
        observations = [encode_obs(s) for s in cell_states(GridConfig()).values()]
        observations.append(np.zeros_like(observations[0]))  # seen by no estimator
        assert_values_match(pvfs, observations)
        assert pvfs.values([], observations).shape == (0, len(observations))

    @settings(max_examples=60, deadline=None)
    @given(pvfs=st.one_of(tabular_pvfs(), linear_pvfs(), const_pvf_sets()), data=st.data())
    def test_unseen_marks_where_a_tabular_literal_has_no_entry(self, pvfs, data):
        observations = [encode_obs(s) for s in cell_states(GridConfig()).values()]
        observations.append(np.zeros_like(observations[0]))  # seen by no estimator
        lits = data.draw(st.lists(st.sampled_from(sorted(pvfs.literals)), unique=True))
        tables = [est.v for est in map(pvfs.estimators.get, lits) if isinstance(est, TabularPvf)]
        want = [any(obs_key(obs) not in v for v in tables) for obs in observations]
        assert pvfs.unseen(observations, lits) == want
        assert want[-1] == bool(tables) == (pvfs.seen(lits) is not None)
        assert pvfs.unseen(observations) == pvfs.unseen(observations, pvfs.literals)


@st.composite
def small_layouts(draw):
    """Fixed layouts of 1-4 x 1-4 cells holding 1-3 objects at distinct cells."""
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 4))
    n = draw(st.integers(1, min(3, width * height)))
    cell = st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))
    cells = draw(st.lists(cell, min_size=n, max_size=n, unique=True))
    kind = st.tuples(st.sampled_from(COLORS), st.sampled_from(SHAPES))
    kinds = draw(st.lists(kind, min_size=n, max_size=n))
    objects = tuple(ObjectSpec(color, shape, c) for (color, shape), c in zip(kinds, cells))
    return GridConfig(width=width, height=height, objects=objects, episode_len=6)


def per_row_fit(ds, holdout_fraction, seed):
    """The linear label fit by its definition: full-batch descent on one design row per step."""
    n_train = len(ds.trajectories) - int(len(ds.trajectories) * holdout_fraction)
    steps = [
        (obs, label)
        for tr in ds.trajectories[:n_train]
        for obs, label in zip(tr.observations, tr.labels)
    ]
    x = np.array([observation_features(obs) for obs, _ in steps])
    y = np.array([[float(a in label) for a in ds.vocab] for _, label in steps])
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=0.01, size=(len(ds.vocab), x.shape[1]))
    b = np.zeros(len(ds.vocab))
    for _ in range(ground.LABEL_EPOCHS):
        grad = (ground._sigmoid(x @ w.T + b) - y) / len(x)
        w -= ground.LABEL_LR * grad.T @ x
        b -= ground.LABEL_LR * grad.sum(axis=0)
    return LabelModel(ds.vocab, "linear", weights=w, bias=b)


def row_accuracy(model, trajectories):
    """Per-atom share of the trajectories' rows that model labels right."""
    rows = [(o, label) for tr in trajectories for o, label in zip(tr.observations, tr.labels)]
    preds = [predict_labels(model, o) for o, _ in rows]
    return {
        a: sum((a in p) == (a in label) for p, (_, label) in zip(preds, rows)) / len(rows)
        for a in model.vocab
    }


@st.composite
def labelled_layouts(draw):
    """Fixed 2-4 x 2-4 layouts of 3-4 objects showing every color and shape, with an empty cell.

    So every atom holds on some cell and fails on another.
    """
    width = draw(st.integers(2, 4))
    height = draw(st.integers(2, 4))
    n = draw(st.integers(3, min(4, width * height - 1)))
    cell = st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))
    cells = draw(st.lists(cell, min_size=n, max_size=n, unique=True))

    def covering(pool):  # n values, each of pool at least once, in a drawn order
        k = n - len(pool)
        extra = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
        return draw(st.permutations(pool + tuple(extra)))

    kinds = zip(covering(COLORS), covering(SHAPES), cells)
    objects = tuple(ObjectSpec(color, shape, at) for color, shape, at in kinds)
    return GridConfig(width=width, height=height, objects=objects, episode_len=6)


class TestWeightedLabelFit:
    @settings(max_examples=40, deadline=None)
    @given(
        labelled_layouts(),
        st.integers(0, 2**31 - 1),
        st.lists(st.integers(0, 3), max_size=6),
        st.sampled_from([0.25, 0.5]),
        st.randoms(use_true_random=False),
    )
    def test_matches_per_row_descent(self, cfg, seed, repeats, holdout_fraction, order):
        walks = steps_of(generate_dataset(cfg, 4, seed=seed).trajectories)
        steps = steps_of(full_coverage_dataset(cfg).trajectories) + walks + [walks[i] for i in repeats]
        order.shuffle(steps)
        ds = GroundingDataset.from_steps(VOCAB, steps)
        trajectories = ds.trajectories
        model = train_label_model(ds, holdout_fraction=holdout_fraction, seed=seed)
        reference = per_row_fit(ds, holdout_fraction, seed)
        assert np.abs(model.weights - reference.weights).max() <= 1e-12
        assert np.abs(model.bias - reference.bias).max() <= 1e-12
        for state in cell_states(cfg).values():
            obs = encode_obs(state)
            assert predict_labels(model, obs) == predict_labels(reference, obs)
        n_train = len(trajectories) - int(len(trajectories) * holdout_fraction)
        assert model.accuracy_split == "holdout"
        assert model.holdout_accuracy == row_accuracy(reference, trajectories[n_train:])
        assert all(type(v) is float for v in model.holdout_accuracy.values())

    def test_row_counts_weigh_the_fit(self, desk_cfg):
        walks = steps_of(generate_dataset(desk_cfg, 6, seed=5).trajectories)
        # the first walk five more times: the same distinct observations, other row counts
        ds = GroundingDataset.from_steps(VOCAB, walks + walks[:1] * 5)
        model = train_label_model(ds, holdout_fraction=0.0)
        reference = per_row_fit(ds, 0.0, 0)
        assert np.abs(model.weights - reference.weights).max() <= 1e-12
        assert np.abs(model.bias - reference.bias).max() <= 1e-12
        once = train_label_model(GroundingDataset.from_steps(VOCAB, walks), holdout_fraction=0.0)
        assert np.abs(model.weights - once.weights).max() > 1e-6

    def test_more_observations_than_features_matches_per_row_descent(self):
        # randomized layouts give more distinct observations than features, so
        # the descent applies its step through x, not through x x^T + 1
        ds = generate_dataset(GridConfig(layout_mode="randomized"), 20, seed=4)
        n_features = observation_features(ds.index.obs[0]).shape[0]
        assert len(ds.index.obs) > n_features
        model = train_label_model(ds, holdout_fraction=0.1, seed=2)
        reference = per_row_fit(ds, 0.1, 2)
        assert np.abs(model.weights - reference.weights).max() <= 1e-12
        assert np.abs(model.bias - reference.bias).max() <= 1e-12
        for obs in ds.index.obs:
            assert predict_labels(model, obs) == predict_labels(reference, obs)
        n_train = len(ds.trajectories) - int(len(ds.trajectories) * 0.1)
        assert model.holdout_accuracy == row_accuracy(reference, ds.trajectories[n_train:])


class TestPvfProperties:
    @settings(max_examples=30, deadline=None)
    @given(small_layouts(), st.integers(1, 12), st.integers(0, 2**31 - 1))
    def test_monte_carlo_equals_running_sums_per_observation(self, cfg, n, seed):
        # the reference: each step's target added to its observation's running sum, in dataset order
        ds = generate_dataset(replace(cfg, episode_len=30), n, seed=seed)
        mc = train_pvfs_mc(ds, GAMMA)
        for lit in mc.literals:
            sums, counts = {}, {}
            sat = [ground.literal_satisfied(lit, label) for label in ds.index.labels]
            for tr in ds.trajectories:
                targets = mc_targets(tr.ids, sat, GAMMA)
                for obs, target in zip(tr.observations[:-1], targets):
                    key = obs_key(obs)
                    sums[key] = sums.get(key, 0.0) + target
                    counts[key] = counts.get(key, 0) + 1
            assert mc.estimators[lit].v == {k: sums[k] / counts[k] for k in sums}

    @settings(deadline=None)
    @given(small_layouts())
    def test_full_coverage_fqi_equals_exact_values(self, cfg):
        pvfs = train_pvfs_fqi(full_coverage_dataset(cfg), GAMMA)
        for atom in VOCAB:
            for positive in (True, False):
                guard = Var(atom) if positive else Not(Var(atom))
                oracle = exact_product_values(cfg, reachability_rm(VOCAB, guard), GAMMA)
                for cell, state in cell_states(cfg).items():
                    got = pvfs.value((atom, positive), encode_obs(state))
                    assert abs(got - oracle.value_at(cell, 1)) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(small_layouts(), st.integers(0, 2**31 - 1))
    def test_fitted_values_equal_value_bit_for_bit(self, cfg, seed):
        ds = generate_dataset(cfg, 3, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            linear = train_pvfs_fqi(full_coverage_dataset(cfg), GAMMA, backend="linear", iters=5)
        observations = [encode_obs(s) for s in cell_states(cfg).values()]
        for pvfs in (train_pvfs_fqi(ds, GAMMA), train_pvfs_mc(ds, GAMMA), linear):
            assert_values_match(pvfs, observations)

    @settings(max_examples=30, deadline=None)
    @given(small_layouts(), st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_fqi_and_mc_key_the_observations_acted_from(self, cfg, n, seed):
        ds = generate_dataset(replace(cfg, episode_len=4), n, seed=seed)
        acted = {ds.index.keys[i] for tr in ds.trajectories for i in tr.ids[:-1]}
        for pvfs in (train_pvfs_fqi(ds, GAMMA), train_pvfs_mc(ds, GAMMA)):
            assert all(set(est.v) == acted for est in pvfs.estimators.values())

    @settings(max_examples=50, deadline=None)
    @given(small_layouts(), st.integers(0, 2**31 - 1))
    def test_save_load_preserves_every_value(self, cfg, seed):
        ds = generate_dataset(cfg, 3, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            linear = train_pvfs_fqi(full_coverage_dataset(cfg), GAMMA, backend="linear", iters=20)
        for pvfs in (train_pvfs_fqi(ds, GAMMA), train_pvfs_mc(ds, GAMMA), linear):
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "pvfs.json"
                save_pvfs(pvfs, path)
                back = load_pvfs(path)
            assert_same_pvfs(back, pvfs)
            for lit in pvfs.literals:
                for state in cell_states(cfg).values():
                    obs = encode_obs(state)
                    assert back.estimators[lit].value(obs) == pvfs.estimators[lit].value(obs)

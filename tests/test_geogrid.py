import json
import math
import random
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmgcr import cli, geogrid
from rmgcr.files import FormatError, load_dataset, save_dataset, save_pvfs
from rmgcr.ground import train_pvfs_fqi
from rmgcr.errors import OutOfRangeError
from rmgcr.geogrid import (
    ACTIONS,
    CHANNELS,
    COLORS,
    SHAPES,
    VOCAB,
    CellGraph,
    GridConfig,
    GridConfigError,
    GridState,
    GroundingDataset,
    InconsistentLabelError,
    InfeasibleConfigError,
    ObjectSpec,
    ObsIndex,
    StateSpaceTooLargeError,
    Trajectory,
    cell_states,
    encode_layout,
    encode_obs,
    episode_starts,
    full_coverage_dataset,
    generate_dataset,
    label_frequencies,
    move_table,
    obs_key,
    reset,
    seeded_index,
    step,
    true_label,
)


class TestConfig:
    def test_defaults_fill_six_objects(self):
        cfg = GridConfig()
        assert len(cfg.objects) == 6
        assert {(o.color, o.shape) for o in cfg.objects} == {
            (c, s) for c in ("red", "green", "blue") for s in ("triangle", "circle")
        }

    def test_too_many_objects(self):
        objs = tuple(ObjectSpec("red", "circle") for _ in range(5))
        with pytest.raises(InfeasibleConfigError):
            GridConfig(width=2, height=2, objects=objs, layout_mode="randomized")

    def test_overlapping_pins(self):
        objs = (ObjectSpec("red", "circle", (0, 0)), ObjectSpec("blue", "circle", (0, 0)))
        with pytest.raises(InfeasibleConfigError):
            GridConfig(objects=objs)

    def test_pin_out_of_bounds(self):
        with pytest.raises(InfeasibleConfigError):
            GridConfig(width=3, height=3, objects=(ObjectSpec("red", "circle", (5, 5)),))

    @pytest.mark.parametrize("start", [(-1, 0), (9, 9), (0, 6)])
    def test_agent_start_out_of_bounds(self, start):
        with pytest.raises(InfeasibleConfigError, match="agent_start"):
            GridConfig(agent_start=start)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            GridConfig(layout_mode="drifting")


class TestReset:
    def test_fixed_layout_ignores_seed(self, desk_cfg):
        a = reset(desk_cfg, seed=1)
        b = reset(desk_cfg, seed=999)
        assert a.placements == b.placements

    def test_randomized_deterministic_per_seed(self):
        cfg = GridConfig(layout_mode="randomized")
        assert reset(cfg, seed=42) == reset(cfg, seed=42)
        assert reset(cfg, seed=42) != reset(cfg, seed=43)

    def test_randomized_placements_valid_over_many_seeds(self):
        cfg = GridConfig(layout_mode="randomized")
        for s in range(10_000):
            st = reset(cfg, seed=s)
            cells = [cell for _, _, cell in st.placements]
            assert len(set(cells)) == len(cells)
            for r, c in cells + [st.agent]:
                assert 0 <= r < cfg.height and 0 <= c < cfg.width

    def test_agent_exclusion_flag(self):
        cfg = GridConfig(layout_mode="randomized", exclude_agent_from_objects=True)
        for s in range(200):
            st = reset(cfg, seed=s)
            assert st.agent not in {cell for _, _, cell in st.placements}

    def test_pinned_agent_start(self):
        cfg = GridConfig(agent_start=(3, 3))
        assert reset(cfg, seed=7).agent == (3, 3)


class TestStep:
    def test_boundary_no_op(self, desk_cfg):
        s = reset(desk_cfg, seed=0)
        s = s.__class__(s.width, s.height, (0, 0), s.placements)
        assert step(s, 0).agent == (0, 0)  # up off-grid
        assert step(s, 2).agent == (0, 0)  # left off-grid

    def test_moves(self, desk_cfg):
        s = reset(desk_cfg, seed=0)
        s = s.__class__(s.width, s.height, (3, 3), s.placements)
        assert step(s, 3).agent == (3, 4)
        assert step(s, 1).agent == (4, 3)

    def test_inverse_moves_return_home(self, desk_cfg):
        s = reset(desk_cfg, seed=0)
        s = s.__class__(s.width, s.height, (3, 3), s.placements)
        out = step(step(step(step(s, 0), 1), 2), 3)
        assert out.agent == s.agent

    def test_objects_static(self, desk_cfg):
        s = reset(desk_cfg, seed=0)
        assert step(s, 3).placements == s.placements


class TestLabels:
    def test_on_red_triangle(self, desk_cfg):
        s = reset(desk_cfg)
        s = s.__class__(s.width, s.height, (0, 0), s.placements)
        assert true_label(s) == frozenset({"red", "triangle"})

    def test_empty_cell(self, desk_cfg):
        s = reset(desk_cfg)
        s = s.__class__(s.width, s.height, (3, 0), s.placements)
        assert true_label(s) == frozenset()

    def test_blue_circle(self, desk_cfg):
        s = reset(desk_cfg)
        s = s.__class__(s.width, s.height, (2, 4), s.placements)
        assert true_label(s) == frozenset({"blue", "circle"})


class TestObservations:
    def test_shape_and_channels(self, desk_cfg):
        obs = encode_obs(reset(desk_cfg))
        assert obs.shape == (6, 6, 6)
        assert CHANNELS == VOCAB + ("agent",)
        assert obs[:, :, -1].sum() == 1

    def test_color_channels_disjoint(self, desk_cfg):
        obs = encode_obs(reset(desk_cfg))
        assert (obs[:, :, :3].sum(axis=2) <= 1).all()

    def test_obs_key_distinguishes_states(self, desk_cfg):
        s = reset(desk_cfg)
        assert obs_key(encode_obs(s)) != obs_key(encode_obs(step(s, 3)))


class TestDataset:
    def test_label_soundness(self, desk_cfg):
        graph = CellGraph(desk_cfg)
        label_of = {obs_key(encode_obs(s)): l for s, l in zip(graph.states, graph.labels)}
        ds = generate_dataset(desk_cfg, 5, seed=11)
        for tr in ds.trajectories:
            for obs, lab in zip(tr.observations, tr.labels):
                assert label_of[obs_key(obs)] == lab

    def test_shape(self, desk_cfg):
        ds = generate_dataset(desk_cfg, 3, seed=0)
        assert len(ds.trajectories) == 3
        for tr in ds.trajectories:
            assert len(tr.observations) == desk_cfg.episode_len + 1
            assert len(tr.actions) == desk_cfg.episode_len

    def test_degenerate_length(self):
        cfg = GridConfig(episode_len=0)
        ds = generate_dataset(cfg, 1, seed=0)
        tr = ds.trajectories[0]
        assert len(tr.observations) == 1 and tr.actions == []

    def test_n_zero_rejected(self, desk_cfg):
        with pytest.raises(ValueError):
            generate_dataset(desk_cfg, 0)

    def test_byte_stable(self, desk_cfg, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(generate_dataset(desk_cfg, 4, seed=5), p1)
        save_dataset(generate_dataset(desk_cfg, 4, seed=5), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_roundtrip(self, desk_cfg, tmp_path):
        ds = generate_dataset(desk_cfg, 3, seed=2)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.vocab == ds.vocab
        assert back.meta == ds.meta
        assert len(back.trajectories) == 3
        for a, b in zip(ds.trajectories, back.trajectories):
            assert a.actions == b.actions and a.labels == b.labels
            for oa, ob in zip(a.observations, b.observations):
                assert np.array_equal(oa, ob)

    def test_every_atom_attains_both_values(self, desk_cfg):
        ds = generate_dataset(desk_cfg, 500, seed=0)
        freqs = label_frequencies(ds)
        for atom in VOCAB:
            assert 0.0 < freqs[atom] < 1.0

    def test_full_coverage_counts(self, desk_cfg):
        ds = full_coverage_dataset(desk_cfg)
        assert len(ds.trajectories) == 6 * 6 * len(ACTIONS)
        graph = CellGraph(desk_cfg)
        cell_of = {obs_key(encode_obs(s)): cell for cell, s in zip(graph.cells, graph.states)}
        seen = {(cell_of[obs_key(tr.observations[0])], tr.actions[0]) for tr in ds.trajectories}
        assert len(seen) == 6 * 6 * len(ACTIONS)

    def test_cell_graph_matches_step_and_true_label(self, desk_cfg, corridor_cfg):
        for cfg in (desk_cfg, corridor_cfg):
            graph = CellGraph(cfg)
            assert graph.cells == list(cell_states(cfg))
            for i, s in enumerate(graph.states):
                assert graph.labels[i] == true_label(s)
                assert graph.distinct_labels[graph.label_ids[i]] == graph.labels[i]
                for a in range(len(ACTIONS)):
                    assert graph.cells[graph.next_cell[i, a]] == step(s, a).agent

    def test_cell_graph_needs_fixed_layout(self):
        with pytest.raises(StateSpaceTooLargeError):
            CellGraph(GridConfig(layout_mode="randomized"))

    def test_full_coverage_needs_fixed_layout(self):
        with pytest.raises(ValueError):
            full_coverage_dataset(GridConfig(layout_mode="randomized"))

    def test_trajectory_validation(self):
        obs = [encode_obs(reset(GridConfig()))] * 2
        with pytest.raises(ValueError, match="one action between"):
            Trajectory(ObsIndex(), [0, 0], [])
        with pytest.raises(ValueError, match="one action between"):
            GroundingDataset.from_steps(VOCAB, [(obs, [], [frozenset(), frozenset()])])
        with pytest.raises(ValueError):  # one label for two observations
            GroundingDataset.from_steps(VOCAB, [(obs, [0], [frozenset()])])


class TestInterned:
    """Every dataset holds its distinct observations once, in an ObsIndex numbered by first sight."""

    def test_ids_follow_first_appearance(self, desk_cfg):
        for ds in (generate_dataset(desk_cfg, 4, seed=6), full_coverage_dataset(desk_cfg)):
            self._assert_first_sight(ds)

    def _assert_first_sight(self, ds):
        steps = [(tr.observations, tr.actions, tr.labels) for tr in ds.trajectories]
        rebuilt = GroundingDataset.from_steps(ds.vocab, steps, ds.meta)
        first_seen = list(dict.fromkeys(obs_key(o) for obs, _, _ in steps for o in obs))
        for index in (ds.index, rebuilt.index):
            assert index.keys == first_seen
            assert len(index.obs) == len(index.labels) == len(first_seen)
            assert not any(o.flags.writeable for o in index.obs)
        assert rebuilt.index.labels == ds.index.labels and rebuilt.meta == ds.meta
        for tr, again in zip(ds.trajectories, rebuilt.trajectories):
            assert again.ids == tr.ids and again.actions == tr.actions
            for obs, label, i in zip(tr.observations, tr.labels, tr.ids):
                assert obs is ds.index.obs[i]
                assert ds.index.keys[i] == obs_key(obs) and ds.index.labels[i] == label

    def test_observation_labelled_two_ways_is_rejected(self, desk_cfg):
        obs = encode_obs(reset(desk_cfg))
        steps = [([obs], [], [frozenset()]), ([obs.copy()], [], [frozenset({"red"})])]
        with pytest.raises(InconsistentLabelError):
            GroundingDataset.from_steps(VOCAB, steps)


@st.composite
def grid_configs(draw, layouts=("fixed", "randomized")):
    """1-5 x 1-5 grids of 1-3 objects, pinned or placed per reset, walked for 0-12 steps."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    layout = draw(st.sampled_from(layouts))
    n = draw(st.integers(1, min(3, width * height)))
    if layout == "fixed":
        cell = st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))
        cells = draw(st.lists(cell, min_size=n, max_size=n, unique=True))
    else:
        cells = [None] * n
    kind = st.tuples(st.sampled_from(COLORS), st.sampled_from(SHAPES))
    kinds = draw(st.lists(kind, min_size=n, max_size=n))
    objects = tuple(ObjectSpec(color, shape, c) for (color, shape), c in zip(kinds, cells))
    return GridConfig(
        width=width,
        height=height,
        objects=objects,
        layout_mode=layout,
        episode_len=draw(st.integers(0, 12)),
    )


class TestObsIndex:
    @settings(max_examples=40, deadline=None)
    @given(cfg=grid_configs(), data=st.data())
    def test_visiting_cells_numbers_them_as_adding_their_observations(self, cfg, data):
        # the walks number a cell by visiting it, the dataset view by the observation's bytes
        seeds = data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=3))
        starts = [reset(cfg, seed=s) for s in seeds]
        cells = st.integers(0, cfg.width * cfg.height - 1)
        visits = data.draw(st.lists(st.tuples(st.integers(0, len(starts) - 1), cells)))
        visited, added = ObsIndex(), ObsIndex()
        for k, cell in visits:
            state = replace(starts[k], agent=divmod(cell, cfg.width))
            i = visited.visit(starts[k], cell)
            assert i == added.add(encode_obs(state), true_label(state))
            assert visited.cells(starts[k])[cell] == i
        assert visited.keys == added.keys and visited.labels == added.labels
        for start in starts:
            seen = {cell for j, cell in visits if starts[j].placements == start.placements}
            assert [c for c, i in enumerate(visited.cells(start)) if i >= 0] == sorted(seen)

    @settings(max_examples=40, deadline=None)
    @given(cfg=grid_configs(), seed=st.integers(0, 99))
    def test_the_cell_a_move_leads_to_holds_the_stepped_observation(self, cfg, seed):
        start = reset(cfg, seed=seed)
        moves = move_table(cfg.height, cfg.width)
        index = ObsIndex()
        for cell in range(cfg.width * cfg.height):
            state = replace(start, agent=divmod(cell, cfg.width))
            for a in range(len(ACTIONS)):
                i = index.visit(start, int(moves[cell, a]))
                assert np.array_equal(index.obs[i], encode_obs(step(state, a)))
                assert index.labels[i] == true_label(step(state, a))

    def test_read_only_and_labelled_once(self, desk_cfg):
        obs = encode_obs(reset(desk_cfg))
        index = ObsIndex()
        assert index.add(obs, frozenset()) == index.add(obs.copy(), frozenset()) == 0
        assert obs.flags.writeable and not index.obs[0].flags.writeable
        with pytest.raises(InconsistentLabelError):
            index.add(obs, frozenset({"red"}))


class TestSeededIndex:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.one_of(
            st.integers(0, 2**32 - 1),
            st.integers(0, 2**63 - 1),
            st.integers(0, 2**128 - 1),
            st.integers(2**128, 2**300),
        ),
        # rejection-heavy ranges: 3 * 2**30 + 1 rejects a quarter of the draws, 2**31 + 1 half
        n=st.one_of(
            st.sampled_from([1, 2, 36, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1, 2**32]), st.integers(1, 2**32)
        ),
    )
    def test_equals_a_fresh_generator(self, seed, n):
        assert seeded_index(seed, n) == int(np.random.default_rng(seed).integers(n))

    def test_rejections_fall_on_the_high_half_then_on_fresh_outputs(self):
        # a quarter of the low halves are rejected at this range: count the 32-bit halves each draw takes
        n = 3 * 2**30 + 1
        halves = set()
        for seed in range(300):
            bits = np.random.PCG64(seed)
            assert seeded_index(seed, n) == int(np.random.Generator(bits).integers(n))
            state = bits.state
            for outputs in range(1, 10):
                fresh = np.random.PCG64(seed)
                fresh.advance(outputs)
                if fresh.state["state"] == state["state"]:
                    halves.add(2 * outputs - state["has_uint32"])
                    break
        assert {1, 2, 3, 4} <= halves

    def test_negative_seed_is_out_of_range(self):
        with pytest.raises(OutOfRangeError, match="seed must be non-negative, not -1"):
            seeded_index(-1, 36)
        with pytest.raises(OutOfRangeError, match="seed must be non-negative, not -1"):
            generate_dataset(GridConfig(), 1, seed=-1)


class TestEpisodeStarts:
    @settings(max_examples=60, deadline=None)
    @given(cfg=grid_configs(), data=st.data())
    def test_a_start_is_the_layout_and_cell_of_reset(self, cfg, data):
        cell = st.tuples(st.integers(0, cfg.height - 1), st.integers(0, cfg.width - 1))
        cfg = replace(
            cfg,
            exclude_agent_from_objects=data.draw(st.booleans()),
            agent_start=data.draw(st.one_of(st.none(), cell)),
        )
        full = len(cfg.objects) == cfg.width * cfg.height
        if full and cfg.exclude_agent_from_objects and cfg.agent_start is None:
            with pytest.raises(InfeasibleConfigError):  # no free cell, as reset finds too
                episode_starts(cfg, ObsIndex())(0)
            return
        index = ObsIndex()
        starts = episode_starts(cfg, index)
        seeds = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5))
        for seed in seeds:
            state, ids, cell = starts(seed)
            want = reset(cfg, seed)
            assert state.placements == want.placements
            assert divmod(cell, cfg.width) == want.agent
            assert ids is index.cells(state)
        if cfg.layout_mode == "fixed":
            assert len({id(starts(seed)[1]) for seed in seeds}) == 1

    def test_negative_config_seed_is_a_config_error(self):
        with pytest.raises(GridConfigError, match="seed must be non-negative, not -5"):
            GridConfig(seed=-5)


class TestDatasetFile:
    def _assert_preserved(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(ds, Path(tmp) / "ds.jsonl")
            back = load_dataset(Path(tmp) / "ds.jsonl")
            save_dataset(back, Path(tmp) / "again.jsonl")
            assert (Path(tmp) / "again.jsonl").read_bytes() == (Path(tmp) / "ds.jsonl").read_bytes()
        assert back.vocab == ds.vocab and back.meta == ds.meta
        # the table form itself: the same index, and the same ids and actions per trajectory
        assert back.index.keys == ds.index.keys and back.index.labels == ds.index.labels
        assert [(tr.ids, tr.actions) for tr in back.trajectories] == [
            (tr.ids, tr.actions) for tr in ds.trajectories
        ]
        for a, b in zip(ds.trajectories, back.trajectories):
            assert b.actions == a.actions and b.labels == a.labels
            assert len(b.observations) == len(a.observations)
            for oa, ob in zip(a.observations, b.observations):
                assert ob.dtype == np.uint8 and ob.shape == oa.shape
                assert np.array_equal(ob, oa) and not ob.flags.writeable
        # one shared array per distinct observation
        loaded = [o for tr in back.trajectories for o in tr.observations]
        assert len({id(o) for o in loaded}) == len({obs_key(o) for o in loaded})

    @settings(max_examples=60, deadline=None)
    @given(grid_configs(), st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_save_load_preserves_generated_datasets(self, cfg, n, seed):
        self._assert_preserved(generate_dataset(cfg, n, seed=seed))

    @settings(max_examples=20, deadline=None)
    @given(grid_configs(layouts=("fixed",)))
    def test_save_load_preserves_full_coverage_datasets(self, cfg):
        self._assert_preserved(full_coverage_dataset(cfg))

    def test_file_holds_each_distinct_observation_once(self, desk_cfg, tmp_path):
        ds = generate_dataset(desk_cfg, 20, seed=4)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        header, *records = [json.loads(line) for line in path.read_text().splitlines()]
        distinct = {obs_key(o) for tr in ds.trajectories for o in tr.observations}
        assert header["format_version"] == 2
        assert len(header["observations"]) == len(header["labels"]) == len(distinct)
        assert [sorted(r) for r in records] == [["actions", "ids"]] * 20

    @settings(max_examples=40, deadline=None)
    @given(
        grid_configs(), st.integers(1, 6), st.integers(0, 2**31 - 1), st.randoms(use_true_random=False)
    )
    def test_a_scrambled_table_loads_to_first_use_ids(self, cfg, n, seed, rnd):
        ds = generate_dataset(cfg, n, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            canonical, scrambled = Path(tmp) / "ds.jsonl", Path(tmp) / "scrambled.jsonl"
            save_dataset(ds, canonical)
            _write_scrambled(canonical, scrambled, rnd)
            back = load_dataset(scrambled)
            pvfs = []
            for path in (canonical, scrambled):
                out = path.with_suffix(".pvfs.json")
                save_pvfs(train_pvfs_fqi(load_dataset(path), 0.9), out)
                pvfs.append(out.read_bytes())
        assert back.index.keys == ds.index.keys and back.index.labels == ds.index.labels
        assert [tr.ids for tr in back.trajectories] == [tr.ids for tr in ds.trajectories]
        assert pvfs[0] == pvfs[1]

    def test_a_scrambled_table_grounds_to_the_canonical_files(self, desk_cfg, tmp_path):
        canonical, scrambled = tmp_path / "ds.jsonl", tmp_path / "scrambled.jsonl"
        save_dataset(generate_dataset(desk_cfg, 30, seed=12), canonical)
        _write_scrambled(canonical, scrambled, random.Random(3))
        outputs = []
        for path in (canonical, scrambled):
            models = tmp_path / path.stem
            assert cli.main(["ground", "--dataset", str(path), "--out", str(models)]) == 0
            files = ("label_model.json", "pvfs.json", "metrics.json")
            outputs.append([(models / f).read_bytes() for f in files])
        assert outputs[0] == outputs[1]

    def test_observations_of_two_shapes_are_not_saved(self, tmp_path):
        steps = [([np.zeros((1, 2, 6), np.uint8), np.ones((2, 1, 6), np.uint8)], [0], [frozenset()] * 2)]
        with pytest.raises(ValueError, match="one shape"):
            save_dataset(GroundingDataset.from_steps(VOCAB, steps), tmp_path / "ds.jsonl")

    def test_loading_a_table_that_labels_an_observation_two_ways_is_rejected(self, desk_cfg, tmp_path):
        # the same observation bytes twice in the table with two labels, both used; the CLI
        # turns this into exit 3 (tests/test_cli.py::TestGround)
        path = tmp_path / "ds.jsonl"
        save_dataset(generate_dataset(desk_cfg, 2, seed=0), path)
        header, *records = [json.loads(line) for line in path.read_text().splitlines()]
        header["observations"].append(header["observations"][0])
        header["labels"].append([] if header["labels"][0] else ["red"])
        records[1]["ids"][-1] = len(header["labels"]) - 1
        path.write_text("".join(json.dumps(r) + "\n" for r in (header, *records)))
        with pytest.raises(InconsistentLabelError, match="labelled both"):
            load_dataset(path)


def _write_scrambled(canonical, out, rnd):
    """Rewrite a canonical dataset file with the same content, its table out of first-use order.

    The table is shuffled, gains one entry no trajectory uses, and its first
    entry gains a second copy (same bytes and label) that every other use
    of it names instead.
    """
    header, *records = [json.loads(line) for line in Path(canonical).read_text().splitlines()]
    entries = list(zip(header["observations"], header["labels"]))
    shape = entries[0][0][0]
    unused = ([shape, "00" * math.prod(shape)], [])  # no agent channel set: no walk shows it
    copy = len(entries)
    entries += [entries[0], unused]
    order = list(range(len(entries)))
    rnd.shuffle(order)  # order[new position] = old entry
    new_id = {old: new for new, old in enumerate(order)}
    uses = 0
    for record in records:
        for t, i in enumerate(record["ids"]):
            if i == 0:
                uses += 1
                i = copy if uses % 2 == 0 else 0
            record["ids"][t] = new_id[i]
    header["observations"] = [entries[k][0] for k in order]
    header["labels"] = [entries[k][1] for k in order]
    Path(out).write_text("".join(json.dumps(r) + "\n" for r in (header, *records)))


def _set(path, value):
    """A tamper that sets header or record field path ('header'/'record', key, ...) to value."""

    def tamper(header, records):
        target = header if path[0] == "header" else records[0]
        for key in path[1:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value

    return tamper


def _drop(path):
    """A tamper that deletes header or record field path ('header'/'record', key)."""

    def tamper(header, records):
        del (header if path[0] == "header" else records[0])[path[1]]

    return tamper


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_set(("header", "format_version"), 3), "unsupported dataset format 3"),
        (_set(("record", "ids", 0), 10**6), "names an observation id outside 0.."),
        (_set(("record", "ids", 0), -1), "names an observation id outside 0.."),
        (_set(("header", "labels", 0), ["red", "purple"]), "['purple'] outside the vocabulary"),
        (_set(("header", "observations", 0, 1), lambda h: h[:-2]), "430 hex digits"),
        (_set(("header", "observations", 0, 0), [6, 6, 5]), "shape [6, 6, 5] needs 360"),
        (_set(("header", "observations", 0, 0), [6, -6, -6]), "not a list of sizes"),
        (_set(("header", "observations", 0, 1), lambda h: "zz" + h[2:]), "is not hex"),
        (_set(("record", "actions"), lambda a: a[:-1]), "61 ids for 59 actions"),
        (_set(("record", "ids"), []), "0 ids for 60 actions"),
        (_set(("record", "actions", 0), 4), "an action outside 0..3"),
        (_set(("record", "actions", 0), -1), "an action outside 0..3"),
        (lambda h, r: [], "is empty"),
        (lambda h, r: ["{", *map(json.dumps, r)], "the header is not JSON"),
        (lambda h, r: [json.dumps([h]), *map(json.dumps, r)], "the header is not a JSON object"),
        (_drop(("header", "vocab")), "the header lacks vocab"),
        (_drop(("header", "observations")), "the header lacks observations"),
        (_drop(("header", "labels")), "the header lacks labels"),
        (lambda h, r: [json.dumps(h), json.dumps(r[0])[:-1]], "trajectory 0 is not JSON"),
        (lambda h, r: [json.dumps(h), json.dumps(r[0]), "7"], "trajectory 1 is not a JSON object"),
        (_drop(("record", "ids")), "trajectory 0 lacks ids"),
        (_drop(("record", "actions")), "trajectory 0 lacks actions"),
        (_set(("header", "vocab"), 5), "the header field 'vocab' must be a list of strings, not 5"),
        (_set(("header", "labels"), 5), "the header field 'labels' must be a list of lists of strings"),
        (_set(("record", "ids"), "ab"), "trajectory 0 field 'ids' must be a list, not 'ab'"),
        (_set(("header", "observations", 1, 0), [36, 6]), "table entry 1 has shape [36, 6], not [6, 6, 6]"),
    ],
    ids=[
        "unknown-version",
        "id-past-end",
        "negative-id",
        "label-outside-vocab",
        "short-hex",
        "shape-mismatch",
        "negative-sizes",
        "not-hex",
        "actions-short",
        "no-ids",
        "action-past-end",
        "negative-action",
        "empty-file",
        "header-not-json",
        "header-not-object",
        "no-vocab",
        "no-observations",
        "no-labels",
        "record-not-json",
        "record-not-object",
        "record-without-ids",
        "record-without-actions",
        "vocab-a-number",
        "labels-a-number",
        "ids-a-string",
        "other-shape",
    ],
)
def test_malformed_dataset_is_a_format_error(desk_cfg, tmp_path, tamper, message):
    # a tamper edits the parsed lines in place, or returns the lines to write instead
    path = tmp_path / "ds.jsonl"
    save_dataset(generate_dataset(desk_cfg, 2, seed=0), path)
    header, *records = [json.loads(line) for line in path.read_text().splitlines()]
    lines = tamper(header, records)
    if lines is None:
        lines = [json.dumps(r) for r in (header, *records)]
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(FormatError, match=re.escape(message)):
        load_dataset(path)


class TestGenerateOncePerState:
    @pytest.mark.parametrize("layout", ["fixed", "randomized"])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_steps_match_a_replayed_walk(self, layout, seed, data):
        # one rng.integers call per step pins the batched draw of a trajectory's actions
        cfg = data.draw(grid_configs(layouts=(layout,)))
        ds = generate_dataset(cfg, data.draw(st.integers(1, 6)), seed=seed)
        for i, tr in enumerate(ds.trajectories):
            rng = np.random.default_rng((seed, i))
            states = [reset(cfg, seed=int(rng.integers(2**63)))]
            actions = [int(rng.integers(len(ACTIONS))) for _ in range(cfg.episode_len)]
            for a in actions:
                states.append(step(states[-1], a))
            assert tr.actions == actions
            assert tr.labels == [true_label(s) for s in states]
            for obs, s in zip(tr.observations, states):
                want = encode_obs(s)
                assert obs.dtype == want.dtype and np.array_equal(obs, want)

    @settings(max_examples=40, deadline=None)
    @given(grid_configs())
    def test_move_table_follows_step_and_is_the_cell_graphs(self, cfg):
        states = cell_states(cfg)  # keyed by cell in row-major order
        moves = move_table(cfg.height, cfg.width)
        assert moves.shape == (len(states), len(ACTIONS)) and not moves.flags.writeable
        cells = list(states)
        for i, state in enumerate(states.values()):
            for a in range(len(ACTIONS)):
                assert cells[moves[i, a]] == step(state, a).agent
        if cfg.layout_mode == "fixed":
            assert np.array_equal(CellGraph(cfg).next_cell, moves)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6))
    def test_move_table_equals_step_on_every_cell_and_action(self, height, width):
        moves = move_table(height, width)
        for cell in range(height * width):
            state = GridState(width, height, divmod(cell, width), ())
            for a in range(len(ACTIONS)):
                assert divmod(int(moves[cell, a]), width) == step(state, a).agent

    def test_each_distinct_state_is_encoded_once_and_shared(self, desk_cfg, monkeypatch):
        counts = {"encode_obs": 0, "true_label": 0}
        for name in counts:
            original = getattr(geogrid, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(geogrid, name, counted)
        ds = generate_dataset(desk_cfg, 30, seed=8)
        steps = [o for tr in ds.trajectories for o in tr.observations]
        distinct = {obs_key(o) for o in steps}
        assert len(steps) == 30 * 61 and len(distinct) <= 36
        assert counts == {"encode_obs": len(distinct), "true_label": len(distinct)}
        assert len({id(o) for o in steps}) == len(distinct)
        assert not any(o.flags.writeable for o in steps)


class TestLayoutEncoding:
    @settings(max_examples=60, deadline=None)
    @given(cfg=grid_configs(), seed=st.integers(0, 99))
    def test_one_array_equals_encode_obs_on_every_cell(self, cfg, seed):
        start = reset(cfg, seed=seed)
        want = [encode_obs(replace(start, agent=divmod(i, cfg.width))) for i in range(cfg.width * cfg.height)]
        got = encode_layout(start)
        assert got.dtype == want[0].dtype and got.shape == (len(want), *want[0].shape)
        assert [o.tobytes() for o in got] == [o.tobytes() for o in want]

    @settings(max_examples=60, deadline=None)
    @given(grid_configs())
    def test_cell_states_are_reset_with_the_agent_moved(self, cfg):
        # a fixed layout's are placed from the config, with no start draw
        base = reset(cfg)
        assert cell_states(cfg) == {
            (r, c): replace(base, agent=(r, c)) for r in range(cfg.height) for c in range(cfg.width)
        }

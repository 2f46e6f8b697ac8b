"""Deterministic, seedable gridworld with coloured/shaped objects.

The agent moves on a rectangular grid holding objects that each have a
colour and a shape. The ground-truth labelling reports the colour and
shape atoms of the object under the agent, if any. A random-walk dataset
generator produces labelled trajectories for offline grounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

COLORS = ("red", "green", "blue")
SHAPES = ("triangle", "circle")
VOCAB = COLORS + SHAPES
CHANNELS = VOCAB + ("agent",)

ACTIONS = ("up", "down", "left", "right")
_MOVES = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1)}

DATASET_FORMAT_VERSION = 2

Cell = tuple[int, int]


class InfeasibleConfigError(ValueError):
    pass


class GridConfigError(ValueError):
    """A grid config has an unknown field, or a field of the wrong type or value."""


class InconsistentLabelError(ValueError):
    """A dataset gives one observation two different labels."""


class DatasetFormatError(ValueError):
    """A dataset file is of another format version, or its records do not fit together."""


class StateSpaceTooLargeError(ValueError):
    """The states of a layout cannot be enumerated: it is randomized, or over a size cap."""


class OutOfRangeError(ValueError):
    """A numeric setting outside its range: a seed, a discount, a threshold, a fraction or a weight."""


def check_seed(name: str, value: int) -> None:
    """Raise OutOfRangeError if value is negative, which numpy's seeding refuses."""
    if value < 0:
        raise OutOfRangeError(f"{name} must be non-negative, not {value!r}")


# one of each colour x shape, laid out so the subgoal cycle is walkable
DEFAULT_FIXED_CELLS: dict[tuple[str, str], Cell] = {
    ("red", "triangle"): (0, 0),
    ("red", "circle"): (0, 2),
    ("blue", "triangle"): (0, 4),
    ("blue", "circle"): (2, 4),
    ("green", "triangle"): (4, 4),
    ("green", "circle"): (4, 2),
}


@dataclass(frozen=True)
class ObjectSpec:
    color: str
    shape: str
    cell: Optional[Cell] = None  # pinned cell; None means placed by the layout


@dataclass(frozen=True)
class GridConfig:
    width: int = 6
    height: int = 6
    objects: tuple[ObjectSpec, ...] = ()
    layout_mode: str = "fixed"  # "fixed" | "randomized"
    episode_len: int = 60
    seed: int = 0
    agent_start: Optional[Cell] = None  # None: random cell each reset
    exclude_agent_from_objects: bool = False

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise GridConfigError("grid dimensions must be positive")
        if self.layout_mode not in ("fixed", "randomized"):
            raise GridConfigError(f"unknown layout_mode {self.layout_mode!r}")
        if self.episode_len < 0:
            raise GridConfigError("episode_len must be non-negative")
        if self.seed < 0:
            raise GridConfigError(f"seed must be non-negative, not {self.seed!r}")
        if not self.objects:
            object.__setattr__(
                self,
                "objects",
                tuple(
                    ObjectSpec(c, s, DEFAULT_FIXED_CELLS[(c, s)] if self.layout_mode == "fixed" else None)
                    for c in COLORS
                    for s in SHAPES
                ),
            )
        for obj in self.objects:
            if obj.color not in COLORS or obj.shape not in SHAPES:
                raise GridConfigError(f"bad object entry: {obj}")
        if len(self.objects) > self.width * self.height:
            raise InfeasibleConfigError("more objects than cells")
        if self.layout_mode == "fixed":
            cells = [o.cell for o in self.objects]
            if any(c is None for c in cells):
                raise GridConfigError("fixed layout requires a pinned cell on every object")
            if len(set(cells)) != len(cells):
                raise InfeasibleConfigError("pinned objects overlap")
            for r, c in cells:
                if not (0 <= r < self.height and 0 <= c < self.width):
                    raise InfeasibleConfigError(f"pinned cell ({r},{c}) out of bounds")
        if self.agent_start is not None:
            r, c = self.agent_start
            if not (0 <= r < self.height and 0 <= c < self.width):
                raise InfeasibleConfigError(f"agent_start ({r},{c}) out of bounds")


@dataclass(frozen=True)
class GridState:
    width: int
    height: int
    agent: Cell
    placements: tuple[tuple[str, str, Cell], ...]  # (color, shape, cell)


def _start_options(cfg: GridConfig, placements) -> tuple[int, ...]:
    """The row-major cells a random agent start may take among these placements."""
    occupied = {cell for _, _, cell in placements} if cfg.exclude_agent_from_objects else set()
    n_cells = cfg.width * cfg.height
    return tuple(i for i in range(n_cells) if (i // cfg.width, i % cfg.width) not in occupied)


# for seeded_index: PCG64's multiplier, and the (pool word, xor, multiplier) of the eight hashmix
# calls of SeedSequence.generate_state(4, uint64), whose constants never depend on the data
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_STATE_CONSTS = [
    (k % 4, 0x8B51F9DD * 0x58F38DED**k & _M32, 0x8B51F9DD * 0x58F38DED ** (k + 1) & _M32) for k in range(8)
]


def seeded_index(seed: int, n: int) -> int:
    """int(np.random.default_rng(seed).integers(n)) for 1 <= n <= 2**32 at two thirds of its cost: after
    SeedSequence(seed), numpy's rules run here. generate_state(4, uint64) seeds PCG64, and Lemire's method
    draws on the 32-bit halves of its XSL-RR outputs, low half first. Raises OutOfRangeError if seed < 0."""
    check_seed("seed", seed)
    pool = np.random.SeedSequence(seed).pool.tolist()
    w = [(h := (pool[src] ^ x) * m & _M32) ^ h >> 16 for src, x, m in _STATE_CONSTS]
    # the state's 64-bit words seed PCG64, high first, then its stream: step from 0, add, step
    inc = ((w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32) << 1 & _M128 | 1
    state = ((inc + ((w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32)) * _PCG64_MULT + inc) & _M128
    threshold, halves = (1 << 32) % n, []
    while True:
        if not halves:  # the next output: step, then xor-shift low and rotate right
            state = (state * _PCG64_MULT + inc) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            x = (x >> rot | x << (64 - rot)) & _M64
            halves = [x >> 32, x & _M32]
        m = halves.pop() * n
        if m & _M32 >= threshold:
            return m >> 32


def reset(cfg: GridConfig, seed: Optional[int] = None) -> GridState:
    """Initial state; a deterministic function of (cfg, seed)."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    if cfg.layout_mode == "fixed":
        placements = tuple((o.color, o.shape, o.cell) for o in cfg.objects)
    else:
        n_cells = cfg.width * cfg.height
        pinned = [o for o in cfg.objects if o.cell is not None]
        free = [o for o in cfg.objects if o.cell is None]
        taken = {o.cell for o in pinned}
        available = [i for i in range(n_cells) if (i // cfg.width, i % cfg.width) not in taken]
        if len(free) > len(available):
            raise InfeasibleConfigError("more objects than cells")
        chosen = rng.choice(len(available), size=len(free), replace=False)
        cells = [(available[i] // cfg.width, available[i] % cfg.width) for i in chosen]
        placements = tuple(
            [(o.color, o.shape, o.cell) for o in pinned]
            + [(o.color, o.shape, cell) for o, cell in zip(free, cells)]
        )
    if cfg.agent_start is not None:
        agent = cfg.agent_start
    else:
        options = _start_options(cfg, placements)
        if not options:
            raise InfeasibleConfigError("no free cell for the agent")
        i = int(rng.integers(len(options)))
        agent = (options[i] // cfg.width, options[i] % cfg.width)
    return GridState(cfg.width, cfg.height, agent, placements)


def episode_starts(cfg: GridConfig, index: ObsIndex) -> Callable[[int], tuple[GridState, list[int], int]]:
    """A function from seed to (state, index.cells(state), cell) of reset(cfg, seed): state has the
    start's layout, not always its agent, and cell is the agent's row-major cell. A fixed layout with
    a random start builds state and ids once, and then costs one seeded_index per start."""
    def start(seed):
        state = reset(cfg, seed)
        return state, index.cells(state), state.agent[0] * cfg.width + state.agent[1]

    if cfg.layout_mode == "randomized" or cfg.agent_start is not None:
        return start
    state, ids, _ = start(cfg.seed)
    options = _start_options(cfg, state.placements)
    return lambda seed: (state, ids, options[seeded_index(seed, len(options))])


def move(cell: int, action: int, height: int, width: int) -> int:
    """The row-major cell that action leads to from cell on a height x width grid.

    The one home of the grid's moves: off-grid moves are no-ops.
    """
    dr, dc = _MOVES[action]
    r, c = divmod(cell, width)
    r, c = r + dr, c + dc
    return r * width + c if 0 <= r < height and 0 <= c < width else cell


def step(s: GridState, action: int) -> GridState:
    """Move one cell; off-grid moves are no-ops. Objects are static."""
    cell = move(s.agent[0] * s.width + s.agent[1], int(action), s.height, s.width)
    return GridState(s.width, s.height, divmod(cell, s.width), s.placements)


def true_label(s: GridState) -> frozenset[str]:
    """Ground-truth labelling: colour and shape atoms of the object under the agent."""
    for color, shape, cell in s.placements:
        if cell == s.agent:
            return frozenset((color, shape))
    return frozenset()


def encode_obs(s: GridState) -> np.ndarray:
    """height x width x 6 binary tensor, channels (red, green, blue, triangle, circle, agent)."""
    obs = np.zeros((s.height, s.width, len(CHANNELS)), dtype=np.uint8)
    for color, shape, (r, c) in s.placements:
        obs[r, c, CHANNELS.index(color)] = 1
        obs[r, c, CHANNELS.index(shape)] = 1
    obs[s.agent[0], s.agent[1], CHANNELS.index("agent")] = 1
    return obs


def cell_states(cfg: GridConfig) -> dict[Cell, GridState]:
    """reset(cfg) with the agent moved to each cell in turn, keyed by cell in row-major order.

    On a fixed layout these are all the states the grid can be in;
    encode_obs of each is the observation with the agent there.
    """
    base = reset(cfg)
    return {
        (r, c): GridState(base.width, base.height, (r, c), base.placements)
        for r in range(cfg.height)
        for c in range(cfg.width)
    }


def move_table(height: int, width: int) -> np.ndarray:
    """Read-only [cell, action] -> next cell over the row-major cells of a height x width grid.

    Placements do not affect a move, so one table serves every layout of
    the grid.
    """
    n_actions = len(ACTIONS)
    table = np.array(
        [[move(i, a, height, width) for a in range(n_actions)] for i in range(height * width)],
        dtype=np.int64,
    )
    table.flags.writeable = False
    return table


class CellGraph:
    """A fixed layout compiled once: its cells, their moves and their true labels.

    Cell i is the i-th cell in row-major order, as in cell_states: cells[i]
    is its (row, col), states[i] its state and labels[i] its true label with
    the agent there, and next_cell[i, a] is the cell that action a leads to.
    The few distinct labels are distinct_labels, and labels[i] is
    distinct_labels[label_ids[i]]. Observations are left to
    encode_obs(states[i]): together they would take cells^2 * 6 bytes.
    Built once per layout and then only read.
    """

    def __init__(self, cfg: GridConfig):
        if cfg.layout_mode != "fixed":
            raise StateSpaceTooLargeError("randomized layouts are not enumerable")
        self.cfg = cfg
        by_cell = cell_states(cfg)
        self.cells: list[Cell] = list(by_cell)
        self.states: list[GridState] = list(by_cell.values())
        self.labels = [true_label(s) for s in self.states]
        self.distinct_labels = sorted(set(self.labels), key=sorted)
        self.label_ids = np.array([self.distinct_labels.index(l) for l in self.labels])
        self.index = {cell: i for i, cell in enumerate(self.cells)}
        self.next_cell = move_table(cfg.height, cfg.width)
        self.label_ids.flags.writeable = False


def obs_key(obs: np.ndarray) -> bytes:
    """Hashable exact key for tabular backends."""
    return obs.tobytes()


class ObsIndex:
    """The distinct observations met on a grid, numbered by dense id in order of first sight.

    Per id: keys[i], the observation's bytes; obs[i], the observation as a
    read-only array; labels[i], its label. add numbers an observation by its
    bytes. cells(state) is the list of ids of state's layout by row-major
    cell, -1 until visit(state, cell) encodes and labels the cell; a walk
    fetches that list once per trajectory and visits only cells that hold -1.
    """

    def __init__(self):
        self.keys: list[bytes] = []
        self.obs: list[np.ndarray] = []
        self.labels: list[frozenset[str]] = []
        self._by_key: dict[bytes, int] = {}
        self._by_layout: dict[tuple, list[int]] = {}  # placements -> id per cell

    def add(self, obs: np.ndarray, label: frozenset[str]) -> int:
        """The id of obs, added on first sight; raises InconsistentLabelError on a second label."""
        key = obs.tobytes()  # obs_key, inlined: from_steps adds every step of a dataset
        i = self._by_key.get(key)
        if i is None:
            i = self._by_key[key] = len(self.keys)
            self.keys.append(key)
            self.obs.append(np.frombuffer(key, obs.dtype).reshape(obs.shape))  # read-only
            self.labels.append(label)
        elif self.labels[i] != label:
            raise InconsistentLabelError(
                f"an observation is labelled both {sorted(self.labels[i])} and {sorted(label)}"
            )
        return i

    def cells(self, state: GridState) -> list[int]:
        """The id of each row-major cell of state's layout, -1 for a cell not yet visited."""
        ids = self._by_layout.get(state.placements)
        if ids is None:
            ids = self._by_layout[state.placements] = [-1] * (state.width * state.height)
        return ids

    def visit(self, state: GridState, cell: int) -> int:
        """The id of state's layout with the agent on row-major cell, encoded and labelled once."""
        ids = self.cells(state)
        if ids[cell] < 0:
            at = GridState(state.width, state.height, divmod(cell, state.width), state.placements)
            ids[cell] = self.add(encode_obs(at), true_label(at))
        return ids[cell]


@dataclass
class Trajectory:
    """A walk: step t's observation is index entry ids[t] and actions[t] follows it.

    observations and labels give one entry per step; the library reads ids.
    """

    index: ObsIndex = field(repr=False)
    ids: list[int]
    actions: list[int]

    def __post_init__(self):
        if len(self.actions) != len(self.ids) - 1:
            raise ValueError("need exactly one action between consecutive observations")

    @property
    def observations(self) -> list[np.ndarray]:
        return [self.index.obs[i] for i in self.ids]

    @property
    def labels(self) -> list[frozenset[str]]:
        return [self.index.labels[i] for i in self.ids]


@dataclass
class GroundingDataset:
    """Labelled walks in table form: the trajectories' ids number the observations in index."""

    vocab: tuple[str, ...]
    index: ObsIndex
    trajectories: list[Trajectory]
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_steps(cls, vocab, steps, meta=None) -> GroundingDataset:
        """The dataset of (observations, actions, labels) per trajectory; ids follow first sight."""
        index = ObsIndex()
        trajectories = [
            Trajectory(index, [index.add(o, l) for o, l in zip(obs, labels, strict=True)], list(acts))
            for obs, acts, labels in steps
        ]
        return cls(tuple(vocab), index, trajectories, dict(meta or {}))


def generate_dataset(
    cfg: GridConfig,
    n_trajectories: int,
    seed: Optional[int] = None,
) -> GroundingDataset:
    """Random-walk trajectories of length cfg.episode_len with ground-truth labels.

    Reproducible: trajectory i uses the RNG stream (seed, i), drawing its
    start's seed (for episode_starts) and then all its actions in one call,
    the same stream as one draw per step. The walk follows move_table by
    cell id and numbers its cells through one ObsIndex, so each distinct
    state is encoded and labelled on its first visit; the dataset keeps
    that index, and each trajectory the ids of its steps.
    """
    if n_trajectories < 1:
        raise ValueError("need at least one trajectory")
    root = cfg.seed if seed is None else seed
    check_seed("seed", root)
    moves = move_table(cfg.height, cfg.width).tolist()
    index = ObsIndex()
    trajectories = []
    starts = episode_starts(cfg, index)
    for i in range(n_trajectories):
        rng = np.random.default_rng((root, i))
        start, ids, cell = starts(int(rng.integers(2**63)))
        actions = rng.integers(len(ACTIONS), size=cfg.episode_len).tolist()
        steps = [index.visit(start, cell)]
        for a in actions:
            cell = moves[cell][a]
            k = ids[cell]
            steps.append(k if k >= 0 else index.visit(start, cell))
        trajectories.append(Trajectory(index, steps, actions))
    meta = {"seed": root, "policy": "random", "config": config_to_dict(cfg)}
    return GroundingDataset(VOCAB, index, trajectories, meta)


def full_coverage_dataset(cfg: GridConfig) -> GroundingDataset:
    """One-step trajectories covering every (cell, action) pair of a fixed layout.

    Gives tabular offline training an exact view of the deterministic
    dynamics, so fitted values can match exact value iteration.
    """
    graph = CellGraph(cfg)
    index = ObsIndex()
    start = graph.states[0]
    trajectories = [
        Trajectory(index, [index.visit(start, i), index.visit(start, j)], [a])
        for i, row in enumerate(graph.next_cell.tolist())
        for a, j in enumerate(row)
    ]
    meta = {"seed": cfg.seed, "policy": "exhaustive", "config": config_to_dict(cfg)}
    return GroundingDataset(VOCAB, index, trajectories, meta)


# ---------------------------------------------------------------------------
# Serialization (line-delimited JSON; header record then one per trajectory)


def config_to_dict(cfg: GridConfig) -> dict:
    return {
        "width": cfg.width,
        "height": cfg.height,
        "objects": [[o.color, o.shape, list(o.cell) if o.cell else None] for o in cfg.objects],
        "layout_mode": cfg.layout_mode,
        "episode_len": cfg.episode_len,
        "seed": cfg.seed,
        "agent_start": list(cfg.agent_start) if cfg.agent_start else None,
        "exclude_agent_from_objects": cfg.exclude_agent_from_objects,
    }


def config_from_dict(d: dict) -> GridConfig:
    """The GridConfig of a mapping shaped as config_to_dict writes it; missing fields take defaults.

    Raises GridConfigError if d is not a dict, names a field GridConfig
    lacks, or gives a field a value of the wrong JSON type.
    """
    if not isinstance(d, dict):
        raise GridConfigError(f"a grid config must be a JSON object, not {type(d).__name__}")
    unknown = set(d) - {f.name for f in fields(GridConfig)}
    if unknown:
        raise GridConfigError(f"unknown grid config fields {sorted(unknown)}")
    d = {**config_to_dict(GridConfig()), **d}

    def is_int(v):
        return type(v) is int

    def is_cell(v):
        return v is None or (isinstance(v, list) and len(v) == 2 and all(map(is_int, v)))

    def is_object(v):
        return (
            isinstance(v, list)
            and len(v) == 3
            and isinstance(v[0], str)
            and isinstance(v[1], str)
            and is_cell(v[2])
        )

    for name, ok, what in (
        ("width", is_int, "an integer"),
        ("height", is_int, "an integer"),
        ("objects", lambda v: isinstance(v, list) and all(map(is_object, v)),
         "a list of [colour, shape, [row, col] or null]"),
        ("layout_mode", lambda v: isinstance(v, str), "a string"),
        ("episode_len", is_int, "an integer"),
        ("seed", is_int, "an integer"),
        ("agent_start", is_cell, "a [row, col] pair of integers or null"),
        ("exclude_agent_from_objects", lambda v: isinstance(v, bool), "true or false"),
    ):
        if not ok(d[name]):
            raise GridConfigError(f"grid config field {name!r} must be {what}, not {d[name]!r}")
    return GridConfig(
        width=d["width"],
        height=d["height"],
        objects=tuple(
            ObjectSpec(c, s, tuple(cell) if cell else None) for c, s, cell in d["objects"]
        ),
        layout_mode=d["layout_mode"],
        episode_len=d["episode_len"],
        seed=d["seed"],
        agent_start=tuple(d["agent_start"]) if d["agent_start"] else None,
        exclude_agent_from_objects=d["exclude_agent_from_objects"],
    )


def save_dataset(ds: GroundingDataset, path) -> None:
    """Write ds in format 2: a header with each distinct observation once, then ids per trajectory.

    The header holds vocab, meta, the table of distinct observations as
    [shape, hex of the uint8 bytes] and one sorted label per table entry.
    Each following line is one trajectory: {"actions": [...], "ids": [...]}.
    """
    index = ds.index
    header = {
        "format_version": DATASET_FORMAT_VERSION,
        "vocab": list(ds.vocab),
        "meta": ds.meta,
        "observations": [
            encode_entry(o.shape, o.astype(np.uint8, copy=False).tobytes()) for o in index.obs
        ],
        "labels": [sorted(l) for l in index.labels],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for tr in ds.trajectories:
            fh.write(json.dumps({"actions": tr.actions, "ids": tr.ids}, sort_keys=True) + "\n")


def load_dataset(path) -> GroundingDataset:
    """Read a format-2 dataset; see save_dataset.

    The table entries the trajectories use are numbered into one ObsIndex
    in order of first use, so an unused entry drops, a duplicate merges with
    its first copy and raises InconsistentLabelError if labelled otherwise,
    and a file saved in that order keeps its ids. Raises DatasetFormatError on
    an empty file, a line that is not a JSON object or lacks a field, a
    file of another format version, an observation whose hex length does
    not match its shape, a table label outside vocab, an id or an action
    out of range, or a trajectory whose ids and actions do not line up.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise DatasetFormatError(f"{path} is empty")
        header = _json_object(first, "the header")
        version = header.get("format_version")
        if version == 1:
            n = sum(1 for _ in fh)
            seed = header.get("meta", {}).get("seed", "<seed>")
            raise DatasetFormatError(
                f"{path} is a format-1 dataset, which this version no longer reads; regenerate "
                f"it with `rmgcr gen-dataset --out {path} --n {n} --seed {seed}` and the grid "
                f"options it was made with"
            )
        if version != DATASET_FORMAT_VERSION:
            raise DatasetFormatError(
                f"unsupported dataset format {version!r}; expected {DATASET_FORMAT_VERSION}"
            )
        _require(header, ("vocab", "observations", "labels"), "the header")
        vocab = tuple(header["vocab"])
        table = []
        for k, entry in enumerate(header["observations"]):
            shape, raw = decode_entry(k, entry)
            table.append(np.frombuffer(raw, dtype=np.uint8).reshape(shape))
        labels = [frozenset(l) for l in header["labels"]]
        if len(labels) != len(table):
            raise DatasetFormatError(
                f"the table has {len(table)} observations but {len(labels)} labels"
            )
        for k, label in enumerate(labels):
            if not label <= set(vocab):
                raise DatasetFormatError(
                    f"table entry {k} has atoms {sorted(label - set(vocab))} outside the vocabulary"
                )
        index = ObsIndex()
        number = [-1] * len(table)  # file id -> index id, numbered on first use
        trajectories = []
        for t, line in enumerate(fh):
            record = _json_object(line, f"trajectory {t}")
            _require(record, ("ids", "actions"), f"trajectory {t}")
            ids, actions = record["ids"], record["actions"]
            if len(ids) != len(actions) + 1:
                raise DatasetFormatError(
                    f"trajectory {t} has {len(ids)} ids for {len(actions)} actions; "
                    f"it needs one more id than actions"
                )
            if min(ids) < 0 or max(ids) >= len(table):
                raise DatasetFormatError(
                    f"trajectory {t} names an observation id outside 0..{len(table) - 1}"
                )
            if min(actions, default=0) < 0 or max(actions, default=0) >= len(ACTIONS):
                raise DatasetFormatError(
                    f"trajectory {t} has an action outside 0..{len(ACTIONS) - 1}"
                )
            for k in dict.fromkeys(ids):  # each distinct file id in order of first use
                if number[k] < 0:
                    number[k] = index.add(table[k], labels[k])
            trajectories.append(Trajectory(index, ids, actions))
    if any(n >= 0 and n != k for k, n in enumerate(number)):  # not saved in first-use order
        for tr in trajectories:
            tr.ids = [number[k] for k in tr.ids]
    return GroundingDataset(vocab, index, trajectories, header.get("meta", {}))


def _json_object(line: str, what: str) -> dict:
    """One line of a dataset file parsed as a JSON object; what names the line in errors."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(f"{what} is not JSON: {e}") from None
    if not isinstance(record, dict):
        raise DatasetFormatError(f"{what} is not a JSON object")
    return record


def _require(record: dict, fields: tuple, what: str) -> None:
    missing = [f for f in fields if f not in record]
    if missing:
        raise DatasetFormatError(f"{what} lacks {', '.join(missing)}")


def encode_entry(shape: Sequence[int], raw: bytes) -> list:
    """An observation table entry: [shape, hex of the observation's uint8 bytes]."""
    return [list(shape), raw.hex()]


def decode_entry(k: int, entry, error: type[ValueError] = DatasetFormatError) -> tuple:
    """Observation table entry k, as encode_entry writes it, back as (shape, bytes).

    Raises error if the entry is no [shape, hex] pair, or its hex is not
    the size its shape needs.
    """
    if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], str)):
        raise error(f"table entry {k} is not a [shape, hex] pair")
    shape, data = entry
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        raise error(f"table entry {k} has shape {shape}, not a list of sizes")
    size = math.prod(shape)
    if len(data) != 2 * size:
        raise error(f"table entry {k} has {len(data)} hex digits; shape {shape} needs {2 * size}")
    try:
        raw = bytes.fromhex(data)
    except ValueError as e:
        raise error(f"table entry {k} is not hex: {e}") from None
    return tuple(shape), raw


def label_frequencies(ds: GroundingDataset) -> dict[str, float]:
    """Fraction of dataset steps at which each atom holds."""
    steps = np.bincount(np.concatenate([tr.ids for tr in ds.trajectories])).tolist()  # per id
    total = sum(steps)
    return {a: sum(n for n, lab in zip(steps, ds.index.labels) if a in lab) / total for a in ds.vocab}

"""Deterministic, seedable gridworld with coloured/shaped objects.

The agent moves on a rectangular grid holding objects that each have a
colour and a shape. The ground-truth labelling reports the colour and
shape atoms of the object under the agent, if any. A random-walk dataset
generator produces labelled trajectories for offline grounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InputError, check_count, check_seed

COLORS = ("red", "green", "blue")
SHAPES = ("triangle", "circle")
VOCAB = COLORS + SHAPES
CHANNELS = VOCAB + ("agent",)

ACTIONS = ("up", "down", "left", "right")
_MOVES = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1)}

Cell = tuple[int, int]


class InfeasibleConfigError(InputError):
    pass


class GridConfigError(InputError):
    """A grid config field has a value GridConfig cannot use."""


class InconsistentLabelError(InputError):
    """A dataset gives one observation two different labels."""


class StateSpaceTooLargeError(InputError):
    """The states of a layout cannot be enumerated: it is randomized, or over a size cap."""


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
    """The row-major cells a random agent start may take among these placements, or InfeasibleConfigError."""
    occupied = {cell for _, _, cell in placements} if cfg.exclude_agent_from_objects else set()
    n_cells = cfg.width * cfg.height
    options = tuple(i for i in range(n_cells) if (i // cfg.width, i % cfg.width) not in occupied)
    if not options:
        raise InfeasibleConfigError("no free cell for the agent")
    return options


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
        agent = divmod(options[int(rng.integers(len(options)))], cfg.width)
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


def encode_layout(state: GridState) -> np.ndarray:
    """encode_obs of state's layout with the agent on each row-major cell in turn, as one uint8 array."""
    n = state.height * state.width
    obs = np.zeros((n, state.height, state.width, len(CHANNELS)), dtype=np.uint8)
    for color, shape, (r, c) in state.placements:
        obs[:, r, c, [CHANNELS.index(color), CHANNELS.index(shape)]] = 1
    obs.reshape(n, n, -1)[np.arange(n), np.arange(n), CHANNELS.index("agent")] = 1
    return obs


def cell_states(cfg: GridConfig) -> dict[Cell, GridState]:
    """reset(cfg) with the agent moved to each cell in turn, keyed by cell in row-major order.

    On a fixed layout these are all the states the grid can be in, placed
    from cfg with no start draw; encode_layout of one is their observations.
    """
    fixed = cfg.layout_mode == "fixed"
    placements = tuple((o.color, o.shape, o.cell) for o in cfg.objects) if fixed else reset(cfg).placements
    if fixed and cfg.agent_start is None:
        _start_options(cfg, placements)  # raises where reset would: no cell to start on
    return {
        (r, c): GridState(cfg.width, cfg.height, (r, c), placements)
        for r in range(cfg.height)
        for c in range(cfg.width)
    }


@functools.lru_cache(maxsize=None)
def move_table(height: int, width: int) -> np.ndarray:
    """Read-only [cell, action] -> next cell over the row-major cells of a height x width grid.

    Placements do not affect a move, so one table, built once per grid
    size and shared, serves every layout of the grid.
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
    encode_layout(states[0]), whose one array takes cells^2 * 6 bytes.
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
    check_count("n_trajectories", n_trajectories)
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


def label_frequencies(ds: GroundingDataset) -> dict[str, float]:
    """Fraction of dataset steps at which each atom holds."""
    steps = np.bincount(np.concatenate([tr.ids for tr in ds.trajectories])).tolist()  # per id
    total = sum(steps)
    return {a: sum(n for n, lab in zip(steps, ds.index.labels) if a in lab) / total for a in ds.vocab}


def __getattr__(name: str):
    """The dataset-file functions the benchmark calls by this module, which rmgcr.files holds."""
    if name in ("save_dataset", "load_dataset"):
        from . import files
        return getattr(files, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

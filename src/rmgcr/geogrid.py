"""Deterministic, seedable gridworld with coloured/shaped objects.

The agent moves on a rectangular grid holding objects that each have a
colour and a shape. The ground-truth labelling reports the colour and
shape atoms of the object under the agent, if any. A random-walk dataset
generator produces labelled trajectories for offline grounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .errors import InputError, check_count, check_seed

COLORS = ("red", "green", "blue")
SHAPES = ("triangle", "circle")
VOCAB = COLORS + SHAPES
CHANNELS = VOCAB + ("agent",)

ACTIONS = ("up", "down", "left", "right")
N_ACTIONS = len(ACTIONS)
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


# for seeded_index: PCG64's multiplier M, and M**2 mod 2**128 for seeding and the first step in one
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT_SQ = _PCG64_MULT * _PCG64_MULT & _M128


def seeded_index(seed: int, n: int) -> int:
    """int(np.random.default_rng(seed).integers(n)) for 1 <= n <= 2**32 at about half its cost: after
    SeedSequence(seed), numpy's rules run here. generate_state(4, uint64) seeds PCG64, and Lemire's method
    draws on the 32-bit halves of its XSL-RR outputs, low half first. Raises OutOfRangeError if seed < 0.

    SeedSequence is handed seed's 32-bit words as a uint32 array, in the form numpy's own conversion of
    an int gives them: low word first, one word for seed < 2**32, and inner zero words kept. An array
    skips that Python-level conversion."""
    check_seed("seed", seed)
    words = np.frombuffer(seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little"), "<u4")
    p0, p1, p2, p3 = np.random.SeedSequence(words).pool.tolist()
    # generate_state(4, uint64)'s eight hashmix calls, unrolled: word k mixes pool[k % 4] with c[k], then
    # multiplies by c[k + 1], for the data-free constants c[k] = 0x8B51F9DD * 0x58F38DED**k mod 2**32
    w0 = (h := (p0 ^ 0x8B51F9DD) * 0x464A0A99 & 0xFFFFFFFF) ^ h >> 16
    w1 = (h := (p1 ^ 0x464A0A99) * 0x819D14A5 & 0xFFFFFFFF) ^ h >> 16
    w2 = (h := (p2 ^ 0x819D14A5) * 0xD369FDC1 & 0xFFFFFFFF) ^ h >> 16
    w3 = (h := (p3 ^ 0xD369FDC1) * 0x501638AD & 0xFFFFFFFF) ^ h >> 16
    w4 = (h := (p0 ^ 0x501638AD) * 0xA600C129 & 0xFFFFFFFF) ^ h >> 16
    w5 = (h := (p1 ^ 0xA600C129) * 0x8B0167F5 & 0xFFFFFFFF) ^ h >> 16
    w6 = (h := (p2 ^ 0x8B0167F5) * 0x5C1E2ED1 & 0xFFFFFFFF) ^ h >> 16
    w7 = (h := (p3 ^ 0x5C1E2ED1) * 0x301D747D & 0xFFFFFFFF) ^ h >> 16
    # the state's 64-bit words seed PCG64, high first, then its stream: step from 0, add s, step. With the
    # first output's step that is (inc + s) * M**2 + inc * (M + 1)
    inc = ((w4 | w5 << 32) << 64 | w6 | w7 << 32) << 1 & _M128 | 1
    s = (w0 | w1 << 32) << 64 | w2 | w3 << 32
    state = ((inc + s) * _PCG64_MULT_SQ + inc * (_PCG64_MULT + 1)) & _M128
    threshold = (1 << 32) % n
    while True:  # the output of state: xor-shift low and rotate right
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        m = (x & _M32) * n
        if m & _M32 >= threshold:
            return m >> 32
        m = (x >> 32) * n  # Lemire rejected the low half: draw on the high half, then on fresh outputs
        if m & _M32 >= threshold:
            return m >> 32
        state = (state * _PCG64_MULT + inc) & _M128


# numpy's SeedSequence constants: mix_entropy's hashmix constants run from INIT_A by powers of MULT_A,
# generate_state's from INIT_B by powers of MULT_B, and mix weighs its two words by MIX_L and MIX_R.
# Every operand is a uint32 or uint64 array or scalar, so no product is of two scalars (which warns on
# overflow) and numpy 1.x never promotes a uint64 operand to float64
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _U16 = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_U1, _U32, _LOW32 = np.uint64(1), np.uint64(32), np.uint64(_M32)
_POOL = 4  # SeedSequence's pool size in words
_OTHERS = [[d for d in range(_POOL) if d != src] for src in range(_POOL)]


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The (n, 1) uint32 column init * mult**t mod 2**32 for t < n: hashmix call t xors with row t and
    multiplies by row t + 1."""
    return np.array([init * pow(mult, t, 1 << 32) & _M32 for t in range(n)], np.uint32)[:, None]


_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL + 1)  # generate_state(4, uint64)'s eight words


def _hashmix(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's hashmix of each row of v, row j under consts[j] and consts[j + 1]."""
    v = (v ^ consts[:-1]) * consts[1:]
    return v ^ v >> _U16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's mix of pool words x with hashed words y."""
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> _U16


def _raw_outputs(root: int, first: int, n: int, k: int) -> np.ndarray:
    """The (n, k) uint64 array whose row j is np.random.default_rng((root, first + j)).bit_generator's
    first k raw outputs, for first + n <= 2**64.

    Entropy word w of every seed sits in row w of one (words, n) uint32 array: root's words, then the low
    and, from 2**32 on, the high word of i. SeedSequence's mix and generate_state(4, uint64) run on those
    columns, and seeded_index's rule turns each row's state words into PCG64's (state, inc), from which
    one reused PCG64 reads the row."""
    i = np.arange(first, first + n, dtype=np.uint64)
    root_words = np.frombuffer(root.to_bytes(4 * max(1, -(-root.bit_length() // 32)), "little"), "<u4")
    r = len(root_words)
    entropy = np.zeros((max(_POOL, r + 1 + bool(i[-1] >> _U32)), n), np.uint32)
    entropy[:r] = root_words[:, None]
    entropy[r] = i & _LOW32
    entropy[r + 1 : r + 2] = i >> _U32  # a row below 2**32 reads 0 here, as hashmix reads a missing word
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * len(entropy) + 1)
    pool = _hashmix(entropy[:_POOL], consts[: _POOL + 1])
    t = _POOL
    for src, dst in enumerate(_OTHERS):  # every pool word into every other
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[t : t + _POOL]))
        t += _POOL - 1
    for w in range(_POOL, len(entropy)):  # each word past the pool into every pool word
        mixed = _mix(pool, _hashmix(entropy[w], consts[t : t + _POOL + 1]))
        # only i's high word, at row r + 1, is missing from some rows: those below 2**32 keep their pool
        pool = mixed if w <= r else np.where(i >> _U32 > 0, mixed, pool)
        t += _POOL
    words = _hashmix(np.tile(pool, (2, 1)), _STATE_CONSTS).astype(np.uint64)
    out = np.empty((n, k), np.uint64)
    bits = np.random.PCG64(0)
    for row, (s_hi, s_lo, inc_hi, inc_lo) in enumerate((words[0::2] | words[1::2] << _U32).T.tolist()):
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _M128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _M128  # seeded, before the first step
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        out[row] = bits.random_raw(k)
    return out


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


def episode_starts(cfg: GridConfig, index: ObsIndex) -> Callable[[int], tuple[Layout, list[int], int]]:
    """A function from seed to (layout, index.cells(layout), cell) of reset(cfg, seed): the start's
    layout and the agent's row-major cell. A fixed layout is built once, with its ids, and then costs
    one seeded_index per start: reset draws its agent from the same start options, and none when pinned."""
    if cfg.layout_mode == "randomized":
        def start(seed):
            state = reset(cfg, seed)
            layout = Layout(cfg, state.placements)
            return layout, index.cells(layout), state.agent[0] * cfg.width + state.agent[1]

        return start
    layout = Layout.fixed(cfg)
    ids, options = index.cells(layout), layout.start_options
    return lambda seed: (layout, ids, options[seeded_index(seed, len(options))])


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


def layout_labels(state: GridState) -> list[frozenset[str]]:
    """true_label of state's layout with the agent on each row-major cell in turn, in one pass."""
    labels = [frozenset()] * (state.width * state.height)
    for color, shape, (r, c) in reversed(state.placements):  # the first placement on a cell wins
        labels[r * state.width + c] = frozenset((color, shape))
    return labels


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
    """reset(cfg) with the agent moved to each cell in turn, keyed by cell in row-major order: the
    one-state reference that tests and demos check a Layout against."""
    placements = reset(cfg).placements
    return {(r, c): GridState(cfg.width, cfg.height, (r, c), placements)
            for r in range(cfg.height) for c in range(cfg.width)}


@functools.lru_cache(maxsize=None)
def move_table(height: int, width: int) -> np.ndarray:
    """Read-only [cell, action] -> next cell over the row-major cells of a height x width grid.

    Placements do not affect a move, so one table, built once per grid
    size and shared, serves every layout of the grid.
    """
    table = np.array(
        [[move(i, a, height, width) for a in range(N_ACTIONS)] for i in range(height * width)],
        dtype=np.int64,
    )
    table.flags.writeable = False
    return table


class Layout:
    """One placement of cfg's objects on its grid, compiled once and then only read.

    Cell i is the i-th cell in row-major order, (row, col) = divmod(i, width).
    labels[i] is its true label with the agent there and next_cell[i, a] the
    cell that action a leads to. obs[i] is its encode_obs, from one
    encode_layout array of cells^2 * 6 bytes made on first read. Layout.fixed
    adds what only a fixed layout needs: start_options, the cells an episode
    may start on, and the few distinct labels, with labels[i] equal to
    distinct_labels[label_ids[i]].
    """

    def __init__(self, cfg: GridConfig, placements: tuple[tuple[str, str, Cell], ...]):
        self.placements, self.width, self.height = placements, cfg.width, cfg.height
        self.labels = layout_labels(GridState(cfg.width, cfg.height, (0, 0), placements))
        self.next_cell = move_table(cfg.height, cfg.width)

    @functools.cached_property
    def obs(self) -> np.ndarray:
        return encode_layout(GridState(self.width, self.height, (0, 0), self.placements))

    @classmethod
    def fixed(cls, cfg: GridConfig) -> Layout:
        """cfg's one layout; StateSpaceTooLargeError if it is randomized, InfeasibleConfigError where reset
        finds no cell to start on."""
        if cfg.layout_mode != "fixed":
            raise StateSpaceTooLargeError("randomized layouts are not enumerable")
        layout = cls(cfg, tuple((o.color, o.shape, o.cell) for o in cfg.objects))
        if cfg.agent_start is None:
            layout.start_options = _start_options(cfg, layout.placements)
        else:
            layout.start_options = (cfg.agent_start[0] * cfg.width + cfg.agent_start[1],)
        layout.distinct_labels = sorted(set(layout.labels), key=sorted)
        label_id = {label: j for j, label in enumerate(layout.distinct_labels)}
        layout.label_ids = np.array([label_id[label] for label in layout.labels])
        layout.label_ids.flags.writeable = False
        return layout


def obs_key(obs: np.ndarray) -> bytes:
    """Hashable exact key for tabular backends."""
    return obs.tobytes()


class ObsIndex:
    """The distinct observations met on a grid, numbered by dense id in order of first sight.

    Per id: keys[i], the observation's bytes; obs[i], the observation as a
    read-only array; labels[i], its label. add numbers an observation by its
    bytes. cells(layout) is the list of ids of a Layout by row-major cell, -1
    until visit(layout, cell) reads the cell's obs and label off the layout;
    a walk fetches that list once per trajectory and visits only cells that
    hold -1.
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

    def cells(self, layout: Layout) -> list[int]:
        """The id of each row-major cell of layout, -1 for a cell not yet visited."""
        ids = self._by_layout.get(layout.placements)
        if ids is None:
            ids = self._by_layout[layout.placements] = [-1] * len(layout.labels)
        return ids

    def visit(self, layout: Layout, cell: int) -> int:
        """The id of layout with the agent on row-major cell."""
        ids = self.cells(layout)
        if ids[cell] < 0:
            ids[cell] = self.add(layout.obs[cell], layout.labels[cell])
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


# generate_dataset seeds its walks in blocks of at most this many raw words (512 KiB), at least one walk
_BLOCK_WORDS = 1 << 16
_ACTION_SHIFTS, _ACTION_MASK = np.array([30, 62], np.uint64), np.uint64(3)  # N_ACTIONS = 4 takes 2 bits


def generate_dataset(
    cfg: GridConfig,
    n_trajectories: int,
    seed: Optional[int] = None,
) -> GroundingDataset:
    """Random-walk trajectories of length cfg.episode_len with ground-truth labels.

    Reproducible: trajectory i draws from the RNG stream (seed, i) what
    np.random.default_rng((seed, i)) would give it, its start's seed (for
    episode_starts) by integers(2**63) and then its actions by
    integers(4, size=cfg.episode_len). Those draws are read off the
    stream's raw PCG64 words, which _raw_outputs seeds for a block of
    trajectories at a time in one vectorized SeedSequence mix. The walk
    follows move_table by cell id on the start's Layout and numbers its
    cells through one ObsIndex, so each layout is encoded and labelled
    once; the dataset keeps that index, and each trajectory the ids of its
    steps.
    """
    check_count("n_trajectories", n_trajectories)
    root = cfg.seed if seed is None else seed
    check_seed("seed", root)
    moves = move_table(cfg.height, cfg.width).tolist()
    index = ObsIndex()
    trajectories = []
    starts = episode_starts(cfg, index)
    length = cfg.episode_len
    n_words = 1 + (length + 1) // 2  # the start's word, then two actions a word
    block = max(1, _BLOCK_WORDS // n_words)
    for first in range(0, n_trajectories, block):
        raw = _raw_outputs(root, first, min(block, n_trajectories - first), n_words)
        # integers(2**63) is a word's top 63 bits; integers(4) the top 2 bits of a word's low 32-bit half,
        # then of its high half
        seeds = (raw[:, 0] >> _U1).tolist()
        halves = raw[:, 1:, None] >> _ACTION_SHIFTS & _ACTION_MASK
        actions = halves.reshape(len(raw), -1)[:, :length].tolist()
        for start_seed, acts in zip(seeds, actions):
            layout, ids, cell = starts(start_seed)
            steps = [index.visit(layout, cell)]
            for a in acts:
                cell = moves[cell][a]
                k = ids[cell]
                steps.append(k if k >= 0 else index.visit(layout, cell))
            trajectories.append(Trajectory(index, steps, acts))
    meta = {"seed": root, "policy": "random", "config": config_to_dict(cfg)}
    return GroundingDataset(VOCAB, index, trajectories, meta)


def full_coverage_dataset(cfg: GridConfig) -> GroundingDataset:
    """One-step trajectories covering every (cell, action) pair of a fixed layout.

    Gives tabular offline training an exact view of the deterministic
    dynamics, so fitted values can match exact value iteration.
    """
    layout = Layout.fixed(cfg)
    index = ObsIndex()
    trajectories = [
        Trajectory(index, [index.visit(layout, i), index.visit(layout, j)], [a])
        for i, row in enumerate(layout.next_cell.tolist())
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
    ids = np.fromiter(chain.from_iterable(tr.ids for tr in ds.trajectories), np.int64)
    steps = np.bincount(ids).tolist()  # per id
    total = sum(steps)
    return {a: sum(n for n, lab in zip(steps, ds.index.labels) if a in lab) / total for a in ds.vocab}


def __getattr__(name: str):
    """The dataset-file functions the benchmark calls by this module, which rmgcr.files holds."""
    if name in ("save_dataset", "load_dataset"):
        from . import files
        return getattr(files, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

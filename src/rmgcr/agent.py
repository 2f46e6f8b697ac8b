"""Tabular Q-learning over the product of grid states and RM states.

The agent tracks its RM state with the *learned* labelling function and
trains on self-generated rewards, optionally shaped with the composed
value potential or the state-independent RM potential. Ground truth is
used only for reporting and evaluation.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Iterator, Optional

import numpy as np

from . import geogrid
from .compose import ComposedValueFn, ConfigMismatchError, RmStateValues, check_shaping
from .compose import UnsatisfiableGuardError, composed_value, shaping_term
from .errors import InputError, check_count, check_open_unit, check_seed
from .geogrid import N_ACTIONS, GridConfig, ObsIndex, obs_key
from .ground import LabelModel
from .rm import RewardMachine, label_mask

SHAPING_MODES = ("none", "composed", "high-level")

# Q-learning step size; epsilon falls linearly from EPSILON_START to
# EPSILON_END over the first EPSILON_DECAY_FRACTION of the episodes
ALPHA = 0.1
EPSILON_START = 1.0
EPSILON_END = 0.05
EPSILON_DECAY_FRACTION = 0.5
THRESHOLD_WINDOW = 20  # trailing episodes averaged by episodes_to_threshold
_RAW_BLOCK = 1024  # PCG64 outputs raw_words reads per random_raw call


@dataclass
class AgentConfig:
    gamma: float = 0.97
    shaping: str = "none"  # "none" | "composed" | "high-level"
    lam: float = 1.0
    shaping_mode: str = "undiscounted"  # "undiscounted" | "discounted"
    episodes: int = 1000
    max_steps: int = 100  # episode step cap
    seed: int = 0

    def __post_init__(self):
        if self.shaping not in SHAPING_MODES:
            raise InputError(f"unknown shaping {self.shaping!r}")
        check_open_unit("gamma", self.gamma)
        check_shaping(self.lam, self.shaping_mode)
        check_count("episodes", self.episodes)
        check_count("max_steps", self.max_steps)
        check_seed("seed", self.seed)


@dataclass
class EpisodeRecord:
    perceived_return: float  # agent's own rewards, shaping excluded
    actual_return: float  # ground-truth RM rewards
    steps: int


@dataclass
class TrainReport:
    episodes: list[EpisodeRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def perceived(self) -> list[float]:
        return [e.perceived_return for e in self.episodes]

    def actual(self) -> list[float]:
        return [e.actual_return for e in self.episodes]


def raw_words(bit_generator: np.random.PCG64) -> Iterator[int]:
    """The 64-bit outputs x of a PCG64 bit generator, read `_RAW_BLOCK` per `random_raw` call.

    A Generator call for one scalar costs far more than the draw itself.
    The same calls on a fresh Generator over this bit generator give, by
    numpy's own rules for PCG64:

    - `random()` is `(x >> 11) * 2**-53`, so `random() < epsilon` is
      `x < explore_threshold(epsilon)`.
    - A 32-bit draw is the low half of a fresh x and buffers the high half
      for the next 32-bit draw; 64-bit draws leave that buffer alone.
    - `integers(4)` is a 32-bit draw shifted right by 30 (Lemire's method
      never rejects for a power-of-two range).
    - `integers(2**63)` is `x >> 1`.

    The bit generator must be fresh and drawn from through this iterator only.
    """
    assert isinstance(bit_generator, np.random.PCG64)
    return chain.from_iterable(iter(lambda: bit_generator.random_raw(_RAW_BLOCK).tolist(), None))


def explore_threshold(epsilon: float) -> int:
    """The T with `x < T` exactly when `(x >> 11) * 2**-53 < epsilon`, for 0 <= epsilon <= 1.

    For the integer n = x >> 11, n * 2**-53 < epsilon iff n < ceil(epsilon * 2**53)
    (both scalings by 2**53 are exact) iff x < ceil(epsilon * 2**53) * 2**11.
    """
    return math.ceil(epsilon * 2**53) << 11


class GreedyPolicy:
    """Greedy readout of a Q-table; unseen states fall back to action 0.

    Given a set `unseen`, `action` adds to it each (key, u) it falls back on.
    Every entry's greedy action (the first maximum, as `np.argmax`) is
    computed here, by one `np.argmax(axis=1)` over the stacked rows of `q`.
    """

    def __init__(self, q: dict):
        self.q = q
        rows = np.array(list(q.values())).reshape(len(q), N_ACTIONS)
        self._greedy = dict(zip(q, rows.argmax(axis=1).tolist()))

    def action(self, key, u: int, rng=None, unseen: Optional[set] = None) -> int:
        a = self._greedy.get((key, u))
        if a is None:
            if unseen is not None:
                unseen.add((key, u))
            return 0
        return a


class RandomPolicy:
    def action(self, key, u: int, rng, unseen: Optional[set] = None) -> int:
        return int(rng.integers(N_ACTIONS))


class LazyPotentials(dict):
    """One RM state's composed potentials on a layout encoded as obs, by row-major cell, each valued by
    composed_value on first read, which adds its obs_key to unseen if a PVF the guards read has none."""

    def __init__(self, cvf: ComposedValueFn, u: int, obs: np.ndarray, unseen: set):
        self.cvf, self.u, self.obs, self.unseen = cvf, u, obs, unseen

    def __missing__(self, cell: int) -> float:
        obs = self.obs[cell]
        value = self[cell] = composed_value(self.cvf, obs, self.u)
        seen = self.cvf.seen  # None when no guard literal has a tabular PVF
        if seen is not None and (key := obs_key(obs)) not in seen:
            self.unseen.add(key)
        return value


def potential_table(
    shaping: str, obs: np.ndarray, rm: RewardMachine, cvf, rm_values, lazy: bool = False, unseen=None
):
    """Rows [u][cell] of the shaping potential on a layout encoded as obs (see encode_layout), 0 at
    terminal u: rm_values[u], the rows of cvf.table, or, if lazy or on a false guard, LazyPotentials.

    Callers only read the rows, which calls on one value function and layout share (see
    ComposedValueFn.table). Given a set unseen, the obs_key of each observation at which a PVF the
    guards read has no entry (PvfSet.unseen) is added to it: for the rows of cvf.table, those of every
    cell of the layout, as the table values them all; for LazyPotentials, those of the cells a row
    values, on first read.
    """
    n = len(obs)
    unseen = set() if unseen is None else unseen
    if shaping == "high-level":
        return [[0.0 if rm.is_terminal(u) else rm_values[u]] * n for u in range(rm.num_states)]
    if not lazy:
        with suppress(UnsatisfiableGuardError):  # raise only if an episode enters the guard's RM state
            rows, flags = cvf.table(obs)
            unseen.update(obs_key(o) for o, missing in zip(obs, flags) if missing)
            return rows
    return [
        [0.0] * n if rm.is_terminal(u) else LazyPotentials(cvf, u, obs, unseen) for u in range(rm.num_states)
    ]


def train(
    cfg: GridConfig,
    rm: RewardMachine,
    label_model: LabelModel,
    agent_cfg: AgentConfig,
    cvf: Optional[ComposedValueFn] = None,
    rm_values: Optional[RmStateValues] = None,
) -> tuple[GreedyPolicy, TrainReport]:
    """Q-learning with self-generated rewards; returns the greedy policy and report.

    The perceived return per episode sums the agent's own RM rewards
    (shaping terms excluded); the actual return replays the same states
    through the ground-truth labelling and true RM. A value function or RM
    state values made for another machine raise ConfigMismatchError.

    The hot path knows a state only by its product index p = id * n_u + u.
    An observation fixes its layout and its agent cell, so each (p, action)
    has one successor, one perceived RM step and one shaping term. A step
    cache keeps them, filled the first time (p, action) is taken: the move,
    the id of the new cell (visiting it if new), the predicted label's RM
    step, and shaping_term over the potential_table of the episode's
    layout. A layout's cells are scored by the label model in one call.
    The report's meta counts the observations the tabular label model
    (unseen_label_obs, at the cells episodes visit) and the PVFs of composed
    shaping (unseen_pvf_obs, see potential_table: on a fixed layout, at every
    cell of its table; on randomized layouts, at the cells training valued)
    have no entry for.
    """
    if tuple(rm.vocab) != tuple(label_model.vocab):
        raise ConfigMismatchError("RM and label model vocabularies differ")
    if agent_cfg.shaping == "composed":
        if cvf is None:
            raise ConfigMismatchError("composed shaping requires a composed value function")
        if cvf.rm != rm:
            raise ConfigMismatchError("the composed value function is of another reward machine")
        if not math.isclose(cvf.gamma, agent_cfg.gamma):
            raise ConfigMismatchError("composed value gamma differs from agent gamma")
    if agent_cfg.shaping == "high-level":
        if rm_values is None:
            raise ConfigMismatchError("high-level shaping requires RM state values")
        if rm_values.values.keys() != set(range(rm.num_states)):
            raise ConfigMismatchError("the RM state values are not those of the machine's states")

    index = ObsIndex()
    moves = geogrid.move_table(cfg.height, cfg.width).tolist()
    # per id, filled when the id is first numbered: its row-major cell, the
    # rm.column of its true and of its predicted label mask (a pure function
    # of the observation), n_u Q rows and n_u * N_ACTIONS step cache slots,
    # each None until first written
    cell_of, true, pred = [], [], []
    n_u = rm.num_states
    q: list[Optional[list[float]]] = []  # Q rows by the product index p = id * n_u + u
    # the step cache by p * N_ACTIONS + a: (p2, p2 * N_ACTIONS, id2, r, terminated, shaping term)
    cache: list[Optional[tuple]] = []
    unseen_label_obs = 0  # ids the tabular label model has no entry for
    predicted = masks = None  # the Layout last scored, and the label_mask predicted per cell
    bits = [1 << k for k in range(len(rm.vocab))]  # label_mask's bit of each atom, any vocabulary size
    true_of: dict = {}  # the rm.column of each distinct true label met, as randomized layouts repeat them

    def visit(start, cell) -> int:
        nonlocal unseen_label_obs, predicted, masks
        i = index.visit(start, cell)
        if i == len(true):
            if start is not predicted:  # predict_labels of every cell, from one scores call
                hits = (label_model.scores(start.obs) >= label_model.threshold).tolist()
                predicted, masks = start, [sum(compress(bits, row)) for row in hits]
            cell_of.append(cell)
            label = start.labels[cell]
            col = true_of.get(label)
            if col is None:
                col = true_of[label] = rm.column(label_mask(rm.vocab, label))
            true.append(col)
            pred.append(rm.column(masks[cell]))
            q.extend([None] * n_u)
            cache.extend([None] * (n_u * N_ACTIONS))
            unseen_label_obs += label_model.unseen(start.obs[cell])
        return i

    report = TrainReport(
        meta={
            "shaping": agent_cfg.shaping,
            "shaping_mode": agent_cfg.shaping_mode,
            "lam": agent_cfg.lam,
            "gamma": agent_cfg.gamma,
            "seed": agent_cfg.seed,
            "evaluation_policy": "greedy",
        }
    )
    decay_span = max(1, int(agent_cfg.episodes * EPSILON_DECAY_FRACTION))
    assert N_ACTIONS == 4  # exploration draws integers(4)
    words = raw_words(np.random.default_rng((agent_cfg.seed, 0xA6E47)).bit_generator)
    half = -1  # the buffered high half's integers(4) draw, or -1
    gamma, lam, mode, alpha = agent_cfg.gamma, agent_cfg.lam, agent_cfg.shaping_mode, ALPHA
    max_steps = agent_cfg.max_steps
    shaped = agent_cfg.shaping != "none"
    starts = geogrid.episode_starts(cfg, index)
    layout = None  # the Layout that pot values
    lazy = cfg.layout_mode == "randomized"  # a new layout per episode, which reads few of its cells
    unseen_pvf_obs: set = set()

    for episode in range(agent_cfg.episodes):
        if episode <= decay_span:  # epsilon reaches EPSILON_END at decay_span and stays there
            frac = episode / decay_span
            explore = explore_threshold(EPSILON_START + frac * (EPSILON_END - EPSILON_START))
        start, ids, cell = starts(next(words) >> 1)
        if shaped and start is not layout:  # a layout the last episode did not use
            pot = potential_table(agent_cfg.shaping, start.obs, rm, cvf, rm_values, lazy, unseen_pvf_obs)
            layout = start
        i = ids[cell]
        if i < 0:
            i = visit(start, cell)
        u_true = rm.initial  # make_rm refuses a terminal initial state
        true_done = False
        perceived = actual = 0.0
        p = i * n_u + rm.initial
        pa = p * N_ACTIONS
        row = q[p]  # carried: the Q row of p, and its max
        best = 0.0 if row is None else max(row)
        for steps in range(1, max_steps + 1):
            if row is None:
                row = q[p] = [0.0] * N_ACTIONS
            if next(words) < explore:  # random() < epsilon
                if half < 0:  # integers(4)
                    x = next(words)
                    a, half = (x & 0xFFFFFFFF) >> 30, x >> 62
                else:
                    a, half = half, -1
            else:
                a = row.index(best)  # first maximum, as np.argmax
            step = cache[pa + a]
            if step is None:  # (p, a) taken for the first time
                u, cell = p % n_u, cell_of[p // n_u]
                cell2 = moves[cell][a]
                j = ids[cell2]
                if j < 0:
                    j = visit(start, cell2)
                u2, r, terminated = pred[j][u]
                p2 = j * n_u + u2
                shaping = shaping_term(pot[u][cell], pot[u2][cell2], lam, mode, gamma) if shaped else 0.0
                step = cache[pa + a] = (p2, p2 * N_ACTIONS, j, r, terminated, shaping)
            p, pa, j, r, terminated, shaping = step
            perceived += r

            nxt = q[p]  # None at a terminal RM state, whose rows are never written
            best = 0.0 if nxt is None else max(nxt)
            target = r + shaping + gamma * best
            row[a] += alpha * (target - row[a])
            if nxt is row:  # a self-transition: the update may have moved its max
                best = max(row)

            if not true_done:
                u_true, true_r, true_done = true[j][u_true]
                actual += true_r

            if terminated:
                break
            row = nxt
        report.episodes.append(EpisodeRecord(perceived, actual, steps))
    report.meta["unseen_label_obs"] = unseen_label_obs
    report.meta["unseen_pvf_obs"] = len(unseen_pvf_obs)
    keys, written = index.keys, [p for p, row in enumerate(q) if row is not None]
    rows = np.array([q[p] for p in written]).reshape(len(written), N_ACTIONS)  # one row view per entry
    return GreedyPolicy(dict(zip([(keys[p // n_u], p % n_u) for p in written], rows))), report


def evaluate(
    policy,
    cfg: GridConfig,
    rm: RewardMachine,
    n_episodes: int,
    seed: int = 0,
    max_steps: int = 100,
) -> dict:
    """Ground-truth evaluation: rewards and termination from the true labelling.

    Returns mean, standard error, the per-episode undiscounted returns and
    `unseen_policy_states`, the number of distinct (observation, RM state)
    pairs where the policy had no entry and fell back to a default action.
    """
    check_count("n_episodes", n_episodes)
    check_count("max_steps", max_steps)
    check_seed("seed", seed)
    index = ObsIndex()
    moves = geogrid.move_table(cfg.height, cfg.width).tolist()
    true = []  # per id, filled when the id is first numbered: the rm.column of its true label

    def visit(start, cell) -> int:
        i = index.visit(start, cell)
        if i == len(true):
            true.append(rm.column(label_mask(rm.vocab, index.labels[i])))
        return i

    rng = np.random.default_rng((seed, 0xE7A1))
    starts = geogrid.episode_starts(cfg, index)
    returns = []
    unseen: set = set()
    for _ in range(n_episodes):
        start, ids, cell = starts(int(rng.integers(2**63)))
        i = ids[cell]
        if i < 0:
            i = visit(start, cell)
        u = rm.initial
        total = 0.0
        for _ in range(max_steps):
            a = policy.action(index.keys[i], u, rng, unseen)
            cell = moves[cell][a]
            i = ids[cell]
            if i < 0:
                i = visit(start, cell)
            u, r, terminated = true[i][u]
            total += r
            if terminated:
                break
        returns.append(total)
    mean, stderr = mean_stderr(returns)
    return {
        "mean": mean,
        "stderr": stderr,
        "returns": returns,
        "unseen_policy_states": len(unseen),
    }


def mean_stderr(values) -> tuple[float, float]:
    """Mean and standard error of the mean (sample std / sqrt n; 0 for one value)."""
    arr = np.asarray(values)
    stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return float(arr.mean()), stderr


def episodes_to_threshold(report: TrainReport, threshold: float):
    """First episode index (1-based) where the mean actual return over the
    trailing THRESHOLD_WINDOW episodes reaches the threshold; None if never."""
    actual = report.actual()
    for i in range(len(actual)):
        lo = max(0, i - THRESHOLD_WINDOW + 1)
        if np.mean(actual[lo : i + 1]) >= threshold:
            return i + 1
    return None

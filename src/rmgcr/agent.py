"""Tabular Q-learning over the product of grid states and RM states.

The agent tracks its RM state with the *learned* labelling function and
trains on self-generated rewards, optionally shaped with the composed
value potential or the state-independent RM potential. Ground truth is
used only for reporting and evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import geogrid
from .compose import ComposedValueFn, ConfigMismatchError, RmStateValues, check_shaping
from .compose import UnsatisfiableGuardError, composed_table, composed_value, shaping_term
from .geogrid import GridConfig, ObsIndex, check_seed
from .ground import LabelModel, check_count, check_open_unit, predict_labels
from .rm import RewardMachine, StepTable, label_mask

N_ACTIONS = len(geogrid.ACTIONS)

SHAPING_MODES = ("none", "composed", "high-level")

# Q-learning step size; epsilon falls linearly from EPSILON_START to
# EPSILON_END over the first EPSILON_DECAY_FRACTION of the episodes
ALPHA = 0.1
EPSILON_START = 1.0
EPSILON_END = 0.05
EPSILON_DECAY_FRACTION = 0.5
THRESHOLD_WINDOW = 20  # trailing episodes averaged by episodes_to_threshold
_RAW_BLOCK = 1024  # PCG64 outputs RawDraws reads per random_raw call


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
            raise ValueError(f"unknown shaping {self.shaping!r}")
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


class RawDraws:
    """The draws of a fresh PCG64 `np.random.Generator`, read from raw output blocks.

    A Generator call for one scalar costs far more than the draw itself.
    These methods return what the same calls on the Generator would, by
    numpy's own rules for PCG64 over its 64-bit outputs x:

    - `random()` is `(x >> 11) * 2**-53`.
    - A 32-bit draw is the low half of a fresh x and buffers the high half
      for the next 32-bit draw; 64-bit draws leave that buffer alone.
    - `integers(4)` is a 32-bit draw shifted right by 30 (Lemire's method
      never rejects for a power-of-two range).
    - `integers(2**63)` is `x >> 1`.

    The bit generator must be fresh and drawn from through this object
    only. `_RAW_BLOCK` outputs are read per `random_raw` call.
    """

    def __init__(self, bit_generator: np.random.PCG64):
        assert isinstance(bit_generator, np.random.PCG64)
        self._bits = bit_generator
        self._words: list[int] = []
        self._uniform: list[float] = []  # random() of each word
        self._pos = _RAW_BLOCK  # next unread word; _RAW_BLOCK means the block is used up
        self._half = -1  # the buffered high half's integers(4) draw, or -1

    def _refill(self) -> None:
        raw = self._bits.random_raw(_RAW_BLOCK)
        self._words = raw.tolist()
        self._uniform = ((raw >> 11) * 2.0**-53).tolist()
        self._pos = 0

    def _word(self) -> int:
        if self._pos == _RAW_BLOCK:
            self._refill()
        self._pos += 1
        return self._words[self._pos - 1]

    def random(self) -> float:
        pos = self._pos
        if pos == _RAW_BLOCK:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._uniform[pos]

    def integers4(self) -> int:
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        x = self._word()
        self._half = x >> 62
        return (x & 0xFFFFFFFF) >> 30

    def integers63(self) -> int:
        """`integers(2**63)`."""
        return self._word() >> 1


class GreedyPolicy:
    """Greedy readout of a Q-table; unseen states fall back to action 0.

    Given a set `unseen`, `action` adds to it each (key, u) it falls back on.
    Each entry's greedy action (the first maximum, as `np.argmax`) is
    computed on its first use and kept, so `q` must not change afterwards.
    """

    def __init__(self, q: dict):
        self.q = q
        self._greedy: dict = {}

    def action(self, key, u: int, rng=None, unseen: Optional[set] = None) -> int:
        pair = (key, u)
        a = self._greedy.get(pair)
        if a is None:
            entry = self.q.get(pair)
            if entry is None:
                if unseen is not None:
                    unseen.add(pair)
                return 0
            a = self._greedy[pair] = int(np.argmax(entry))
        return a


class RandomPolicy:
    def action(self, key, u: int, rng, unseen: Optional[set] = None) -> int:
        return int(rng.integers(N_ACTIONS))


class LazyPotentials(dict):
    """One RM state's composed potentials by row-major cell, each valued by composed_value on first read."""

    def __init__(self, cvf: ComposedValueFn, u: int, obs_at):
        self.cvf, self.u, self.obs_at = cvf, u, obs_at

    def __missing__(self, cell: int) -> float:
        value = self[cell] = composed_value(self.cvf, self.obs_at(cell), self.u)
        return value


def potential_table(shaping: str, start: geogrid.GridState, rm: RewardMachine, cvf, rm_values, obs_at=None):
    """Rows [u][cell] of the shaping potential on start's layout, 0 at terminal u: rm_values[u], one
    composed_table, or, given obs_at(cell) -> observation or on a false guard, LazyPotentials."""
    n = start.width * start.height
    if shaping == "high-level":
        return [[0.0 if rm.is_terminal(u) else rm_values[u]] * n for u in range(rm.num_states)]
    if obs_at is None:
        obs = [geogrid.encode_obs(replace(start, agent=divmod(i, start.width))) for i in range(n)]
        try:
            return composed_table(cvf, obs).tolist()
        except UnsatisfiableGuardError:  # raise only if an episode enters the guard's RM state
            obs_at = obs.__getitem__
    return [[0.0] * n if rm.is_terminal(u) else LazyPotentials(cvf, u, obs_at) for u in range(rm.num_states)]


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
    through the ground-truth labelling and true RM. Shaping reads a potential_table per layout.
    """
    if tuple(rm.vocab) != tuple(label_model.vocab):
        raise ConfigMismatchError("RM and label model vocabularies differ")
    if agent_cfg.shaping == "composed":
        if cvf is None:
            raise ConfigMismatchError("composed shaping requires a composed value function")
        if not math.isclose(cvf.gamma, agent_cfg.gamma):
            raise ConfigMismatchError("composed value gamma differs from agent gamma")
    if agent_cfg.shaping == "high-level" and rm_values is None:
        raise ConfigMismatchError("high-level shaping requires RM state values")

    index = ObsIndex()
    moves = geogrid.move_table(cfg.height, cfg.width).tolist()
    # per id, filled when the id is first numbered: label masks (see rm.label_mask)
    true_masks: list[int] = []
    predicted: list[int] = []  # predict_labels is a pure function of the observation
    unseen_label_obs = 0  # ids the tabular label model has no entry for

    def visit(start, cell) -> int:
        nonlocal unseen_label_obs
        i = index.visit(start, cell)
        if i == len(true_masks):
            obs = index.obs[i]
            true_masks.append(label_mask(rm.vocab, index.labels[i]))
            predicted.append(label_mask(rm.vocab, predict_labels(label_model, obs)))
            unseen_label_obs += label_model.unseen(obs)
        return i

    rows = StepTable(rm).rows
    n_u = rm.num_states
    terminal = [rm.is_terminal(u) for u in range(n_u)]
    q: dict[int, list[float]] = {}  # Q rows keyed by the product index id * n_u + u

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
    draws = RawDraws(np.random.default_rng((agent_cfg.seed, 0xA6E47)).bit_generator)
    random, integers4 = draws.random, draws.integers4
    gamma, lam, mode = agent_cfg.gamma, agent_cfg.lam, agent_cfg.shaping_mode
    max_steps = agent_cfg.max_steps
    shaped = agent_cfg.shaping != "none"
    starts = geogrid.episode_starts(cfg, index)
    layout = None  # the id list of the layout that pot values
    lazy = cfg.layout_mode == "randomized"  # a new layout per episode, which reads few of its cells

    for episode in range(agent_cfg.episodes):
        frac = min(1.0, episode / decay_span)
        epsilon = EPSILON_START + frac * (EPSILON_END - EPSILON_START)
        start, ids, cell = starts(draws.integers63())
        if shaped and ids is not layout:  # a layout the last episode did not use
            obs_at = (lambda cell, ids=ids: index.obs[ids[cell]]) if lazy else None  # read once visited
            layout, pot = ids, potential_table(agent_cfg.shaping, start, rm, cvf, rm_values, obs_at)
        i = ids[cell]
        if i < 0:
            i = visit(start, cell)
        u = rm.initial
        u_true = rm.initial
        true_done = terminal[u_true]
        v = pot[u][cell] if shaped else 0.0  # carried: the potential of (cell, u)
        perceived = 0.0
        actual = 0.0
        steps = 0
        p = i * n_u + u
        row = q.get(p)  # carried: the Q row of p
        while not terminal[u] and steps < max_steps:
            if row is None:
                row = q[p] = [0.0] * N_ACTIONS
            if random() < epsilon:
                a = integers4()
            else:
                a = row.index(max(row))  # first maximum, as np.argmax
            cell = moves[cell][a]
            j = ids[cell]
            if j < 0:
                j = visit(start, cell)
            mask = predicted[j]
            u2, r, terminated = rows[u][mask]
            perceived += r

            p = j * n_u + u2
            shaping = 0.0
            if shaped:
                v2 = pot[u2][cell]
                shaping = shaping_term(v, v2, lam, mode, gamma)
                v = v2

            nxt = None if terminated else q.get(p)
            bootstrap = max(nxt) if nxt is not None else 0.0
            target = r + shaping + gamma * bootstrap
            row[a] += ALPHA * (target - row[a])

            if not true_done:
                mask = true_masks[j]
                u_true, true_r, true_done = rows[u_true][mask]
                actual += true_r

            u, row = u2, nxt
            steps += 1
        report.episodes.append(EpisodeRecord(perceived, actual, steps))
    report.meta["unseen_label_obs"] = unseen_label_obs
    keys = index.keys
    policy_q = {(keys[p // n_u], p % n_u): np.array(row) for p, row in q.items()}
    return GreedyPolicy(policy_q), report


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
    true_masks: list[int] = []  # per id, filled when the id is first numbered

    def visit(start, cell) -> int:
        i = index.visit(start, cell)
        if i == len(true_masks):
            true_masks.append(label_mask(rm.vocab, index.labels[i]))
        return i

    rows = StepTable(rm).rows
    terminal = [rm.is_terminal(u) for u in range(rm.num_states)]
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
            if terminal[u]:
                break
            a = policy.action(index.keys[i], u, rng, unseen)
            cell = moves[cell][a]
            i = ids[cell]
            if i < 0:
                i = visit(start, cell)
            mask = true_masks[i]
            u, r, _ = rows[u][mask]
            total += r
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

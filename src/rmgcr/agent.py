"""Tabular Q-learning over the product of grid states and RM states.

The agent tracks its RM state with the *learned* labelling function and
trains on self-generated rewards, optionally shaped with the composed
value potential or the state-independent RM potential. Ground truth is
used only for reporting and evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import geogrid
from .compose import ComposedValueFn, RmStateValues, check_shaping, composed_value, shaping_term
from .geogrid import GridConfig, encode_obs, obs_key, true_label
from .ground import LabelModel, predict_labels
from .rm import RewardMachine, rm_step

N_ACTIONS = len(geogrid.ACTIONS)

SHAPING_MODES = ("none", "composed", "high-level")


class ConfigMismatchError(ValueError):
    pass


@dataclass
class AgentConfig:
    alpha: float = 0.1
    gamma: float = 0.97
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.5  # fraction of episodes spent decaying
    shaping: str = "none"  # "none" | "composed" | "high-level"
    lam: float = 1.0
    shaping_mode: str = "undiscounted"  # "undiscounted" | "discounted"
    episodes: int = 1000
    max_steps: int = 100  # episode step cap
    seed: int = 0

    def __post_init__(self):
        if self.shaping not in SHAPING_MODES:
            raise ValueError(f"unknown shaping {self.shaping!r}")
        check_shaping(self.lam, self.shaping_mode)


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


class GreedyPolicy:
    """Greedy readout of a Q-table; unseen states fall back to action 0."""

    def __init__(self, q: dict):
        self.q = q

    def action(self, key, u: int, rng=None) -> int:
        entry = self.q.get((key, u))
        if entry is None:
            return 0
        return int(np.argmax(entry))


class RandomPolicy:
    def action(self, key, u: int, rng) -> int:
        return int(rng.integers(N_ACTIONS))


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
    through the ground-truth labelling and true RM.
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

    q: dict = {}
    potential_cache: dict = {}

    def potential(key, obs, u) -> float:
        if rm.is_terminal(u):
            return 0.0
        if agent_cfg.shaping == "high-level":
            return rm_values[u]
        cached = potential_cache.get((key, u))
        if cached is None:
            cached = composed_value(cvf, obs, u)
            potential_cache[(key, u)] = cached
        return cached

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
    decay_span = max(1, int(agent_cfg.episodes * agent_cfg.epsilon_decay_fraction))
    rng = np.random.default_rng((agent_cfg.seed, 0xA6E47))

    for episode in range(agent_cfg.episodes):
        frac = min(1.0, episode / decay_span)
        epsilon = agent_cfg.epsilon_start + frac * (agent_cfg.epsilon_end - agent_cfg.epsilon_start)
        state = geogrid.reset(cfg, seed=int(rng.integers(2**63)))
        obs = encode_obs(state)
        key = obs_key(obs)
        u = rm.initial
        u_true = rm.initial
        true_done = rm.is_terminal(u_true)
        perceived = 0.0
        actual = 0.0
        steps = 0
        while not rm.is_terminal(u) and steps < agent_cfg.max_steps:
            entry = q.setdefault((key, u), np.zeros(N_ACTIONS))
            if rng.random() < epsilon:
                a = int(rng.integers(N_ACTIONS))
            else:
                a = int(np.argmax(entry))
            next_state = geogrid.step(state, a)
            next_obs = encode_obs(next_state)
            next_key = obs_key(next_obs)
            w_hat = predict_labels(label_model, next_obs)
            stp = rm_step(rm, u, w_hat)
            r = stp.reward
            perceived += r

            shaping = 0.0
            if agent_cfg.shaping != "none":
                shaping = shaping_term(
                    potential(key, obs, u),
                    potential(next_key, next_obs, stp.next_state),
                    agent_cfg.lam,
                    agent_cfg.shaping_mode,
                    agent_cfg.gamma,
                )

            if stp.terminated:
                bootstrap = 0.0
            else:
                nxt = q.get((next_key, stp.next_state))
                bootstrap = float(nxt.max()) if nxt is not None else 0.0
            target = r + shaping + agent_cfg.gamma * bootstrap
            entry[a] += agent_cfg.alpha * (target - entry[a])

            if not true_done:
                true_stp = rm_step(rm, u_true, true_label(next_state))
                actual += true_stp.reward
                u_true = true_stp.next_state
                true_done = true_stp.terminated

            state, obs, key, u = next_state, next_obs, next_key, stp.next_state
            steps += 1
        report.episodes.append(EpisodeRecord(perceived, actual, steps))
    return GreedyPolicy(q), report


def evaluate(
    policy,
    cfg: GridConfig,
    rm: RewardMachine,
    n_episodes: int,
    seed: int = 0,
    max_steps: int = 100,
) -> dict:
    """Ground-truth evaluation: rewards and termination from the true labelling.

    Returns mean, standard error, and the per-episode undiscounted returns.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be positive")
    rng = np.random.default_rng((seed, 0xE7A1))
    returns = []
    for _ in range(n_episodes):
        state = geogrid.reset(cfg, seed=int(rng.integers(2**63)))
        u = rm.initial
        total = 0.0
        for _ in range(max_steps):
            if rm.is_terminal(u):
                break
            a = policy.action(obs_key(encode_obs(state)), u, rng)
            state = geogrid.step(state, a)
            stp = rm_step(rm, u, true_label(state))
            total += stp.reward
            u = stp.next_state
        returns.append(total)
    returns_arr = np.asarray(returns)
    stderr = float(returns_arr.std(ddof=1) / np.sqrt(n_episodes)) if n_episodes > 1 else 0.0
    return {"mean": float(returns_arr.mean()), "stderr": stderr, "returns": returns}


def episodes_to_threshold(report: TrainReport, threshold: float, window: int = 20):
    """First episode index (1-based) where the trailing-window mean of the
    actual return reaches the threshold; None if never."""
    actual = report.actual()
    for i in range(len(actual)):
        lo = max(0, i - window + 1)
        if np.mean(actual[lo : i + 1]) >= threshold:
            return i + 1
    return None

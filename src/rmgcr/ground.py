"""Offline grounding: labelling-function classifiers and primitive value functions.

Primitive value functions (PVFs) estimate, for every literal (an atom or
its negation), the optimal discounted value of reaching a state whose
label satisfies the literal. Satisfaction is evaluated on the *next*
state, so a guaranteed one-step satisfaction is worth gamma and a state
k steps away is worth gamma^k.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .errors import EmptyDatasetError, InputError, OutOfRangeError, check_count, check_open_unit, check_seed
from .geogrid import N_ACTIONS, GroundingDataset, obs_key
from .logic import Literal

# the version of observation_features, which model files record
FEATURE_MAP_VERSION = 1

# full-batch gradient descent of the linear label fit
LABEL_LR = 1.0
LABEL_EPOCHS = 300
# FQI stops once no Q-value (or weight) moves by this much in a sweep
FQI_TOL = 1e-9


class DegenerateAtomError(InputError):
    def __init__(self, name: str):
        super().__init__(f"atom {name!r} is constant across the dataset")
        self.name = name


def _check_nonempty(ds: GroundingDataset) -> None:
    if not ds.trajectories:
        raise EmptyDatasetError("the dataset has no trajectories to fit PVFs on")


class NonConvergenceWarning(UserWarning):
    pass


def observation_features(obs: np.ndarray) -> np.ndarray:
    """Per-cell agent*property products (one per property channel) plus raw channels.

    The product features make each grid proposition exactly linearly
    realizable: the product for channel i sums to 1 iff the agent stands
    on a cell with property i. obs may be one (height, width, channels)
    observation or a stack of them; the features lie on the last axis.
    """
    o = obs.astype(np.float64)
    agent = o[..., -1]
    products = (o[..., :-1] * agent[..., None]).sum(axis=(-3, -2))
    return np.concatenate([products, o.reshape(*o.shape[:-3], -1)], axis=-1)


# 0-d float64 operands of _sigmoid: a ufunc takes them faster than Python floats, with the same values
_LOWER_CLAMP, _ONE = np.array(-60.0), np.array(1.0)


def _sigmoid(z, out=None):
    """1 / (1 + exp(-z)) elementwise over a float64 array, written into out when given.

    z is clamped below at -60 so that exp cannot overflow. It needs no upper
    clamp: for z >= 60, exp(-z) <= exp(-60) < 2**-53, so 1 + exp(-z) rounds
    to 1.0 exactly as 1 + exp(-60) does.
    """
    out = np.maximum(z, _LOWER_CLAMP, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(out, _ONE, out=out)
    return np.divide(_ONE, out, out=out)


# ---------------------------------------------------------------------------
# Labelling function


@dataclass
class LabelModel:
    vocab: tuple[str, ...]
    backend: str  # "linear" | "tabular"
    threshold: float = 0.5
    weights: Optional[np.ndarray] = None  # (n_atoms, n_features), linear backend
    bias: Optional[np.ndarray] = None
    table: Optional[dict] = None  # obs key -> score vector, tabular backend
    holdout_accuracy: dict = field(default_factory=dict)
    # "holdout" when holdout_accuracy was measured on held-out trajectories,
    # "train" when none were held out and it is training accuracy
    accuracy_split: str = "holdout"

    def __post_init__(self):
        check_open_unit("threshold", self.threshold)

    def scores(self, obs: np.ndarray) -> np.ndarray:
        """Per-atom scores of one observation, or of each of a stack of them by row."""
        if self.backend == "linear":
            return _sigmoid(observation_features(obs) @ self.weights.T + self.bias)
        if obs.ndim > 3:
            return np.array([self.scores(o) for o in obs])
        if self.unseen(obs):
            return np.zeros(len(self.vocab))
        return np.asarray(self.table[obs_key(obs)], dtype=np.float64)

    def unseen(self, obs: np.ndarray) -> bool:
        """True if the tabular backend has no entry for obs, and so predicts no atoms there."""
        return self.backend == "tabular" and (self.table is None or obs_key(obs) not in self.table)


def predict_labels(model: LabelModel, obs: np.ndarray) -> frozenset[str]:
    scores = model.scores(obs)
    return frozenset(a for a, s in zip(model.vocab, scores) if s >= model.threshold)


def _check_degenerate(vocab, labels) -> None:
    """Raise for the first atom that takes one truth value (or none) over labels."""
    for a in vocab:
        if len({a in label for label in labels}) < 2:
            raise DegenerateAtomError(a)


def train_label_model(
    ds: GroundingDataset,
    backend: str = "linear",
    holdout_fraction: float = 0.1,
    threshold: float = 0.5,
    seed: int = 0,
) -> LabelModel:
    """Fit per-atom binary classifiers on the dataset's labelled observations.

    Linear backend: full-batch gradient descent on binary cross-entropy,
    run on one row per distinct training observation whose gradient is
    weighted by its row count (the same objective and gradient as one row
    per step). It descends on the scores z = x w^T + b: a step g moves z by
    -K g with K = x x^T + 1, formed once if it is the smaller matrix and
    applied as x (g^T x)^T + sum(g) if not; w and b take the summed steps
    at the end. This matches per-row descent up to summation order.
    Tabular backend: memorize observation -> label. Held-out accuracy is
    measured on a trailing trajectory split and stored on the model; when
    the split holds out no trajectory (holdout_fraction 0, or too few
    trajectories), it is training accuracy and accuracy_split says
    "train". Features and scores are computed in one batch of distinct
    observations; the accuracy counts every row.
    """
    check_seed("seed", seed)
    if not (0.0 <= holdout_fraction < 1.0):
        raise OutOfRangeError(f"holdout_fraction must lie in [0, 1), not {holdout_fraction!r}")
    index, trajectories = ds.index, ds.trajectories
    _check_degenerate(ds.vocab, index.labels)
    n_holdout = int(len(trajectories) * holdout_fraction)
    n_train = len(trajectories) - n_holdout
    train_ids = [i for tr in trajectories[:n_train] for i in tr.ids]
    eval_ids = [i for tr in trajectories[n_train:] for i in tr.ids] if n_holdout else train_ids
    y = np.array([[1.0 if a in lab else 0.0 for a in ds.vocab] for lab in index.labels])

    if backend == "tabular":
        table = {index.keys[i]: y[i] for i in dict.fromkeys(train_ids)}
        model = LabelModel(ds.vocab, "tabular", threshold=threshold, table=table)
    elif backend == "linear":
        features = observation_features(np.stack(index.obs))
        rows = Counter(train_ids)  # distinct ids in order of first appearance
        ids = list(rows)
        x, y_ids = features[ids], y[ids]
        c = LABEL_LR * np.array(list(rows.values()), dtype=np.float64)[:, None] / len(train_ids)
        c = np.repeat(c, len(ds.vocab), axis=1)  # one per score: a same-shape multiply is cheaper
        rng = np.random.default_rng(seed)
        w = rng.normal(scale=0.01, size=(len(ds.vocab), x.shape[1]))
        b = np.zeros(len(ds.vocab))
        z = x @ w.T + b  # (distinct ids, atoms)
        steps = np.zeros_like(z)
        gram = x @ x.T + 1.0 if len(x) <= x.shape[1] else None  # K, when no larger than x
        g, kg = np.empty_like(z), np.empty_like(z)  # each epoch's step and K g, in place
        for _ in range(LABEL_EPOCHS):
            _sigmoid(z, g)
            np.subtract(g, y_ids, out=g)
            np.multiply(g, c, out=g)
            steps += g
            z -= np.matmul(gram, g, out=kg) if gram is not None else x @ (g.T @ x).T + g.sum(axis=0)
        w -= steps.T @ x
        b -= steps.sum(axis=0)
        model = LabelModel(ds.vocab, "linear", threshold=threshold, weights=w, bias=b)
    else:
        raise InputError(f"unknown backend {backend!r}")

    eval_rows = Counter(eval_ids)
    distinct = list(eval_rows)
    if backend == "linear":
        scores = _sigmoid(features[distinct] @ w.T + b)
    else:
        scores = np.array([model.scores(index.obs[i]) for i in distinct])
    hits = (scores >= threshold) == (y[distinct] == 1.0)  # (distinct eval ids, atoms)
    correct = (np.array(list(eval_rows.values()))[:, None] * hits).sum(axis=0).tolist()
    model.holdout_accuracy = {a: k / len(eval_ids) for a, k in zip(ds.vocab, correct)}
    model.accuracy_split = "holdout" if n_holdout else "train"
    return model


# ---------------------------------------------------------------------------
# Primitive value functions


def literal_satisfied(lit: Literal, label: frozenset[str]) -> bool:
    atom, positive = lit
    return (atom in label) == positive


@dataclass
class TabularPvf:
    """State-value table over exact observation keys; unseen observations read 0.

    FQI stores the max over actions of its Q-table, Monte-Carlo the mean
    return per observation.
    """

    gamma: float
    v: dict  # obs key -> float

    def value(self, obs: np.ndarray) -> float:
        return self.v.get(obs_key(obs), 0.0)


@dataclass
class LinearPvf:
    """Per-action linear Q over the shared observation feature map.

    Unlike the tabular estimator it values observations the dataset never saw.
    """

    gamma: float
    weights: np.ndarray  # (N_ACTIONS, n_features)

    def value(self, obs: np.ndarray) -> float:
        return float((self.weights @ observation_features(obs)).max())


@dataclass
class PvfSet:
    """One value estimator per literal (atom or negated atom)."""

    vocab: tuple[str, ...]
    gamma: float
    method: str  # "fqi" | "mc"
    estimators: dict  # Literal -> estimator
    # shape of the observations the tabular estimators are keyed by; save_pvfs needs it
    obs_shape: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        expected = {(a, pol) for a in self.vocab for pol in (True, False)}
        if set(self.estimators) != expected:
            raise ValueError("need exactly one estimator per literal")

    def value(self, lit: Literal, obs: np.ndarray) -> float:
        """The literal's estimated value at obs, clipped to [0, 1]."""
        return min(max(self.estimators[lit].value(obs), 0.0), 1.0)

    def values(self, lits, observations) -> np.ndarray:
        """value(lit, obs) for each literal and observation, as an array indexed [lit, obs].

        Each observation is keyed once, and a tabular estimator answers by
        dict lookups on those keys; any other estimator through its own
        value. The raw rows are clipped as one array, with the comparisons of
        value's min(max(x, 0.0), 1.0), so every entry equals it bit for bit,
        signed zeros and NaN included (np.maximum(-0.0, 0.0) would be +0.0).
        """
        keys = [obs_key(obs) for obs in observations]
        raw = []
        for lit in lits:
            est = self.estimators[lit]
            if isinstance(est, TabularPvf):
                get = est.v.get
                raw.append([get(k, 0.0) for k in keys])
            else:
                raw.append([est.value(obs) for obs in observations])
        a = np.array(raw, dtype=float).reshape(len(lits), len(observations))
        return np.where(a < 0.0, 0.0, np.where(a > 1.0, 1.0, a))

    def seen(self, lits=None) -> Optional[set]:
        """The obs keys at which every tabular estimator of lits (default: every literal) has an entry,
        or None if none of them is tabular."""
        lits = self.literals if lits is None else lits
        tables = [est.v for est in map(self.estimators.get, lits) if isinstance(est, TabularPvf)]
        return set(tables[0]).intersection(*tables[1:]) if tables else None

    def unseen(self, observations, lits=None) -> list[bool]:
        """Per observation, True if a tabular estimator of lits has no entry for it, and so values it
        0.0 (see seen): the mirror of LabelModel.unseen."""
        seen = self.seen(lits)
        return [seen is not None and obs_key(obs) not in seen for obs in observations]

    @property
    def literals(self):
        return tuple(self.estimators)


def train_pvfs_fqi(
    ds: GroundingDataset,
    gamma: float,
    iters: int = 200,
    backend: str = "tabular",
) -> PvfSet:
    """Fitted Q-iteration per literal on the dataset's transitions.

    The one-step target for a transition whose next label satisfies the
    literal is gamma (reward and termination both fire on the next
    label); otherwise gamma times the bootstrapped next value. Missing
    entries read as 0; observations no action was taken from (met in no
    transition, or only as a trajectory's last step) get no tabular entry.
    The tabular sweeps run on two preallocated Q tables. Raises
    EmptyDatasetError on a dataset with no trajectories.
    """
    check_open_unit("gamma", gamma)
    check_count("iters", iters)
    _check_nonempty(ds)
    index, trajectories = ds.index, ds.trajectories
    n_states = len(index.keys)
    # every trajectory holds at least one id: src drops each one's last, dst its first
    ids = np.fromiter(chain.from_iterable(tr.ids for tr in trajectories), np.int64)
    lengths = np.fromiter((len(tr.ids) for tr in trajectories), np.int64)
    ends = np.cumsum(lengths)
    src, dst = np.delete(ids, ends - 1), np.delete(ids, ends - lengths)
    act = np.fromiter(chain.from_iterable(tr.actions for tr in trajectories), np.int64, len(src))

    if backend == "tabular":
        cells = src * N_ACTIONS + act  # flat (state, action) index of each transition
        size = n_states * N_ACTIONS
        counts = np.bincount(cells, minlength=size).reshape(n_states, N_ACTIONS)
        visited = counts > 0
        acted = np.flatnonzero(visited.any(axis=1)).tolist()  # the ids some action was taken from
    elif backend == "linear":
        feats = observation_features(np.stack(index.obs))
    else:
        raise InputError(f"unknown backend {backend!r}")

    estimators = {}
    for atom in ds.vocab:
        for positive in (True, False):
            lit = (atom, positive)
            sat = np.array([literal_satisfied(lit, label) for label in index.labels], dtype=bool)
            residual = np.inf
            if backend == "tabular":
                # sweeps alternate two tables; divide writes only visited
                # entries, so the unvisited ones of both stay 0
                q, q_new, diff = (np.zeros((n_states, N_ACTIONS)) for _ in range(3))
                for it in range(iters):
                    # the target of a transition depends only on its next state
                    target = (gamma * np.where(sat, 1.0, q.max(axis=1)))[dst]
                    sums = np.bincount(cells, weights=target, minlength=size)
                    np.divide(sums.reshape(n_states, N_ACTIONS), counts, out=q_new, where=visited)
                    residual = float(np.abs(np.subtract(q_new, q, out=diff), out=diff).max())
                    q, q_new = q_new, q
                    if residual < FQI_TOL:
                        break
                v = q.max(axis=1).tolist()
                est = TabularPvf(gamma, {index.keys[i]: v[i] for i in acted})
            else:
                sat_next = sat[dst]
                w = np.zeros((N_ACTIONS, feats.shape[1]))
                for it in range(iters):
                    next_q = np.clip((feats[dst] @ w.T).max(axis=1), 0.0, 1.0)
                    target = gamma * np.where(sat_next, 1.0, next_q)
                    w_new = np.zeros_like(w)
                    for a in range(N_ACTIONS):
                        mask = act == a
                        if mask.any():
                            w_new[a], *_ = np.linalg.lstsq(feats[src[mask]], target[mask], rcond=None)
                    residual = float(np.abs(w_new - w).max())
                    w = w_new
                    if residual < FQI_TOL:
                        break
                est = LinearPvf(gamma, w)
            if residual >= FQI_TOL:
                warnings.warn(
                    f"PVF for literal {lit} did not converge (residual {residual:.3g})",
                    NonConvergenceWarning,
                )
            estimators[lit] = est
    obs_shape = index.obs[0].shape if backend == "tabular" else None
    return PvfSet(ds.vocab, gamma, "fqi", estimators, obs_shape)


def mc_targets(ids: list[int], sat: list[bool], gamma: float) -> list[float]:
    """Per-step Monte-Carlo targets of a walk by ids: gamma^(k-t) for the first k > t with sat[ids[k]]."""
    targets = [0.0] * len(ids)
    nxt = 0.0
    for t in range(len(ids) - 2, -1, -1):
        nxt = gamma if sat[ids[t + 1]] else gamma * nxt
        targets[t] = nxt
    return targets


def train_pvfs_mc(ds: GroundingDataset, gamma: float) -> PvfSet:
    """Monte-Carlo regression of discounted first-satisfaction returns (tabular); EmptyDatasetError on a
    dataset with no trajectories."""
    check_open_unit("gamma", gamma)
    _check_nonempty(ds)
    keys, trajectories = ds.index.keys, ds.trajectories
    src = [i for tr in trajectories for i in tr.ids[:-1]]  # the id of each step with a successor
    counts = np.bincount(src, minlength=len(keys))
    estimators = {}
    for atom in ds.vocab:
        for positive in (True, False):
            lit = (atom, positive)
            sat = [literal_satisfied(lit, label) for label in ds.index.labels]
            targets = [g for tr in trajectories for g in mc_targets(tr.ids, sat, gamma)[:-1]]
            # bincount adds each id's targets in dataset order, as a running sum would
            sums = np.bincount(src, weights=targets, minlength=len(keys)).tolist()
            v = {keys[i]: sums[i] / int(counts[i]) for i in dict.fromkeys(src)}
            estimators[lit] = TabularPvf(gamma, v)
    return PvfSet(ds.vocab, gamma, "mc", estimators, ds.index.obs[0].shape)


def __getattr__(name: str):
    """The model-file functions the benchmark calls by this module, which rmgcr.files holds."""
    if name in ("save_pvfs", "load_pvfs", "save_label_model"):
        from . import files
        return getattr(files, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

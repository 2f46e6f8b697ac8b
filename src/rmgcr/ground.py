"""Offline grounding: labelling-function classifiers and primitive value functions.

Primitive value functions (PVFs) estimate, for every literal (an atom or
its negation), the optimal discounted value of reaching a state whose
label satisfies the literal. Satisfaction is evaluated on the *next*
state, so a guaranteed one-step satisfaction is worth gamma and a state
k steps away is worth gamma^k.
"""

from __future__ import annotations

import json
import pathlib
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geogrid import GroundingDataset, OutOfRangeError, check_seed, decode_entry, encode_entry, obs_key
from .logic import Literal

N_ACTIONS = 4

FEATURE_MAP_VERSION = 1
# pvfs.json layout: 2 writes the observation table once and a value list per tabular literal
PVF_FORMAT_VERSION = 2

# full-batch gradient descent of the linear label fit
LABEL_LR = 1.0
LABEL_EPOCHS = 300
# FQI stops once no Q-value (or weight) moves by this much in a sweep
FQI_TOL = 1e-9


class DegenerateAtomError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"atom {name!r} is constant across the dataset")
        self.name = name


class NonConvergenceWarning(UserWarning):
    pass


class ModelFormatError(ValueError):
    """A saved model file this version cannot read: unknown estimator kind or feature map."""


def check_open_unit(name: str, value: float) -> None:
    """Raise OutOfRangeError unless 0 < value < 1, which NaN fails too."""
    if not (0.0 < value < 1.0):
        raise OutOfRangeError(f"{name} must lie in (0, 1), not {value!r}")


def check_count(name: str, value: int) -> None:
    """Raise OutOfRangeError unless value is at least 1."""
    if not value >= 1:
        raise OutOfRangeError(f"{name} must be at least 1, not {value!r}")


def observation_features(obs: np.ndarray) -> np.ndarray:
    """Per-cell agent*property products (one per property channel) plus raw channels.

    The product features make each grid proposition exactly linearly
    realizable: the product for channel i sums to 1 iff the agent stands
    on a cell with property i.
    """
    o = obs.astype(np.float64)
    agent = o[:, :, -1]
    products = (o[:, :, :-1] * agent[:, :, None]).sum(axis=(0, 1))
    return np.concatenate([products, o.reshape(-1)])


def _sigmoid(z):
    # np.minimum/np.maximum give np.clip's values without its wrapper's overhead
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -60), 60)))


def _linear_scores(weights: np.ndarray, bias: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Per-atom scores of the linear label model at one feature vector."""
    return _sigmoid(weights @ f + bias)


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
        if self.backend == "linear":
            return _linear_scores(self.weights, self.bias, observation_features(obs))
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
    per step). Tabular backend: memorize observation -> label. Held-out
    accuracy is measured on a trailing trajectory split and stored on the
    model; when the split holds out no trajectory (holdout_fraction 0, or
    too few trajectories), it is training accuracy and accuracy_split says
    "train". Features and scores are computed once per distinct
    observation; the accuracy counts every row.
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
        features = np.array([observation_features(obs) for obs in index.obs])
        rows = Counter(train_ids)  # distinct ids in order of first appearance
        ids = list(rows)
        x, y_ids = features[ids], y[ids]
        m = np.array(list(rows.values()), dtype=np.float64)[:, None]
        n = len(train_ids)
        rng = np.random.default_rng(seed)
        w = rng.normal(scale=0.01, size=(len(ds.vocab), x.shape[1]))
        b = np.zeros(len(ds.vocab))
        for _ in range(LABEL_EPOCHS):
            p = _sigmoid(x @ w.T + b)  # (distinct ids, atoms)
            grad = m * (p - y_ids) / n
            w -= LABEL_LR * grad.T @ x
            b -= LABEL_LR * grad.sum(axis=0)
        model = LabelModel(ds.vocab, "linear", threshold=threshold, weights=w, bias=b)
    else:
        raise ValueError(f"unknown backend {backend!r}")

    correct = {a: 0 for a in ds.vocab}
    for i, count in Counter(eval_ids).items():
        if backend == "linear":
            scores = _linear_scores(w, b, features[i])
        else:
            scores = model.scores(index.obs[i])
        for a, s in zip(ds.vocab, scores.tolist()):
            correct[a] += count * ((s >= threshold) == (a in index.labels[i]))
    model.holdout_accuracy = {a: correct[a] / len(eval_ids) for a in ds.vocab}
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
        value. The same clip as value keeps every entry equal to it bit for
        bit, signed zeros included.
        """
        out = np.empty((len(lits), len(observations)))
        keys = [obs_key(obs) for obs in observations]
        for row, lit in zip(out, lits):
            est = self.estimators[lit]
            if isinstance(est, TabularPvf):
                get = est.v.get
                raw = [get(k, 0.0) for k in keys]
            else:
                raw = [est.value(obs) for obs in observations]
            row[:] = [min(max(x, 0.0), 1.0) for x in raw]
        return out

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
    entries read as 0; observations met in no transition get no tabular
    entry.
    """
    check_open_unit("gamma", gamma)
    check_count("iters", iters)
    index = ds.index
    n_states = len(index.keys)
    src, act, dst = [], [], []
    for tr in ds.trajectories:
        src += tr.ids[:-1]
        act += tr.actions
        dst += tr.ids[1:]
    src, act, dst = (np.array(c, dtype=np.int64) for c in (src, act, dst))
    in_transition = np.flatnonzero(np.bincount(np.concatenate([src, dst]), minlength=n_states))

    if backend == "tabular":
        cells = src * N_ACTIONS + act  # flat (state, action) index of each transition
        size = n_states * N_ACTIONS
        counts = np.bincount(cells, minlength=size).reshape(n_states, N_ACTIONS)
        visited = counts > 0
    elif backend == "linear":
        feats = np.array([observation_features(obs) for obs in index.obs])
    else:
        raise ValueError(f"unknown backend {backend!r}")

    estimators = {}
    for atom in ds.vocab:
        for positive in (True, False):
            lit = (atom, positive)
            sat = np.array([literal_satisfied(lit, label) for label in index.labels], dtype=bool)
            residual = np.inf
            if backend == "tabular":
                q = np.zeros((n_states, N_ACTIONS))
                for it in range(iters):
                    # the target of a transition depends only on its next state
                    target = (gamma * np.where(sat, 1.0, q.max(axis=1)))[dst]
                    sums = np.bincount(cells, weights=target, minlength=size)
                    sums = sums.reshape(n_states, N_ACTIONS)
                    q_new = np.divide(sums, counts, out=np.zeros_like(q), where=visited)
                    residual = float(np.abs(q_new - q).max())
                    q = q_new
                    if residual < FQI_TOL:
                        break
                v = q.max(axis=1).tolist()
                est = TabularPvf(gamma, {index.keys[i]: v[i] for i in in_transition.tolist()})
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


def mc_targets(labels: list, lit: Literal, gamma: float) -> list[float]:
    """Per-step Monte-Carlo targets: gamma^(k-t) for the first k > t satisfying lit."""
    n = len(labels)
    targets = [0.0] * n
    nxt = 0.0
    for t in range(n - 2, -1, -1):
        nxt = gamma if literal_satisfied(lit, labels[t + 1]) else gamma * nxt
        targets[t] = nxt
    return targets


def train_pvfs_mc(ds: GroundingDataset, gamma: float) -> PvfSet:
    """Monte-Carlo regression of discounted first-satisfaction returns (tabular)."""
    check_open_unit("gamma", gamma)
    keys, trajectories = ds.index.keys, ds.trajectories
    src = [i for tr in trajectories for i in tr.ids[:-1]]  # the id of each step with a successor
    counts = np.bincount(src, minlength=len(keys))
    estimators = {}
    for atom in ds.vocab:
        for positive in (True, False):
            lit = (atom, positive)
            targets = [g for tr in trajectories for g in mc_targets(tr.labels, lit, gamma)[:-1]]
            # bincount adds each id's targets in dataset order, as a running sum would
            sums = np.bincount(src, weights=targets, minlength=len(keys)).tolist()
            v = {keys[i]: sums[i] / int(counts[i]) for i in dict.fromkeys(src)}
            estimators[lit] = TabularPvf(gamma, v)
    return PvfSet(ds.vocab, gamma, "mc", estimators, ds.index.obs[0].shape)


# ---------------------------------------------------------------------------
# Serialization


def save_label_model(model: LabelModel, path) -> None:
    data = {
        "vocab": list(model.vocab),
        "backend": model.backend,
        "threshold": model.threshold,
        "feature_version": FEATURE_MAP_VERSION,
        "holdout_accuracy": model.holdout_accuracy,
        "accuracy_split": model.accuracy_split,
    }
    if model.backend == "linear":
        data["weights"] = model.weights.tolist()
        data["bias"] = model.bias.tolist()
    else:
        data["table"] = {k.hex(): v.tolist() for k, v in model.table.items()}
    with open(path, "w") as fh:
        fh.write(json.dumps(data, sort_keys=True))  # the C encoder; json.dump is pure Python


def _check_feature_version(data: dict, path) -> None:
    if data.get("feature_version") != FEATURE_MAP_VERSION:
        raise ModelFormatError(
            f"{path}: feature_version {data.get('feature_version')!r} is not "
            f"{FEATURE_MAP_VERSION}; ground the models again"
        )


def load_label_model(path) -> LabelModel:
    with open(path) as fh:
        data = json.load(fh)
    _check_feature_version(data, path)
    model = LabelModel(tuple(data["vocab"]), data["backend"], threshold=data["threshold"])
    if model.backend == "linear":
        model.weights, model.bias = np.asarray(data["weights"]), np.asarray(data["bias"])
    else:
        model.table = {bytes.fromhex(k): np.asarray(v) for k, v in data["table"].items()}
    model.holdout_accuracy = data.get("holdout_accuracy", {})
    model.accuracy_split = data.get("accuracy_split", "holdout")
    return model


def _lit_key(lit: Literal) -> str:
    return ("+" if lit[1] else "-") + lit[0]


def _lit_from_key(s: str) -> Literal:
    return (s[1:], s[0] == "+")


def save_pvfs(pvfs: PvfSet, path) -> None:
    """Write pvfs in format 2: the observation table once, then each literal's estimator.

    The table holds every observation a tabular estimator has an entry
    for, in order of first sight, as [shape, hex] like a dataset header.
    A tabular literal stores one value per table entry, null where it has
    none; a linear one its weights.
    """
    table: dict = {}  # obs key -> position in the table
    for est in pvfs.estimators.values():
        if isinstance(est, TabularPvf):
            for k in est.v:
                table.setdefault(k, len(table))
    if table and pvfs.obs_shape is None:
        raise ValueError("saving tabular PVFs needs the PvfSet's obs_shape")
    ests = {}
    for lit, est in pvfs.estimators.items():
        if isinstance(est, TabularPvf):
            values = [None] * len(table)
            for k, v in est.v.items():
                values[table[k]] = v
            ests[_lit_key(lit)] = {"kind": "tabular", "v": values}
        elif isinstance(est, LinearPvf):
            ests[_lit_key(lit)] = {"kind": "linear", "weights": est.weights.tolist()}
        else:
            raise TypeError(f"cannot serialize {type(est)}")
    data = {
        "format_version": PVF_FORMAT_VERSION,
        "vocab": list(pvfs.vocab),
        "gamma": pvfs.gamma,
        "method": pvfs.method,
        "feature_version": FEATURE_MAP_VERSION,
        "observations": [encode_entry(pvfs.obs_shape, k) for k in table],
        "estimators": ests,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(data, sort_keys=True))


def load_pvfs(path) -> PvfSet:
    """Read a format-2 PVF file; see save_pvfs.

    Each table entry is decoded once, and every tabular literal's dict
    shares those keys. Raises ModelFormatError for a file of another
    format or feature map, a table entry whose hex does not fit its shape
    or whose shape differs from the first entry's, a value list whose
    length is not the table's, or an unknown estimator kind.
    """
    with open(path) as fh:
        data = json.load(fh)
    version = data.get("format_version")
    if version is None:
        linear = any(e.get("kind") == "linear" for e in data.get("estimators", {}).values())
        backend = " --pvf-backend linear" if linear else ""
        raise ModelFormatError(
            f"{path} is a format-1 PVF file, which this version no longer reads; regenerate it "
            f"with `rmgcr ground --dataset <dataset> --out {pathlib.Path(path).parent} --method "
            f"{data.get('method')} --gamma {data.get('gamma')}{backend}` and the options it was "
            f"grounded with"
        )
    if version != PVF_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported PVF file format {version!r}; expected {PVF_FORMAT_VERSION}"
        )
    _check_feature_version(data, path)
    gamma = data["gamma"]
    obs_shape = None
    keys = []
    for k, entry in enumerate(data["observations"]):
        shape, raw = decode_entry(k, entry, ModelFormatError)
        if obs_shape is None:
            obs_shape = shape
        elif shape != obs_shape:
            raise ModelFormatError(
                f"{path}: table entry {k} has shape {list(shape)}, not {list(obs_shape)}"
            )
        keys.append(raw)
    estimators = {}
    for key, entry in data["estimators"].items():
        lit = _lit_from_key(key)
        kind = entry.get("kind")
        if kind == "tabular":
            values = entry["v"]
            if not (isinstance(values, list) and len(values) == len(keys)):
                raise ModelFormatError(
                    f"{path}: the values of {key} are not a list of one per table observation "
                    f"({len(keys)})"
                )
            estimators[lit] = TabularPvf(
                gamma, {k: float(v) for k, v in zip(keys, values) if v is not None}
            )
        elif kind == "linear":
            estimators[lit] = LinearPvf(gamma, np.asarray(entry["weights"]))
        else:
            raise ModelFormatError(f"{path}: unknown estimator kind {kind!r} for {key}")
    return PvfSet(tuple(data["vocab"]), gamma, data["method"], estimators, obs_shape)

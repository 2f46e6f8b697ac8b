"""Every file the program reads back: grid configs, datasets, label models, PVF sets and policies.

A file this version cannot read raises FormatError (exit 3), naming what is
at fault. fields reads typed fields; write_header and read_header are the
one home of format_version, feature_version and the [shape, hex] table of
observations. Files are written with json.dumps, whose C encoder gives
json.dump's bytes in about half the time. Only cli and the package import
this module at load time.
"""

from __future__ import annotations

import json
import math
import pathlib
from collections import namedtuple

import numpy as np

from .agent import GreedyPolicy
from .errors import InputError, check_open_unit
from .geogrid import N_ACTIONS, GridConfig, GroundingDataset, ObjectSpec, ObsIndex, Trajectory, config_to_dict
from .ground import FEATURE_MAP_VERSION, LabelModel, LinearPvf, PvfSet, TabularPvf

DATASET_FORMAT_VERSION = 2
# pvfs.json layout: 2 writes the observation table once and a value list per tabular literal
PVF_FORMAT_VERSION = 2

# per file kind with a format version: that version, the format_version a format-1 file holds,
# the command that regenerates a format-1 file, filled in from it, and what else that needs
FORMATS = {
    "dataset": (DATASET_FORMAT_VERSION, 1, "rmgcr gen-dataset --out {path} --n {n} --seed {seed}",
                "the grid options it was made with"),
    "PVF file": (PVF_FORMAT_VERSION, None, "rmgcr ground --dataset <dataset> --out {dir} --method "
                 "{method} --gamma {gamma}{backend}", "the options it was grounded with"),
}


class FormatError(InputError):
    """A grid config, dataset, model or policy file this version cannot read: not JSON, of another
    format or feature map, or a field missing, of the wrong type or not fitting the others."""


# the kind of a field, for fields: a test of its parsed JSON value, and what the test asks for
Kind = namedtuple("Kind", "test noun")
ANY = Kind(lambda v: True, "anything")
INT = Kind(lambda v: type(v) is int, "an integer")
NUMBER = Kind(lambda v: finite_numbers([v]), "a number")
TEXT = Kind(lambda v: isinstance(v, str), "a string")
TEXTS = Kind(lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v), "a list of strings")
LIST = Kind(lambda v: isinstance(v, list), "a list")
OBJECT = Kind(lambda v: isinstance(v, dict), "a JSON object")
LABELS = Kind(lambda v: isinstance(v, list) and all(map(TEXTS.test, v)), "a list of lists of strings")
CELL = Kind(lambda v: v is None or (isinstance(v, list) and len(v) == 2 and all(map(INT.test, v))),
            "a [row, col] pair of integers or null")
OBJECTS = Kind(lambda v: isinstance(v, list) and all(
    isinstance(o, list) and len(o) == 3 and TEXTS.test(o[:2]) and CELL.test(o[2]) for o in v
), "a list of [colour, shape, [row, col] or null]")
BOOL = Kind(lambda v: isinstance(v, bool), "true or false")
# each grid config field as config_to_dict writes it, in GridConfig's order
CONFIG = {"width": INT, "height": INT, "objects": OBJECTS, "layout_mode": TEXT, "episode_len": INT,
          "seed": INT, "agent_start": CELL, "exclude_agent_from_objects": BOOL}


def fields(record: dict, what: str, path=None, **kinds) -> list:
    """The values of record's fields named in kinds, in that order, each passing its kind's test.

    Raises FormatError naming what and every missing field if record lacks
    any, or naming path (if given), what and the field if one fails its test.
    """
    try:
        values = [record[name] for name in kinds]
    except KeyError:
        raise FormatError(f"{what} lacks {', '.join(n for n in kinds if n not in record)}") from None
    for value, (name, kind) in zip(values, kinds.items()):
        if not kind.test(value):
            where = f"{path}: {what}" if path else what
            raise FormatError(f"{where} field {name!r} must be {kind.noun}, not {value!r}")
    return values


def finite_numbers(values: list, null: bool = False) -> bool:
    """Whether each of values is an int or float that float() holds as a finite number, or, with null,
    None: one C-level scan of their types, then one of the numbers' finiteness.

    json reads NaN and Infinity as floats, and a bool is no number; an int
    beyond float range is none either, as math.isfinite cannot convert it.
    """
    if not set(map(type, values)) <= ({int, float, type(None)} if null else {int, float}):
        return False
    try:  # filter(None, ...) drops None and the zeros, which are finite
        return all(map(math.isfinite, filter(None, values)))
    except OverflowError:
        return False


def numbers(value, n: int) -> bool:
    """Whether value is a list of n finite numbers."""
    return isinstance(value, list) and len(value) == n and finite_numbers(value)


def rows_of_numbers(value, n: int) -> bool:
    """Whether value is a list of n lists of finite numbers, all of one length."""
    width = len(value[0]) if isinstance(value, list) and value and isinstance(value[0], list) else -1
    return isinstance(value, list) and len(value) == n and all(numbers(row, width) for row in value)


def json_object(text: str, what: str) -> dict:
    """text parsed as a JSON object; raises FormatError, naming what, if it is not JSON or no object."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{what} is not JSON: {e}") from None
    if not isinstance(record, dict):
        raise FormatError(f"{what} is not a JSON object")
    return record


def write_header(kind: str, shape=None, keys=()) -> dict:
    """The header fields of a kind file: feature_version unless it is a dataset, and for a kind in
    FORMATS its format_version and the observation table, each of keys as [shape, hex]."""
    head = {} if kind == "dataset" else {"feature_version": FEATURE_MAP_VERSION}
    if kind in FORMATS:
        head.update(format_version=FORMATS[kind][0], observations=[[list(shape), k.hex()] for k in keys])
    return head


def read_header(kind: str, data: dict, path, old=dict, **kinds) -> tuple:
    """(fields(data, ..., **kinds), shape, keys) of data as write_header(kind) writes it.

    The table, if kinds name observations, is decoded once into its shape and
    each entry's bytes. Raises FormatError for a format-1 file (naming the
    command that regenerates it, filled in from old()), another format or
    feature map, and a table entry that is no [shape, hex] pair, whose hex
    does not fit its shape, or whose shape is not the first entry's.
    """
    if kind in FORMATS:
        version, old_version, command, options = FORMATS[kind]
        found = data.get("format_version")
        if found == old_version:
            raise FormatError(
                f"{path} is a format-1 {kind}, which this version no longer reads; regenerate it "
                f"with `{command.format(**old())}` and {options}"
            )
        if found != version:
            where = "" if kind == "dataset" else f"{path}: "
            raise FormatError(f"{where}unsupported {kind} format {found!r}; expected {version}")
    if kind != "dataset" and data.get("feature_version") != FEATURE_MAP_VERSION:
        raise FormatError(
            f"{path}: feature_version {data.get('feature_version')!r} is not "
            f"{FEATURE_MAP_VERSION}; ground the models again"
        )
    what, at = ("the header", path) if kind == "dataset" else (str(path), None)
    values = fields(data, what, at, **kinds)
    first, keys = None, []
    for k, entry in enumerate(data["observations"] if "observations" in kinds else ()):
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], str)):
            raise FormatError(f"table entry {k} is not a [shape, hex] pair")
        dims, digits = entry
        if dims != first:  # an entry of the first entry's shape was checked with it
            if not (isinstance(dims, list) and all(type(d) is int and d >= 0 for d in dims)):
                raise FormatError(f"table entry {k} has shape {dims}, not a list of sizes")
            size = 2 * math.prod(dims)
        if len(digits) != size:
            raise FormatError(f"table entry {k} has {len(digits)} hex digits; shape {dims} needs {size}")
        try:
            keys.append(bytes.fromhex(digits))
        except ValueError as e:
            raise FormatError(f"table entry {k} is not hex: {e}") from None
        first = dims if first is None else first
        if dims != first:
            raise FormatError(f"{path}: table entry {k} has shape {dims}, not {first}")
    return values, None if first is None else tuple(first), keys


def load_grid_config(path, overrides: dict) -> GridConfig:
    """The grid config file at path, if any, with the overrides that are not None put over it."""
    data = {}
    if path is not None:
        try:
            data = json.loads(pathlib.Path(path).read_text())
        except json.JSONDecodeError as e:
            raise FormatError(f"grid config {path} is not JSON: {e}") from None
    given = {k: v for k, v in overrides.items() if v is not None}
    # the merged config is checked as a whole; config_from_dict rejects a file that is no object
    return config_from_dict({**data, **given} if isinstance(data, dict) else data)


def config_from_dict(d: dict) -> GridConfig:
    """The GridConfig of a mapping shaped as config_to_dict writes it; missing fields take defaults.

    Raises FormatError if d is not a dict, names a field GridConfig lacks,
    or gives a field a value of the wrong JSON type; GridConfig raises
    GridConfigError for a value of the right type it cannot use.
    """
    if not isinstance(d, dict):
        raise FormatError(f"a grid config must be a JSON object, not {type(d).__name__}")
    unknown = set(d) - set(CONFIG)
    if unknown:
        raise FormatError(f"unknown grid config fields {sorted(unknown)}")
    d = dict(zip(CONFIG, fields({**config_to_dict(GridConfig()), **d}, "grid config", **CONFIG)))
    objects = tuple(ObjectSpec(c, s, tuple(cell) if cell else None) for c, s, cell in d["objects"])
    start = tuple(d["agent_start"]) if d["agent_start"] else None
    return GridConfig(**{**d, "objects": objects, "agent_start": start})


def save_dataset(ds: GroundingDataset, path) -> None:
    """Write ds in format 2: a header with each distinct observation once, then ids per trajectory.

    The header holds vocab, meta, the table of distinct observations as
    [shape, hex of the uint8 bytes] and one sorted label per table entry.
    Each following line is one trajectory: {"actions": [...], "ids": [...]}.
    """
    obs = ds.index.obs
    if len({o.shape for o in obs}) > 1:  # the table has one shape; load_dataset rejects others
        raise ValueError("saving a dataset needs observations of one shape")
    keys = [o.astype(np.uint8, copy=False).tobytes() for o in obs]
    header = write_header("dataset", obs[0].shape if obs else None, keys)
    header.update(vocab=list(ds.vocab), meta=ds.meta, labels=[sorted(l) for l in ds.index.labels])
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for tr in ds.trajectories:
            fh.write(json.dumps({"actions": tr.actions, "ids": tr.ids}, sort_keys=True) + "\n")


def load_dataset(path) -> GroundingDataset:
    """Read a format-2 dataset; see save_dataset.

    The table entries the trajectories use are numbered into one ObsIndex
    in order of first use, so an unused entry drops, a duplicate merges with
    its first copy and raises InconsistentLabelError if labelled otherwise,
    and a file saved in that order keeps its ids. Raises FormatError on an
    empty file, a line that is not a JSON object, lacks a field or has one
    of the wrong type, what read_header rejects, a table label outside
    vocab, an id or an action out of range, or a trajectory whose ids and
    actions do not line up.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise FormatError(f"{path} is empty")
        header = json_object(first, "the header")
        (vocab, _, labels), shape, keys = read_header(
            "dataset", header, path,
            lambda: {"path": path, "n": sum(1 for _ in fh),
                     "seed": header.get("meta", {}).get("seed", "<seed>")},
            vocab=TEXTS, observations=LIST, labels=LABELS,
        )
        vocab, labels = tuple(vocab), [frozenset(l) for l in labels]
        table = [np.frombuffer(raw, dtype=np.uint8).reshape(shape) for raw in keys]
        if len(labels) != len(table):
            raise FormatError(f"the table has {len(table)} observations but {len(labels)} labels")
        for k, label in enumerate(labels):
            if not label <= set(vocab):
                raise FormatError(
                    f"table entry {k} has atoms {sorted(label - set(vocab))} outside the vocabulary"
                )
        index = ObsIndex()
        number = [-1] * len(table)  # file id -> index id, numbered on first use
        trajectories = []
        for t, line in enumerate(fh):
            what = f"trajectory {t}"
            record = json_object(line, what)
            ids, actions = record.get("ids"), record.get("actions")
            # one type test per field on this per-line path; fields names the fault
            if type(ids) is not list or type(actions) is not list:
                fields(record, what, path, ids=LIST, actions=LIST)
            if len(ids) != len(actions) + 1:
                raise FormatError(
                    f"{what} has {len(ids)} ids for {len(actions)} actions; it needs one more id than actions"
                )
            if min(ids) < 0 or max(ids) >= len(table):
                raise FormatError(f"{what} names an observation id outside 0..{len(table) - 1}")
            if min(actions, default=0) < 0 or max(actions, default=0) >= N_ACTIONS:
                raise FormatError(f"{what} has an action outside 0..{N_ACTIONS - 1}")
            for k in dict.fromkeys(ids):  # each distinct file id in order of first use
                if number[k] < 0:
                    number[k] = index.add(table[k], labels[k])
            trajectories.append(Trajectory(index, ids, actions))
    if any(n >= 0 and n != k for k, n in enumerate(number)):  # not saved in first-use order
        for tr in trajectories:
            tr.ids = [number[k] for k in tr.ids]
    return GroundingDataset(vocab, index, trajectories, header.get("meta", {}))


def save_label_model(model: LabelModel, path) -> None:
    data = write_header("label model")
    data.update(vocab=list(model.vocab), backend=model.backend, threshold=model.threshold)
    data.update(holdout_accuracy=model.holdout_accuracy, accuracy_split=model.accuracy_split)
    if model.backend == "linear":
        data.update(weights=model.weights.tolist(), bias=model.bias.tolist())
    else:
        data["table"] = {k.hex(): v.tolist() for k, v in model.table.items()}
    pathlib.Path(path).write_text(json.dumps(data, sort_keys=True))


def load_label_model(path) -> LabelModel:
    """A saved label model.

    Raises FormatError for what read_header rejects, an unknown backend,
    linear weights that are not one equally long row of numbers per atom or
    a bias that is not one number per atom, and a table key that is not hex
    or whose value is not one number per atom. The weights' width is not
    checked against the feature map.
    """
    data = json_object(pathlib.Path(path).read_text(), str(path))
    # the backend is checked against the known ones below, whatever its type
    (vocab, backend, threshold), _, _ = read_header(
        "label model", data, path, vocab=TEXTS, backend=ANY, threshold=NUMBER
    )
    if backend not in ("linear", "tabular"):
        raise FormatError(f"{path}: unknown label backend {backend!r}")
    model = LabelModel(tuple(vocab), backend, threshold=threshold)
    n = len(vocab)
    if backend == "linear":
        weights, bias = fields(data, str(path), weights=LIST, bias=LIST)
        if not rows_of_numbers(weights, n):
            raise FormatError(f"{path}: the weights are not {n} equally long lists of numbers, one per atom")
        if not numbers(bias, n):
            raise FormatError(f"{path}: the bias is not a list of {n} numbers, one per atom")
        model.weights, model.bias = np.asarray(weights), np.asarray(bias)
    else:
        (table,) = fields(data, str(path), table=OBJECT)
        model.table = {}
        for k, v in table.items():
            try:
                key = bytes.fromhex(k)
            except ValueError:
                raise FormatError(f"{path}: table key {k!r} is not hex") from None
            if not numbers(v, n):
                raise FormatError(f"{path}: the value of table key {k!r} is not a list of {n} numbers")
            model.table[key] = np.asarray(v)
    model.holdout_accuracy = data.get("holdout_accuracy", {})
    model.accuracy_split = data.get("accuracy_split", "holdout")
    return model


def save_pvfs(pvfs: PvfSet, path) -> None:
    """Write pvfs in format 2: the observation table once, then each literal's estimator.

    The table holds every observation a tabular estimator has an entry
    for, in order of first sight, as [shape, hex] like a dataset header.
    A tabular literal stores one value per table entry, null where it has
    none; a linear one its weights. Literals are keyed "+atom" or "-atom".
    """
    table: dict = {}  # obs key -> position in the table
    for est in pvfs.estimators.values():
        if isinstance(est, TabularPvf):
            for k in est.v:
                table.setdefault(k, len(table))
    if table and pvfs.obs_shape is None:
        raise ValueError("saving tabular PVFs needs the PvfSet's obs_shape")
    ests = {}
    for (atom, positive), est in pvfs.estimators.items():
        key = ("+" if positive else "-") + atom
        if isinstance(est, TabularPvf):
            values = [None] * len(table)
            for k, v in est.v.items():
                values[table[k]] = v
            ests[key] = {"kind": "tabular", "v": values}
        elif isinstance(est, LinearPvf):
            ests[key] = {"kind": "linear", "weights": est.weights.tolist()}
        else:
            raise TypeError(f"cannot serialize {type(est)}")
    data = write_header("PVF file", pvfs.obs_shape, table)
    data.update(vocab=list(pvfs.vocab), gamma=pvfs.gamma, method=pvfs.method, estimators=ests)
    pathlib.Path(path).write_text(json.dumps(data, sort_keys=True))


def load_pvfs(path) -> PvfSet:
    """Read a format-2 PVF file; see save_pvfs.

    Each table entry is decoded once, and every tabular literal's dict
    shares those keys. Raises FormatError for a file that is no JSON object,
    what read_header rejects, an estimator key that names no literal of the
    vocabulary or a literal with no estimator, an estimator entry that is no
    JSON object or lacks its weights, linear weights that are not one
    equally long row of numbers per action, a value list that is not one
    finite number or null per table entry, or an unknown estimator kind, and
    OutOfRangeError for a gamma outside (0, 1).
    """
    data = json_object(pathlib.Path(path).read_text(), str(path))

    def old() -> dict:
        ests = data.get("estimators", {})
        linear = any(isinstance(e, dict) and e.get("kind") == "linear" for e in ests.values())
        backend = " --pvf-backend linear" if linear else ""
        return {"dir": pathlib.Path(path).parent, "method": data.get("method"), "gamma": data.get("gamma"),
                "backend": backend}

    (vocab, gamma, method, _, entries), shape, keys = read_header(
        "PVF file", data, path, old,
        vocab=TEXTS, gamma=NUMBER, method=TEXT, observations=LIST, estimators=OBJECT,
    )
    check_open_unit(f"{path}: gamma", gamma)
    lits = {("+" if positive else "-") + a: (a, positive) for a in vocab for positive in (True, False)}
    estimators = {}
    for key, entry in entries.items():
        if key not in lits:
            raise FormatError(f"{path}: estimator key {key!r} names no literal of the vocabulary {vocab}")
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: the estimator of {key} is not a JSON object")
        kind = entry.get("kind")
        if kind == "tabular":
            values = entry.get("v")
            if not (isinstance(values, list) and len(values) == len(keys)
                    and finite_numbers(values, null=True)):
                raise FormatError(
                    f"{path}: the values of {key} are not a list of one finite number or null per "
                    f"table observation ({len(keys)})"
                )
            estimators[lits[key]] = TabularPvf(
                gamma, {k: float(v) for k, v in zip(keys, values) if v is not None}
            )
        elif kind == "linear":
            (weights,) = fields(entry, f"{path}: the estimator of {key}", weights=LIST)
            if not rows_of_numbers(weights, N_ACTIONS):
                raise FormatError(
                    f"{path}: the weights of {key} are not {N_ACTIONS} equally long lists of numbers"
                )
            estimators[lits[key]] = LinearPvf(gamma, np.asarray(weights))
        else:
            raise FormatError(f"{path}: unknown estimator kind {kind!r} for {key}")
    if len(estimators) != len(lits):
        raise FormatError(f"{path}: the estimators are not one per literal of the vocabulary {vocab}")
    return PvfSet(tuple(vocab), gamma, method, estimators, shape)


def save_policy(policy: GreedyPolicy, path) -> None:
    data = {f"{key.hex()}/{u}": q.tolist() for (key, u), q in sorted(policy.q.items())}
    pathlib.Path(path).write_text(json.dumps(data, sort_keys=True))


def load_policy(path) -> GreedyPolicy:
    """A policy save_policy wrote.

    Raises FormatError if it is no JSON object, a key is no <hex>/<int>, a
    value is no list of N_ACTIONS numbers, or two keys' observations differ
    in size.
    """
    data = json_object(pathlib.Path(path).read_text(), str(path))
    q = {}
    for key, values in data.items():
        try:
            obs_hex, u = key.split("/")
            state = (bytes.fromhex(obs_hex), int(u))
        except ValueError:
            raise FormatError(f"{path}: policy key {key!r} is not <hex>/<int>") from None
        if not numbers(values, N_ACTIONS):
            raise FormatError(
                f"{path}: the values of policy key {key!r} are not a list of {N_ACTIONS} numbers"
            )
        q[state] = np.asarray(values)
    if len({len(obs) for obs, _ in q}) > 1:
        raise FormatError(f"{path}: the policy keys' observations differ in size")
    return GreedyPolicy(q)

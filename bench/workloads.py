"""The three benchmark workloads: reinforce, ground and compose.

Each workload turns its seed into inputs, then runs rounds of units. A
round is a fixed mix of units, so throughput compares like with like
whatever the seed. The harness calls, per unit:

- `run(unit, workdir)`: the library work that is timed (and traced);
- `check(unit, workdir, result)`: untimed verification, returning a
  `Checked` with the unit's work count, an output digest that must repeat
  on a rerun, and the problems found.

`prepare()` builds the benchmark's own reference data and `setup()` the
library state the units share; both count towards `setup_s`, and only
`setup()` is traced. `nominal_round_s` is roughly how long a round and
its rerun take (traced) on the reference machine: a traced run does
`seconds / nominal_round_s` rounds, so that its counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

# library functions are called through their modules, so the tracer's
# patches apply to the benchmark's own calls too
from rmgcr import agent, cli, compose, geogrid, ground, rm
from rmgcr.geogrid import GridConfig
from rmgcr.logic import Not, Var

GAMMA = 0.97
GAMMA_RM = 0.97**10
# criterion 6: a single-literal guard's composed value equals the oracle
SINGLE_LITERAL_TOL = 1e-6
# criterion 9: held-out accuracy of the learned labelling, per atom
MIN_LABEL_ACCURACY = 0.99


@dataclass(frozen=True)
class Unit:
    label: str
    args: tuple


@dataclass
class Checked:
    items: int
    digest: str
    problems: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)  # additive counts, summed over units


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _file_digest(*paths: Path) -> str:
    return _digest(*(p.read_bytes() for p in paths))


def _run_cli(argv) -> tuple[int, str]:
    """Run the CLI in-process, capturing what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _cell_obs(cfg: GridConfig) -> dict:
    base = geogrid.reset(cfg)
    return {
        (r, c): geogrid.encode_obs(replace(base, agent=(r, c)))
        for r in range(cfg.height)
        for c in range(cfg.width)
    }


class CountingPolicy:
    """Forwards to a policy and counts the actions it is asked for (one per step)."""

    def __init__(self, policy):
        self.policy = policy
        self.actions = 0

    def action(self, *args, **kwargs):
        self.actions += 1
        return self.policy.action(*args, **kwargs)


class Reinforce:
    """Criterion 8's sweep on logic.rm: Q-learning under three shapings."""

    name = "reinforce"
    item = "steps"
    throughput_name = "train_steps_per_s"
    nominal_round_s = 5.0
    setup_repeats = 3
    SHAPINGS = ("composed", "high-level", "none")
    DATASET_TRAJECTORIES = 200
    EPISODES = 300
    EVAL_EPISODES = 30

    def __init__(self, root: Path, seed: int, tmp: Path):
        self.cfg = GridConfig()
        self.task = root / "tasks" / "logic.rm"
        self.rng = random.Random(f"{self.name}-{seed}")
        self.dataset_seed = self.rng.randrange(2**31)
        self.quality: dict = {}

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        ds = geogrid.generate_dataset(
            self.cfg, self.DATASET_TRAJECTORIES, seed=self.dataset_seed
        )
        self.label_model = ground.train_label_model(ds)
        pvfs = ground.train_pvfs_fqi(geogrid.full_coverage_dataset(self.cfg), GAMMA)
        self.rm = rm.load_rm(self.task)
        self.cvf = compose.make_composed_value_fn(self.rm, pvfs, GAMMA_RM)
        self.rm_values = compose.rm_value_iteration(self.rm, GAMMA_RM, GAMMA)

    def round(self, r: int) -> list[Unit]:
        agent_seed = self.rng.randrange(2**31)
        eval_seed = self.rng.randrange(2**31)
        return [
            Unit(f"{shaping} seed {agent_seed}", (shaping, agent_seed, eval_seed))
            for shaping in self.SHAPINGS
        ]

    def run(self, unit: Unit, workdir: Path):
        shaping, agent_seed, eval_seed = unit.args
        start = time.perf_counter()
        policy, report = agent.train(
            self.cfg,
            self.rm,
            self.label_model,
            agent.AgentConfig(shaping=shaping, episodes=self.EPISODES, seed=agent_seed),
            cvf=self.cvf,
            rm_values=self.rm_values,
        )
        train_s = time.perf_counter() - start
        counted = CountingPolicy(policy)
        stats = agent.evaluate(
            counted, self.cfg, self.rm, n_episodes=self.EVAL_EPISODES, seed=eval_seed
        )
        return report, stats, counted.actions, train_s

    def check(self, unit: Unit, workdir: Path, result) -> Checked:
        report, stats, eval_steps, train_s = result
        shaping = unit.args[0]
        episodes = [(e.perceived_return, e.actual_return, e.steps) for e in report.episodes]
        train_steps = sum(e.steps for e in report.episodes)
        self.quality[unit.label] = (shaping, stats["mean"])
        return Checked(
            items=train_steps + eval_steps,
            digest=_digest(episodes, stats["returns"]),
            stats={
                "train_steps": train_steps,
                "train_episodes": len(episodes),
                "eval_steps": eval_steps,
                "train_s": train_s,
                f"train_steps.{shaping}": train_steps,
            },
        )

    def summary(self) -> dict:
        composed = [mean for shaping, mean in self.quality.values() if shaping == "composed"]
        return {
            "eval_return": sum(composed) / len(composed) if composed else 0.0,
            "label_accuracy": min(self.label_model.holdout_accuracy.values()),
        }


class Ground:
    """`rmgcr gen-dataset` then `rmgcr ground`, through JSONL on disk."""

    name = "ground"
    item = "transitions"
    throughput_name = "transitions_per_s"
    nominal_round_s = 2.0
    setup_repeats = 20
    TRAJECTORIES = 50

    def __init__(self, root: Path, seed: int, tmp: Path):
        self.cfg = GridConfig()
        self.rng = random.Random(f"{self.name}-{seed}")
        self.quality: dict = {}

    def prepare(self) -> None:
        # exact value of every literal at every cell: a random walk this
        # long covers every (cell, action), so tabular FQI must match it
        self.cell_obs = _cell_obs(self.cfg)
        self.reference = {}
        for atom in geogrid.VOCAB:
            for positive in (True, False):
                guard = Var(atom) if positive else Not(Var(atom))
                table = compose.exact_product_values(
                    self.cfg, rm.reachability_rm(geogrid.VOCAB, guard), GAMMA
                )
                self.reference[(atom, positive)] = {
                    cell: table.value_at(cell, 1) for cell in self.cell_obs
                }

    def setup(self) -> None:
        pass

    def round(self, r: int) -> list[Unit]:
        seed = self.rng.randrange(2**31)
        return [Unit(f"dataset seed {seed}", (seed,))]

    def run(self, unit: Unit, workdir: Path):
        (seed,) = unit.args
        dataset = workdir / "dataset.jsonl"
        gen = _run_cli(
            ["gen-dataset", "--out", dataset, "--n", self.TRAJECTORIES, "--seed", seed]
        )
        fit = _run_cli(["ground", "--dataset", dataset, "--out", workdir / "models"])
        return gen, fit

    def check(self, unit: Unit, workdir: Path, result) -> Checked:
        problems = [
            f"{cmd} exited {code}: {out.strip()[-200:]}"
            for cmd, (code, out) in zip(("gen-dataset", "ground"), result)
            if code != 0
        ]
        if problems:
            return Checked(0, "", problems)
        models = workdir / "models"
        accuracy = json.loads((models / "metrics.json").read_text())["holdout_accuracy"]
        worst_acc = min(accuracy.values())
        if worst_acc < MIN_LABEL_ACCURACY:
            problems.append(f"held-out label accuracy {worst_acc:.4f} < {MIN_LABEL_ACCURACY}")
        pvfs = ground.load_pvfs(models / "pvfs.json")
        worst_dev = max(
            abs(pvfs.value(lit, self.cell_obs[cell]) - want)
            for lit, table in self.reference.items()
            for cell, want in table.items()
        )
        if worst_dev >= SINGLE_LITERAL_TOL:
            problems.append(f"PVF deviates from the exact literal value by {worst_dev:.3g}")
        self.quality[unit.label] = worst_acc
        paths = [workdir / "dataset.jsonl"] + [
            models / f for f in ("label_model.json", "pvfs.json", "metrics.json")
        ]
        return Checked(
            items=self.TRAJECTORIES * self.cfg.episode_len,
            digest=_file_digest(*paths),
            problems=problems,
        )

    def summary(self) -> dict:
        return {"label_accuracy": min(self.quality.values(), default=0.0)}


class Compose:
    """`rmgcr oracle --models` on the task files and on seeded random DNF guards."""

    name = "compose"
    item = "states"
    throughput_name = "product_states_per_s"
    nominal_round_s = 1.5
    setup_repeats = 20
    # clause sizes of the guards in every round; only atoms and signs
    # are drawn from the seed, so each round does a similar amount of work
    GUARD_SHAPES = ((1,), (1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 2, 1))

    def __init__(self, root: Path, seed: int, tmp: Path):
        self.cfg = GridConfig()
        self.tasks_dir = root / "tasks"
        self.models = tmp / "models"
        self.rng = random.Random(f"{self.name}-{seed}")
        self.quality: dict = {}
        self.skipped: dict = {}

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        self.models.mkdir(parents=True, exist_ok=True)
        coverage = geogrid.full_coverage_dataset(self.cfg)
        ground.save_pvfs(ground.train_pvfs_fqi(coverage, GAMMA), self.models / "pvfs.json")
        # `--models` also loads a label model; the oracle never uses it
        labels = ground.train_label_model(coverage, backend="tabular", holdout_fraction=0.0)
        ground.save_label_model(labels, self.models / "label_model.json")
        self.tasks = []
        for path in sorted(self.tasks_dir.glob("*.rm")):
            machine = rm.load_rm(path)
            unlabelled = sorted(set(machine.vocab) - set(geogrid.VOCAB))
            if unlabelled:
                # valued over the RM graph only: the grid never labels these atoms
                compose.rm_value_iteration(machine, GAMMA_RM, GAMMA)
                self.skipped[path.name] = f"the grid labelling never produces {unlabelled}"
            else:
                self.tasks.append(path)

    def _guard(self, shape: tuple) -> str:
        clauses = []
        for size in shape:
            atoms = self.rng.sample(geogrid.VOCAB, size)
            lits = [a if self.rng.random() < 0.5 else f"!{a}" for a in atoms]
            clauses.append("(" + " & ".join(lits) + ")")
        return " | ".join(clauses)

    def round(self, r: int) -> list[Unit]:
        units = [Unit(path.name, ("task", path)) for path in self.tasks]
        for shape in self.GUARD_SHAPES:
            guard = self._guard(shape)
            units.append(Unit(f"guard {guard}", ("guard", guard, shape == (1,))))
        return units

    def run(self, unit: Unit, workdir: Path):
        if unit.args[0] == "task":
            rm_path = unit.args[1]
        else:
            rm_path = workdir / "guard.rm"
            vocab = " ".join(geogrid.VOCAB)
            rm_path.write_text(f"vocab: {vocab}\nstates: 2\n(1, 0, {unit.args[1]}, 1)\n")
        return _run_cli(
            ["oracle", "--rm", rm_path, "--models", self.models, "--out", workdir / "oracle.csv"]
        )

    def check(self, unit: Unit, workdir: Path, result) -> Checked:
        code, out = result
        if code != 0:
            return Checked(0, "", [f"oracle exited {code}: {out.strip()[-200:]}"])
        problems = []
        if "FAIL" in out or not out.rstrip().endswith("bounds PASS"):
            problems.append("oracle reports a bound FAIL")
        csv_path = workdir / "oracle.csv"
        with open(csv_path, newline="") as fh:
            devs = [float(row["abs_deviation"]) for row in csv.DictReader(fh) if row["abs_deviation"]]
        if unit.args[0] == "guard" and unit.args[2] and max(devs) >= SINGLE_LITERAL_TOL:
            problems.append(f"single-literal guard deviates from the oracle by {max(devs):.3g}")
        if unit.args[0] == "task":
            self.quality[unit.label] = sum(devs) / len(devs)
        return Checked(
            items=len(devs),
            digest=_digest(csv_path.read_bytes(), out.replace(str(workdir), "")),
            problems=problems,
        )

    def summary(self) -> dict:
        devs = list(self.quality.values())
        return {"compose_dev": sum(devs) / len(devs) if devs else 0.0}


WORKLOADS = {w.name: w for w in (Reinforce, Ground, Compose)}

"""Benchmark of the rmgcr pipeline: reinforce, ground and compose workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload reinforce --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 1

Each workload is a closed loop: one process, one caller, one unit of work
at a time. `--trace 0` times the untraced library and prints the
end-to-end metrics; `--trace 1` runs the same units again under the span
tracer and prints the per-layer metrics. The units of the first round,
and in a traced run every unit, run twice with the same inputs: differing
outputs count the unit as failed. The last line of standard output is one
JSON object: correct, attempted, failed, metrics. The exit code is 0 only
if every check passed. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("reinforce", "ground", "compose")
UNIT_TIMEOUT_S = 60.0  # a unit that has not finished by then counts as failed
# `calibration_s()` on the reference host (Intel Xeon, 2 vCPUs, Python 3.11)
# when no other tenant slows it; timings are reported at that speed
CALIBRATION_REF_S = 0.006
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class UnitTimeout(BaseException):
    """Raised in the main thread when a unit overruns; escapes `except Exception`."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise UnitTimeout(f"no result after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def calibration_s() -> float:
    """Time a fixed pure-Python kernel: tuple keys and dict updates, like the library's loops.

    On a shared host the speed of the core changes for tens of seconds at a
    time; timing this kernel around each round measures that speed.
    """
    start = time.perf_counter()
    counts: dict = {}
    for i in range(30000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def import_library():
    """Import rmgcr from this checkout's src/, never from an installed copy."""
    package = SRC / "rmgcr"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of an rmgcr checkout")
    sys.path.insert(0, str(SRC))
    import rmgcr

    if pathlib.Path(rmgcr.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported rmgcr from {rmgcr.__file__}, not from {package}")


# -- end-to-end and per-layer metrics ---------------------------------------

END_TO_END = {"setup_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB"}

SPAN_METRICS = (
    ("logic.evaluate", ("calls", "s")),
    ("logic.to_dnf", ("calls", "s")),
    ("rm.rm_step", ("calls", "s", "self_s")),
    ("rm.load_rm", ("s",)),
    ("geogrid.step", ("calls", "s")),
    ("geogrid.encode_obs", ("calls", "s")),
    ("geogrid.true_label", ("calls", "s")),
    ("geogrid.generate_dataset", ("s",)),
    ("geogrid.save_dataset", ("s",)),
    ("geogrid.load_dataset", ("s",)),
    ("ground.predict_labels", ("calls", "s")),
    ("ground.train_label_model", ("s",)),
    ("ground.train_pvfs_fqi", ("s",)),
    ("ground.PvfSet.value", ("calls", "s")),
    ("compose.composed_value", ("calls", "s", "self_s")),
    ("compose.exact_product_values", ("calls", "s")),
    ("compose.make_composed_value_fn", ("s",)),
    ("compose.rm_value_iteration", ("s",)),
    ("agent.train", ("s", "self_s")),
    ("agent.evaluate", ("s",)),
    ("cli.main.gen-dataset", ("s",)),
    ("cli.main.ground", ("s",)),
    ("cli.main.oracle", ("s",)),
)
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
QUALITY_UNITS = {"eval_return": "return", "label_accuracy": "fraction", "compose_dev": "value"}
TRAIN_SHARES = ("rm.rm_step", "ground.predict_labels", "geogrid.encode_obs")

OTHER_LAYER_UNITS = {
    "geogrid.save_dataset.bytes": "bytes",
    "ground.save_pvfs.bytes": "bytes",
    "ground.label_fit.rows": "count",
    "ground.label_fit.distinct_ratio": "fraction",
    "ground.label_accuracy": "fraction",
    "compose.potential_hit_rate": "fraction",
    "compose.dev": "value",
    "agent.train.steps": "count",
    "agent.train.episodes": "count",
    "agent.train.us_per_step": "us",
    "agent.evaluate.steps": "count",
    "agent.eval_return": "return",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
    **{f"agent.train.share.{name}": "fraction" for name in TRAIN_SHARES},
}


def per_layer_units() -> dict:
    units = {
        f"{span}.{stat}": STAT_UNITS[stat] for span, stats in SPAN_METRICS for stat in stats
    }
    return {**units, **OTHER_LAYER_UNITS}


def layer_values(tracer, sums: dict, quality: dict, overhead: float) -> dict:
    values = {}
    for span, stats in SPAN_METRICS:
        source = {"calls": tracer.calls, "s": tracer.total, "self_s": tracer.self_time}
        for stat in stats:
            values[f"{span}.{stat}"] = source[stat].get(span, 0)
    counters = tracer.counters
    rows = counters.get("ground.label_fit.rows", 0)
    train_s = tracer.total.get("agent.train", 0.0)
    composed_steps = sums.get("train_steps.composed", 0)
    potential_calls = tracer.within.get(("agent.train", "compose.composed_value"), [0, 0.0])[0]
    values.update(
        {
            "geogrid.save_dataset.bytes": counters.get("geogrid.save_dataset.bytes", 0),
            "ground.save_pvfs.bytes": counters.get("ground.save_pvfs.bytes", 0),
            "ground.label_fit.rows": rows,
            "ground.label_fit.distinct_ratio": (
                counters["ground.label_fit.distinct"] / rows if rows else 0.0
            ),
            "ground.label_accuracy": quality.get("label_accuracy", 0.0),
            "compose.potential_hit_rate": (
                1.0 - potential_calls / (2 * composed_steps) if composed_steps else 0.0
            ),
            "compose.dev": quality.get("compose_dev", 0.0),
            "agent.train.steps": sums.get("train_steps", 0),
            "agent.train.episodes": sums.get("train_episodes", 0),
            "agent.train.us_per_step": (
                1e6 * sums["train_s"] / sums["train_steps"] if sums.get("train_steps") else 0.0
            ),
            "agent.evaluate.steps": sums.get("eval_steps", 0),
            "agent.eval_return": quality.get("eval_return", 0.0),
            "cli.self_s": sum(
                t for name, t in tracer.self_time.items() if name.startswith("cli.main.")
            ),
            "trace.overhead": overhead,
        }
    )
    for name in TRAIN_SHARES:
        inside = tracer.within.get(("agent.train", name), [0, 0.0])[1]
        values[f"agent.train.share.{name}"] = inside / train_s if train_s else 0.0
    return values


# -- environment record -----------------------------------------------------


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **git_state(),
    }


def git_state() -> dict:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"commit": None, "dirty": None}

    def git(*args):
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


# -- the harness ------------------------------------------------------------


def _fresh(path: pathlib.Path) -> pathlib.Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_workload(name, seed, seconds, trace, rounds=None):
    """Set up, then run rounds for `seconds` of wall time (or `rounds` rounds), checking each unit.

    Traced runs do a fixed number of rounds, so their counts repeat exactly
    for a seed. Returns (result line dict, report dict).
    """
    from tracer import Tracer
    from workloads import WORKLOADS

    os.environ.pop("RMGCR_OUT_DIR", None)
    tracer = Tracer() if trace else None
    traced = tracer.traced if trace else contextlib.nullcontext
    workload_cls = WORKLOADS[name]
    if trace and rounds is None:
        rounds = max(1, round(seconds / workload_cls.nominal_round_s))

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp_name:
        tmp = pathlib.Path(tmp_name)
        wl = workload_cls(ROOT, seed, tmp)
        setup_times, calibrated_setups = [], []

        def set_up():
            calibration = calibration_s()
            start = time.perf_counter()
            with time_limit(UNIT_TIMEOUT_S):
                wl.prepare()
                with traced():
                    wl.setup()
            setup_times.append(time.perf_counter() - start)
            calibration = (calibration + calibration_s()) / 2
            calibrated_setups.append(setup_times[-1] * CALIBRATION_REF_S / calibration)
            return setup_times[-1]

        set_up()
        attempted = failed = 0
        failures, round_times, round_rates, overheads = [], [], [], []
        calibrations, calibrated_rates = [], []
        sums: dict = {}
        deadline = time.perf_counter() + seconds
        r = 0
        while (time.perf_counter() < deadline) if rounds is None else (r < rounds):
            # further set-ups run between the first rounds, so that their
            # median spans more than one moment's load on a shared machine
            if 0 < r < wl.setup_repeats:
                deadline += set_up()
            calibration = calibration_s() + calibration_s()
            round_time = 0.0
            round_items = 0
            for unit in wl.round(r):
                attempted += 1
                try:
                    with time_limit(UNIT_TIMEOUT_S):
                        start = time.perf_counter()
                        first = wl.run(unit, _fresh(tmp / "a"))
                        elapsed = time.perf_counter() - start
                        checked = wl.check(unit, tmp / "a", first)
                        problems = list(checked.problems)
                        if trace or r == 0:
                            start = time.perf_counter()
                            with traced():
                                second = wl.run(unit, _fresh(tmp / "b"))
                            overheads.append((time.perf_counter() - start) / elapsed)
                            if wl.check(unit, tmp / "b", second).digest != checked.digest:
                                problems.append("a rerun with the same inputs gave different outputs")
                except UnitTimeout as e:
                    problems = [f"timeout: {e}"]
                except Exception as e:  # a unit that raises is counted, the run goes on
                    problems = [f"{type(e).__name__}: {e}"]
                if problems:
                    failed += 1
                    failures.append({"unit": unit.label, "problems": problems})
                    continue
                round_time += elapsed
                round_items += checked.items
                for key, value in checked.stats.items():
                    sums[key] = sums.get(key, 0) + value
            r += 1
            if round_time == 0:
                break  # no unit of the round succeeded: nothing left to measure
            calibrations.append((calibration + calibration_s() + calibration_s()) / 4)
            round_times.append(round_time)
            round_rates.append(round_items / round_time)
            calibrated_rates.append(round_rates[-1] * calibrations[-1] / CALIBRATION_REF_S)

        while len(setup_times) < wl.setup_repeats:
            set_up()
        quality = wl.summary()

    correct = failed == 0 and bool(round_rates)
    if trace:
        metrics = layer_values(tracer, sums, quality, statistics.median(overheads) if overheads else 0.0)
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(calibrated_setups),
            "items_per_s": statistics.median(calibrated_rates) if calibrated_rates else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report = {
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "rounds": r,
        "setup_times": setup_times,
        "raw_setup_s": statistics.median(setup_times),
        "round_times": round_times,
        "round_rates": round_rates,
        "round_calibration_s": calibrations,
        "raw_items_per_s": statistics.median(round_rates) if round_rates else 0.0,
        "wall_s": statistics.median(round_times) if round_times else 0.0,
        "item": wl.item,
        "throughput_name": wl.throughput_name,
        "failed_frac": failed / attempted if attempted else 1.0,
        "quality": quality,
        "skipped": getattr(wl, "skipped", {}),
        "failures": failures,
    }
    return line, report


def print_report(line: dict, report: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    print(
        f"workload {report['workload']}  seed {report['seed']}  "
        f"trace {int(report['trace'])}  rounds {report['rounds']}  "
        f"units {line['attempted']}  failed {line['failed']}"
    )
    rows = [(name, m["value"], m["unit"]) for name, m in line["metrics"].items()]
    if not report["trace"]:
        rows[1:1] = [
            ("raw_setup_s", report["raw_setup_s"], "s"),
            ("wall_s", report["wall_s"], "s"),
            (report["throughput_name"], report["raw_items_per_s"], f"{report['item']}/s"),
        ]
    rows.append(("failed_frac", report["failed_frac"], "fraction"))
    rows += [(name, value, QUALITY_UNITS[name]) for name, value in report["quality"].items()]
    for name, value, unit in rows:
        print(f"  {name:<42} {value:>14.6g} {unit}")
    for task, reason in report["skipped"].items():
        print(f"  skipped {task}: {reason}")
    for failure in report["failures"]:
        print(f"  FAILED {failure['unit']}: {'; '.join(failure['problems'])}")


def run_all(args) -> int:
    """Run every workload, each in its own process, and combine the result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            return done.returncode or 1
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="wall seconds of rounds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    # One BLAS thread: the loop has one caller, and a second thread would make
    # the label fit wait on a second core that other tenants may be using.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import_library()
    line, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(line, report)
    print("record " + json.dumps({**report, "env": environment()}, sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

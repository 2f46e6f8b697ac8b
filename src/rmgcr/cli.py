"""Command-line front end for the grounding/composition/training pipeline.

Subcommands: gen-dataset, ground, train, eval, oracle.
Exit codes: 0 success, 2 usage, 3 validation (any rmgcr.errors.InputError:
bad task files, grid configs, datasets, model files or policies,
mismatched models, out-of-range settings), 4 runtime failures. The RMGCR_OUT_DIR
environment variable overrides directory-valued --out arguments.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import pathlib
import sys

from . import agent, compose, files, geogrid, ground
from .errors import InputError, check_open_unit, check_seed
from .rm import load_rm

EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


def out_dir(flag_value) -> pathlib.Path:
    override = os.environ.get("RMGCR_OUT_DIR")
    path = pathlib.Path(override) if override else pathlib.Path(flag_value)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_dataset(args) -> int:
    overrides = {
        "width": args.width,
        "height": args.height,
        "episode_len": args.episode_len,
        "layout_mode": args.layout,
        "seed": args.seed,
    }
    cfg = files.load_grid_config(args.config, overrides)
    ds = geogrid.generate_dataset(cfg, args.n, seed=cfg.seed)
    files.save_dataset(ds, args.out)
    print(f"wrote {len(ds.trajectories)} trajectories to {args.out}")
    freqs = geogrid.label_frequencies(ds)
    print(f"{'atom':<10} {'frequency':>9}")
    for atom in ds.vocab:
        print(f"{atom:<10} {freqs[atom]:>9.4f}")
    return 0


def cmd_ground(args) -> int:
    ds = files.load_dataset(args.dataset)
    models = out_dir(args.out)
    label_model = ground.train_label_model(
        ds, backend=args.label_backend, threshold=args.threshold, seed=args.seed
    )
    if args.method == "fqi":
        pvfs = ground.train_pvfs_fqi(ds, args.gamma, iters=args.iters, backend=args.pvf_backend)
    else:
        pvfs = ground.train_pvfs_mc(ds, args.gamma)
    files.save_label_model(label_model, models / "label_model.json")
    files.save_pvfs(pvfs, models / "pvfs.json")
    metrics = {
        "holdout_accuracy": label_model.holdout_accuracy,
        "accuracy_split": label_model.accuracy_split,
        "method": args.method,
        "gamma": args.gamma,
        "n_trajectories": len(ds.trajectories),
    }
    with open(models / "metrics.json", "w") as fh:
        json.dump(metrics, fh, sort_keys=True, indent=2)
    print(f"wrote label model and {args.method} value functions to {models}")
    split = "held-out" if label_model.accuracy_split == "holdout" else "training"
    for atom, acc in label_model.holdout_accuracy.items():
        print(f"{split} accuracy {atom:<10} {acc:.4f}")
    return 0


def cmd_oracle(args) -> int:
    check_open_unit("gamma_rm", args.gamma_rm)
    rm = load_rm(args.rm)
    cfg = files.load_grid_config(args.env, {})
    oracle = compose.exact_product_values(cfg, rm, args.gamma, max_states=args.max_states)
    graph = oracle.graph  # the layout, compiled once for every check below
    exact = oracle.values.tolist()
    composed = None
    if args.models:  # composed values need only the PVFs, not the label model
        pvfs = files.load_pvfs(pathlib.Path(args.models) / "pvfs.json")
        cvf = compose.make_composed_value_fn(rm, pvfs, args.gamma_rm, gamma=args.gamma)
        composed = compose.composed_table(cvf, geogrid.encode_layout(graph.states[0])).tolist()
    # one CSV line per (cell, u), row-major; terminal RM states get no composed value
    compared = [composed is not None and not rm.is_terminal(u) for u in range(rm.num_states)]
    lines = ["row,col,rm_state,exact" + (",composed,abs_deviation" if composed is not None else "")]
    devs = []
    for i, (r, c) in enumerate(graph.cells):
        for u, both in enumerate(compared):
            want = exact[u][i]
            line = f"{r},{c},{u},{want:.10f}"
            if both:
                got = composed[u][i]
                devs.append(abs(got - want))
                line = f"{line},{got:.10f},{devs[-1]:.10f}"
            lines.append(line)
    if args.out:
        # the bytes csv.writer gives: no field needs quoting, and lines end in \r\n
        with open(args.out, "w", newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")
        print(f"wrote oracle table to {args.out}")
    if composed is not None:
        print(f"max absolute deviation from the exact oracle: {max(devs, default=0.0):.6f}")
    guards = [t.guard for t in rm.transitions if t.src != t.dst]
    checks = compose.composition_bounds(graph, guards, args.gamma)
    for check in checks:
        print(f"{check.kind} {check.guard!r}: {'PASS' if check.ok else 'FAIL'}")
    ok = all(check.ok for check in checks)
    print(f"bounds {'PASS' if ok else 'FAIL'}")
    return 0 if ok else EXIT_RUNTIME


def cmd_train(args) -> int:
    check_open_unit("gamma_rm", args.gamma_rm)
    check_seed("eval_seed", args.eval_seed)
    rm = load_rm(args.rm)
    models = pathlib.Path(args.models)
    label_model = files.load_label_model(models / "label_model.json")
    pvfs = files.load_pvfs(models / "pvfs.json")
    cfg = files.load_grid_config(args.env, {})
    out = out_dir(args.out)

    cvf = None
    rm_values = None
    if "composed" in args.shaping:
        cvf = compose.make_composed_value_fn(rm, pvfs, args.gamma_rm, gamma=args.gamma)
    if "high-level" in args.shaping:
        rm_values = compose.rm_value_iteration(rm, args.gamma_rm, args.gamma)

    summary = {
        "task": str(args.rm),
        "grid": geogrid.config_to_dict(cfg),
        "episodes": args.episodes,
        "gamma": args.gamma,
        "gamma_rm": args.gamma_rm,
        "seeds": args.seeds,
        "eval_episodes": args.eval_episodes,
        "results": {},
    }
    for shaping in args.shaping:
        per_seed = []
        for seed in args.seeds:
            agent_cfg = agent.AgentConfig(
                gamma=args.gamma,
                shaping=shaping,
                lam=args.lam,
                shaping_mode=args.shaping_mode,
                episodes=args.episodes,
                max_steps=args.max_steps,
                seed=seed,
            )
            policy, report = agent.train(
                cfg, rm, label_model, agent_cfg, cvf=cvf, rm_values=rm_values
            )
            unseen = report.meta["unseen_label_obs"]
            if unseen:
                print(
                    f"warning: {shaping} seed {seed}: the tabular label model has no entry for "
                    f"{unseen} observations met in training and predicted no atoms there",
                    file=sys.stderr,
                )
            csv_path = out / f"train_{shaping}_seed{seed}.csv"
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["episode", "perceived_return", "actual_return", "steps"])
                for i, ep in enumerate(report.episodes):
                    writer.writerow([i, ep.perceived_return, ep.actual_return, ep.steps])
            files.save_policy(policy, out / f"policy_{shaping}_seed{seed}.json")
            stats = agent.evaluate(
                policy, cfg, rm, args.eval_episodes, seed=args.eval_seed, max_steps=args.max_steps
            )
            _warn_unseen_policy_states(stats, f"{shaping} seed {seed}: ")
            per_seed.append(
                {
                    "seed": seed,
                    "eval_mean": stats["mean"],
                    "eval_stderr": stats["stderr"],
                    "episodes_to_threshold": agent.episodes_to_threshold(report, args.threshold),
                }
            )
        mean, stderr = agent.mean_stderr([r["eval_mean"] for r in per_seed])
        summary["results"][shaping] = {"per_seed": per_seed, "mean": mean, "stderr": stderr}
        print(f"{shaping:<11} eval mean {mean:.3f} +/- {stderr:.3f} over {len(per_seed)} seeds")
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
    print(f"wrote reports to {out}")
    return 0


def _warn_unseen_policy_states(stats: dict, prefix: str = "") -> None:
    """One stderr warning when the evaluated policy fell back on states it has no entry for."""
    unseen = stats["unseen_policy_states"]
    if unseen:
        print(
            f"warning: {prefix}the policy has no entry for {unseen} (observation, RM state) "
            f"pairs met in evaluation and took action 0 there",
            file=sys.stderr,
        )


def cmd_eval(args) -> int:
    rm = load_rm(args.rm)
    cfg = files.load_grid_config(args.env, {})
    policy = agent.RandomPolicy() if args.random else files.load_policy(args.policy)
    stats = agent.evaluate(policy, cfg, rm, args.episodes, seed=args.seed, max_steps=args.max_steps)
    _warn_unseen_policy_states(stats)
    print(json.dumps({"mean": stats["mean"], "stderr": stats["stderr"]}, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Every call returns the same parser. No command may mutate a value in
    the parsed arguments, since list defaults are shared between calls.
    """
    parser = argparse.ArgumentParser(
        prog="rmgcr",
        description="Ground symbols offline, compose value functions, train shaped agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="generate a random-walk grounding dataset")
    p.add_argument("--out", required=True, help="output dataset file (line-delimited JSON)")
    p.add_argument("--config", help="grid config JSON file")
    p.add_argument("--n", type=int, default=500, help="number of trajectories")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--episode-len", type=int, default=None)
    p.add_argument("--layout", choices=["fixed", "randomized"], default=None)
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("ground", help="train the label model and primitive value functions")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="model output directory")
    p.add_argument("--method", choices=["fqi", "mc"], default="fqi")
    p.add_argument("--gamma", type=float, default=0.97)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--label-backend", choices=["linear", "tabular"], default="linear")
    p.add_argument("--pvf-backend", choices=["tabular", "linear"], default="tabular")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("train", help="Q-learning with self-generated, optionally shaped rewards")
    p.add_argument("--rm", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--env", help="grid config JSON file")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument(
        "--shaping",
        nargs="+",
        choices=["none", "composed", "high-level"],
        default=["composed"],
    )
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--max-steps", type=int, default=100)
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--gamma", type=float, default=0.97)
    p.add_argument("--gamma-rm", type=float, default=0.97**10)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--shaping-mode", choices=["undiscounted", "discounted"], default="undiscounted")
    p.add_argument("--eval-episodes", type=int, default=100)
    p.add_argument("--eval-seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.95)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved (or random) policy under ground truth")
    p.add_argument("--rm", required=True)
    p.add_argument("--env", help="grid config JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--policy", help="policy JSON written by train")
    group.add_argument("--random", action="store_true", help="evaluate the uniform random policy")
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=100)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="exact product values, deviations, and bound checks")
    p.add_argument("--rm", required=True)
    p.add_argument("--env", help="grid config JSON file")
    p.add_argument("--models", help="optional model directory for composed-value deviations")
    p.add_argument("--out", help="optional output CSV file")
    p.add_argument("--gamma", type=float, default=0.97)
    p.add_argument("--gamma-rm", type=float, default=0.97**10)
    p.add_argument("--max-states", type=int, default=compose.MAX_PRODUCT_STATES)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen-dataset" and args.n < 1:
        parser.error("--n must be at least 1")
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

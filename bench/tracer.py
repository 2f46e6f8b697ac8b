"""Span tracing for the benchmark, installed from outside the library.

`Tracer.traced()` replaces the layer-boundary functions of `rmgcr` with
timing wrappers for the duration of a `with` block and restores them on
exit. Because several modules import these functions by name (`agent`
imports `rm_step`, `compose` imports `to_dnf`, ...), every `rmgcr.*`
module global that refers to a traced function is replaced, not just the
defining module's attribute.

Spans are aggregated in memory, per name: call count, total time and
self time (a span's duration minus the part its child spans cover).
Recursive functions such as `logic.evaluate` count only their outermost
call. Spans that run inside `agent.train` or `agent.evaluate` are also
aggregated per ancestor, so shares of the training loop can be read off.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time

# module -> names of the public functions traced at that layer boundary
SPANS = {
    "logic": ("evaluate", "to_dnf"),
    "rm": ("rm_step", "load_rm"),
    "geogrid": (
        "step",
        "encode_obs",
        "true_label",
        "generate_dataset",
        "save_dataset",
        "load_dataset",
    ),
    "ground": ("predict_labels", "train_label_model", "train_pvfs_fqi", "PvfSet.value", "save_pvfs"),
    "compose": (
        "composed_value",
        "exact_product_values",
        "make_composed_value_fn",
        "rm_value_iteration",
    ),
    "agent": ("train", "evaluate"),
    "cli": ("main",),
}

# spans whose descendants are also aggregated per ancestor
ANCESTORS = ("agent.train", "agent.evaluate")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        # (ancestor, name) -> [calls, seconds]
        self.within: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, child seconds]
        self._active: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _enter(self, name: str) -> None:
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        _, start, child = self._stack.pop()
        self._active[name] -= 1
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration
        for anc in ANCESTORS:
            if anc != name and self._active.get(anc):
                entry = self.within.setdefault((anc, name), [0, 0.0])
                entry[0] += 1
                entry[1] += duration

    @contextlib.contextmanager
    def _untimed(self):
        """Hide bookkeeping done by a hook from every open span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            spent = time.perf_counter() - start
            for frame in self._stack:
                frame[1] += spent

    def _wrap(self, name: str, fn, hook=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name_of(args, kwargs) if name_of else name
            if tracer._active.get(span):
                return fn(*args, **kwargs)  # inner call of a recursion
            tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if hook is not None:
                with tracer._untimed():
                    hook(tracer, fn, args, kwargs)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def traced(self):
        """Patch every traced function for the duration of the block."""
        patches = self._patches()
        for owner, attr, _, new in patches:
            setattr(owner, attr, new)
        try:
            yield self
        finally:
            for owner, attr, old, _ in reversed(patches):
                setattr(owner, attr, old)

    def _patches(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "rmgcr" or n.startswith("rmgcr.")]
        patches = []
        for mod_name, attrs in SPANS.items():
            module = sys.modules.get(f"rmgcr.{mod_name}")
            if module is None:
                continue
            for attr in attrs:
                span = f"{mod_name}.{attr}"
                if "." in attr:  # a method: patch the class attribute
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    fn = getattr(cls, meth, None) if cls is not None else None
                    if fn is not None:
                        patches.append((cls, meth, fn, self._wrap(span, fn)))
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                wrapper = self._wrap(span, fn, HOOKS.get(span), NAMERS.get(span))
                # the defining module and every module that imported it by name
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            patches.append((mod, key, fn, wrapper))
        return patches


# -- hooks: counts taken at a span boundary, outside the span's time ---------


def _bytes_written(name):
    def hook(tracer, fn, args, kwargs):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        tracer.count(name, os.path.getsize(path))

    return hook


def _label_fit_rows(tracer, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    trajectories = bound.arguments["ds"].trajectories
    n_holdout = int(len(trajectories) * bound.arguments.get("holdout_fraction", 0.0))
    fitted = trajectories[: len(trajectories) - n_holdout] if n_holdout else trajectories
    keys = {obs.tobytes() for tr in fitted for obs in tr.observations}
    tracer.count("ground.label_fit.rows", sum(len(tr.observations) for tr in fitted))
    tracer.count("ground.label_fit.distinct", len(keys))


HOOKS = {
    "geogrid.save_dataset": _bytes_written("geogrid.save_dataset.bytes"),
    "ground.save_pvfs": _bytes_written("ground.save_pvfs.bytes"),
    "ground.train_label_model": _label_fit_rows,
}


def _cli_span(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None) or sys.argv[1:]
    return f"cli.main.{argv[0]}"


NAMERS = {"cli.main": _cli_span}

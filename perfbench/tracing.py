"""Call tracing from outside the program.

``Tracer`` wraps public functions and selected methods of the flowprover
modules by replacing their bindings: in the defining module, in every
flowprover module that imported the function by name, and on the class for
methods. Functions imported inside other functions are looked up in the
defining module at call time, so they are covered too. Each wrapped call
records its count, inclusive time and self time (inclusive minus the time of
wrapped calls made beneath it), plus inclusive time per (caller, callee)
edge. A target that no longer exists is recorded as absent.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

PACKAGE = "flowprover"

# Modules named as layers; every public function defined in them is wrapped.
LAYER_MODULES = ("corpus", "reward_model", "runs", "gfn", "baselines", "policy",
                 "nn", "env", "search", "oracle")

# Methods carry work the layer metrics name (checkpoint writes, reward-model
# scoring, the reverse sweep, buffer reads, the trainers' steps).
METHODS = (
    "policy:PolicyNet.save",
    "reward_model:RewardModel.score",
    "nn:Tape.backward",
    "gfn:ReplayBuffer.sample",
    "gfn:GFNTrainer.train_step",
    "baselines:PPOTrainer.train_step",
    "baselines:SFTTrainer.train_step",
)

# Counts read off a wrapped function's return value.
RESULT_COUNTS = {
    "search:search_from_state": "expansions",
    "oracle:enumerate_trajectories": "trajectories",
}


class Stat:
    __slots__ = ("calls", "incl", "self_", "count")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_ = 0.0
        self.count = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple[str, str], float] = {}
        self._stack: list[list] = []  # [name, child seconds]
        self._undo: list[tuple] = []

    def _module(self, short: str):
        return sys.modules.get(f"{PACKAGE}.{short}")

    def _package_modules(self):
        prefix = PACKAGE + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(prefix))]

    def targets(self) -> list[str]:
        """Every public function defined in a layer module, then METHODS."""
        names = []
        for short in LAYER_MODULES:
            mod = self._module(short)
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    names.append(f"{short}:{attr}")
        return names + list(METHODS)

    def install(self) -> None:
        modules = self._package_modules()
        for target in self.targets():
            short, _, qual = target.partition(":")
            mod = self._module(short)
            owner_name, _, method = qual.rpartition(".")
            if owner_name:
                cls = getattr(mod, owner_name, None)
                orig = cls.__dict__.get(method) if cls is not None else None
                if not inspect.isfunction(orig):
                    continue
                setattr(cls, method, self._wrap(target, orig))
                self._undo.append((cls, method, orig))
            else:
                orig = getattr(mod, qual)
                wrapper = self._wrap(target, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, orig))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        edges = self.edges
        count_attr = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.incl += dt
                stat.self_ += dt - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0.0) + dt
            if count_attr is not None:
                value = getattr(result, count_attr, None)
                if value is not None:
                    stat.count += value if isinstance(value, int) else len(value)
            return result

        return functools.wraps(fn)(traced)

    def stat(self, name: str) -> Stat | None:
        """Stats of a target, or None when the target does not exist."""
        return self.stats.get(name)

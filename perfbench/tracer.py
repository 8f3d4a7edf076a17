"""Span tracer that wraps switchopt functions from outside the package.

``Tracer.install`` replaces each hooked function or method with a wrapper
that records a span (name, start, end, parent) and, for some hooks, adds to
counters read off the call's arguments or result.  A module-level function
is replaced in every switchopt module that binds it, since names imported by
value (``from .problem import total_cost``) would otherwise escape.  Spans
are kept in memory; ``summary`` turns them into per-name call counts, self
time (duration minus the time covered by child spans) and inclusive time.

A hook whose target no longer exists marks its metrics missing instead of
failing or reading zero, so a refactor that renames a private symbol shows up
as a gap in the report.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass


def _clamps(args, result):
    return result.clamp_count


def _planned_steps(args, result):
    cfg = args[3]
    return int(round(cfg.horizon / cfg.h))


def _one(args, result):
    return 1


def _jumps(args, result):
    return result.n_jumps


def _text_bytes(args, result):
    return len(result.encode())


@dataclass(frozen=True)
class Hook:
    span: str | None                 # span name; None records counters only
    module: str
    attr: str                        # "name" or "Class.name"
    counters: tuple = ()             # ((counter name, read(args, result)), ...)


HOOKS = (
    Hook("expr.value_and_grad", "switchopt.expr", "Expr.value_and_grad"),
    Hook("expr.value", "switchopt.expr", "Expr.value"),
    Hook("dynamics.simulate", "switchopt.dynamics", "simulate",
         (("dynamics.clamps", _clamps), ("dynamics.planned_steps", _planned_steps))),
    Hook("dynamics.step", "switchopt.dynamics", "_Model.step"),
    Hook("dynamics.drift", "switchopt.dynamics", "_Model.drift"),
    Hook("dynamics.noise", "switchopt.dynamics", "_Model.noise_term"),
    Hook("dynamics.check_assumptions", "switchopt.dynamics", "check_assumptions"),
    Hook(None, "switchopt.dynamics", "_Model.__init__",
         (("dynamics.model_builds", _one),)),
    Hook("averaging.simulate_averaged", "switchopt.averaging", "simulate_averaged"),
    Hook("averaging.diffusion_blocks", "switchopt.averaging", "_diffusion_blocks"),
    Hook("averaging.weak_convergence_experiment", "switchopt.averaging",
         "weak_convergence_experiment"),
    Hook("chain.sample_path", "switchopt.chain", "sample_path",
         (("chain.jumps", _jumps),)),
    Hook("chain.stationary", "switchopt.chain", "stationary"),
    Hook("analysis.convergence_metrics", "switchopt.analysis", "convergence_metrics"),
    Hook("analysis.lyapunov", "switchopt.analysis", "lyapunov"),
    Hook("problem.total_cost", "switchopt.problem", "total_cost"),
    Hook("problem.derive_multipliers", "switchopt.problem", "derive_multipliers"),
    Hook("scenario.load_scenario", "switchopt.scenario", "load_scenario"),
    Hook("cli.csv", "switchopt.cli", "_trajectory_csv", (("cli.csv.bytes", _text_bytes),)),
    Hook("cli.csv", "switchopt.cli", "_multipliers_csv", (("cli.csv.bytes", _text_bytes),)),
    Hook("cli.csv", "switchopt.cli", "_metrics_csv", (("cli.csv.bytes", _text_bytes),)),
    Hook("cli.write", "switchopt.cli", "_write_text"),
)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    """Records spans and counters of switchopt calls while installed."""

    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.counters: dict = {}
        self.missing: set = set()
        self._stack = [-1]
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every hook target that exists; mark the others missing."""
        for hook in HOOKS:
            for counter, _ in hook.counters:
                self.counters.setdefault(counter, 0)
            try:
                owner, name, original = self._resolve(hook)
            except (ImportError, AttributeError, KeyError):
                self._mark_missing(hook)
                continue
            wrapper = self._wrap(hook, original)
            if isinstance(owner, type):
                self._patch(owner, name, wrapper)
            else:
                for mod in list(sys.modules.values()):
                    modname = getattr(mod, "__name__", "")
                    if modname != "switchopt" and not modname.startswith("switchopt."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def uninstall(self):
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @staticmethod
    def _resolve(hook):
        owner = importlib.import_module(hook.module)
        *path, name = hook.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            return owner, name, owner.__dict__[name]
        return owner, name, getattr(owner, name)

    def _patch(self, target, name, wrapper):
        self._patches.append((target, name, getattr(target, name)))
        setattr(target, name, wrapper)

    def _mark_missing(self, hook):
        if hook.span is not None:
            self.missing.add(hook.span)
        self.missing.update(counter for counter, _ in hook.counters)

    def _wrap(self, hook, fn):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)
        span, counters, clock = hook.span, hook.counters, time.perf_counter

        def count(args, result):
            for counter, read in counters:
                try:
                    self.counters[counter] += read(args, result)
                except (AttributeError, IndexError, TypeError):
                    self.missing.add(counter)

        if span is None:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(args, result)
                return result
            return wrapper

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(span)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counters:
                count(args, result)
            return result
        return wrapper

    # -- results -------------------------------------------------------------

    def reset(self):
        """Drop recorded spans and zero the counters; keep the hooks."""
        for buf in (self.names, self.parents, self.starts, self.ends):
            buf.clear()
        for counter in self.counters:
            self.counters[counter] = 0

    def spans(self):
        """Recorded spans as (name, parent index, start, end), parents first."""
        return list(zip(self.names, self.parents, self.starts, self.ends))

    def summary(self) -> dict[str, SpanStats]:
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, SpanStats] = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            st = out.setdefault(self.names[i], SpanStats())
            st.calls += 1
            st.self_s += dur - child[i]
            st.total_s += dur
        return out

    def metrics(self) -> dict[str, float]:
        """Flat metrics of the recorded command: ``<span>.calls``,
        ``<span>.self_s``, every counter, ``dynamics.jump_splits`` and
        ``dynamics.us_per_step``.  Metrics of missing hooks are left out; a
        hooked function the command never called reads 0 calls."""
        stats = self.summary()
        out: dict[str, float] = {}
        for span in dict.fromkeys(h.span for h in HOOKS if h.span):
            if span in self.missing:
                continue
            st = stats.get(span, SpanStats())
            out[f"{span}.calls"] = st.calls
            out[f"{span}.self_s"] = st.self_s
        for counter, value in self.counters.items():
            if counter not in self.missing:
                out[counter] = value
        planned = out.get("dynamics.planned_steps")
        if planned is not None and "dynamics.step.calls" in out:
            # A substep beyond the planned grid steps ends at a jump of the mode path.
            out["dynamics.jump_splits"] = out["dynamics.step.calls"] - planned
        if planned and "dynamics.simulate" not in self.missing:
            out["dynamics.us_per_step"] = 1e6 * stats["dynamics.simulate"].total_s / planned
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, (name, parent, start, end) in enumerate(self.spans()):
                fh.write(f"{i},{name},{parent},{start - t0!r},{end - t0!r}\n")

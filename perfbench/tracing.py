"""Span tracer for the traced benchmark run.

`Tracer.installed()` replaces, for the duration of a `with` block, every
function that one bundlematch module looks up by name from another
bundlematch module with a wrapper that records a span. The wrapper goes in
the caller's namespace (e.g. `bundlematch.equilibria.check_condition_set`),
so each call that crosses a module boundary becomes one span, attributed to
the module that defines the function. A few same-module entry points also get
spans, because the per-layer metrics count or time them on their own.

A span is (name, start, end, parent span, op id); the op id is shared by all
spans of one sweep cell or one subgame. Spans stay in memory (flat arrays)
until `dump` writes them. A span's self time is its duration minus the
durations of its children; calls are nested and single-threaded, so the
children never overlap.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import json
import os
import time
from array import array
from collections import Counter

MODULES = (
    "cli", "config", "sweep", "policy", "equilibria", "conditions", "profits", "market", "oracle"
)

# (module, name) wrapped in the module that defines it: the entry points the
# benchmark calls (through the module attribute), `sweep._cell`, which opens a
# new op id per grid cell, `policy.solve_subgame` as `compare_policies` calls
# it, and the oracle's two best responses, which get their own self times.
SAME_MODULE = (
    ("cli", "main"),
    ("sweep", "_cell"),
    ("policy", "solve_subgame"),
    ("oracle", "find_fixed_point"),
    ("oracle", "best_response_r1"),
    ("oracle", "best_response_r2"),
)

OP_STARTS = frozenset({"sweep._cell"})


def _count_feasible(counts: Counter, args: tuple, result) -> None:
    counts["equilibria.feasible"] += bool(result.feasible)


def _count_chosen(counts: Counter, args: tuple, result) -> None:
    counts["policy.chosen"] += result.chosen is not None


def _count_iterations(counts: Counter, args: tuple, result) -> None:
    counts["oracle.iterations"] += result.iterations
    counts["oracle.nonconverged"] += not result.converged


def _count_cells(counts: Counter, args: tuple, result) -> None:
    counts["sweep.cells"] += sum(len(cells) for cells in result.values())


def _count_bytes(counts: Counter, args: tuple, result) -> None:
    counts["sweep.bytes_written"] += os.path.getsize(args[2])


# span name prefix -> observer that reads counts off a call's arguments and
# result at its boundary
OBSERVERS = {
    "equilibria.eq_T": _count_feasible,
    "policy.solve_subgame": _count_chosen,
    "oracle.find_fixed_point": _count_iterations,
    "sweep.run_sweep": _count_cells,
    "sweep.write_sweep_csv": _count_bytes,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counts (one traced pass at a time)."""
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op = -1
        self._ops = 0
        self.counts.clear()
        self.errors.clear()

    def new_op(self) -> None:
        self._op = self._ops
        self._ops += 1

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        observe = next((obs for prefix, obs in OBSERVERS.items() if name.startswith(prefix)), None)
        starts_op = name in OP_STARTS
        tracer = self

        def traced(*args, **kwargs):
            if starts_op:
                tracer.new_op()
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.errors[name, type(exc).__name__] += 1
                raise
            finally:
                tracer._close(sid)
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every cross-module function reference in bundlematch, plus
        SAME_MODULE, `policy.THEOREMS` and `MarketParams.replace`; restore
        the originals on exit."""
        mods = {m: importlib.import_module(f"bundlematch.{m}") for m in MODULES}
        saved: list[tuple[object, str, object]] = []

        def patch(owner: object, attr: str, new: object) -> None:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for caller, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value):
                    continue
                home = value.__module__.rpartition(".")[2]
                if value.__module__.startswith("bundlematch.") and home != caller:
                    patch(mod, attr, self.wrap(value, f"{home}.{attr}"))
        for caller, attr in SAME_MODULE:
            patch(mods[caller], attr, self.wrap(getattr(mods[caller], attr), f"{caller}.{attr}"))
        policy = mods["policy"]
        patch(policy, "THEOREMS", {
            tid: self.wrap(fn, f"equilibria.{fn.__name__}") for tid, fn in policy.THEOREMS.items()
        })
        params_cls = mods["market"].MarketParams
        patch(params_cls, "replace", self.wrap(params_cls.replace, "market.replace"))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> tuple[Counter, Counter, float]:
        """(self seconds per span name, calls per span name, seconds covered
        by root spans)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        wall = 0.0
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
            else:
                wall += dur[i]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
        return self_s, calls, wall

    def dump(self, path: os.PathLike) -> None:
        """Write the recorded spans as gzipped JSON, one column per field
        (times in ns from the first span's start)."""
        t0 = self.start[0] if self.start else 0.0
        payload = {
            "names": self.names,
            "name": list(self.name_id),
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end],
            "parent": list(self.parent),
            "op": list(self.op),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, bench: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass. `bench` carries the benchmark's
    own agreement counts."""
    self_s, calls, wall_s = tracer.self_times()
    counts, errors = tracer.counts, tracer.errors

    def ms(*names: str) -> float:
        return 1e3 * sum(self_s[n] for n in names)

    def layer(prefix: str) -> list[str]:
        return [n for n in self_s if n.startswith(prefix + ".")]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    eq = [n for n in layer("equilibria") if n.startswith("equilibria.eq_T")]
    emit = ["sweep.write_sweep_csv"]
    br = ["oracle.best_response_r1", "oracle.best_response_r2"]
    wall = 1e3 * wall_s
    attributed = sum(ms(*layer(m)) for m in MODULES)
    return {
        "cli.self_ms": ms(*layer("cli")),
        "config.parse_ms": ms(*layer("config")),
        "sweep.cells": counts["sweep.cells"],
        "sweep.emit_ms": ms(*emit),
        "sweep.bytes_written": counts["sweep.bytes_written"],
        "sweep.self_ms": ms(*[n for n in layer("sweep") if n not in emit]),
        "policy.compare_policies_calls": calls["policy.compare_policies"],
        "policy.solve_subgame_calls": calls["policy.solve_subgame"],
        "policy.self_ms": ms(*layer("policy")),
        "policy.existence_ratio": ratio(counts["policy.chosen"], calls["policy.solve_subgame"]),
        "equilibria.candidates": sum(calls[n] for n in eq),
        "equilibria.self_ms": ms(*layer("equilibria")),
        "equilibria.feasible_ratio": ratio(
            counts["equilibria.feasible"], sum(calls[n] for n in eq)
        ),
        "conditions.check_calls": calls["conditions.check_condition_set"],
        "conditions.self_ms": ms(*layer("conditions")),
        "conditions.hessian_calls": sum(calls[n] for n in layer("conditions") if "hessian" in n),
        "profits.calls": sum(calls[n] for n in layer("profits")),
        "profits.self_ms": ms(*layer("profits")),
        "market.replace_calls": calls["market.replace"],
        "market.invalid_params": errors["market.replace", "InvalidParameterError"],
        "market.demands_calls": calls["market.demands"],
        "market.self_ms": ms(*layer("market")),
        "oracle.fixed_point_calls": calls["oracle.find_fixed_point"],
        "oracle.iterations": counts["oracle.iterations"],
        "oracle.nonconverged": counts["oracle.nonconverged"],
        "oracle.agree_ratio": ratio(bench["agree"], bench["agree_checked"]),
        "oracle.br_r1_self_ms": ms(br[0]),
        "oracle.br_r2_self_ms": ms(br[1]),
        "oracle.self_ms": ms(*[n for n in layer("oracle") if n not in br]),
        "trace.wall_ms": wall,
        "trace.attributed_ratio": ratio(attributed, wall),
    }

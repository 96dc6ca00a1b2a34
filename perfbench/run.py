#!/usr/bin/env python3
"""bundlematch benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 30 --trace 0

The program is imported from `src/` next to this directory. Inputs (sweep
spec files, random parameter points) are made from `--seed`; every output is
checked. Human-readable lines go first; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones, measured with tracing off
and scaled to a reference machine speed (see Reference);
with `--trace 1` they are the per-layer ones from a separate traced run (see
tracing.py). Run records, CSVs and span dumps go to `perfbench/out/`.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# setup_s is taken over this many fresh interpreters, started at even
# intervals between the passes of the measured loop, so that it spans the
# machine's state over the whole run
SETUP_REPEATS = 12
# mean time of one Reference piece on the machine the benchmark was built on
# (Intel Xeon, 2 vCPUs, Python 3.11.7) at its usual speed; every timing is
# scaled to the machine speed at which the piece takes this long
REFERENCE_S = 0.008
# points-verify times each subgame's solve_subgame this many more times per
# pass: a solve takes about 0.2 ms against seconds of oracle work per point,
# so its percentiles need more samples than the oracle's
SOLVE_REPEATS = 4
# relative sup-norm tolerance for closed form vs oracle, as `bundlematch verify`
AGREE_TOL = 1e-4
# a CSV value is printed with 6 significant digits
CSV_REL_TOL = 1e-5

END_TO_END_UNITS = {
    "cells_per_s": "cells/s",
    "subgames_per_s": "subgames/s",
    "solve_latency_p50_us": "us",
    "solve_latency_p90_us": "us",
    "verify_latency_p50_ms": "ms",
    "verify_latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.self_ms": "ms",
    "config.parse_ms": "ms",
    "sweep.cells": "count",
    "sweep.emit_ms": "ms",
    "sweep.bytes_written": "bytes",
    "sweep.self_ms": "ms",
    "policy.compare_policies_calls": "count",
    "policy.solve_subgame_calls": "count",
    "policy.self_ms": "ms",
    "policy.existence_ratio": "ratio",
    "equilibria.candidates": "count",
    "equilibria.self_ms": "ms",
    "equilibria.feasible_ratio": "ratio",
    "conditions.check_calls": "count",
    "conditions.self_ms": "ms",
    "conditions.hessian_calls": "count",
    "profits.calls": "count",
    "profits.self_ms": "ms",
    "market.replace_calls": "count",
    "market.invalid_params": "count",
    "market.demands_calls": "count",
    "market.self_ms": "ms",
    "oracle.fixed_point_calls": "count",
    "oracle.iterations": "count",
    "oracle.nonconverged": "count",
    "oracle.agree_ratio": "ratio",
    "oracle.br_r1_self_ms": "ms",
    "oracle.br_r2_self_ms": "ms",
    "oracle.self_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.attributed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}


@dataclass(frozen=True)
class Size:
    dense_steps: int  # per axis of the lambda_l x theta_l grid
    edges_steps: int  # per axis of each b_l x b_s panel
    sample_stride: int  # every stride-th cell per axis is re-derived
    pass_points: int  # points per pass of points-verify, timed and traced
    min_passes: int  # every timed run makes at least this many passes


SIZES = {
    "full": Size(dense_steps=25, edges_steps=18, sample_stride=2, pass_points=20,
                 min_passes=3),
    "tiny": Size(dense_steps=6, edges_steps=5, sample_stride=2, pass_points=1,
                 min_passes=1),
}


def import_program():
    """Import bundlematch from this checkout's src/, never from elsewhere."""
    if not (SRC / "bundlematch" / "cli.py").is_file():
        sys.exit(f"perfbench: no bundlematch sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import bundlematch
    import bundlematch.cli
    import bundlematch.oracle
    import bundlematch.policy

    if Path(bundlematch.__file__).resolve().parent != SRC / "bundlematch":
        sys.exit(f"perfbench: imported bundlematch from {bundlematch.__file__}, not {SRC}")
    return bundlematch


class SetupTimer:
    """Times SETUP_REPEATS fresh interpreters, each from start to
    `import bundlematch.cli` done. `between_ops` starts the next one once its
    slot of the run has come; `finish` runs the ones not yet started."""

    CODE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import bundlematch.cli"

    def __init__(self, start: float, seconds: float) -> None:
        self.due = [start + (k + 0.5) * seconds / SETUP_REPEATS for k in range(SETUP_REPEATS)]
        self.times: list[float] = []

    def _one(self) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.CODE], check=True, cwd=ROOT)
        self.times.append(time.perf_counter() - t0)

    def between_ops(self) -> None:
        if len(self.times) < SETUP_REPEATS and time.perf_counter() >= self.due[len(self.times)]:
            self._one()

    def finish(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self._one()
        return mean(self.times)


@dataclass(frozen=True)
class _Quad:
    a: float
    b: float
    c: float

    def at(self, x: float) -> float:
        return (self.a * x + self.b) * x + self.c


class Reference:
    """The machine's speed, from a fixed piece of pure-Python work that uses
    nothing of bundlematch: exact fraction arithmetic, and frozen-dataclass
    copies, attribute reads and method calls like those of MarketParams.
    Pieces run between the program's units of work, outside their timing.
    Other tenants of the host slow both alike (README.md), so
    `scale` = REFERENCE_S / mean(piece) turns a mean time measured over the
    same run into the time at the reference speed; a change to the program
    does not move it."""

    def __init__(self) -> None:
        self.times: list[float] = []

    @staticmethod
    def piece() -> tuple:
        x = Fraction(1, 3)
        for i in range(1, 400):
            x = (x * Fraction(i, i + 1) + Fraction(1, i)) / 2
        quad, total = _Quad(1.0, -3.0, 2.0), 0.0
        for i in range(1500):
            q = replace(quad, c=quad.c + 0.001 * i)
            total += q.at(0.5) + (q.b * q.b - 4.0 * q.a * q.c)
        return x, total

    def tick(self) -> None:
        t0 = time.perf_counter()
        result = self.piece()
        self.times.append(time.perf_counter() - t0)
        if result != _REFERENCE_RESULT:
            raise RuntimeError("the reference piece computed another result")

    def scale(self) -> float:
        return REFERENCE_S / mean(self.times)


_REFERENCE_RESULT = Reference.piece()


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (p in 10..90, step 10) as statistics.quantiles;
    NaN when every operation failed."""
    if not values:
        return float("nan")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[p // 10 - 1]


def mean(values: list[float]) -> float:
    """Mean of a run's per-pass values or piece times; NaN when there are
    none (every pass failed)."""
    return statistics.fmean(values) if values else float("nan")


def run_record(args: argparse.Namespace, load_start: tuple) -> dict:
    import numpy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside
    a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------


def seeded(seed: int, stream: int):
    """Independent generator per input stream; any integer seed is valid."""
    import numpy as np

    return np.random.default_rng([seed % 2**64, stream])


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    steps: int


@dataclass(frozen=True)
class SweepInput:
    axis1: Axis
    axis2: Axis
    panels: dict[str, dict[str, float]]  # label -> parameter overrides
    sample: list[tuple[str, int, int]]  # (panel, i, j) cells re-derived


def sweep_input(workload: str, seed: int, size: Size) -> SweepInput:
    """The grid of a sweep workload. The seed shrinks each axis range inward
    by up to half a grid step at each end and picks the offset of the
    re-derived sample lattice."""
    import numpy as np

    rng = seeded(seed, 1)
    if workload == "sweep-dense":
        steps = size.dense_steps
        bounds = (("lambda_l", 0.05, 0.40), ("theta_l", 0.05, 0.95))
        panels = {"default": {}}  # the CLI's label for a spec without panels
    else:
        steps = size.edges_steps
        bounds = (("b_l", 0.1, 0.9), ("b_s", 0.1, 0.9))
        panels = {"lowlam": {"lambda_l": 0.05}, "baselam": {"lambda_l": 0.3}}
    axes = []
    for name, lo, hi in bounds:
        half_step = 0.5 * (hi - lo) / (steps - 1)
        shrink = rng.uniform(0.0, half_step, 2)
        axes.append(Axis(name, float(lo + shrink[0]), float(hi - shrink[1]), steps))
    stride = size.sample_stride
    sample = []
    for label in panels:
        off1, off2 = rng.integers(0, stride, 2)
        sample += [(label, i, j) for i in range(off1, steps, stride)
                   for j in range(off2, steps, stride)]
    return SweepInput(axes[0], axes[1], panels, sample)


def write_spec(inp: SweepInput, path: Path) -> None:
    lines = []
    for section, axis in (("axis1", inp.axis1), ("axis2", inp.axis2)):
        lines += [f"[{section}]", f"name = {axis.name}", f"min = {axis.lo!r}",
                  f"max = {axis.hi!r}", f"steps = {axis.steps}", ""]
    for label, overrides in inp.panels.items():
        if not overrides:
            continue
        lines.append(f"[panel {label}]")
        lines += [f"{key} = {value!r}" for key, value in overrides.items()]
        lines.append("")
    path.write_text("\n".join(lines))


# points-verify's points move from their fixed places by up to this share of
# each parameter's range
POINT_JITTER = 0.005


def points(seed: int, n: int) -> list:
    """n admissible parameter points. About a quarter of subgames hit the
    oracle's iteration cap and take almost all the wall time, so that share
    must not change from seed to seed. The points are the first n of a
    Kronecker (R_d) low-discrepancy sequence, which covers the parameter box
    evenly, each moved by a seeded jitter of up to POINT_JITTER per
    coordinate: the seed changes every value, not the mix of work."""
    import numpy as np

    from bundlematch import MarketParams

    dims = 12
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    step = phi ** -np.arange(1, dims + 1)
    grid = (0.5 + np.outer(np.arange(1, n + 1), step)) % 1.0
    jitter = seeded(seed, 2).uniform(-POINT_JITTER, POINT_JITTER, grid.shape)
    out = []
    for y in np.clip(grid + jitter, 0.0, 1.0).tolist():  # Python floats, as the CLI parses
        b_l = 0.1 + 0.8 * y[0]
        out.append(MarketParams(
            *(80.0 + 40.0 * v for v in y[5:12]),  # the seven demand bases
            b_l=b_l,
            b_s=0.1 + 0.8 * y[1],
            lambda_l=b_l * (0.05 + 0.95 * y[2]),
            theta_l=0.05 + 0.9 * y[3],
            alpha=y[4],
        ))
    return out


# ---------------------------------------------------------------------------
# sweep workloads
# ---------------------------------------------------------------------------


class SweepRunner:
    """One CLI sweep call per operation; every CSV is checked."""

    def __init__(self, bm, inp: SweepInput, out: Path) -> None:
        self.bm, self.inp, self.out = bm, inp, out
        self.spec = out / "spec.cfg"
        write_spec(inp, self.spec)
        self.digests: dict[str, str] | None = None
        self.cells = inp.axis1.steps * inp.axis2.steps * len(inp.panels)
        self.admissible = sum(self._params(label, i, j) is not None
                              for label in inp.panels
                              for i in range(inp.axis1.steps) for j in range(inp.axis2.steps))

    def _grid(self, axis: Axis):
        import numpy as np

        return np.linspace(axis.lo, axis.hi, axis.steps)

    def _params(self, label: str, i: int, j: int):
        bm = self.bm
        overrides = dict(self.inp.panels[label])
        overrides[self.inp.axis1.name] = float(self._grid(self.inp.axis1)[i])
        overrides[self.inp.axis2.name] = float(self._grid(self.inp.axis2)[j])
        try:
            return bm.MarketParams.baseline(**overrides)
        except bm.InvalidParameterError:
            return None

    def call(self) -> list[str]:
        """Run the CLI once; return the reasons it failed (empty if none)."""
        argv = ["sweep", "--config", str(self.spec), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.bm.cli.main(argv)
        if code != 0:
            return [f"exit code {code}"]
        errors = []
        digests = {}
        for label in self.inp.panels:
            data = (self.out / f"sweep_{label}.csv").read_bytes()
            digests[label] = hashlib.sha256(data).hexdigest()
            rows = data.decode().splitlines()[1:]
            expected = self.inp.axis1.steps * self.inp.axis2.steps
            if len(rows) != expected:
                errors.append(f"panel {label}: {len(rows)} rows, expected {expected}")
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            errors.append("CSV sha256 differs from the first call of this run")
        return errors

    def check_cells(self, cells: list[tuple[str, int, int]]
                    ) -> tuple[list[str], list[float], list[float]]:
        """Re-derive sampled cells with compare_policies and compare them with
        the last call's CSVs. Returns (errors, per-cell check seconds,
        per-subgame solve_subgame seconds), both timed on admissible cells."""
        from bundlematch.policy import BUNDLED_SCENARIOS

        bm = self.bm
        scenarios = (*BUNDLED_SCENARIOS, bm.Scenario.no_bundle())
        rows = {}
        for label in self.inp.panels:
            with open(self.out / f"sweep_{label}.csv", newline="") as fh:
                rows[label] = list(csv.reader(fh))[1:]
        v1s, v2s = self._grid(self.inp.axis1), self._grid(self.inp.axis2)
        errors, check_s, solve_s = [], [], []
        for label, i, j in cells:
            params = self._params(label, i, j)
            row = rows[label][i * self.inp.axis2.steps + j]
            t0 = time.perf_counter()
            if params is None:
                expected = [v1s[i], v2s[j], "0", None, ""]
            else:
                comp = bm.policy.compare_policies(params)
                ok = comp.delta_pi_B is not None
                expected = [v1s[i], v2s[j], "1" if ok else "0",
                            comp.delta_pi_B / 1000.0 if ok else None,
                            comp.best_pmg_regime.label() if ok else ""]
            mismatch = not (
                close(row[0], expected[0]) and close(row[1], expected[1])
                and row[2] == expected[2] and row[4] == expected[4]
                and (row[3] == "" if expected[3] is None else close(row[3], expected[3]))
            )
            if mismatch:
                errors.append(f"cell {label}[{i},{j}]: CSV {row} vs re-derived {expected}")
            if params is None:
                continue
            check_s.append(time.perf_counter() - t0)
            for scenario in scenarios:
                t0 = time.perf_counter()
                bm.policy.solve_subgame(params, scenario)
                solve_s.append(time.perf_counter() - t0)
        return errors, check_s, solve_s


def close(text: str, value: float) -> bool:
    try:
        return abs(float(text) - value) <= CSV_REL_TOL * max(abs(value), 1e-12)
    except ValueError:
        return False


def sweep_timed(runner: SweepRunner, size: Size, deadline: float, setup: SetupTimer,
                ref: Reference, report: dict) -> dict:
    """Repeat one pass until the time is up: a CLI call, then every sampled
    cell re-derived, each check and solve_subgame timed. Every pass does the
    same work; each metric is taken per pass and averaged over the passes.
    A Reference piece runs after the call and after the check."""
    attempted = failed = 0
    calls, walls, checks, solves = [], [], [], []
    # start another pass only if one more (as long as the last) still fits
    while attempted < size.min_passes or time.perf_counter() + walls[-1] < deadline:
        t0 = time.perf_counter()
        try:
            errors = runner.call()
            if not errors:
                call = time.perf_counter() - t0
                ref.tick()
                errors, check_s, solve_s = runner.check_cells(runner.inp.sample)
                if not errors:
                    calls.append(call)
                    checks.append(check_s)
                    solves.append(solve_s)
        except Exception:
            errors = [traceback.format_exc()]
        walls.append(time.perf_counter() - t0)
        attempted += 1
        if errors:
            failed += 1
            print(f"pass {attempted} failed: {'; '.join(errors[:5])}", file=sys.stderr)
        ref.tick()
        setup.between_ops()
    report.update(passes=attempted, call_walls_s=calls, pass_walls_s=walls,
                  sampled_cells=len(runner.inp.sample), csv_sha256=runner.digests)
    call = mean(calls)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "cells_per_s": runner.cells / call,
            "subgames_per_s": 5 * runner.admissible / call,
            **latencies(solves, checks),
        },
    }


def latencies(solves: list[list[float]], verifies: list[list[float]]) -> dict:
    """The latency metrics from per-pass lists of seconds: each percentile is
    taken within every pass, then averaged over the passes."""
    def over_passes(per_pass: list[list[float]], p: int, scale: float) -> float:
        return scale * mean([percentile(values, p) for values in per_pass])

    return {
        "solve_latency_p50_us": over_passes(solves, 50, 1e6),
        "solve_latency_p90_us": over_passes(solves, 90, 1e6),
        "verify_latency_p50_ms": over_passes(verifies, 50, 1e3),
        "verify_latency_p90_ms": over_passes(verifies, 90, 1e3),
    }


# ---------------------------------------------------------------------------
# points-verify
# ---------------------------------------------------------------------------


def verify_point(bm, params, scenarios, bench: Counter, tracer=None):
    """Solve and verify the 5 subgames of one point, as `bundlematch solve`
    and `verify` do. Returns per-subgame (solve s, verify s, error)."""
    out = []
    for scenario in scenarios:
        if tracer is not None:
            tracer.new_op()
        try:
            t0 = time.perf_counter()
            solution = bm.policy.solve_subgame(params, scenario)
            t1 = time.perf_counter()
            outcome = bm.oracle.find_fixed_point(params, scenario)
            bench["nonconverged"] += not outcome.converged
            if solution.chosen is not None and outcome.converged:
                prices = solution.chosen.prices
                scale = max(1.0, max(abs(v) for v in prices.present()))
                bench["agree_checked"] += 1
                bench["agree"] += bool(prices.sup_distance(outcome.prices) / scale <= AGREE_TOL)
            t2 = time.perf_counter()
            out.append((t1 - t0, t2 - t1, None))
        except Exception:
            out.append((0.0, 0.0, traceback.format_exc()))
    return out


def points_timed(bm, seed: int, size: Size, deadline: float, setup: SetupTimer,
                 ref: Reference, report: dict) -> dict:
    """Repeat one pass over the same points until the time is up; each metric
    is taken per pass and averaged over the passes, as on the sweeps. After
    each point its solves are timed SOLVE_REPEATS more times, outside the
    pass wall; then a Reference piece runs. Oracle counts are from the first
    pass."""
    from bundlematch.policy import BUNDLED_SCENARIOS

    scenarios = (*BUNDLED_SCENARIOS, bm.Scenario.no_bundle())
    work = points(seed, size.pass_points)
    benches: list[Counter] = []
    walls, good_walls, solves, verifies = [], [], [], []
    attempted = failed = 0
    # start another pass only if one more (as long as the last) still fits
    while len(walls) < size.min_passes or time.perf_counter() + walls[-1] < deadline:
        benches.append(Counter())
        solve_s, verify_s, errors = [], [], []
        wall = 0.0  # the points' time, without the reference pieces between them
        for params in work:
            t0 = time.perf_counter()
            for s_solve, s_verify, error in verify_point(bm, params, scenarios, benches[-1]):
                solve_s.append(s_solve)
                verify_s.append(s_verify)
                if error:
                    errors.append(error)
            wall += time.perf_counter() - t0
            try:
                for _ in range(SOLVE_REPEATS):
                    for scenario in scenarios:
                        t0 = time.perf_counter()
                        bm.policy.solve_subgame(params, scenario)
                        solve_s.append(time.perf_counter() - t0)
            except Exception:
                errors.append(traceback.format_exc())
            ref.tick()
        walls.append(wall)
        attempted += len(work) * len(scenarios)
        failed += len(errors)
        if errors:
            print("\n".join(errors[:5]), file=sys.stderr)
        else:
            good_walls.append(walls[-1])
            solves.append(solve_s)
            verifies.append(verify_s)
        setup.between_ops()
    report.update(points=len(work), passes=len(walls), pass_walls_s=walls, **benches[0])
    wall = mean(good_walls)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "cells_per_s": len(work) / wall,
            "subgames_per_s": len(work) * len(scenarios) / wall,
            **latencies(solves, verifies),
        },
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def traced_run(bm, args, size: Size, out: Path, deadline: float, report: dict) -> dict:
    """Alternate an untraced and a traced pass over the same fixed work until
    the time is up. Counts must repeat exactly from pass to pass; times are
    medians over the traced passes. On the sweeps, the sampled cells are
    re-derived once, before and outside the timed passes."""
    import tracing

    tracer = tracing.Tracer()
    if args.workload == "points-verify":
        from bundlematch.policy import BUNDLED_SCENARIOS

        scenarios = (*BUNDLED_SCENARIOS, bm.Scenario.no_bundle())
        work = points(args.seed, size.pass_points)

        def one_pass(bench: Counter, traced: bool) -> list[str]:
            return [error for params in work
                    for *_, error in verify_point(bm, params, scenarios, bench,
                                                  tracer if traced else None)
                    if error]
    else:
        runner = SweepRunner(bm, sweep_input(args.workload, args.seed, size), out)

        def one_pass(bench: Counter, traced: bool) -> list[str]:
            return runner.call()

    untraced_walls, traced_walls, per_pass = [], [], []
    attempted = failed = 0
    if args.workload != "points-verify":
        attempted = 1
        try:
            errors = runner.call()
            errors += [] if errors else runner.check_cells(runner.inp.sample)[0]
        except Exception:
            errors = [traceback.format_exc()]
        if errors:
            failed = 1
            print("\n".join(errors[:5]), file=sys.stderr)
    passes = 0
    # start another pass only if one more (as long as the last of its kind)
    # still fits
    while passes < 2 or time.perf_counter() + (
        traced_walls if passes % 2 else untraced_walls
    )[-1] < deadline:
        traced = passes % 2 == 1
        bench: Counter = Counter()
        tracer.reset()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed(), tracer.span("bench.pass"):
                    errors = one_pass(bench, True)
            else:
                errors = one_pass(bench, False)
        except Exception:
            errors = [traceback.format_exc()]
        (traced_walls if traced else untraced_walls).append(time.perf_counter() - t0)
        passes += 1
        attempted += 1
        if errors:
            failed += 1
            print("\n".join(errors[:5]), file=sys.stderr)
        if traced:
            per_pass.append(tracing.layer_metrics(tracer, bench))
    tracer.dump(out / "spans.json.gz")
    metrics = {}
    counts_repeat = True
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if PER_LAYER_UNITS[name] in ("count", "bytes"):
            if len(set(values)) != 1:
                counts_repeat = False
                print(f"count {name} differs between traced passes: {values}", file=sys.stderr)
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls)
    )
    metrics["failed_ratio"] = failed / attempted
    report.update(passes=passes, counts_repeat=counts_repeat)
    return {"attempted": attempted, "failed": failed, "correct": counts_repeat,
            "metrics": metrics}


def at_reference_speed(metrics: dict, scale: float) -> dict:
    """Times multiplied, rates divided, by the Reference scale."""
    return {name: value / scale if END_TO_END_UNITS[name].endswith("/s") else value * scale
            for name, value in metrics.items()}


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-dense", "sweep-edges", "points-verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny: a few cells and points, for the smoke test")
    args = parser.parse_args()
    load_start = os.getloadavg()
    bm = import_program()
    size = SIZES[args.size]
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    report: dict = {}

    if args.trace:
        result = traced_run(bm, args, size, out, time.perf_counter() + args.seconds, report)
        units = PER_LAYER_UNITS
    else:
        if args.workload == "points-verify":
            runner = None
        else:
            runner = SweepRunner(bm, sweep_input(args.workload, args.seed, size), out)
        ref = Reference()
        ref.tick()  # warm-up
        ref.times.clear()
        start = time.perf_counter()
        deadline = start + args.seconds
        setup = SetupTimer(start, args.seconds)
        if runner is None:
            result = points_timed(bm, args.seed, size, deadline, setup, ref, report)
        else:
            result = sweep_timed(runner, size, deadline, setup, ref, report)
        result["metrics"]["setup_s"] = setup.finish()
        report.update(setup_walls_s=setup.times, reference_walls_s=ref.times,
                      measured=dict(result["metrics"]), speed_scale=ref.scale())
        result["metrics"] = at_reference_speed(result["metrics"], ref.scale())
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        units = END_TO_END_UNITS

    record = run_record(args, load_start)
    record.update(report)
    record["failed_ratio"] = result["failed"] / result["attempted"]
    record["metrics"] = result["metrics"]
    (out / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    print("run:", json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(f"{args.workload} seed {args.seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed, failed_ratio {record['failed_ratio']:.4g}")
    for name, value in result["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0 and result.get("correct", True),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Parameter sweeps, the symmetric-data table, and CSV/JSON emission.

Sweeps evaluate the policy comparison on a rectangular grid (axis1 outer,
axis2 inner, exactly steps1 x steps2 cells).  Cells violating a model
invariant or lacking an equilibrium on either side of the bundling
comparison are emitted with exists=0 and empty value fields, never skipped;
a cell at which a closed form is degenerate stops the sweep with a
DegenerateParamsError that names the panel and the cell.
Cells are evaluated serially in grid order, one policy comparison each, so
files are byte-identical across runs.

Profits in emitted files are reported in thousands of currency; the engine
itself works in raw currency.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .equilibria import DegenerateParamsError, EquilibriumResult
from .market import InvalidParameterError, MarketParams, Scenario
from .policy import PolicyComparison, compare_policies

TABLE_SCENARIOS = (
    Scenario.bundled(True, True),
    Scenario.bundled(True, False),
    Scenario.bundled(False, True),
    Scenario.bundled(False, False),
    Scenario.no_bundle(),
)

TABLE_COLUMNS = (
    "scenario",
    "p_r1_i1",
    "p_r1_i2",
    "p_r1_b",
    "p_r2_b",
    "d_l_i1",
    "d_l_i2",
    "d_l_ib",
    "d_q_ib",
    "d_l_jb",
    "d_q_jb",
    "d_s",
    "pi_r1",
    "pi_r2",
    "total_welfare",
)

SWEEP_COLUMNS_BASE = ("exists", "delta_pi_B", "best_regime")


@dataclass(frozen=True)
class AxisSpec:
    name: str
    lo: float
    hi: float
    steps: int

    def values(self) -> list[float]:
        # the one numpy use of a sweep, imported here so that the other
        # commands start without numpy
        import numpy as np

        return np.linspace(self.lo, self.hi, self.steps).tolist()


@dataclass(frozen=True)
class Panel:
    label: str
    overrides: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepSpec:
    axis1: AxisSpec
    axis2: AxisSpec
    panels: tuple[Panel, ...] = (Panel(label="default"),)


class GridCell(NamedTuple):
    axis1_value: float
    axis2_value: float
    delta_pi_B: float | None  # raw currency; emitted in thousands
    best_regime: str | None  # the bundled winner's PMG pair (best_pmg_regime)

    @property
    def exists(self) -> bool:
        return self.delta_pi_B is not None


def equilibrium_row(r: EquilibriumResult) -> dict[str, float]:
    """A selected candidate's reported values by TABLE_COLUMNS[1:]: its
    prices, the seven segment demands, and profits in thousands.

    The p_r1_b column is retailer 1's bundle-equivalent price, which without
    bundling is the item-price sum a joint purchase pays.
    """
    p, d = r.prices, r.demands
    return {
        "p_r1_i1": p.p1,
        "p_r1_i2": p.p2,
        "p_r1_b": p.r1_bundle_equivalent(),
        "p_r2_b": p.pb2,
        "d_l_i1": d.d_l_i1,
        "d_l_i2": d.d_l_i2,
        "d_l_ib": d.d_l_ib,
        "d_q_ib": d.d_q_ib,
        "d_l_jb": d.d_l_jb,
        "d_q_jb": d.d_q_jb,
        "d_s": d.d_s,
        "pi_r1": r.profits.pi_r1 / 1000.0,
        "pi_r2": r.profits.pi_r2 / 1000.0,
        "total_welfare": r.profits.welfare / 1000.0,
    }


def build_symmetric_table(params: MarketParams) -> list[dict[str, object]]:
    """One row per strategy configuration: its label and the selected
    equilibrium's equilibrium_row, or None in every column without one."""
    solutions = compare_policies(params).solutions
    rows: list[dict[str, object]] = []
    for scenario in TABLE_SCENARIOS:
        chosen = solutions[scenario].chosen
        values = dict.fromkeys(TABLE_COLUMNS[1:]) if chosen is None else equilibrium_row(chosen)
        rows.append({"scenario": scenario.label(), **values})
    return rows


def _cell(base: MarketParams, spec: SweepSpec, panel: Panel, v1: float, v2: float) -> GridCell:
    overrides = {**panel.overrides, spec.axis1.name: v1, spec.axis2.name: v2}
    try:
        params = base.replace(**overrides)
    except InvalidParameterError:
        # e.g. lambda_l above b_l on part of a sweep range: not an admissible
        # parameter point, recorded as non-existent rather than skipped
        return GridCell(v1, v2, delta_pi_B=None, best_regime=None)
    try:
        comparison: PolicyComparison = compare_policies(params)
    except DegenerateParamsError as exc:
        raise DegenerateParamsError(
            f"panel {panel.label!r} at {spec.axis1.name}={v1!r}, "
            f"{spec.axis2.name}={v2!r}: {exc}"
        ) from exc
    delta = comparison.delta_pi_B
    label = None if delta is None else comparison.best_pmg_regime.label()
    return GridCell(v1, v2, delta, label)


def run_panel(base: MarketParams, spec: SweepSpec, panel: Panel) -> list[GridCell]:
    """Evaluate one panel's full grid in deterministic (axis1 outer, axis2
    inner) order."""
    values1, values2 = spec.axis1.values(), spec.axis2.values()
    return [_cell(base, spec, panel, v1, v2) for v1 in values1 for v2 in values2]


def run_sweep(base: MarketParams, spec: SweepSpec) -> dict[str, list[GridCell]]:
    return {panel.label: run_panel(base, spec, panel) for panel in spec.panels}


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def table_rows(rows: list[dict[str, object]]) -> list[list[str]]:
    """The symmetric table as a header plus formatted string rows."""
    return [list(TABLE_COLUMNS), *([_fmt(row.get(col)) for col in TABLE_COLUMNS] for row in rows)]


def sweep_rows(spec: SweepSpec, cells: list[GridCell]) -> list[list[str]]:
    header = [spec.axis1.name, spec.axis2.name, *SWEEP_COLUMNS_BASE]
    out = [header]
    for cell in cells:
        delta_k = cell.delta_pi_B / 1000.0 if cell.delta_pi_B is not None else None
        out.append(
            [
                _fmt(cell.axis1_value),
                _fmt(cell.axis2_value),
                "1" if cell.exists else "0",
                _fmt(delta_k),
                _fmt(cell.best_regime),
            ]
        )
    return out


def write_csv(rows: list[list[str]], path: str | Path) -> None:
    """Write a header plus string rows as CSV."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def write_json(rows: list[list[str]], path: str | Path) -> None:
    """Write a header plus string rows as a JSON list of objects, one per
    row, with empty fields as null."""
    header, *body = rows
    payload = [
        {key: (value if value != "" else None) for key, value in zip(header, row)} for row in body
    ]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def write_sweep_csv(spec: SweepSpec, cells: list[GridCell], path: str | Path) -> None:
    """One panel's CSV (perfbench/tracing.py counts emitted bytes at this
    name)."""
    write_csv(sweep_rows(spec, cells), path)

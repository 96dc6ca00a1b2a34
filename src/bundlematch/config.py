"""Flat key = value config parsing for market parameters and sweep specs.

Files use INI-style sections with `key = value` lines, `#`/`;` comments, and
blank lines.  Market parameters are named after the model symbols (a_l_i1,
b_l, theta_l, ...) and default to the symmetric baseline when omitted.
"""

from __future__ import annotations

import math
from pathlib import Path

from .market import PARAM_FIELDS, InvalidParameterError, MarketParams
from .sweep import AxisSpec, Panel, SweepSpec


class ConfigError(ValueError):
    """Malformed config file; message carries line-level diagnostics."""

    def __init__(self, path: str | Path, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")


def _parse_lines(path: str | Path) -> tuple[dict[str, int], list[tuple[str, str, str, int]]]:
    """The header line of every section, in file order, and (section, key,
    value, line_no) for every assignment.  Section names are lower-cased,
    and a section may appear only once."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(path, None, f"cannot read config: {exc}") from exc
    section = ""
    headers: dict[str, int] = {}
    entries: list[tuple[str, str, str, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if not section:
                raise ConfigError(path, line_no, "empty section name")
            if section in headers:
                raise ConfigError(path, line_no, f"[{section}] repeats line {headers[section]}")
            headers[section] = line_no
            continue
        if "=" not in line:
            raise ConfigError(path, line_no, f"expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(path, line_no, f"expected 'key = value', got {raw.strip()!r}")
        entries.append((section, key, value, line_no))
    return headers, entries


def _parse_float(path: str | Path, key: str, value: str, line_no: int) -> float:
    """The number on line line_no, which must be finite: float() also reads
    nan and inf, which a sweep would carry into every cell as inadmissible."""
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(path, line_no, f"value for {key!r} is not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(path, line_no, f"value for {key!r} must be finite, got {number!r}")
    return number


def load_market_config(path: str | Path) -> MarketParams:
    """Read market parameters; keys may live at top level or in [market].

    Unknown keys and non-numeric or non-finite values are line-level errors;
    model invariant violations are reported with the offending invariant
    named.
    """
    overrides: dict[str, float] = {}
    for section, key, value, line_no in _parse_lines(path)[1]:
        if section not in ("", "market"):
            raise ConfigError(path, line_no, f"unknown section [{section}] in market config")
        if key not in PARAM_FIELDS:
            raise ConfigError(
                path, line_no, f"unknown market parameter {key!r} (expected one of {PARAM_FIELDS})"
            )
        if key in overrides:
            raise ConfigError(path, line_no, f"duplicate parameter {key!r}")
        overrides[key] = _parse_float(path, key, value, line_no)
    try:
        return MarketParams.baseline(**overrides)
    except InvalidParameterError as exc:
        raise ConfigError(path, None, f"invalid parameters: {exc}") from exc


_AXIS_KEYS = ("name", "min", "max", "steps")


def _build_axis(
    path: str | Path, section: str, header: int, kv: dict[str, tuple[str, int]]
) -> AxisSpec:
    """The axis in [section], whose header is on line `header`."""
    for key in _AXIS_KEYS:
        if key not in kv:
            raise ConfigError(path, header, f"[{section}] is missing {key!r}")
    for key in kv:
        if key not in _AXIS_KEYS:
            raise ConfigError(path, kv[key][1], f"unknown key {key!r} in [{section}]")
    name = kv["name"][0]
    if name not in PARAM_FIELDS:
        raise ConfigError(path, kv["name"][1], f"axis name {name!r} is not a market parameter")
    lo = _parse_float(path, "min", kv["min"][0], kv["min"][1])
    hi = _parse_float(path, "max", kv["max"][0], kv["max"][1])
    try:
        steps = int(kv["steps"][0])
    except ValueError:
        raise ConfigError(path, kv["steps"][1], "steps must be an integer") from None
    if steps < 2:
        raise ConfigError(path, kv["steps"][1], "steps must be >= 2")
    if not hi > lo:
        raise ConfigError(path, kv["max"][1], "axis max must exceed min")
    return AxisSpec(name=name, lo=lo, hi=hi, steps=steps)


def load_sweep_spec(path: str | Path) -> SweepSpec:
    """Read a sweep spec: [axis1] and [axis2] (name/min/max/steps), optional
    [fixed] overrides, and any number of [panel] (labelled panelN) and
    [panel <label>] override sections.  Each panel's overrides are [fixed]
    updated by its own entries, so a panel's own value wins; with no panel
    section the one panel, labelled default, carries [fixed].  Any other
    section is an error at its header line."""
    headers, entries = _parse_lines(path)
    # every section, empty or not, in file order
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    for section, line_no in headers.items():
        if section not in ("axis1", "axis2", "fixed") and section.split()[0] != "panel":
            raise ConfigError(path, line_no, f"unknown section [{section}] in sweep spec")
        sections[section] = {}
    for section, key, value, line_no in entries:
        if section == "":
            raise ConfigError(path, line_no, "sweep spec entries must live in a section")
        kv = sections[section]
        if key in kv:
            raise ConfigError(path, line_no, f"duplicate key {key!r} in [{section}]")
        kv[key] = (value, line_no)
    for required in ("axis1", "axis2"):
        if required not in sections:
            raise ConfigError(path, None, f"sweep spec is missing the [{required}] section")
    axis1 = _build_axis(path, "axis1", headers["axis1"], sections["axis1"])
    axis2 = _build_axis(path, "axis2", headers["axis2"], sections["axis2"])
    if axis1.name == axis2.name:
        line = sections["axis2"]["name"][1]
        raise ConfigError(path, line, "axis1 and axis2 must name distinct parameters")

    def param_overrides(section: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for key, (value, line_no) in sections[section].items():
            if key not in PARAM_FIELDS:
                raise ConfigError(path, line_no, f"unknown market parameter {key!r} in [{section}]")
            if key in (axis1.name, axis2.name):
                raise ConfigError(path, line_no, f"{key!r} is a sweep axis and cannot be fixed")
            out[key] = _parse_float(path, key, value, line_no)
        return out

    fixed = param_overrides("fixed") if "fixed" in sections else {}
    panels: dict[str, Panel] = {}
    for section in sections:
        if section.split()[0] == "panel":
            label = (section[len("panel") :].strip() or f"panel{len(panels) + 1}").replace(" ", "_")
            if any(sep in label for sep in "/\\\0"):
                # the label names the panel's output file, sweep_<label>.csv
                message = f"panel label {label!r} may not contain '/', '\\' or NUL"
                raise ConfigError(path, headers[section], message)
            if label in panels:
                raise ConfigError(path, headers[section], f"another panel is labelled {label!r}")
            panels[label] = Panel(label=label, overrides={**fixed, **param_overrides(section)})
    if not panels:
        panels = {"default": Panel(label="default", overrides=fixed)}
    return SweepSpec(axis1=axis1, axis2=axis2, panels=tuple(panels.values()))

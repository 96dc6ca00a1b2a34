"""Command-line interface: solve one subgame, emit the five-row table, run
parameter sweeps, or cross-check against the best-response oracle.

Feasibility is judged at market.FEASIBILITY_TOL; no command sets a
tolerance.  Exit codes: 0 success, 1 input error (usage errors too, such as
an unknown flag or a repeated --pmg retailer key, parameters at which a
closed form or a curvature of retailer 1's best response is degenerate or
the oracle's search overflows, and an --out that cannot be written), 2 no
equilibrium (solve only).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_market_config, load_sweep_spec
from .equilibria import DegenerateParamsError
from .market import InvalidParameterError, InvalidPriceError, MarketParams, Scenario
from .policy import SubgameSolution, solve_subgame
from .sweep import (
    TABLE_COLUMNS,
    build_symmetric_table,
    equilibrium_row,
    run_sweep,
    sweep_rows,
    table_rows,
    write_csv,
    write_json,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_EQUILIBRIUM = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundlematch",
        description=(
            "Nash equilibria of a two-retailer complementary-goods pricing game "
            "with mixed bundling and price-matching guarantees"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_market_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None, help="market config path")
        p.add_argument("--bundling", type=int, choices=(0, 1), default=1)
        p.add_argument(
            "--pmg",
            nargs=2,
            metavar=("r1=cm|nocm", "r2=cm|nocm"),
            default=None,
            help="PMG flags, e.g. --pmg r1=cm r2=nocm (ignored when --bundling 0)",
        )

    solve = sub.add_parser("solve", help="solve one subgame and print the equilibrium")
    add_market_flags(solve)
    solve.add_argument(
        "--verify",
        choices=("oracle",),
        default=None,
        help="append a best-response fixed-point comparison",
    )

    table = sub.add_parser("table", help="emit the five-row symmetric-strategy table")
    table.add_argument("--config", type=Path, default=None)
    table.add_argument("--out", type=Path, default=Path("."), help="output directory")
    table.add_argument("--json", action="store_true", help="also write a JSON mirror")

    sweep = sub.add_parser("sweep", help="run a grid sweep from a sweep-spec file")
    sweep.add_argument("--config", type=Path, required=True, help="sweep-spec path")
    sweep.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sweep.add_argument("--json", action="store_true", help="also write JSON mirrors")

    verify = sub.add_parser("verify", help="cross-check closed forms against the oracle")
    add_market_flags(verify)
    return parser


def _parse_pmg(values: list[str] | None) -> tuple[bool, bool]:
    flags: dict[str, bool] = {}
    for item in values or ():
        key, _, setting = item.partition("=")
        key, setting = key.strip().lower(), setting.strip().lower()
        if key not in ("r1", "r2") or setting not in ("cm", "nocm"):
            raise ConfigError("--pmg", None, f"expected rN=cm|nocm, got {item!r}")
        if key in flags:
            raise ConfigError("--pmg", None, f"retailer {key} given twice, got {item!r}")
        flags[key] = setting == "cm"
    return flags.get("r1", False), flags.get("r2", False)


def _load_params(config: Path | None) -> MarketParams:
    if config is None:
        return MarketParams.baseline()
    return load_market_config(config)


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    # --pmg is parsed, and rejected when malformed, under --bundling 0 too;
    # Scenario then drops the flags
    return Scenario(args.bundling, *_parse_pmg(args.pmg))


def _print_solution(solution: SubgameSolution) -> None:
    scenario = solution.scenario
    print(f"scenario: {scenario.label()} (bundling={scenario.bundling})")
    if solution.chosen is None:
        print("no feasible equilibrium (all regime candidates rejected)")
        for cand in solution.candidates:
            print(f"  candidate {cand.theorem_id}: infeasible, {cand.condition_report.summary()}")
        return
    r = solution.chosen
    row = equilibrium_row(r)

    def line(columns: tuple[str, ...]) -> str:
        return " ".join(f"{name}={row[name]:.6g}" for name in columns)

    print(f"selected candidate: {r.theorem_id} (regime {r.regime.value})")
    print(f"prices: {line(TABLE_COLUMNS[1:5])}")
    print(f"demands: {line(TABLE_COLUMNS[5:12])}")
    print(f"profits (thousands): {line(TABLE_COLUMNS[12:14])} welfare={row['total_welfare']:.6g}")
    print(f"foc residual: {r.foc_residual:.3g}")
    report = r.condition_report
    print(f"conditions: {report.summary()}")
    for check in report.inequalities:
        mark = "ok " if check.satisfied else "FAIL"
        print(f"  [{mark}] {check.label}: {check.lhs:.6g} {check.relation} {check.rhs:.6g}")
    for warning in solution.warnings:
        print(f"warning: {warning}")


def _cmd_solve(args: argparse.Namespace) -> int:
    params = _load_params(args.config)
    oracle_check = args.verify == "oracle"
    solution = solve_subgame(params, _scenario_from_args(args), oracle_check=oracle_check)
    _print_solution(solution)
    if oracle_check:
        outcome = solution.oracle
        dev = solution.oracle_deviation
        if dev is not None:
            print(
                f"oracle: converged in {outcome.iterations} iterations; "
                f"max relative deviation {dev:.3e}"
            )
        else:
            status = "converged" if outcome.converged else "did not converge"
            print(f"oracle: {status} after {outcome.iterations} iterations")
    return EXIT_OK if solution.chosen is not None else EXIT_NO_EQUILIBRIUM


def _cmd_table(args: argparse.Namespace) -> int:
    params = _load_params(args.config)
    args.out.mkdir(parents=True, exist_ok=True)
    rows = table_rows(build_symmetric_table(params))
    csv_path = args.out / "table.csv"
    write_csv(rows, csv_path)
    if args.json:
        write_json(rows, args.out / "table.json")
    print(csv_path.read_text(), end="")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_sweep_spec(args.config)
    args.out.mkdir(parents=True, exist_ok=True)
    results = run_sweep(MarketParams.baseline(), spec)
    for label, cells in results.items():
        path = args.out / f"sweep_{label}.csv"
        write_sweep_csv(spec, cells, path)
        if args.json:
            write_json(sweep_rows(spec, cells), args.out / f"sweep_{label}.json")
        n_exist = sum(cell.exists for cell in cells)
        print(f"{path}: {len(cells)} cells, {n_exist} with equilibria on both sides")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    params = _load_params(args.config)
    solution = solve_subgame(params, _scenario_from_args(args), oracle_check=True)
    outcome = solution.oracle
    if solution.chosen is None:
        status = "converged" if outcome.converged else "did not converge"
        print(f"closed form: no feasible equilibrium; oracle {status} "
              f"after {outcome.iterations} iterations")
        return EXIT_OK
    dev = solution.oracle_deviation
    if dev is not None:
        agrees = "agree" if solution.oracle_agrees else "DISAGREE"
        print(
            f"closed form {solution.chosen.theorem_id} and oracle {agrees}: "
            f"max relative deviation {dev:.3e} ({outcome.iterations} iterations)"
        )
    else:
        print(
            f"closed form {solution.chosen.theorem_id} feasible but oracle did not "
            f"converge within {outcome.iterations} iterations"
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error code 2 means no equilibrium here
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    handlers = {
        "solve": _cmd_solve,
        "table": _cmd_table,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (
        ConfigError,
        InvalidParameterError,
        DegenerateParamsError,
        InvalidPriceError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Config parsing, the symmetric-data table, grid sweeps, and the CLI."""

import contextlib
import csv
import io
import json
import math
import re
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from bundlematch import MarketParams
from bundlematch.cli import main
from bundlematch.config import ConfigError, load_market_config, load_sweep_spec
from bundlematch.sweep import (
    AxisSpec,
    GridCell,
    Panel,
    SweepSpec,
    build_symmetric_table,
    run_panel,
    sweep_rows,
    table_rows,
)
from bundlematch.policy import compare_policies

from conftest import GOLDEN_TABLE, SWEEP_EXPECTED, panel_points, pinned_sweep_panels
from exact_arithmetic import exact_params

TABLE_KEYS = (
    "p_r1_i1", "p_r1_i2", "p_r1_b", "p_r2_b",
    "d_l_i1", "d_l_i2", "d_l_ib", "d_q_ib", "d_l_jb", "d_q_jb", "d_s",
    "pi_r1", "pi_r2", "total_welfare",
)


class TestMarketConfig:
    def test_defaults_are_the_baseline(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("[market]\n")
        assert load_market_config(path) == MarketParams.baseline()

    def test_overrides_and_comments(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text(
            "# demand side\n[market]\nb_l = 0.5  ; own-price slope\nlambda_l = 0.2\n"
        )
        params = load_market_config(path)
        assert params.b_l == 0.5 and params.lambda_l == 0.2

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("[market]\nb_l = 0.5\nbogus = 1\n")
        with pytest.raises(ConfigError) as err:
            load_market_config(path)
        assert ":3:" in str(err.value) and "bogus" in str(err.value)

    def test_repeated_section_reports_line(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("[market]\nb_l = 0.5\n[Market]\nc1 = 5\n")
        with pytest.raises(ConfigError, match=r":3: \[market\] repeats line 1"):
            load_market_config(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("b_l = fast\n")
        with pytest.raises(ConfigError) as err:
            load_market_config(path)
        assert ":1:" in str(err.value)

    @pytest.mark.parametrize(
        "text,message",
        [
            (None, r": cannot read config: \[Errno 2\] .*"),
            ("[]\n", r":1: empty section name"),
            ("[market]\nb_l\n", r":2: expected 'key = value', got 'b_l'"),
            ("= 0.5\n", r":1: expected 'key = value', got '= 0.5'"),
            ("b_l =  # slope\n", r":1: expected 'key = value', got 'b_l =  # slope'"),
            ("[fixed]\nb_l = 0.5\n", r":2: unknown section \[fixed\] in market config"),
            ("b_l = 0.5\n[market]\nb_l = 0.6\n", r":3: duplicate parameter 'b_l'"),
        ],
        ids=["unreadable", "empty-section", "no-equals", "empty-key", "empty-value",
             "unknown-section", "duplicate-key"],
    )
    def test_errors_report_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "m.cfg"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}{message}$"):
            load_market_config(path)

    def test_invariant_violation_names_the_parameter(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("theta_l = 1.0\n")
        with pytest.raises(ConfigError) as err:
            load_market_config(path)
        assert "theta_l" in str(err.value)


class TestSymmetricTable:
    def test_reproduces_golden_values(self, baseline):
        rows = build_symmetric_table(baseline)
        assert [row["scenario"] for row in rows] == list(GOLDEN_TABLE)
        for row in rows:
            expected = GOLDEN_TABLE[row["scenario"]]
            for key, value in zip(TABLE_KEYS, expected):
                assert row[key] == pytest.approx(value, abs=0.011), (row["scenario"], key)

    def test_pmg_of_rival_leaves_rows_identical(self, baseline):
        rows = {row["scenario"]: row for row in build_symmetric_table(baseline)}
        for key in TABLE_KEYS:
            assert abs(rows["CM,CM"][key] - rows["CM,noCM"][key]) <= 1e-10
            assert abs(rows["noCM,CM"][key] - rows["noCM,noCM"][key]) <= 1e-10

    def test_welfare_ordering(self, baseline):
        rows = {row["scenario"]: row for row in build_symmetric_table(baseline)}
        assert rows["CM,CM"]["total_welfare"] > rows["noCM,CM"]["total_welfare"]
        assert rows["noCM,CM"]["total_welfare"] > rows["NoBundle"]["total_welfare"]

    def test_welfare_column_is_profit_sum(self, baseline):
        for row in build_symmetric_table(baseline):
            assert row["total_welfare"] == pytest.approx(row["pi_r1"] + row["pi_r2"], abs=1e-12)


SWEEP_SPEC = """\
[axis1]
name = lambda_l
min = 0.05
max = 0.4
steps = 3

[axis2]
name = theta_l
min = 0.2
max = 0.8
steps = 3

[panel base]
b_l = 0.4
b_s = 0.4
"""


class TestSweeps:
    def test_spec_parsing(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(SWEEP_SPEC)
        spec = load_sweep_spec(path)
        assert spec.axis1.name == "lambda_l" and spec.axis1.steps == 3
        assert spec.panels[0].label == "base"
        assert spec.panels[0].overrides == {"b_l": 0.4, "b_s": 0.4}

    def test_spec_validation(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(SWEEP_SPEC.replace("steps = 3", "steps = 1", 1))
        with pytest.raises(ConfigError):
            load_sweep_spec(path)
        path.write_text(SWEEP_SPEC.replace("name = theta_l", "name = lambda_l"))
        with pytest.raises(ConfigError):
            load_sweep_spec(path)

    @pytest.mark.parametrize(
        "extra",
        ["[panel A]\nc1 = 5\n[panel a]\nc1 = 6\n", "[fixed]\nc1 = 5\n[fixed]\nc2 = 6\n"],
        ids=["panel", "fixed"],
    )
    def test_repeated_section_is_rejected(self, tmp_path, extra):
        path = tmp_path / "s.cfg"
        path.write_text(SWEEP_SPEC + extra)
        with pytest.raises(ConfigError, match=r":18: \[.*\] repeats line 16"):
            load_sweep_spec(path)

    def test_panels_sharing_an_output_label_are_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(SWEEP_SPEC + "[panel a b]\nc1 = 5\n[panel a_b]\nc1 = 6\n")
        with pytest.raises(ConfigError, match=":18: another panel is labelled 'a_b'"):
            load_sweep_spec(path)

    def test_empty_panel_writes_its_file(self, tmp_path, capsys):
        spec_path = tmp_path / "s.cfg"
        spec_path.write_text(SWEEP_SPEC + "[panel b]\n")
        spec = load_sweep_spec(spec_path)
        assert [(p.label, p.overrides) for p in spec.panels][1] == ("b", {})
        assert main(["sweep", "--config", str(spec_path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "sweep_base.csv").exists() and (tmp_path / "sweep_b.csv").exists()

    def test_bare_panel_is_numbered(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(SWEEP_SPEC + "[panel]\nc1 = 5\n")
        assert [p.label for p in load_sweep_spec(path).panels] == ["base", "panel2"]

    @pytest.mark.parametrize(
        "extra",
        ["[bogus]\n", "[bogus]\nc1 = 5\n", "[panels]\n", "[panelling]\nc1 = 5\n"],
        ids=["empty", "entries", "panels", "panelling"],
    )
    def test_unknown_section_reports_line(self, tmp_path, capsys, extra):
        spec_path = tmp_path / "s.cfg"
        spec_path.write_text(SWEEP_SPEC + extra)
        section = re.escape(extra.split("\n")[0])
        with pytest.raises(ConfigError, match=rf":16: unknown section {section} in sweep spec"):
            load_sweep_spec(spec_path)
        assert main(["sweep", "--config", str(spec_path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("label", ["a/b", "a\\b", "a\0b"], ids=["slash", "backslash", "nul"])
    def test_panel_label_must_be_a_file_name(self, tmp_path, capsys, label):
        spec_path = tmp_path / "s.cfg"
        spec_path.write_text(SWEEP_SPEC + f"[panel {label}]\nc1 = 5\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ":16: panel label" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("name = lambda_l\nmin = 0.05\nmax = 0.4\nsteps = 3\n", "", r":1: \[axis1\] is missing 'name'"),
            ("max = 0.8\nsteps = 3\n", "max = 0.8\n", r":7: \[axis2\] is missing 'steps'"),
            ("name = theta_l", "name = lambda_l", ":8: axis1 and axis2 must name distinct parameters"),
            ("steps = 3\n", "steps = 3\nstep = 4\n", r":6: unknown key 'step' in \[axis1\]"),
            ("name = lambda_l", "name = lambda", ":2: axis name 'lambda' is not a market parameter"),
            ("steps = 3", "steps = 3.5", ":5: steps must be an integer"),
            ("max = 0.4", "max = 0.05", ":4: axis max must exceed min"),
            ("[axis1]", "c1 = 5\n[axis1]", ":1: sweep spec entries must live in a section"),
            ("steps = 3\n", "steps = 3\nsteps = 4\n", r":6: duplicate key 'steps' in \[axis1\]"),
            ("b_s = 0.4\n", "b_s = 0.4\n[fixed]\nbogus = 1\n",
             r":17: unknown market parameter 'bogus' in \[fixed\]"),
            ("b_s = 0.4\n", "b_s = 0.4\n[fixed]\nlambda_l = 0.1\n",
             ":17: 'lambda_l' is a sweep axis and cannot be fixed"),
        ],
        ids=["empty-axis1", "axis2-steps", "same-name", "unknown-key", "unknown-name",
             "fractional-steps", "max-not-above-min", "entry-outside-section", "duplicate-key",
             "unknown-fixed", "fixed-axis"],
    )
    def test_axis_errors_report_line(self, tmp_path, old, new, message):
        path = tmp_path / "s.cfg"
        path.write_text(SWEEP_SPEC.replace(old, new, 1))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}{message}$"):
            load_sweep_spec(path)

    def test_cell_count_is_exact_even_with_invalid_cells(self, baseline):
        # lambda_l beyond b_l violates the standing assumption; those cells
        # are emitted as non-existent, never skipped
        spec = SweepSpec(
            axis1=AxisSpec("lambda_l", 0.05, 0.4, 4),
            axis2=AxisSpec("theta_l", 0.2, 0.8, 3),
            panels=(Panel("low_bl", {"b_l": 0.1}),),
        )
        cells = run_panel(baseline, spec, spec.panels[0])
        assert len(cells) == 12
        invalid = [c for c in cells if c.axis1_value > 0.1]
        assert invalid and all(not c.exists and c.delta_pi_B is None for c in invalid)

    def test_degenerate_grid_equals_single_comparison(self, baseline):
        spec = SweepSpec(
            axis1=AxisSpec("lambda_l", 0.3, 0.3, 1),
            axis2=AxisSpec("theta_l", 0.5, 0.5, 1),
        )
        cells = run_panel(baseline, spec, spec.panels[0])
        assert len(cells) == 1
        comp = compare_policies(baseline)
        assert cells[0].exists
        assert cells[0].delta_pi_B == pytest.approx(comp.delta_pi_B, abs=1e-9)
        assert cells[0].best_regime == comp.best_pmg_regime.label()


class TestCli:
    def test_solve_baseline_matches_table(self, capsys):
        code = main(["solve", "--pmg", "r1=cm", "r2=cm"])
        out = capsys.readouterr().out
        assert code == 0
        assert "99.053" in out and "162.045" in out and "135" in out
        assert "selected candidate: T1" in out

    def test_solve_invalid_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "m.cfg"
        path.write_text("theta_l = 1.0\n")
        code = main(["solve", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "theta_l" in err

    @pytest.mark.parametrize("line", ["c1 = nan", "a_s = inf", "c2 = -inf"])
    def test_solve_nonfinite_config_exits_1(self, tmp_path, capsys, line):
        path = tmp_path / "m.cfg"
        path.write_text(line + "\n")
        assert main(["solve", "--config", str(path)]) == 1
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "table", "verify", "sweep"])
    def test_degenerate_params_exit_1(self, tmp_path, capsys, command):
        # b_l (1 - theta_l) vanishes, so the closed forms are undefined
        path = tmp_path / "m.cfg"
        if command == "sweep":
            path.write_text(SWEEP_SPEC.replace("max = 0.8", "max = 0.99999999999999"))
            argv = ["sweep", "--config", str(path), "--out", str(tmp_path)]
        else:
            path.write_text("theta_l = 0.99999999999999\n")
            argv = [command, "--config", str(path)]
            if command == "table":
                argv += ["--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "degenerate parameters" in err
        if command == "sweep":
            assert "panel 'base' at lambda_l=0.05, theta_l=0.99999999999999" in err

    @pytest.mark.parametrize("command", ["solve", "table", "verify", "sweep"])
    def test_overflowing_closed_form_exits_1(self, tmp_path, capsys, command):
        # a_s = 1e308 is admissible, but retailer 2's price level overflows
        path = tmp_path / "m.cfg"
        if command == "sweep":
            path.write_text(SWEEP_SPEC + "a_s = 1e308\n")
            argv = ["sweep", "--config", str(path), "--out", str(tmp_path)]
        else:
            path.write_text("a_s = 1e308\n")
            argv = [command, "--config", str(path)]
            if command == "table":
                argv += ["--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "degenerate parameters: T4 closed form is not finite" in err
        if command == "sweep":
            assert "panel 'base' at lambda_l=0.05, theta_l=0.2" in err

    @pytest.mark.parametrize(
        "command, line",
        [
            ("solve", "degenerate parameters: T2 closed form is not finite"),
            ("table", "degenerate parameters: T1 closed form is not finite"),
            ("verify", "degenerate parameters: T2 closed form is not finite"),
            (
                "sweep",
                "panel 'default' at lambda_l=1e+199, theta_l=0.2: "
                "degenerate parameters: T1 closed form is not finite",
            ),
        ],
    )
    def test_overflowing_square_exits_1(self, tmp_path, capsys, command, line):
        # b_l = lambda_l = 1e200 is admissible, but lambda_l squared
        # overflows to inf, so the bundle prices are not finite
        path = tmp_path / "m.cfg"
        if command == "sweep":
            path.write_text(
                "[axis1]\nname = lambda_l\nmin = 1e199\nmax = 1e200\nsteps = 2\n"
                "[axis2]\nname = theta_l\nmin = 0.2\nmax = 0.8\nsteps = 2\n"
                "[fixed]\nb_l = 1e200\n"
            )
            argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "out")]
        else:
            path.write_text("b_l = 1e200\nlambda_l = 1e200\n")
            argv = [command, "--config", str(path)]
            if command == "table":
                argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    @pytest.mark.parametrize("command", ["table", "sweep"])
    def test_unwritable_out_exits_1(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("a file, not a directory\n")
        argv = [command, "--out", str(out)]
        if command == "sweep":
            spec = tmp_path / "s.cfg"
            spec.write_text(SWEEP_SPEC)
            argv += ["--config", str(spec)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    @pytest.mark.parametrize("command", ["table", "sweep"])
    def test_out_is_prepared_before_any_cell(self, tmp_path, capsys, monkeypatch, command):
        def no_cells(*args):
            raise AssertionError("a cell was computed before --out was prepared")

        monkeypatch.setattr("bundlematch.cli.build_symmetric_table", no_cells)
        monkeypatch.setattr("bundlematch.cli.run_sweep", no_cells)
        out = tmp_path / "taken"
        out.write_text("a file, not a directory\n")
        argv = [command, "--out", str(out)]
        if command == "sweep":
            spec = tmp_path / "s.cfg"
            spec.write_text(SWEEP_SPEC)
            argv += ["--config", str(spec)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_solve_without_equilibrium_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.cfg"
        path.write_text("b_l = 0.9\nb_s = 0.1\nlambda_l = 0.1\ntheta_l = 0.1\n")
        code = main(["solve", "--config", str(path), "--pmg", "r1=cm", "r2=cm"])
        assert code == 2
        assert "no feasible equilibrium" in capsys.readouterr().out

    def test_verify_without_equilibrium(self, tmp_path, capsys):
        path = tmp_path / "m.cfg"
        path.write_text("b_l = 0.9\nb_s = 0.1\nlambda_l = 0.1\ntheta_l = 0.1\n")
        code = main(["verify", "--config", str(path), "--pmg", "r1=cm", "r2=cm"])
        assert code == 0
        assert capsys.readouterr().out == (
            "closed form: no feasible equilibrium; oracle did not converge after 500 iterations\n"
        )

    def test_solve_with_oracle_verification(self, capsys):
        code = main(["solve", "--pmg", "r1=cm", "r2=nocm", "--verify", "oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle: converged" in out
        assert "max relative deviation" in out

    @pytest.mark.parametrize(
        "converged,lines",
        [
            (False, [
                "warning: oracle: best-response iteration did not converge",
                "oracle: did not converge after 500 iterations",
            ]),
            (True, [
                "warning: oracle: fixed point deviates from selected equilibrium "
                "(relative sup-norm 1.00e-01)",
                "oracle: converged in 12 iterations; max relative deviation 1.000e-01",
            ]),
        ],
        ids=["not-converged", "deviates"],
    )
    def test_solve_reports_the_oracle_verdict(self, capsys, fixed_oracle, converged, lines):
        fixed_oracle(converged=converged, scale=1.1)
        assert main(["solve", "--pmg", "r1=cm", "r2=cm", "--verify", "oracle"]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == lines

    @pytest.mark.parametrize(
        "converged,line",
        [
            (False, "closed form T1 feasible but oracle did not converge within 500 iterations"),
            (True, "closed form T1 and oracle DISAGREE: max relative deviation 1.000e-01 "
                   "(12 iterations)"),
        ],
        ids=["not-converged", "deviates"],
    )
    def test_verify_reports_the_oracle_verdict(self, capsys, fixed_oracle, converged, line):
        fixed_oracle(converged=converged, scale=1.1)
        assert main(["verify", "--pmg", "r1=cm", "r2=cm"]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_a_nan_deviation_disagrees_in_solve_and_verify(self, capsys, fixed_oracle):
        # no tolerance comparison holds for NaN: both commands report it as a
        # disagreement
        fixed_oracle(converged=True, scale=math.nan)
        assert main(["solve", "--pmg", "r1=cm", "r2=cm", "--verify", "oracle"]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "warning: oracle: fixed point deviates from selected equilibrium "
            "(relative sup-norm nan)",
            "oracle: converged in 12 iterations; max relative deviation nan",
        ]
        assert main(["verify", "--pmg", "r1=cm", "r2=cm"]) == 0
        assert capsys.readouterr().out == (
            "closed form T1 and oracle DISAGREE: max relative deviation nan (12 iterations)\n"
        )

    def test_solve_without_bundling(self, capsys):
        assert main(["solve", "--bundling", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == [
            "scenario: NoBundle (bundling=0)",
            "selected candidate: T5a (regime r1_high)",
        ]

    def test_table_leaves_subgames_without_equilibrium_empty(self, tmp_path, capsys):
        path = tmp_path / "m.cfg"
        path.write_text("lambda_l = 0.099\ntheta_l = 0.1\nb_s = 0.2\n")
        assert main(["table", "--config", str(path), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "table.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows[:2]] == ["CM,CM", "CM,noCM"]
        assert all(rows[0][1:]) and all(rows[1][1:])
        assert rows[2:] == [[label] + [""] * 14 for label in ("noCM,CM", "noCM,noCM", "NoBundle")]

    @pytest.mark.parametrize("pmg", [["r1=sometimes", "r2=cm"], ["r1=cm", "r1=nocm"]])
    def test_bad_pmg_flag_exits_1(self, capsys, pmg):
        assert main(["solve", "--pmg", *pmg]) == 1
        assert "--pmg" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--bundling", "3"],
            ["sweep", "--config", "x", "--threads", "4"],
            ["table", "--no-such-flag"],
            [],
            ["solve", "--tol", "nan"],
        ],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["sweep", "--help"]) == 0
        assert "--config" in capsys.readouterr().out

    def test_verify_subcommand(self, capsys):
        code = main(["verify", "--pmg", "r1=nocm", "r2=nocm"])
        out = capsys.readouterr().out
        assert code == 0
        assert "agree" in out

    def test_table_writes_golden_csv(self, tmp_path, capsys):
        code = main(["table", "--out", str(tmp_path), "--json"])
        assert code == 0
        with open(tmp_path / "table.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["scenario"] for row in rows] == list(GOLDEN_TABLE)
        for row in rows:
            expected = GOLDEN_TABLE[row["scenario"]]
            for key, value in zip(TABLE_KEYS, expected):
                assert float(row[key]) == pytest.approx(value, abs=0.011)
        payload = json.loads((tmp_path / "table.json").read_text())
        assert [entry["scenario"] for entry in payload] == list(GOLDEN_TABLE)
        assert payload[0]["pi_r1"] == rows[0]["pi_r1"]

    def test_sweep_outputs_deterministic_and_mirrored(self, tmp_path, capsys):
        spec_path = tmp_path / "s.cfg"
        spec_path.write_text(SWEEP_SPEC)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["sweep", "--config", str(spec_path), "--out", str(out1), "--json"]) == 0
        assert main(["sweep", "--config", str(spec_path), "--out", str(out2), "--json"]) == 0
        csv1 = (out1 / "sweep_base.csv").read_bytes()
        csv2 = (out2 / "sweep_base.csv").read_bytes()
        assert csv1 == csv2  # byte-identical across runs
        with open(out1 / "sweep_base.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert rows[0]["lambda_l"] == "0.05" and rows[0]["theta_l"] == "0.2"
        payload = json.loads((out1 / "sweep_base.json").read_text())
        assert len(payload) == 9
        assert payload[0]["exists"] == rows[0]["exists"]

    @pytest.mark.parametrize("old,new", [("max = 0.4", "max = inf"), ("min = 0.05", "min = nan")])
    def test_sweep_nonfinite_axis_exits_1(self, tmp_path, capsys, old, new):
        spec_path = tmp_path / "s.cfg"
        spec_path.write_text(SWEEP_SPEC.replace(old, new, 1))
        with pytest.raises(ConfigError, match="must be finite"):
            load_sweep_spec(spec_path)
        assert main(["sweep", "--config", str(spec_path), "--out", str(tmp_path)]) == 1
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("section", ["[fixed]", "[panel b]"])
    def test_sweep_nonfinite_override_exits_1(self, tmp_path, capsys, section, value):
        # a non-finite override would fail every cell's validation in silence
        spec_path = tmp_path / "s.cfg"
        spec_path.write_text(SWEEP_SPEC + f"{section}\nc1 = {value}\n")
        with pytest.raises(ConfigError, match=f":17: value for 'c1' must be finite, got {value}$"):
            load_sweep_spec(spec_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_malformed_spec_exits_1(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.cfg"
        spec_path.write_text("[axis1]\nname = lambda_l\n")
        assert main(["sweep", "--config", str(spec_path), "--out", str(tmp_path)]) == 1


# `bundlematch verify` stdout for the five subgames at three market configs,
# recorded before the oracle's responses were remembered and stacked.
# Rebuild only from a commit whose outputs are known good:
#   PYTHONPATH=src:tests python -c "import test_sweep_cli as t; t.write_verify_expected()"
VERIFY_EXPECTED = Path(__file__).with_name("verify_expected.txt")
VERIFY_SUBGAMES = (
    ["--pmg", "r1=cm", "r2=cm"],
    ["--pmg", "r1=cm", "r2=nocm"],
    ["--pmg", "r1=nocm", "r2=cm"],
    ["--pmg", "r1=nocm", "r2=nocm"],
    ["--bundling", "0"],
)


def _verify_sections() -> dict[str, list[str]]:
    """The expected file's sections: [overrides] header, then one line per
    subgame."""
    sections: dict[str, list[str]] = {}
    for line in VERIFY_EXPECTED.read_text().splitlines():
        if line.startswith("["):
            sections[line[1:-1]] = current = []
        elif not line.startswith("#"):
            current.append(line)
    return sections


def _section_config(section: str, workdir: Path) -> list[str]:
    """The --config flags for a section named by its overrides of the
    baseline, with the config file written under workdir."""
    if section == "baseline":
        return []
    path = workdir / "market.cfg"
    path.write_text("".join(f"{item.replace('=', ' = ')}\n" for item in section.split(",")))
    return ["--config", str(path)]


def verify_output(section: str, workdir: Path) -> str:
    """One section's stdout, with its config file under workdir."""
    config = _section_config(section, workdir)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for flags in VERIFY_SUBGAMES:
            assert main(["verify", *flags, *config]) == 0
    return stdout.getvalue()


def write_verify_expected() -> None:
    header = [line for line in VERIFY_EXPECTED.read_text().splitlines() if line.startswith("#")]
    with tempfile.TemporaryDirectory() as tmp:
        body = [f"[{s}]\n{verify_output(s, Path(tmp))}" for s in _verify_sections()]
    VERIFY_EXPECTED.write_text("\n".join(header) + "\n" + "".join(body))


@pytest.mark.parametrize("section", list(_verify_sections()))
def test_verify_stdout_is_pinned(tmp_path, section):
    assert verify_output(section, tmp_path).splitlines() == _verify_sections()[section]


# `bundlematch sweep` files for a two-panel b_l x b_s spec, recorded before
# the selection records became tuples: its cells have an equilibrium, are
# inadmissible (lambda_l > b_l) or are admissible without an equilibrium
SWEEP_EXPECTED_LAMBDA = {"lowlam": 0.05, "baselam": 0.3}


def test_sweep_csv_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(SWEEP_EXPECTED / "spec.cfg"), "--out", str(out)]) == 0
    names = sorted(f"sweep_{label}.csv" for label in SWEEP_EXPECTED_LAMBDA)
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (SWEEP_EXPECTED / name).read_bytes(), name


def test_pinned_sweep_has_every_kind_of_cell():
    kinds = Counter()
    for label, lambda_l in SWEEP_EXPECTED_LAMBDA.items():
        with open(SWEEP_EXPECTED / f"sweep_{label}.csv", newline="") as fh:
            kinds.update(
                "exists" if row["exists"] == "1"
                else "inadmissible" if float(row["b_l"]) < lambda_l
                else "none"
                for row in csv.DictReader(fh)
            )
    assert set(kinds) == {"exists", "inadmissible", "none"}


# `bundlematch solve` and `table` output at three market configs, recorded
# before the report row had one home.  Each section holds, in order, `solve`
# for the five subgames, one `solve --verify oracle`, the `table --json`
# stdout (the CSV) and the table.json it writes; its header names its
# overrides of the baseline, as in verify_expected.txt.  Rebuild only from a
# commit whose outputs are known good:
#   PYTHONPATH=src:tests python -c "import test_sweep_cli as t; t.write_solve_expected()"
SOLVE_EXPECTED = Path(__file__).with_name("solve_expected.txt")
SOLVE_SECTIONS = (
    "baseline",
    "lambda_l=0.099,theta_l=0.1,b_s=0.2",
    "a_l_i1=120,a_s=140,alpha=0.3,c1=4",
)
SOLVE_ORACLE_SUBGAME = ["--pmg", "r1=nocm", "r2=cm"]


def solve_output(section: str, workdir: Path) -> str:
    """One section's stdout followed by its table.json, with the config and
    the table files under workdir."""
    config = _section_config(section, workdir)
    out = workdir / "table"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for flags in VERIFY_SUBGAMES:
            assert main(["solve", *flags, *config]) in (0, 2)
        assert main(["solve", "--verify", "oracle", *SOLVE_ORACLE_SUBGAME, *config]) in (0, 2)
        assert main(["table", "--json", "--out", str(out), *config]) == 0
    return stdout.getvalue() + (out / "table.json").read_text()


def _solve_sections() -> dict[str, list[str]]:
    """The expected file's sections.  A header is a whole line in brackets,
    so the JSON's own '[' and ']' lines are content."""
    sections: dict[str, list[str]] = {}
    for line in SOLVE_EXPECTED.read_text().splitlines():
        if re.fullmatch(r"\[.+\]", line):
            sections[line[1:-1]] = current = []
        elif not line.startswith("#"):
            current.append(line)
    return sections


def write_solve_expected() -> None:
    header = [line for line in SOLVE_EXPECTED.read_text().splitlines() if line.startswith("#")]
    with tempfile.TemporaryDirectory() as tmp:
        body = [f"[{s}]\n{solve_output(s, Path(tmp))}" for s in SOLVE_SECTIONS]
    SOLVE_EXPECTED.write_text("\n".join(header) + "\n" + "".join(body))


def test_solve_sections_are_the_recorded_configs():
    assert tuple(_solve_sections()) == SOLVE_SECTIONS


@pytest.mark.parametrize("section", SOLVE_SECTIONS)
def test_solve_and_table_output_is_pinned(tmp_path, section):
    assert solve_output(section, tmp_path).splitlines() == _solve_sections()[section]


def test_pinned_sweeps_and_table_hold_in_exact_arithmetic():
    """Every cell of the pinned sweeps and the baseline table, solved in
    exact rational arithmetic with each value made a float only to be
    printed, give the pinned text: the existence verdicts, the bundled
    winners' PMG pairs and the printed figures are facts of the model, not
    of rounding."""
    for spec, panel, path in pinned_sweep_panels():
        cells = []
        for v1, v2, params in panel_points(spec, panel):
            comp = None if params is None else compare_policies(exact_params(params))
            if comp is None or comp.delta_pi_B is None:
                cells.append(GridCell(v1, v2, None, None))
            else:
                label = comp.best_pmg_regime.label()
                cells.append(GridCell(v1, v2, float(comp.delta_pi_B), label))
        with open(path, newline="") as fh:
            assert sweep_rows(spec, cells) == list(csv.reader(fh)), path.name
    table = _exact_table(MarketParams.baseline())
    lines = _solve_sections()["baseline"]
    start = lines.index(",".join(table[0]))
    assert list(csv.reader(lines[start : start + len(table)])) == table


def _exact_table(params: MarketParams) -> list[list[str]]:
    """The symmetric table at params solved in exact rational arithmetic,
    each value made a float only to be printed."""
    rows = [
        {key: float(v) if isinstance(v, Fraction) else v for key, v in row.items()}
        for row in build_symmetric_table(exact_params(params))
    ]
    return table_rows(rows)


# The symmetric table at a point whose subgames select T4 (noCM,noCM and
# CM,noCM), T3, T1 and T5b, as the float run prints it.  The pinned tables
# select only T1, T2 and T5a, and the pinned sweeps print only profits,
# which are stationary in a candidate's own prices, so only this table
# checks the T3, T4 and T5b prices against the model.
SELECTS_T3_T4_T5B = {"lambda_l": 0.05, "theta_l": 0.5, "a_s": 60.0}
SELECTS_T3_T4_T5B_TABLE = """\
scenario,p_r1_i1,p_r1_i2,p_r1_b,p_r2_b,d_l_i1,d_l_i2,d_l_ib,d_q_ib,d_l_jb,d_q_jb,d_s,pi_r1,pi_r2,total_welfare
"CM,CM",89.4556,89.4556,139.879,125,44.375,44.375,46,52.6956,50,50,10,18.6242,11.025,29.6492
"CM,noCM",87.8303,87.8303,119.75,135,44.5063,44.5063,54.8957,54.8957,46,46,12.1001,19.0865,10.58,29.6665
"noCM,CM",88.5173,88.5173,126.161,135,44.346,44.346,52.0791,52.0791,46,49.5354,9.53542,18.5276,11.0549,29.5825
"noCM,noCM",87.8303,87.8303,119.75,135,44.5063,44.5063,54.8957,54.8957,46,46,12.1001,19.0865,10.58,29.6665
NoBundle,65,65,130,135,61,61,48,48,46,46,8,18.15,10.58,28.73
"""


def test_table_selecting_t3_t4_and_t5b_holds_in_exact_arithmetic():
    params = MarketParams.baseline(**SELECTS_T3_T4_T5B)
    solutions = compare_policies(params).solutions
    assert {s.label(): sol.chosen.theorem_id for s, sol in solutions.items()} == {
        "noCM,noCM": "T4", "noCM,CM": "T3", "CM,noCM": "T4", "CM,CM": "T1", "NoBundle": "T5b"
    }
    expected = list(csv.reader(SELECTS_T3_T4_T5B_TABLE.splitlines()))
    assert table_rows(build_symmetric_table(params)) == expected
    assert _exact_table(params) == expected


# sweeps whose specs have a [fixed] section, recorded before [fixed] was
# merged into each panel's overrides at load: in fixed.cfg one panel
# overrides a fixed key and a bare [panel] keeps it; fixed_default.cfg has
# no panel section, so its one panel is the implicit default.  Each spec's
# files live in the directory named after it.
@pytest.mark.parametrize("spec", ["fixed", "fixed_default"])
def test_fixed_sweep_csv_bytes_are_pinned(tmp_path, capsys, spec):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(SWEEP_EXPECTED / f"{spec}.cfg"), "--out", str(out)]) == 0
    expected = sorted((SWEEP_EXPECTED / spec).iterdir())
    assert sorted(p.name for p in out.iterdir()) == [p.name for p in expected]
    for path in expected:
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_fixed_is_merged_into_every_panel_at_load():
    spec = load_sweep_spec(SWEEP_EXPECTED / "fixed.cfg")
    assert [(p.label, p.overrides) for p in spec.panels] == [
        ("hilam", {"lambda_l": 0.3, "alpha": 0.3}),
        ("panel2", {"lambda_l": 0.05, "alpha": 0.3}),
    ]
    (default,) = load_sweep_spec(SWEEP_EXPECTED / "fixed_default.cfg").panels
    assert default.overrides == {"a_s": 140.0, "c1": 4.0}


def test_axis_values_are_python_floats_on_the_linspace_grid():
    import numpy as np

    axis = AxisSpec("b_l", 0.1, 0.9, 7)
    values = axis.values()
    assert all(type(v) is float for v in values)
    assert [v.hex() for v in values] == [float(v).hex() for v in np.linspace(0.1, 0.9, 7)]


def test_pmg_is_checked_but_dropped_without_bundling(capsys):
    assert main(["solve", "--bundling", "0", "--pmg", "r1=sometimes", "r2=cm"]) == 1
    assert main(["solve", "--bundling", "0", "--pmg", "r1=cm", "r2=cm"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "scenario: NoBundle (bundling=0)"

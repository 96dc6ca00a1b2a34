"""Start-up: every command, the oracle's included, runs without numpy, and
the package exports each name of its defining module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import bundlematch

from conftest import SUBGAME_FLAGS

SRC = Path(bundlematch.__file__).resolve().parent.parent

# runs the argvs it is given (such as `solve` in all 5 subgames and `table
# --json`) through cli.main in one interpreter, with numpy importable or
# not, and prints one JSON line per command: its argv, exit code and stdout;
# then whether numpy was loaded and whether it can be
COMMANDS = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # any numpy import now raises ImportError
from bundlematch.cli import main
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(json.dumps([argv, code, out.getvalue()]))
print("numpy loaded", sys.modules.get("numpy") is not None)
try:
    import numpy
    print("numpy importable")
except ImportError:
    print("numpy blocked")
"""

# the two trailing lines of COMMANDS in each mode: no command loads numpy,
# and the block is real
TRAILER = {
    "normal": ["numpy loaded False", "numpy importable"],
    "blocked": ["numpy loaded False", "numpy blocked"],
}


def run_python(code: str, *args: str, cwd: Path | None = None) -> str:
    """Run code in a fresh interpreter that imports bundlematch from the
    sources under test; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, cwd=cwd, check=True,
    )
    return done.stdout


class TestNoNumpy:
    def test_solve_verify_and_table_run_without_numpy(self, tmp_path):
        outputs, rest = {}, {}
        for mode in ("normal", "blocked"):
            out = tmp_path / mode
            argvs = [["solve", *flags] for flags in SUBGAME_FLAGS]
            argvs += [["verify", *flags] for flags in SUBGAME_FLAGS]
            argvs.append(["solve", "--verify", "oracle"])
            argvs.append(["table", "--json", "--out", str(out)])
            lines = run_python(COMMANDS, mode, json.dumps(argvs), cwd=tmp_path).splitlines()
            records = [json.loads(line) for line in lines[: len(argvs)]]
            assert [code for _, code, _ in records] == [0] * len(argvs)
            files = {name: (out / name).read_bytes() for name in ("table.csv", "table.json")}
            outputs[mode] = ([stdout for _, _, stdout in records], files)
            rest[mode] = lines[len(argvs) :]
        assert outputs["blocked"] == outputs["normal"]
        assert rest == TRAILER

    def test_sweep_runs_without_numpy(self, tmp_path):
        # the axis grids are computed in pure Python: with numpy blocked the
        # pinned spec writes its pinned CSVs, byte for byte
        pinned = Path(__file__).with_name("sweep_expected")
        files = {}
        for mode in ("normal", "blocked"):
            out = tmp_path / mode
            argv = ["sweep", "--config", str(pinned / "spec.cfg"), "--out", str(out)]
            lines = run_python(COMMANDS, mode, json.dumps([argv]), cwd=tmp_path).splitlines()
            assert json.loads(lines[0])[1] == 0
            assert lines[1:] == TRAILER[mode]
            files[mode] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        assert files["blocked"] == files["normal"]
        assert files["blocked"] == {
            path.name: path.read_bytes() for path in sorted(pinned.glob("sweep_*.csv"))
        }

    def test_importing_the_cli_and_verifying_load_no_numpy(self):
        code = """
import sys
import bundlematch.cli
print("numpy" in sys.modules, "bundlematch.oracle" in sys.modules)
code = bundlematch.cli.main(["verify"])
print(code, "numpy" in sys.modules)
"""
        lines = run_python(code).splitlines()
        assert lines[0] == "False True"
        assert lines[-1] == "0 False"
        assert lines[1].startswith("closed form T2 and oracle agree: ")

    def test_retailer_1_hessian_loads_no_numpy(self):
        # the oracle's Hessians are rows of floats; numpy is blocked, so any
        # numpy import on the way raises ImportError
        code = """
import sys
sys.modules["numpy"] = None
from bundlematch.market import STRUCTURES, MarketParams
from bundlematch.profits import hessian_matrix_r1
rows = [hessian_matrix_r1(MarketParams.baseline(), s) for s in STRUCTURES.values()]
print(sorted({len(h) for h in rows}), all(type(v) is float for h in rows for r in h for v in r))
"""
        assert run_python(code).splitlines() == ["[2, 3] True"]


class TestExports:
    def test_every_export_is_its_defining_modules_object(self):
        for name in bundlematch.__all__:
            obj = getattr(bundlematch, name)
            assert getattr(sys.modules[obj.__module__], name) is obj, name

    def test_star_import_in_a_fresh_interpreter(self):
        code = """
import sys
import bundlematch
print("numpy" in sys.modules, "bundlematch.oracle" in sys.modules)
namespace = {}
exec("from bundlematch import *", namespace)
print(sorted(name for name in bundlematch.__all__ if name not in namespace))
print(all(namespace[name] is getattr(bundlematch, name) for name in bundlematch.__all__))
"""
        assert run_python(code).splitlines() == ["False True", "[]", "True"]

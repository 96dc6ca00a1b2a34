#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size (about 20 s):

    python3 perfbench/smoke.py

For every workload, with tracing off and on, it checks that the last output
line has exactly the keys of the result format, that every metric named in
BENCHMARK.json is emitted with its unit and nothing else, that no operation
failed, that end-to-end metrics are positive and that layer self times cover
the traced wall time. It also checks that the benchmark fails, without
printing a result, in a copy that holds only BENCHMARK.json and perfbench/.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"smoke: FAIL {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            proc = run(ROOT, workload, trace)
            check(proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys")
            check(result["correct"] is True and result["failed"] == 0, f"{what}: {result}")
            check(result["attempted"] >= 1, f"{what}: nothing attempted")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace], f"{what}: metric names or units {units}")
            values = {name: m["value"] for name, m in result["metrics"].items()}
            if trace == 0:
                check(all(v > 0 for v in values.values()), f"{what}: a zero metric {values}")
            else:
                check(values["failed_ratio"] == 0, f"{what}: failed_ratio")
                check(0.95 <= values["trace.attributed_ratio"] <= 1.0 + 1e-9,
                      f"{what}: self times cover {values['trace.attributed_ratio']:.3f} of wall")
            print(f"smoke: ok {what}: {result['attempted']} attempted")

    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        check(proc.returncode != 0, "runs without the program's sources")
        check('"metrics"' not in proc.stdout, "prints a result without the program's sources")
        print("smoke: ok fails without the program's sources")
    finally:
        shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())

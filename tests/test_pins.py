"""Every pinned output, each made by one generator in PINS.

test_pin_holds compares each pin file whole with its generator's bytes and,
where they differ, prints what moved.  From a commit whose outputs are known
good, `PYTHONPATH=src python tests/test_pins.py` rewrites every pin and
prints the same summary per file; README.md says how to read it.  The oracle
pins assume the LAPACK results of numpy's bundled OpenBLAS; another LAPACK
build may differ in the last bit.
"""

import contextlib
import difflib
import io
import re
import struct
import tempfile
from functools import partial
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from bundlematch import (
    MarketParams,
    PolicyComparison,
    PriceVector,
    compare_policies,
    find_fixed_point,
)
from bundlematch.cli import main
from bundlematch.market import PARAM_FIELDS
from bundlematch.oracle import BestResponses
from bundlematch.sweep import TABLE_SCENARIOS

from conftest import (
    PINNED_SWEEPS,
    SUBGAME_FLAGS,
    SWEEP_EXPECTED,
    attaining_pairs,
    draw_valid_params,
    hex_text,
    pinned_sweep_panels,
    regime_of,
)

TESTS = Path(__file__).parent


def oracle_lines(damping: float) -> list[str]:
    """find_fixed_point at the baseline and 50 draws of draw_valid_params
    (seed 11), for the five subgames: converged, iterations, the classified
    regime and the prices as float.hex."""
    rng = np.random.default_rng(11)
    points = [("baseline", MarketParams.baseline())]
    points += [(f"draw{i}", draw_valid_params(rng)) for i in range(50)]
    lines = []
    for label, params in points:
        for scenario in TABLE_SCENARIOS:
            out = find_fixed_point(params, scenario, damping)
            prices = " ".join(v.hex() for v in out.prices.present())
            lines.append(
                f"{label} {scenario.label()} converged {out.converged} iterations {out.iterations} "
                f"regime {regime_of(out.prices).value} prices {prices}"
            )
    return lines


def response_lines() -> list[str]:
    """Each subgame's best responses at the baseline for three pb2, as
    float.hex: retailer 1's to pb2, then retailer 2's to those prices."""
    lines = []
    for scenario in TABLE_SCENARIOS:
        responses = BestResponses(MarketParams.baseline(), scenario)
        for pb2 in (60.0, 135.0, 210.0):
            r1 = responses.respond_r1(pb2)
            r2 = responses.respond_r2(PriceVector(*r1, pb2))
            lines.append(f"{scenario.label()} pb2 {pb2} r1 {hex_text(r1)} r2 {r2.hex()}")
    return lines


def pinned_points() -> list[tuple[str, MarketParams]]:
    rng = np.random.default_rng(2017)
    return [
        ("baseline", MarketParams.baseline()),
        ("none", MarketParams.baseline(b_l=0.9, b_s=0.1)),
        ("no-match", MarketParams.baseline(a_s=200.0, b_l=0.1, b_s=0.9, lambda_l=0.05)),
        *((f"draw{i}", draw_valid_params(rng)) for i in range(50)),
    ]


def tie_text(comp: PolicyComparison) -> str | None:
    """The bundled PMG pairs tied at pi_bundle, when two or more are."""
    attaining = attaining_pairs(comp)
    if len(attaining) < 2:
        return None
    tied, best = ", ".join(s.label() for s in attaining), comp.best_pmg_regime.label()
    return f"profit tie among {tied}; selected {best} (fewest PMGs, then lexicographic)"


def compare_policies_lines() -> list[str]:
    """compare_policies with every float as float.hex, at the baseline (a
    profit tie between CM,CM and CM,noCM), a point without any equilibrium,
    a point where retailer 1 refrains from matching, and 50 draws of
    draw_valid_params."""
    lines = []
    for label, params in pinned_points():
        comp = compare_policies(params)
        best = comp.best_pmg_regime
        lines += [
            f"{label} params {hex_text(getattr(params, name) for name in PARAM_FIELDS)}",
            f"{label} pi_bundle,pi_nobundle,delta_pi_B "
            f"{hex_text((comp.pi_bundle, comp.pi_nobundle, comp.delta_pi_B))}",
            f"{label} best {best.label() if best is not None else None}; tie {tie_text(comp)}",
        ]
        candidates = {}
        for scenario, sol in comp.solutions.items():
            chosen = sol.chosen and sol.chosen.theorem_id
            lines.append(f"{label} {scenario.label()} chosen {chosen}")
            candidates.update((c.theorem_id, c) for c in sol.candidates)
        for tid, c in candidates.items():
            lines += [
                f"{label} {tid} prices {hex_text(c.prices.present())}",
                f"{label} {tid} demands {hex_text(c.demands)}",
                f"{label} {tid} profits {hex_text(c.profits)}",
                f"{label} {tid} residual {hex_text((c.foc_residual,))} feasible {c.feasible}",
            ]
    return lines


def sectioned(header: str, sections: tuple[str, ...], commands) -> bytes:
    """The header, then per section its name in brackets and what
    commands(config flags, workdir) prints at the market config that the
    name lists as overrides of the baseline."""
    body = header
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for section in sections:
            config = []
            if section != "baseline":
                config = ["--config", str(workdir / "market.cfg")]
                overrides = "".join(f"{item.replace('=', ' = ')}\n" for item in section.split(","))
                (workdir / "market.cfg").write_text(overrides)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                commands(config, workdir)
            body += f"[{section}]\n{stdout.getvalue()}"
    return body.encode()


VERIFY_HEADER = """\
# bundlematch verify stdout for the five subgames, in the order
# --pmg r1=cm r2=cm, r1=cm r2=nocm, r1=nocm r2=cm, r1=nocm r2=nocm, --bundling 0;
# one section per market config, headed by its overrides of the baseline
"""
VERIFY_SECTIONS = ("baseline", "lambda_l=0.05,theta_l=0.1,b_s=0.6", "theta_l=0.8,b_s=0.3")


def run_verify(config: list[str], workdir: Path) -> None:
    for flags in SUBGAME_FLAGS:
        assert main(["verify", *flags, *config]) == 0


SOLVE_HEADER = """\
# bundlematch solve for the five subgames, in the order
# --pmg r1=cm r2=cm, r1=cm r2=nocm, r1=nocm r2=cm, r1=nocm r2=nocm, --bundling 0;
# then solve --verify oracle --pmg r1=nocm r2=cm, then table --json: its
# stdout (the CSV) followed by the table.json it writes;
# one section per market config, headed by its overrides of the baseline
"""
SOLVE_SECTIONS = (
    "baseline", "lambda_l=0.099,theta_l=0.1,b_s=0.2", "a_l_i1=120,a_s=140,alpha=0.3,c1=4"
)


def run_solve(config: list[str], workdir: Path) -> None:
    for flags in SUBGAME_FLAGS:
        assert main(["solve", *flags, *config]) in (0, 2)
    assert main(["solve", "--verify", "oracle", "--pmg", "r1=nocm", "r2=cm", *config]) in (0, 2)
    assert main(["table", "--json", "--out", str(workdir), *config]) == 0
    print((workdir / "table.json").read_text(), end="")


TABLE_HEADER = """\
# bundlematch table stdout at a point whose subgames select T1, T3, T4 and T5b;
# one section per market config, headed by its overrides of the baseline
"""
TABLE_SECTIONS = ("lambda_l=0.05,theta_l=0.5,a_s=60",)


def run_table(config: list[str], workdir: Path) -> None:
    assert main(["table", "--out", str(workdir), *config]) == 0


def sweep_csv(path: Path) -> bytes:
    """A pinned CSV as `bundlematch sweep` writes it from its directory's
    spec, which writes the directory's pinned CSVs and no other file."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "out"
        assert main(["sweep", "--config", str(PINNED_SWEEPS[path.parent]), "--out", str(out)]) == 0
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted(p.name for p in PINS if p.parent == path.parent), written
        return (out / path.name).read_bytes()


def text(lines: list[str]) -> bytes:
    return "".join(f"{line}\n" for line in lines).encode()


# each pin file and the function that makes its bytes; the comment above an
# entry says when the pin was recorded
PINS = {
    # before the report row and the sweep panels had one home each
    TESTS / "oracle_expected.txt": lambda: text(oracle_lines(1.0)),
    # before retailer 1's per-game right-hand sides
    TESTS / "oracle_damped_expected.txt": lambda: text(oracle_lines(0.7)),
    # retailer 1's with the single evaluation of each closed-form candidate,
    # retailer 2's with the damped oracle pin
    TESTS / "responses_expected.txt": lambda: text(response_lines()),
    # before the selection records became tuples
    TESTS / "compare_policies_expected.txt": lambda: text(compare_policies_lines()),
    # before the oracle's responses were remembered and stacked
    TESTS / "verify_expected.txt": partial(sectioned, VERIFY_HEADER, VERIFY_SECTIONS, run_verify),
    # before the report row had one home
    TESTS / "solve_expected.txt": partial(sectioned, SOLVE_HEADER, SOLVE_SECTIONS, run_solve),
    # moved from test_sweep_cli.py, where it was written inline
    TESTS / "table_expected.txt": partial(sectioned, TABLE_HEADER, TABLE_SECTIONS, run_table),
    # spec.cfg's before the selection records became tuples, fixed.cfg's and
    # fixed_default.cfg's before [fixed] was merged into each panel at load
    **{path: partial(sweep_csv, path) for _, _, path in pinned_sweep_panels()},
}

# a printed float: float.hex, or a decimal with a point or an exponent; an
# integer has neither, so a changed count or flag stays in the masked line
FLOAT = re.compile(
    r"(?<![\w.])-?(?:(?P<hex>0x[0-9a-f]\.[0-9a-f]+p[-+]\d+)|\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+)"
)


def _masked(line: str) -> str:
    """The line with each printed float replaced by its kind."""
    return FLOAT.sub(lambda m: "<hex>" if m["hex"] else "<decimal>", line)


def _ordinal(x: float) -> int:
    """x's place among the floats: adjacent floats differ by 1."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def value_move(old: str, new: str) -> tuple[float, int | None]:
    """The largest relative move between the printed floats of two lines
    that differ only in them, with its ulp count where the float is printed
    as float.hex."""
    moves = []
    for a, b in zip(FLOAT.finditer(old), FLOAT.finditer(new)):
        if a[0] != b[0]:
            parse = float.fromhex if a["hex"] else float
            x, y = parse(a[0]), parse(b[0])
            move = abs(y - x) / max(abs(x), abs(y)) if x != y else 0.0
            moves.append((move, abs(_ordinal(y) - _ordinal(x)) if a["hex"] else None))
    return max(moves, key=lambda m: m[0])


def summary(old: bytes, new: bytes) -> str:
    """What moved from old to new: the lines that moved in value only,
    counted, then each line that changed a verdict as a -/+ pair."""
    a, b = old.decode().splitlines(), new.decode().splitlines()
    matcher = difflib.SequenceMatcher(None, [*map(_masked, a)], [*map(_masked, b)], autojunk=False)
    moves, verdicts = [], []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            moves += [value_move(x, y) for x, y in zip(a[i1:i2], b[j1:j2]) if x != y]
        else:
            verdicts += zip_longest(a[i1:i2], b[j1:j2])
    head = f"value-only lines: {len(moves)}"
    if moves:
        move, ulps = max(moves, key=lambda m: m[0])
        head += f" (largest relative move {move:.2g}{'' if ulps is None else f', {ulps} ulps'})"
    head += f"; verdict lines: {len(verdicts)}"
    if old != new and not moves and not verdicts:
        head += "; line ends differ"
    lines = [head]
    for pair in verdicts:
        lines += [f"{sign} {line}" for sign, line in zip("-+", pair) if line is not None]
    return "\n".join(lines)


@pytest.mark.parametrize("path", PINS, ids=lambda path: path.relative_to(TESTS).as_posix())
def test_pin_holds(path):
    expected, actual = path.read_bytes(), PINS[path]()
    if actual != expected:
        pytest.fail(summary(expected, actual), pytrace=False)


def test_every_pin_has_a_generator_and_every_generator_a_pin():
    pinned = {*TESTS.glob("*_expected.txt"), *SWEEP_EXPECTED.rglob("*.csv")}
    assert {p.relative_to(TESTS).as_posix() for p in PINS} == {
        p.relative_to(TESTS).as_posix() for p in pinned
    }


VERDICT = "value-only lines: 0; verdict lines: 1"


def _flip(old: str, new: str) -> tuple[str, str, list[str]]:
    return old, new, [VERDICT, f"- {old}", f"+ {new}"]


def _moved(old: str, new: str, move: str) -> tuple[str, str, list[str]]:
    return old, new, [f"value-only lines: 1 (largest relative move {move}); verdict lines: 0"]


@pytest.mark.parametrize(
    "old,new,expected",
    [
        _flip("CM,CM converged False iterations 500", "CM,CM converged True iterations 500"),
        _flip("oracle: converged after 21 iterations", "oracle: converged after 22 iterations"),
        _flip("selected candidate: T1 (regime r1_high)", "selected candidate: T4 (regime r1_low)"),
        _flip("0.5,0.1,0,,", '0.5,0.1,1,0.218425,"CM,CM"'),
        _flip("prices 0x1.8c364d9364d93p+6 0x1.0ep+7", "prices nan 0x1.0ep+7"),
        _moved("0x1.8c364d9364d93p+6 0x1.0ep+7", "0x1.8c364d9364d9ap+6 0x1.0ep+7", "1e-15, 7 ulps"),
        _flip("p 0x1.8000000000000p+6", "p 96.0"),
        _moved("p_r1_b=162.045 p_r2_b=135", "p_r1_b=162.046 p_r2_b=135", "6.2e-06"),
        ("agree", "agree\nDISAGREE", [VERDICT, "+ DISAGREE"]),
        ("agree", "agree\r", ["value-only lines: 0; verdict lines: 0; line ends differ"]),
    ],
    ids=[
        "converged", "iterations", "theorem", "exists", "nan", "hex", "format", "decimal", "added",
        "line-end",
    ],
)
def test_summary_sorts_each_changed_line(old, new, expected):
    assert summary(f"{old}\n".encode(), f"{new}\n".encode()).splitlines() == expected


def write_pins() -> None:
    """Rewrite every pin file from its generator, printing what moved."""
    for path, make in PINS.items():
        old = path.read_bytes() if path.exists() else b""
        new = make()
        print(f"{path.relative_to(TESTS.parent).as_posix()}: {summary(old, new)}")
        path.write_bytes(new)


if __name__ == "__main__":
    write_pins()

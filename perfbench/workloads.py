"""The benchmark's three workloads as fixed case lists.

Headline sizes are fixed, so `large_case_s` and `small_case_ms` mean the
same thing on every seed.  The seed picks only secondary inputs: extra
magnetizations near M = 0 (|M| <= J/8, so basis sizes and chain lengths
stay close to the M = 0 ones), the parameters of one pure two-qutrit
state, and the values of the CSV handed to `dicke plot`.

Each case has a timed `run` and an untimed `check` against the references
in `references.py` or the golden CSVs in `golden/`.  A check returns
("ok" | "failed" | "wrong", detail): failed means the program raised,
exited nonzero or lost amplitudes to underflow; wrong means it delivered a
value that disagrees with the reference.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import references as ref

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

#: CLI commands whose stdout is kept in golden/, by file name
GOLDEN_PRINTS = {
    "negativity_psie.txt": ["negativity", "--state", "psie"],
    "negativity_dicke_n80.csv": ["negativity", "--state", "dicke", "--n", "80", "--sweep"],
    "negativity_equal_n80.csv": ["negativity", "--state", "equal", "--n", "80", "--sweep"],
}
#: CSVs written by `dicke figures` and kept in golden/
GOLDEN_FIGURES = ("fig1.csv", "fig2_n30.csv", "fig2_n80.csv")

OK = ("ok", "")
SVG_NS = "{http://www.w3.org/2000/svg}"
CLI_TIMEOUT_S = 60


@dataclass
class PassContext:
    """What a case sees while it runs: earlier outputs of the same pass,
    whether the pass is traced, and where CLI processes put their reports."""

    traced: bool
    outputs: dict
    reports_dir: Path
    launched: int = 0


@dataclass
class Case:
    name: str
    run: Callable[[PassContext], object]
    check: Callable[[object], tuple[str, str]]
    role: str = ""  # "large", "small" or ""


@dataclass
class Workload:
    name: str
    cases: list[Case]
    small_repeats: int
    in_process: bool
    before_pass: Callable[[], None] = lambda: None


def seeded_twice_ms(rng: random.Random, twice_spin: int, n: int, count: int) -> list[int]:
    """`count` distinct nonzero 2M values with |M| <= J/8 and the parity of 2J."""
    twice_j = twice_spin * n
    assert twice_j % 2 == 0, "headline sizes all have integer J"
    picks = rng.sample(range(1, max(count, twice_j // 16) + 1), count)
    return [rng.choice((-1, 1)) * 2 * k for k in picks]


# -- checks of in-process outputs ----------------------------------------------


def check_expansion(x, twice_spin: int, n: int, twice_m: int, rel_tol=None, abs_tol=None):
    if (x.species.twice_spin, x.n_particles, x.twice_m) != (twice_spin, n, twice_m):
        return "wrong", "expansion labelled with the wrong (spin, N, M)"
    got = dict(x.terms)
    basis = ref.occupation_basis(twice_spin, n, twice_m)
    if len(got) != len(x.terms):
        return "wrong", "repeated occupation vector"
    if rel_tol is not None and set(got) != basis:
        return "wrong", f"basis has {len(got)} vectors, reference {len(basis)}"
    norm = math.fsum(a * a for a in got.values())
    if abs(norm - 1.0) > 1e-12:
        return "wrong", f"norm^2 = {norm!r}"
    underflowed, wrong = ref.compare_amplitudes(
        twice_spin, twice_m, basis, got, rel_tol=rel_tol, abs_tol=abs_tol
    )
    if wrong:
        return "wrong", f"{wrong} amplitudes differ from the lgamma reference"
    if underflowed:
        zeros = sum(1 for a in got.values() if a == 0.0)
        return "failed", (
            f"{underflowed} normal-float amplitudes lost to underflow "
            f"({zeros} returned as 0.0 in all)"
        )
    return OK


def check_exact_squares(squares, twice_spin: int, n: int, twice_m: int):
    basis = ref.occupation_basis(twice_spin, n, twice_m)
    if set(squares) != basis:
        return "wrong", "exact squares cover the wrong basis"
    bad = sum(
        1 for occ, q in squares.items()
        if q != ref.exact_coefficient_square(twice_spin, occ, twice_m)
    )
    return ("wrong", f"{bad} exact squares differ") if bad else OK


def check_total_spin(value: float, expected: float):
    if not abs(value - expected) <= 1e-8 * expected:
        return "wrong", f"<J^2> = {value!r}, expected {expected}"
    return OK


def check_tables(reports):
    if len(reports) != 6 or not all(r.passed for r in reports):
        return "wrong", "reference tables do not all pass"
    return OK


def check_antisym(per_species):
    for twice_spin, states in per_species:
        if len(states) != ref.antisym_count(twice_spin):
            return "wrong", f"2s={twice_spin}: {len(states)} antisymmetric states"
        for state in states:
            amps = dict(state.terms)
            if abs(math.fsum(a * a for a in amps.values()) - 1.0) > 1e-12:
                return "wrong", f"2s={twice_spin}: state not normalized"
            for assignment, a in amps.items():
                swapped = (assignment[1], assignment[0]) + assignment[2:]
                if abs(amps.get(swapped, 0.0) + a) > 1e-12:
                    return "wrong", f"2s={twice_spin}: state not antisymmetric"
    return OK


def check_cli_oracle(output, twice_spin: int, n: int, twice_m: int):
    code, out, err = output
    if code != 0:
        return "failed", f"exit code {code}"
    rows = list(csv.reader(io.StringIO(out)))[1:]
    got = {tuple(int(c) for c in row[:-1]): float(row[-1]) for row in rows}
    basis = ref.occupation_basis(twice_spin, n, twice_m)
    underflowed, wrong = ref.compare_amplitudes(twice_spin, twice_m, basis, got, abs_tol=1e-10)
    if wrong or underflowed:
        return "wrong", f"{wrong + underflowed} printed amplitudes differ from the reference"
    deviation = float(err.rsplit(":", 1)[-1])
    if not deviation <= 1e-10:
        return "wrong", f"reported closed-form deviation {deviation}"
    return OK


# -- workloads -----------------------------------------------------------------


def build_expand(seed: int, dicke) -> Workload:
    """Few, huge bases: closed-form expansions.  Time goes to `basis` and
    `coefficients`; the N = 2400, M = 0 case loses amplitudes to underflow
    and is counted as a failed case."""
    rng = random.Random(seed)
    headline = ((2, 80), (2, 400), (2, 2400), (3, 40), (4, 30), (4, 60))
    role = {(2, 80): "small", (2, 2400): "large"}
    inputs = [(ts, n, 0) for ts, n in headline]
    for ts, n in headline:
        if (ts, n) != (2, 2400):  # a second N = 2400 case would double the pass
            inputs += [(ts, n, tm) for tm in seeded_twice_ms(rng, ts, n, 2)]

    def case(ts, n, tm):
        return Case(
            f"expand_s{ts}_n{n}_m{tm}",
            lambda ctx: dicke.dicke_expansion(dicke.SpinSpecies(ts), n, tm),
            lambda x: check_expansion(x, ts, n, tm, rel_tol=1e-9),
            role.get((ts, n), "") if tm == 0 else "",
        )

    return Workload("expand", [case(*i) for i in inputs], small_repeats=25, in_process=True)


def build_verify(seed: int, dicke) -> Workload:
    """The independent-route traffic: ladder oracles, J^2, exact squares,
    table replay, antisymmetric states and one in-process CLI oracle."""
    rng = random.Random(seed)
    cases = []

    def oracle_case(ts, n, tm, role=""):
        return Case(
            f"oracle_s{ts}_n{n}_m{tm}",
            lambda ctx: dicke.oracle_expansion(dicke.SpinSpecies(ts), n, tm),
            lambda x: check_expansion(x, ts, n, tm, abs_tol=1e-10),
            role,
        )

    def exact_case(ts, n, tm):
        return Case(
            f"exact_s{ts}_n{n}_m{tm}",
            lambda ctx: dicke.ladder.oracle_squares_exact(dicke.SpinSpecies(ts), n, tm),
            lambda q: check_exact_squares(q, ts, n, tm),
        )

    cases.append(Case("verify_tables", lambda ctx: dicke.tables.verify_tables(), check_tables, "small"))
    cases.append(Case(
        "antisym_all",
        lambda ctx: [(s.twice_spin, dicke.enumerate_all_antisym(s)) for s in dicke.ALL_SPECIES],
        check_antisym,
    ))
    for ts, n in ((2, 400), (3, 40)):
        cases.append(oracle_case(ts, n, seeded_twice_ms(rng, ts, n, 1)[0]))
    large = oracle_case(4, 60, 0, "large")
    cases.append(large)
    cases.append(Case(
        "total_spin_s4_n60_m0",
        lambda ctx: dicke.total_spin_expectation(ctx.outputs[large.name]),
        lambda v: check_total_spin(v, 120.0 * 121.0),
    ))
    for ts, n in ((2, 40), (4, 12)):
        cases.append(exact_case(ts, n, seeded_twice_ms(rng, ts, n, 1)[0]))

    argv = ["oracle", "--spin", "2", "--n", "40", "--m", "0", "--diff-closed-form"]

    def cli_oracle(ctx):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dicke.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    cases.append(Case("cli_oracle_s4_n40_m0", cli_oracle, lambda o: check_cli_oracle(o, 4, 40, 0)))
    return Workload("verify", cases, small_repeats=5, in_process=True)


# -- figures: the CLI in fresh interpreters -------------------------------------


def run_cli(argv: list[str], case: str, ctx: PassContext, env: dict) -> tuple[int, bytes, bytes]:
    ctx.launched += 1
    report = ctx.reports_dir / f"{ctx.launched:03d}-{case}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "cli_child.py"), str(report), case,
         str(int(ctx.traced)), "--", *argv],
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
        check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def read_csv_cells(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def check_golden_csv(data: bytes, golden_name: str):
    if read_csv_cells(data) != read_csv_cells((GOLDEN / golden_name).read_bytes()):
        return "wrong", f"values differ from golden/{golden_name}"
    return OK


def check_svg(path: Path, point_counts: list[int]):
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return "wrong", f"{path.name} does not parse: {exc}"
    lines = root.iter(SVG_NS + "polyline")
    counts = [len(p.get("points", "").split()) for p in lines]
    if root.tag != SVG_NS + "svg" or counts != point_counts:
        return "wrong", f"{path.name} has polylines of {counts} points"
    return OK


def first_problem(*results):
    return next((r for r in results if r != OK), OK)


def build_figures(seed: int, root: Path, work: Path) -> Workload:
    """Hundreds of small states through the CLI, one fresh interpreter per
    invocation (`cli_child.py`, which runs the CLI as `python3 -m dicke.cli`
    does and reports its peak RSS): imports, argparse, the default sweep
    thread pool, CSV and SVG all included."""
    rng = random.Random(seed)
    env = dict(os.environ)
    env.pop("DICKE_THREADS", None)  # measure the default pool
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    figs = work / "figs"
    theta = rng.uniform(0.1, math.pi / 2 - 0.1)
    c1, c2 = math.cos(theta), math.sin(theta)
    plot_in, plot_out = work / "plot_in.csv", work / "plot.svg"
    plot_rows = 40
    with open(plot_in, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("M,a,b\n")
        for i in range(plot_rows):
            handle.write(f"{i}/2,{rng.random():.6f},{rng.random():.6f}\n")

    def cli_case(name, argv, check, role=""):
        return Case(name, lambda ctx: run_cli(argv, name, ctx, env), check, role)

    def exit_ok(output, then):
        code, stdout, stderr = output
        if code != 0:
            last = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            return "failed", f"exit code {code}: {' '.join(last)}"
        return then(stdout)

    def check_figures(output):
        return exit_ok(output, lambda _: first_problem(
            *(check_golden_csv((figs / name).read_bytes(), name) for name in GOLDEN_FIGURES),
            check_svg(figs / "fig1.svg", [n + 1 for n in range(20, 81, 10)]),
            check_svg(figs / "fig2_n30.svg", [31, 31]),
            check_svg(figs / "fig2_n80.svg", [81, 81]),
        ))

    def check_value(stdout, expected):
        if abs(float(stdout) - expected) > 5e-7 + 1e-12:
            return "wrong", f"printed {stdout.strip()!r}, reference {expected:.9f}"
        return OK

    psie_ref = ref.pure_state_negativity(math.sqrt(1 / 3), math.sqrt(2 / 3))

    def check_psie(output):
        return exit_ok(output, lambda out: first_problem(
            check_golden_csv(out, "negativity_psie.txt"), check_value(out, psie_ref)
        ))

    def before_pass():
        for path in list(figs.glob("*")) + [plot_out]:
            path.unlink(missing_ok=True)

    psi1 = f"psi1:{c1!r},{c2!r}"
    cases = [
        cli_case("negativity_psie", GOLDEN_PRINTS["negativity_psie.txt"], check_psie, "small"),
        cli_case(
            "negativity_psi1", ["negativity", "--state", psi1],
            lambda o: exit_ok(o, lambda out: check_value(out, ref.pure_state_negativity(c1, c2))),
        ),
        cli_case(
            "sweep_dicke_n80", GOLDEN_PRINTS["negativity_dicke_n80.csv"],
            lambda o: exit_ok(o, lambda out: check_golden_csv(out, "negativity_dicke_n80.csv")),
        ),
        cli_case(
            "sweep_equal_n80", GOLDEN_PRINTS["negativity_equal_n80.csv"],
            lambda o: exit_ok(o, lambda out: check_golden_csv(out, "negativity_equal_n80.csv")),
        ),
        cli_case(
            "plot", ["plot", "--in", str(plot_in), "--out", str(plot_out)],
            lambda o: exit_ok(o, lambda _: check_svg(plot_out, [plot_rows, plot_rows])),
        ),
        cli_case("figures", ["figures", "--out-dir", str(figs)], check_figures, "large"),
    ]
    return Workload("figures", cases, small_repeats=3, in_process=False, before_pass=before_pass)


def figures_fingerprint(work: Path, outputs: dict) -> dict[str, bytes]:
    """Every byte the figures pass printed or wrote (CSV and SVG), for
    comparing a traced pass with an untraced one."""
    prints = {name: out[1] for name, out in outputs.items()}
    files = {p.name: p.read_bytes() for p in sorted((work / "figs").glob("*"))}
    return {**prints, **files, "plot.svg": (work / "plot.svg").read_bytes()}

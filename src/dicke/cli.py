"""Command-line interface.

Subcommands: basis, expand, oracle, verify-tables, antisym, negativity,
figures, plot.  Exit codes: 0 success, 2 usage, domain or malformed-input
error or an input past a size cap, 3 missing data file or other I/O
failure, 4 violated shape or consistency property.  All output is UTF-8
with LF line endings; CSV uses ',' separators and '.' decimal points.

The parser needs only `species`; each command imports the layers it runs
(and `csv` or `json` where it writes them), so a fresh interpreter loads
nothing else.
"""

from __future__ import annotations

import argparse
import sys

from .species import SPIN_ONE, DomainError, SpinSpecies, parse_twice, twice_to_str

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable

    from .coefficients import DickeExpansion

FIGURE_PARTICLE_COUNTS = range(20, 81, 10)
COMPARISON_PARTICLE_COUNTS = (30, 80)
#: most occupation vectors `basis` and `expand` build, about 2 s and 68 MB
#: (spin 2 at N = 200, M = 0 has 230,673; at N = 400 it has 1,811,345)
BASIS_CAP = 250_000
#: most magnetizations M = 0..J a `negativity --sweep` computes, about 2 s
#: and 17 MB for the Dicke family at N = 9,999
SWEEP_CAP = 10_000
#: most vectors the `oracle` chain may hold summed over its steps, 6-10 s
#: (spin 2 at N = 60, M = 0 walks 321,081; spin 1 at N = 2400, 1,442,401)
CHAIN_CAP = 5_000_000


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


def main(argv: list[str]) -> int:
    parser = _build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.handler(args)
    except (DomainError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke",
        description="Dicke states in the occupation-number representation, "
        "antisymmetric states, and two-qudit negativity.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_state_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spin", required=True, help="1/2, 1, 3/2 or 2")
        p.add_argument("--n", required=True, type=int, help="particle count N")
        p.add_argument("--m", required=True, help="magnetization M (may be k/2)")

    def add_format_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("basis", help="enumerate the (N, M) occupation basis")
    add_state_args(p)
    add_format_arg(p)
    p.set_defaults(handler=_cmd_basis)

    p = sub.add_parser("expand", help="closed-form Dicke expansion")
    add_state_args(p)
    add_format_arg(p)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("oracle", help="ladder-generated Dicke expansion")
    add_state_args(p)
    add_format_arg(p)
    p.add_argument(
        "--diff-closed-form",
        action="store_true",
        help="also report the max deviation from the closed form on stderr",
    )
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("verify-tables", help="replay the bundled reference tables")
    p.set_defaults(handler=_cmd_verify_tables)

    p = sub.add_parser("antisym", help="list all elementary antisymmetric states")
    p.add_argument("--spin", required=True, help="1/2, 1, 3/2 or 2")
    add_format_arg(p)
    p.set_defaults(handler=_cmd_antisym)

    p = sub.add_parser("negativity", help="two-qudit negativity")
    p.add_argument(
        "--state",
        required=True,
        help="bg | psie | psi2 | bsplus | bsminus | psi1:c1,c2 | dicke | equal",
    )
    p.add_argument("--n", type=int, help="particle count (dicke/equal)")
    p.add_argument("--m", help="magnetization (dicke/equal)")
    p.add_argument(
        "--sweep", action="store_true", help="sweep M = 0..J instead of one M"
    )
    p.set_defaults(handler=_cmd_negativity)

    p = sub.add_parser("figures", help="emit sweep CSVs and SVG charts")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(handler=_cmd_figures)

    p = sub.add_parser("plot", help="render a sweep CSV as an SVG polyline chart")
    p.add_argument("--in", dest="input", required=True, help="input CSV")
    p.add_argument("--out", dest="output", required=True, help="output SVG")
    p.set_defaults(handler=_cmd_plot)

    return parser


def _parse_state_args(args) -> tuple[SpinSpecies, int, int]:
    species = SpinSpecies.from_str(args.spin)
    return species, args.n, parse_twice(args.m)


def _refuse_past_cap(
    what: str, species: SpinSpecies, n: int, tm: int, cap: int, chain: bool = False
) -> None:
    from .basis import past_cap

    if past_cap(species, n, tm, cap, chain):
        raise DomainError(f"{what} of more than {cap:,} vectors is past the CLI cap")


def _write_csv(
    header: list[str], rows: Iterable[list[str]], path: str | None = None
) -> None:
    """Stream CSV rows to `path`, or to stdout when no path is given."""
    import csv
    from contextlib import nullcontext

    with (
        nullcontext(sys.stdout)
        if path is None
        else open(path, "w", encoding="utf-8", newline="\n")
    ) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _print_json(payload: dict) -> None:
    import json

    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _cmd_basis(args) -> int:
    from .basis import enumerate_basis, parametric_count

    species, n, tm = _parse_state_args(args)
    _refuse_past_cap("basis", species, n, tm, BASIS_CAP)
    vectors = enumerate_basis(species, n, tm)
    formula_count = parametric_count(species, n, tm)
    if args.format == "json":
        _print_json(
            {
                "spin": species.name,
                "n": n,
                "m": twice_to_str(tm),
                "count": len(vectors),
                "parametric_count": formula_count,
                "basis": [list(v) for v in vectors],
            }
        )
    else:
        _write_csv(
            list(species.level_labels()),
            ([str(c) for c in v] for v in vectors),
        )
    if formula_count != len(vectors):
        print(
            f"note: parametric count formula gives {formula_count}, "
            f"direct enumeration gives {len(vectors)}",
            file=sys.stderr,
        )
    return 0


def _expansion_rows(x: DickeExpansion) -> Iterable[list[str]]:
    return ([str(c) for c in occ] + [f"{amp:.17g}"] for occ, amp in x.terms)


def _emit_expansion(args, x: DickeExpansion) -> None:
    if args.format == "json":
        _print_json(
            {
                "spin": x.species.name,
                "n": x.n_particles,
                "m": twice_to_str(x.twice_m),
                "terms": [
                    {"occupation": list(occ), "coefficient": amp}
                    for occ, amp in x.terms
                ],
            }
        )
    else:
        _write_csv(
            list(x.species.level_labels()) + ["coefficient"], _expansion_rows(x)
        )


def _cmd_expand(args) -> int:
    from .coefficients import dicke_expansion

    species, n, tm = _parse_state_args(args)
    _refuse_past_cap("basis", species, n, tm, BASIS_CAP)
    _emit_expansion(args, dicke_expansion(species, n, tm))
    return 0


def _cmd_oracle(args) -> int:
    from .ladder import oracle_expansion

    species, n, tm = _parse_state_args(args)
    _refuse_past_cap("lowering chain", species, n, tm, CHAIN_CAP, chain=True)
    oracle = oracle_expansion(species, n, tm)
    _emit_expansion(args, oracle)
    if args.diff_closed_form:
        from .coefficients import dicke_expansion

        closed = dicke_expansion(species, n, tm).as_dict()
        ladder = oracle.as_dict()
        deviation = max(
            abs(closed.get(k, 0.0) - ladder.get(k, 0.0))
            for k in set(closed) | set(ladder)
        )
        print(f"max deviation from closed form: {deviation:.3e}", file=sys.stderr)
    return 0


def _cmd_verify_tables(args) -> int:
    from .tables import TABLE_TOLERANCE, verify_tables

    reports = verify_tables()
    all_passed = True
    for report in reports:
        verdict = "PASS" if report.passed else "FAIL"
        all_passed &= report.passed
        print(
            f"{report.table}: rows={report.rows} corrected={report.corrected_rows} "
            f"max_dev_closed_form={report.max_dev_closed_form:.2e} "
            f"max_dev_oracle={report.max_dev_oracle:.2e} {verdict}"
        )
    print(
        f"overall: {'PASS' if all_passed else 'FAIL'} "
        f"(tolerance {TABLE_TOLERANCE:.0e}, weights=binomial)"
    )
    return 0 if all_passed else 4


def _cmd_antisym(args) -> int:
    from .antisym import enumerate_all_antisym

    species = SpinSpecies.from_str(args.spin)
    states = enumerate_all_antisym(species)
    if args.format == "json":
        _print_json(
            {
                "spin": species.name,
                "count": len(states),
                "states": [
                    {
                        "terms": [
                            {
                                "assignment": [twice_to_str(tm) for tm in assignment],
                                "amplitude": amp,
                            }
                            for assignment, amp in state.terms
                        ]
                    }
                    for state in states
                ],
            }
        )
        return 0
    rows = []
    for index, state in enumerate(states):
        for assignment, amp in state.terms:
            rows.append(
                [
                    str(index),
                    ",".join(twice_to_str(tm) for tm in assignment),
                    f"{amp:.17g}",
                ]
            )
    _write_csv(["state", "assignment", "amplitude"], rows)
    return 0


def _cmd_negativity(args) -> int:
    from . import entanglement

    name, colon, params_text = args.state.partition(":")
    if name in entanglement.SWEEP_FAMILIES:
        if colon:
            raise DomainError(f"--state {name} takes no parameters")
        if args.n is None:
            raise DomainError(f"--n is required for --state {name}")
        if args.sweep:
            if args.m is not None:
                raise DomainError("--m and --sweep cannot be combined")
            if args.n + 1 > SWEEP_CAP:
                raise DomainError(
                    f"a sweep of more than {SWEEP_CAP:,} M values is past the CLI cap"
                )
            # the bases at M = J, ..., 0 are the lowering chain to M = 0;
            # the sweep itself refuses fewer than two particles
            if name == "equal" and args.n > 1:
                _refuse_past_cap(
                    "sweep bases", SPIN_ONE, args.n, 0, BASIS_CAP, chain=True
                )
            rows = entanglement.negativity_sweep(name, args.n)
            _write_csv(
                ["M", "negativity"],
                ([twice_to_str(tm), f"{value:.6f}"] for tm, value in rows),
            )
            return 0
        if args.m is None:
            raise DomainError(f"--m or --sweep is required for --state {name}")
        tm = parse_twice(args.m)
        if name == "equal":
            _refuse_past_cap("basis", SPIN_ONE, args.n, tm, BASIS_CAP)
        rho = entanglement.family_pair_reduction(name, args.n, tm)
    else:
        if args.sweep:
            raise DomainError(
                f"--sweep applies to the dicke/equal families, not {name!r}"
            )
        if args.n is not None or args.m is not None:
            raise DomainError("--n and --m apply to the dicke/equal families only")
        try:
            params = tuple(map(float, params_text.split(","))) if colon else ()
        except ValueError:
            raise DomainError(f"bad state parameters {params_text!r}") from None
        vector = entanglement.named_two_qutrit_state(name, params)
        rho = entanglement.density_of(vector)
    print(f"{entanglement.negativity(rho).value:.6f}")
    return 0


def _cmd_figures(args) -> int:
    import os

    from . import svg
    from .entanglement import negativity_sweep, sweep_shape_violations

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)

    dicke_sweeps = {n: negativity_sweep("dicke", n) for n in FIGURE_PARTICLE_COUNTS}
    equal_sweeps = {n: negativity_sweep("equal", n) for n in COMPARISON_PARTICLE_COUNTS}

    problems: list[str] = []
    for n, rows in dicke_sweeps.items():
        problems += [f"N={n}: {p}" for p in sweep_shape_violations(rows)]
    zero_m = [(n, dicke_sweeps[n][0][1]) for n in FIGURE_PARTICLE_COUNTS]
    for (n_a, v_a), (n_b, v_b) in zip(zero_m, zero_m[1:]):
        if not v_a > v_b:
            problems.append(
                f"M=0 negativity does not decrease from N={n_a} to N={n_b}"
            )
    for n in COMPARISON_PARTICLE_COUNTS:
        if not equal_sweeps[n][0][1] > dicke_sweeps[n][0][1]:
            problems.append(
                f"equal-probability state does not beat the Dicke state at M=0, N={n}"
            )
    if problems:
        for problem in problems:
            print(f"shape violation: {problem}", file=sys.stderr)
        return 4

    _write_csv(
        ["N", "M", "negativity"],
        [
            [str(n), twice_to_str(tm), f"{value:.6f}"]
            for n in FIGURE_PARTICLE_COUNTS
            for tm, value in dicke_sweeps[n]
        ],
        os.path.join(out_dir, "fig1.csv"),
    )
    svg.write_chart(
        os.path.join(out_dir, "fig1.svg"),
        [(f"N={n}", _points(dicke_sweeps[n])) for n in FIGURE_PARTICLE_COUNTS],
        title="Pair negativity of Dicke states",
        x_label="M",
        y_label="negativity",
    )
    for n in COMPARISON_PARTICLE_COUNTS:
        rows = [
            [twice_to_str(tm), f"{dicke:.6f}", f"{equal:.6f}"]
            for (tm, dicke), (_, equal) in zip(dicke_sweeps[n], equal_sweeps[n])
        ]
        _write_csv(
            ["M", "dicke", "equal"], rows, os.path.join(out_dir, f"fig2_n{n}.csv")
        )
        svg.write_chart(
            os.path.join(out_dir, f"fig2_n{n}.svg"),
            [("dicke", _points(dicke_sweeps[n])), ("equal", _points(equal_sweeps[n]))],
            title=f"Dicke vs equal-probability states, N={n}",
            x_label="M",
            y_label="negativity",
        )
    return 0


def _points(rows: list[tuple[int, float]]) -> list[tuple[float, float]]:
    """(M, negativity) chart points of (2M, negativity) sweep rows."""
    return [(tm / 2.0, value) for tm, value in rows]


def _cmd_plot(args) -> int:
    import csv

    from . import svg

    with open(args.input, encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{args.input} is empty") from None
        if len(header) < 2:
            raise DomainError("plot input needs an x column and at least one series")
        records = [row for row in reader if row]
    if not records:
        raise DomainError(f"{args.input} has a header but no data rows")
    for row in records:
        if len(row) < len(header):
            raise DomainError(f"row {row} has fewer than {len(header)} cells")
    series = []
    for k, label in enumerate(header[1:], start=1):
        points = []
        for row in records:
            points.append((_parse_number(row[0]), _parse_number(row[k])))
        series.append((label, points))
    svg.write_chart(args.output, series, x_label=header[0])
    return 0


def _parse_number(text: str) -> float:
    from math import isfinite

    try:
        value = parse_twice(text) / 2.0 if "/" in text else float(text)
    except (ValueError, DomainError):
        raise DomainError(f"not a number: {text!r}") from None
    if not isfinite(value):
        raise DomainError(f"not a finite number: {text!r}")
    return value


if __name__ == "__main__":
    console_main()

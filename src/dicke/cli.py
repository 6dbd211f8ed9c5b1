"""Command-line interface.

Subcommands: basis, expand, oracle, verify-tables, antisym, negativity,
figures, plot.  Exit codes: 0 success, 2 usage, domain or malformed-input
error or an input past a size cap, 3 missing or malformed data file or
other I/O failure, 4 violated shape or consistency property.  All output
is UTF-8 with LF line endings; CSV uses ',' separators and '.' decimal
points.

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
    from collections.abc import Callable, Iterable
    from typing import TextIO

    from .coefficients import DickeExpansion

FIGURE_PARTICLE_COUNTS = range(20, 81, 10)
COMPARISON_PARTICLE_COUNTS = (30, 80)
#: most occupation vectors `basis` and `expand` build, about 2 s and 68 MB
#: (spin 2 at N = 200, M = 0 has 230,673; at N = 400 it has 1,811,345)
BASIS_CAP = 250_000
#: most magnetizations M = 0..J a `negativity --sweep` computes, about 2 s
#: and 17 MB for the Dicke family at N = 9,999
SWEEP_CAP = 10_000
#: most vectors the `oracle` chain may hold summed over its steps: 3.4-6 s
#: fresh on a 2-vCPU host for the largest admitted chains to M = 0 or 1/2
#: (spin 1 at N = 4470, spin 3/2 at N = 389, spin 2 at N = 121); spin 2
#: at N = 60, M = 0 walks 321,081 and spin 1 at N = 2400, 1,442,401
CHAIN_CAP = 5_000_000


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


def main(argv: list[str]) -> int:
    parser = _build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    # argparse reads "-7/2" as a flag, not as a value: join each --m to the
    # token after it, so that M < 0 works in the documented `--m VALUE` form
    tokens: list[str] = []
    for token in argv:
        if tokens and tokens[-1] == "--m":
            tokens[-1] = f"--m={token}"
        else:
            tokens.append(token)
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        return exc.code
    # argparse stores [] for a value written `--flag=--`; no flag takes a list
    missing = ", ".join(k for k, v in vars(args).items() if isinstance(v, list))
    if missing:
        parser.print_usage(sys.stderr)
        print(f"dicke {args.command}: error: no value for {missing}", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (DomainError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, OSError) else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke",
        description="Dicke states in the occupation-number representation, "
        "antisymmetric states, and two-qudit negativity.",
    )
    sub = parser.add_subparsers(dest="command")

    def command(name: str, help: str, handler, *flags: tuple[str, dict]) -> None:
        p = sub.add_parser(name, help=help)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)

    def flag(name: str, **options) -> tuple[str, dict]:
        return name, options

    spin = flag("--spin", required=True, help="1/2, 1, 3/2 or 2")
    state = (
        spin,
        flag("--n", required=True, type=int, help="particle count N"),
        flag("--m", required=True, help="magnetization M (may be k/2)"),
    )
    fmt = flag("--format", choices=("csv", "json"), default="csv")
    diff = flag(
        "--diff-closed-form",
        action="store_true",
        help="also report the max deviation from the closed form on stderr",
    )
    command("basis", "enumerate the (N, M) occupation basis", _cmd_basis, *state, fmt)
    command("expand", "closed-form Dicke expansion", _cmd_expand, *state, fmt)
    command(
        "oracle", "ladder-generated Dicke expansion", _cmd_oracle, *state, fmt, diff
    )
    command("verify-tables", "replay the bundled reference tables", _cmd_verify_tables)
    command(
        "antisym", "list all elementary antisymmetric states", _cmd_antisym, spin, fmt
    )
    command(
        "negativity",
        "two-qudit negativity",
        _cmd_negativity,
        flag(
            "--state",
            required=True,
            help="bg | psie | psi2 | bsplus | bsminus | psi1:c1,c2 | dicke | equal",
        ),
        flag("--n", type=int, help="particle count (dicke/equal)"),
        flag("--m", help="magnetization (dicke/equal)"),
        flag("--sweep", action="store_true", help="sweep M = 0..J instead of one M"),
    )
    command(
        "figures",
        "emit sweep CSVs and SVG charts",
        _cmd_figures,
        flag("--out-dir", default=".", help="output directory"),
    )
    command(
        "plot",
        "render a sweep CSV as an SVG polyline chart",
        _cmd_plot,
        flag("--in", dest="input", required=True, help="input CSV"),
        flag("--out", dest="output", required=True, help="output SVG"),
    )
    return parser


def _parse_state_args(args) -> tuple[SpinSpecies, int, int]:
    species = SpinSpecies.from_str(args.spin)
    return species, args.n, parse_twice(args.m)


def _refuse_past_cap(
    what: str, species: SpinSpecies, n: int, tm: int, cap: int, chain: bool = False
) -> None:
    from .basis import basis_size

    if basis_size(species, n, tm, chain, cap) > cap:
        raise DomainError(f"{what} of more than {cap:,} vectors is past the CLI cap")


def _write_csv(
    header: list[str], rows: Iterable[list[str]], handle: TextIO | None = None
) -> None:
    """Stream CSV rows to `handle`, or to stdout when no handle is given."""
    import csv

    writer = csv.writer(handle or sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit(
    args, header: list[str], rows: Iterable[list[str]], payload: Callable[[], dict]
) -> None:
    """Write `rows` as CSV to stdout, or `payload()` as JSON with --format json."""
    if args.format == "json":
        import json

        sys.stdout.write(json.dumps(payload(), indent=2) + "\n")
    else:
        _write_csv(header, rows)


def _cmd_basis(args) -> int:
    from .basis import enumerate_basis, parametric_count

    species, n, tm = _parse_state_args(args)
    _refuse_past_cap("basis", species, n, tm, BASIS_CAP)
    vectors = enumerate_basis(species, n, tm)
    formula_count = parametric_count(species, n, tm)
    _emit(
        args,
        list(species.level_labels()),
        ([str(c) for c in v] for v in vectors),
        lambda: {
            "spin": species.name,
            "n": n,
            "m": twice_to_str(tm),
            "count": len(vectors),
            "parametric_count": formula_count,
            "basis": [list(v) for v in vectors],
        },
    )
    if formula_count != len(vectors):
        print(
            f"note: parametric count formula gives {formula_count}, "
            f"direct enumeration gives {len(vectors)}",
            file=sys.stderr,
        )
    return 0


def _emit_expansion(args, x: DickeExpansion) -> None:
    _emit(
        args,
        list(x.species.level_labels()) + ["coefficient"],
        ([str(c) for c in occ] + [f"{amp:.17g}"] for occ, amp in x.terms),
        lambda: {
            "spin": x.species.name,
            "n": x.n_particles,
            "m": twice_to_str(x.twice_m),
            "terms": [
                {"occupation": list(occ), "coefficient": amp} for occ, amp in x.terms
            ],
        },
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

    verdict = ("FAIL", "PASS")
    reports = verify_tables()
    all_passed = all(report.passed for report in reports)
    for report in reports:
        print(
            f"{report.table}: rows={report.rows} corrected={report.corrected_rows} "
            f"max_dev_closed_form={report.max_dev_closed_form:.2e} "
            f"max_dev_oracle={report.max_dev_oracle:.2e} {verdict[report.passed]}"
        )
    print(
        f"overall: {verdict[all_passed]} "
        f"(tolerance {TABLE_TOLERANCE:.0e}, weights=binomial)"
    )
    return 0 if all_passed else 4


def _cmd_antisym(args) -> int:
    from .antisym import enumerate_all_antisym

    species = SpinSpecies.from_str(args.spin)
    states = [
        [(list(map(twice_to_str, assignment)), amp) for assignment, amp in state.terms]
        for state in enumerate_all_antisym(species)
    ]
    _emit(
        args,
        ["state", "assignment", "amplitude"],
        (
            [str(index), ",".join(assignment), f"{amp:.17g}"]
            for index, terms in enumerate(states)
            for assignment, amp in terms
        ),
        lambda: {
            "spin": species.name,
            "count": len(states),
            "states": [
                {"terms": [{"assignment": a, "amplitude": amp} for a, amp in terms]}
                for terms in states
            ],
        },
    )
    return 0


def _cmd_negativity(args) -> int:
    from . import entanglement

    name, colon, params_text = args.state.partition(":")
    if name not in entanglement.SWEEP_FAMILIES:
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
        rho = entanglement.density_of(entanglement.named_two_qutrit_state(name, params))
    elif colon:
        raise DomainError(f"--state {name} takes no parameters")
    elif args.n is None:
        raise DomainError(f"--n is required for --state {name}")
    elif args.sweep:
        if args.m is not None:
            raise DomainError("--m and --sweep cannot be combined")
        if args.n + 1 > SWEEP_CAP:
            raise DomainError(
                f"a sweep of more than {SWEEP_CAP:,} M values is past the CLI cap"
            )
        # the bases at M = J, ..., 0 are the lowering chain to M = 0;
        # the sweep itself refuses fewer than two particles
        if name == "equal" and args.n > 1:
            _refuse_past_cap("sweep bases", SPIN_ONE, args.n, 0, BASIS_CAP, chain=True)
        rows = entanglement.negativity_sweep(name, args.n)
        _write_csv(
            ["M", "negativity"],
            ([twice_to_str(tm), f"{value:.6f}"] for tm, value in rows),
        )
        return 0
    elif args.m is None:
        raise DomainError(f"--m or --sweep is required for --state {name}")
    else:
        tm = parse_twice(args.m)
        if name == "equal":
            _refuse_past_cap("basis", SPIN_ONE, args.n, tm, BASIS_CAP)
        rho = entanglement.family_pair_reduction(name, args.n, tm)
    print(f"{entanglement.negativity(rho).value:.6f}")
    return 0


def _cmd_figures(args) -> int:
    import os

    from . import svg
    from .entanglement import negativity_sweep, sweep_shape_violations

    os.makedirs(args.out_dir, exist_ok=True)

    dicke_sweeps = {n: negativity_sweep("dicke", n) for n in FIGURE_PARTICLE_COUNTS}
    equal_sweeps = {n: negativity_sweep("equal", n) for n in COMPARISON_PARTICLE_COUNTS}

    problems: list[str] = []
    for n, rows in dicke_sweeps.items():
        problems += [f"N={n}: {p}" for p in sweep_shape_violations(rows)]
    for n_a, n_b in zip(FIGURE_PARTICLE_COUNTS, FIGURE_PARTICLE_COUNTS[1:]):
        if not dicke_sweeps[n_a][0][1] > dicke_sweeps[n_b][0][1]:
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

    def figure(name: str, title: str, header, rows, series) -> None:
        """name.csv from `rows`; name.svg charts each (2M, value) sweep over M."""
        path = os.path.join(args.out_dir, name)
        with open(f"{path}.csv", "w", encoding="utf-8", newline="\n") as handle:
            _write_csv(header, rows, handle)
        points = [(label, [(tm / 2, v) for tm, v in sweep]) for label, sweep in series]
        svg.write_chart(f"{path}.svg", points, title, "M", "negativity")

    figure(
        "fig1",
        "Pair negativity of Dicke states",
        ["N", "M", "negativity"],
        [
            [str(n), twice_to_str(tm), f"{value:.6f}"]
            for n in FIGURE_PARTICLE_COUNTS
            for tm, value in dicke_sweeps[n]
        ],
        [(f"N={n}", dicke_sweeps[n]) for n in FIGURE_PARTICLE_COUNTS],
    )
    for n in COMPARISON_PARTICLE_COUNTS:
        figure(
            f"fig2_n{n}",
            f"Dicke vs equal-probability states, N={n}",
            ["M", "dicke", "equal"],
            [
                [twice_to_str(tm), f"{dicke:.6f}", f"{equal:.6f}"]
                for (tm, dicke), (_, equal) in zip(dicke_sweeps[n], equal_sweeps[n])
            ],
            [("dicke", dicke_sweeps[n]), ("equal", equal_sweeps[n])],
        )
    return 0


def _cmd_plot(args) -> int:
    import csv

    from . import svg

    with open(args.input, encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            records = [row for row in reader if row]
        except csv.Error as exc:
            raise DomainError(f"{args.input}, line {reader.line_num}: {exc}") from None
    if header is None:
        raise DomainError(f"{args.input} is empty")
    if len(header) < 2:
        raise DomainError("plot input needs an x column and at least one series")
    if not records:
        raise DomainError(f"{args.input} has a header but no data rows")
    for row in records:
        if len(row) < len(header):
            raise DomainError(f"row {row} has fewer than {len(header)} cells")
    series = [
        (label, [(_parse_number(row[0]), _parse_number(row[k])) for row in records])
        for k, label in enumerate(header[1:], start=1)
    ]
    try:
        svg.write_chart(args.output, series, x_label=header[0])
    except ValueError as exc:
        raise DomainError(f"{args.input}: {exc}") from None
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

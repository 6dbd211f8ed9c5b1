"""Bundled reference coefficient tables and their replay machinery.

`data/reference_tables.csv` transcribes six published four-decimal
coefficient tables (spin 1 at N = 10, spin 3/2 at N = 6, spin 2 at N = 5).
A handful of cells are internally inconsistent as printed (they violate
their own column's normalization or magnetization); those rows carry
status "corrected" with the original cell preserved in the `printed`
column, and VALIDATION.md spells out the evidence for each fix.

`verify_tables` replays every row against both the closed-form engine and
the ladder construction and reports the worst deviation per table.  The
ladder side walks once per (species, N), down to the lowest M of its
rows, and one walk serves every M on its way.  The CSV is read with
`csv.reader` after its header row is checked against `_HEADER`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from importlib import resources

from .coefficients import dicke_expansion
from .ladder import _chain, _finish
from .species import SpinSpecies, check_domain, parse_twice

TABLE_TOLERANCE = 5e-5
DATA_PACKAGE = "dicke.data"
DATA_FILENAME = "reference_tables.csv"


class TableRow(
    namedtuple(
        "TableRow",
        "table species n_particles twice_m occupation coefficient status printed",
    )
):
    """One data row; `status` is ok, corrected or duplicate, and `printed`
    keeps the original cell of a corrected row."""

    __slots__ = ()


#: the data file's header row, the columns of `TableRow` in its order
_HEADER = ["table", "spin", "n", "m", "occupation", "coefficient", "status", "printed"]


class TableReport(
    namedtuple(
        "TableReport",
        "table rows corrected_rows max_dev_closed_form max_dev_oracle",
    )
):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            self.max_dev_closed_form <= TABLE_TOLERANCE
            and self.max_dev_oracle <= TABLE_TOLERANCE
        )


def load_reference_rows() -> list[TableRow]:
    """Parse the bundled CSV.  FileNotFoundError if the data file is
    absent, OSError if its header is not `_HEADER` or a row does not parse
    or names an (N, M) outside its species' domain."""
    import csv

    path = resources.files(DATA_PACKAGE).joinpath(DATA_FILENAME)
    if not path.is_file():
        raise FileNotFoundError(f"reference table data missing: {path}")
    species_of = cache(SpinSpecies.from_str)
    with path.open(encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            if header != _HEADER:
                raise ValueError(f"header {header} is not {_HEADER}")
            rows = []
            for table, spin, n, m, occ, coefficient, status, printed in reader:
                row = TableRow(
                    table, species_of(spin), int(n), parse_twice(m),
                    tuple(map(int, occ.split())), float(coefficient), status, printed,
                )
                check_domain(row.species, row.n_particles, row.twice_m)
                rows.append(row)
            return rows
        except (ValueError, csv.Error) as exc:
            raise OSError(
                f"malformed reference table data: {path}, line {reader.line_num}: {exc}"
            ) from None


def verify_tables() -> list[TableReport]:
    """Replay every table row through both engines: the closed form with
    the validated binomial weight and the ladder oracle.  One lowering
    chain per (species, N) serves every M its rows name."""
    rows = load_reference_rows()
    per_chain: dict[tuple[SpinSpecies, int], set[int]] = {}
    per_table: dict[str, list[TableRow]] = {}
    for row in rows:
        per_chain.setdefault((row.species, row.n_particles), set()).add(row.twice_m)
        per_table.setdefault(row.table, []).append(row)
    expansions: dict[tuple, dict] = {}
    oracles: dict[tuple, dict] = {}
    for (species, n), twice_ms in per_chain.items():
        for tm in twice_ms:
            expansions[species, n, tm] = dicke_expansion(species, n, tm).as_dict()
        for tm, raw, divisor in _chain(species, n, min(twice_ms)):
            if tm in twice_ms:
                state = _finish(species, n, tm, raw, divisor)
                oracles[species, n, tm] = state.as_dict()

    reports = []
    for table in sorted(per_table):
        worst_closed = 0.0
        worst_oracle = 0.0
        corrected = 0
        for row in per_table[table]:
            key = (row.species, row.n_particles, row.twice_m)
            closed = expansions[key].get(row.occupation, 0.0)
            oracle = oracles[key].get(row.occupation, 0.0)
            worst_closed = max(worst_closed, abs(closed - row.coefficient))
            worst_oracle = max(worst_oracle, abs(oracle - row.coefficient))
            if row.status != "ok":
                corrected += 1
        reports.append(
            TableReport(
                table, len(per_table[table]), corrected, worst_closed, worst_oracle
            )
        )
    return reports

"""Bundled reference coefficient tables and their replay machinery.

`data/reference_tables.csv` transcribes six published four-decimal
coefficient tables (spin 1 at N = 10, spin 3/2 at N = 6, spin 2 at N = 5).
A handful of cells are internally inconsistent as printed (they violate
their own column's normalization or magnetization); those rows carry
status "corrected" with the original cell preserved in the `printed`
column, and VALIDATION.md spells out the evidence for each fix.

`verify_tables` replays every row against both the closed-form engine and
the ladder construction and reports the worst deviation per table.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .coefficients import dicke_expansion
from .ladder import oracle_expansion
from .species import SpinSpecies, parse_twice

TABLE_TOLERANCE = 5e-5
DATA_PACKAGE = "dicke.data"
DATA_FILENAME = "reference_tables.csv"


@dataclass(frozen=True)
class TableRow:
    table: str
    species: SpinSpecies
    n_particles: int
    twice_m: int
    occupation: tuple[int, ...]
    coefficient: float
    status: str  # ok | corrected | duplicate
    printed: str  # original cell content for corrected rows


@dataclass(frozen=True)
class TableReport:
    table: str
    rows: int
    corrected_rows: int
    max_dev_closed_form: float
    max_dev_oracle: float

    @property
    def passed(self) -> bool:
        return (
            self.max_dev_closed_form <= TABLE_TOLERANCE
            and self.max_dev_oracle <= TABLE_TOLERANCE
        )


def load_reference_rows() -> list[TableRow]:
    """Parse the bundled CSV; FileNotFoundError if the data file is absent."""
    import csv

    path = resources.files(DATA_PACKAGE).joinpath(DATA_FILENAME)
    if not path.is_file():
        raise FileNotFoundError(f"reference table data missing: {path}")
    rows = []
    with path.open(encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            rows.append(
                TableRow(
                    record["table"],
                    SpinSpecies.from_str(record["spin"]),
                    int(record["n"]),
                    parse_twice(record["m"]),
                    tuple(int(c) for c in record["occupation"].split()),
                    float(record["coefficient"]),
                    record["status"],
                    record["printed"],
                )
            )
    return rows


def verify_tables() -> list[TableReport]:
    """Replay every table row through both engines: the closed form with
    the validated binomial weight and the ladder oracle."""
    rows = load_reference_rows()
    expansions: dict[tuple, dict] = {}
    oracles: dict[tuple, dict] = {}
    per_table: dict[str, list[TableRow]] = {}
    for row in rows:
        per_table.setdefault(row.table, []).append(row)

    reports = []
    for table in sorted(per_table):
        worst_closed = 0.0
        worst_oracle = 0.0
        corrected = 0
        for row in per_table[table]:
            key = (row.species, row.n_particles, row.twice_m)
            if key not in expansions:
                expansions[key] = dicke_expansion(*key).as_dict()
                oracles[key] = oracle_expansion(*key).as_dict()
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

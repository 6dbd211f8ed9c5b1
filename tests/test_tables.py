from fractions import Fraction
from functools import cache
from math import factorial, sqrt

import pytest

from dicke import enumerate_basis
from dicke.tables import TABLE_TOLERANCE, load_reference_rows, verify_tables

#: squared level weights of the two rejected readings, up to a common
#: factor: 2^{n_0} for spin 1 and (3/2)^{n_3/2} 3^{(n_2+n_3+n_4)/2} for
#: spin 2; spin 3/2 has no alternative reading
REJECTED_WEIGHT_SQUARES = {"1": (1, 4, 1), "2": (2, 6, 9, 6, 2)}


def test_row_inventory():
    rows = load_reference_rows()
    per_table = {}
    for row in rows:
        per_table.setdefault(row.table, []).append(row)
    assert sorted(per_table) == [f"table{i}" for i in range(1, 7)]
    assert len(per_table["table1"]) == 11
    assert len(per_table["table2"]) == 24
    assert len(per_table["table3"]) == 11
    assert len(per_table["table4"]) == 35
    assert len(per_table["table5"]) == 17
    assert len(per_table["table6"]) == 52


def test_documented_corrections_are_exactly_the_known_ones():
    """Three misprint classes were identified during transcription (see
    VALIDATION.md); any change to this inventory should be deliberate."""
    rows = load_reference_rows()
    corrected = [r for r in rows if r.status == "corrected"]
    duplicates = [r for r in rows if r.status == "duplicate"]
    assert len(duplicates) == 1
    assert duplicates[0].table == "table6"
    assert duplicates[0].occupation == (0, 4, 0, 0, 1)
    by_table = {}
    for row in corrected:
        by_table.setdefault(row.table, []).append(row)
    assert {t: len(v) for t, v in by_table.items()} == {
        "table1": 1,
        "table5": 1,
        "table6": 7,
    }
    assert by_table["table1"][0].occupation == (8, 1, 1)
    assert by_table["table1"][0].printed == "0.3794"
    assert by_table["table5"][0].occupation == (3, 0, 1, 1, 0)
    assert all(r.printed for r in corrected)


def test_every_row_satisfies_the_conservation_laws():
    for row in load_reference_rows():
        assert sum(row.occupation) == row.n_particles
        assert (
            sum(c * lv for c, lv in zip(row.occupation, row.species.twice_levels))
            == row.twice_m
        )


def test_verification_passes_with_the_validated_weight():
    reports = verify_tables()
    assert len(reports) == 6
    for report in reports:
        assert report.passed, report
        assert report.max_dev_closed_form <= TABLE_TOLERANCE
        assert report.max_dev_oracle <= TABLE_TOLERANCE


@cache
def _rejected_amplitudes(species, n_particles, twice_m):
    """Amplitudes under a rejected weight, normalized exactly."""
    weights = REJECTED_WEIGHT_SQUARES[species.name]
    squares = {}
    for occ in enumerate_basis(species, n_particles, twice_m):
        p = factorial(n_particles)
        for count, w in zip(occ, weights):
            p = p // factorial(count) * w**count
        squares[occ] = p
    total = sum(squares.values())
    return {occ: sqrt(Fraction(p, total)) for occ, p in squares.items()}


def test_rejected_weight_readings_fail_the_tables():
    """Negative control for the weight selection in VALIDATION.md: the
    rejected readings miss every spin-1 and spin-2 table by far more than
    the tolerance the validated weight meets."""
    worst = {}
    for row in load_reference_rows():
        if row.species.name in REJECTED_WEIGHT_SQUARES:
            amps = _rejected_amplitudes(row.species, row.n_particles, row.twice_m)
            deviation = abs(amps[row.occupation] - row.coefficient)
            worst[row.table] = max(worst.get(row.table, 0.0), deviation)
    assert worst == pytest.approx(
        {"table1": 0.2441, "table2": 0.3360, "table5": 0.0648, "table6": 0.0663},
        abs=1e-4,
    )
    assert min(worst.values()) > TABLE_TOLERANCE

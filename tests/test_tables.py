from fractions import Fraction
from functools import cache
from math import factorial, sqrt

import pytest

from dicke import SPIN_ONE, SPIN_THREE_HALVES, SPIN_TWO, enumerate_basis
import dicke.tables
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


#: (table, rows, corrected rows, max closed-form deviation, max oracle
#: deviation) of every report, the floats as `float.hex`; the oracle column
#: is the one each (species, N, M) gets from its own lowering chain
PINNED_REPORTS = [
    ("table1", 11, 1, "0x1.5830ad012c000p-15", "0x1.5830ad0128000p-15"),
    ("table2", 24, 0, "0x1.8f4c95aaf0800p-15", "0x1.8f4c95aaef800p-15"),
    ("table3", 11, 0, "0x1.9d7efda0ec800p-15", "0x1.9d7efda0ec000p-15"),
    ("table4", 35, 0, "0x1.94854d6608000p-15", "0x1.94854d6608000p-15"),
    ("table5", 17, 1, "0x1.88498e3b49000p-15", "0x1.88498e3b4a000p-15"),
    ("table6", 52, 8, "0x1.9ecfedf054000p-15", "0x1.9ecfedf058000p-15"),
]


def test_reports_are_pinned_to_the_bit():
    assert [
        (r.table, r.rows, r.corrected_rows, r.max_dev_closed_form.hex(),
         r.max_dev_oracle.hex())
        for r in verify_tables()
    ] == PINNED_REPORTS


def test_one_lowering_walk_serves_every_m_of_a_species_and_n(monkeypatch):
    """Three walks of 10, 9 and 10 steps, down to the lowest M of each
    (species, N), replace one chain from |J, J> per (species, N, M)."""
    walks = []
    chain = dicke.tables._chain

    def counted(*args):
        walks.append([args, -1])
        for state in chain(*args):
            walks[-1][1] += 1
            yield state

    monkeypatch.setattr(dicke.tables, "_chain", counted)
    verify_tables()
    assert walks == [
        [(SPIN_ONE, 10, 0), 10],
        [(SPIN_THREE_HALVES, 6, 0), 9],
        [(SPIN_TWO, 5, 0), 10],
    ]


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

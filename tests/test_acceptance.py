"""Acceptance suite: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every tolerance is pinned here, not configurable.
"""

import time
from math import sqrt

from dicke import (
    ALL_SPECIES,
    SPIN_HALF,
    SPIN_ONE,
    SPIN_THREE_HALVES,
    antisym_count,
    apply_lowering,
    brute_force_rdm,
    density_of,
    dicke_expansion,
    dicke_two_particle_rdm,
    enumerate_all_antisym,
    equal_probability_expansion,
    is_antisymmetric,
    named_two_qutrit_state,
    negativity,
    negativity_sweep,
    oracle_expansion,
    schmidt_negativity,
    total_spin_expectation,
)
from dicke.antisym import inner_product
from dicke.entanglement import (
    family_pair_reduction,
    has_pair_reduction_block_structure,
)
from dicke.tables import verify_tables

TABLE_TOL = 5e-5
EQUIV_TOL = 1e-10
SPIN_SQ_TOL = 1e-8
BLOCK_TOL = 1e-12
POINT_TOL = 5e-4


def report(number: int, text: str, ok: bool, detail: str = "") -> None:
    print(f"acceptance {number}: {'PASS' if ok else 'FAIL'} - {text} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {text} {detail}"


def grid(max_n: int):
    for species in ALL_SPECIES:
        for n in range(1, max_n + 1):
            tj = species.twice_spin * n
            for tm in range(-tj, tj + 1, 2):
                yield species, n, tm


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    reports = verify_tables()
    elapsed = time.perf_counter() - start
    worst = max(
        max(r.max_dev_closed_form, r.max_dev_oracle) for r in reports
    )
    ok = all(r.passed for r in reports) and elapsed < 1.0
    report(
        1,
        "all reference-table coefficients reproduced by both engines",
        ok,
        f"(max dev {worst:.2e}, tol {TABLE_TOL:.0e}, {elapsed:.2f}s < 1s)",
    )


def test_criterion_2_worked_example_states():
    spin1_expected = {
        (4, 1, 5): 0.1225, (3, 3, 4): 0.4473, (2, 5, 3): 0.6929,
        (1, 7, 2): 0.5238, (0, 9, 1): 0.1746,
    }
    spin32_expected = {
        (1, 0, 5, 0): 0.1825, (2, 0, 2, 2): 0.1361, (2, 1, 0, 3): 0.0641,
        (0, 4, 0, 2): 0.1666, (1, 1, 3, 1): 0.4713, (1, 2, 1, 2): 0.3333,
        (0, 2, 4, 0): 0.4999, (0, 3, 2, 1): 0.5772,
    }
    worst = 0.0
    ok = True
    for species, n, tm, expected in (
        (SPIN_ONE, 10, -2, spin1_expected),
        (SPIN_THREE_HALVES, 6, -2, spin32_expected),
    ):
        for build in (dicke_expansion, oracle_expansion):
            state = build(species, n, tm)
            ok &= set(state.as_dict()) == set(expected)
            for occ, value in expected.items():
                worst = max(worst, abs(state.amplitude(occ) - value))
    ok &= worst <= TABLE_TOL
    report(
        2,
        "worked-example states reproduced term for term",
        ok,
        f"(max dev {worst:.2e}, tol {TABLE_TOL:.0e})",
    )


def test_criterion_3_oracle_closed_form_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for species, n, tm in grid(10):
        closed = dicke_expansion(species, n, tm).as_dict()
        oracle = oracle_expansion(species, n, tm).as_dict()
        keys = set(closed) | set(oracle)
        worst = max(
            worst,
            max(abs(closed.get(k, 0.0) - oracle.get(k, 0.0)) for k in keys),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= EQUIV_TOL and elapsed < 30.0
    report(
        3,
        "closed form and ladder oracle agree for every species, N <= 10",
        ok,
        f"(max dev {worst:.2e}, tol {EQUIV_TOL:.0e}, {elapsed:.1f}s < 30s)",
    )


def test_criterion_4_ladder_consistency_and_total_spin():
    worst_step = 0.0
    worst_spin = 0.0
    for species, n, tm in grid(10):
        state = dicke_expansion(species, n, tm)
        j = species.twice_spin * n / 2.0
        worst_spin = max(
            worst_spin, abs(total_spin_expectation(state) - j * (j + 1))
        )
        if tm > -species.twice_spin * n:
            lowered = apply_lowering(state)
            norm = sqrt(sum(a * a for a in lowered.terms.values()))
            target = dicke_expansion(species, n, tm - 2).as_dict()
            worst_step = max(
                worst_step,
                max(
                    abs(amp / norm - target[occ])
                    for occ, amp in lowered.terms.items()
                ),
            )
    ok = worst_step <= EQUIV_TOL and worst_spin <= SPIN_SQ_TOL
    report(
        4,
        "lowering chain is self-consistent and <J^2> = sN(sN+1)",
        ok,
        f"(step dev {worst_step:.2e}, J^2 dev {worst_spin:.2e})",
    )


def test_criterion_5_antisymmetric_states():
    expected_counts = {1: 1, 2: 4, 3: 11, 4: 26}
    ok = True
    detail = []
    for species in ALL_SPECIES:
        states = enumerate_all_antisym(species)
        count_ok = (
            len(states)
            == antisym_count(species)
            == expected_counts[species.twice_spin]
        )
        props_ok = all(
            abs(s.norm_square() - 1.0) <= BLOCK_TOL and is_antisymmetric(s)
            for s in states
        )
        ortho_ok = all(
            abs(inner_product(a, b)) <= BLOCK_TOL
            for i, a in enumerate(states)
            for b in states[i + 1 :]
            if a.n_particles == b.n_particles
        )
        ok &= count_ok and props_ok and ortho_ok
        detail.append(f"{species.name}:{len(states)}")
    report(
        5,
        "antisymmetric state counts 1/4/11/26 with exchange and orthogonality checks",
        ok,
        "(" + " ".join(detail) + ")",
    )


def test_criterion_6_negativity_point_values():
    points = {
        "bg": 1.0,
        "bsplus": 1.0,
        "bsminus": 1.0,
        "psie": 0.8221,
        "psi2": 0.9571,
    }
    worst_value = 0.0
    worst_oracle = 0.0
    for name, expected in points.items():
        vec = named_two_qutrit_state(name)
        value = negativity(density_of(vec)).value
        worst_value = max(worst_value, abs(value - expected))
        worst_oracle = max(worst_oracle, abs(value - schmidt_negativity(vec)))
    # |2, 0> through the many-body path
    value = negativity(dicke_two_particle_rdm(dicke_expansion(SPIN_ONE, 2, 0))).value
    worst_value = max(worst_value, abs(value - 0.833))
    ok = worst_value <= POINT_TOL and worst_oracle <= EQUIV_TOL
    report(
        6,
        "benchmark negativities match and agree with the Schmidt oracle",
        ok,
        f"(value dev {worst_value:.2e}, oracle dev {worst_oracle:.2e})",
    )


def test_criterion_7_rdm_oracle_equivalence_and_blocks():
    worst = 0.0
    blocks_ok = True
    for n in range(2, 7):
        for tm in range(-2 * n, 2 * n + 1, 2):
            for build in (dicke_expansion, equal_probability_expansion):
                state = build(SPIN_ONE, n, tm)
                fast = dicke_two_particle_rdm(state)
                slow = brute_force_rdm(state)
                worst = max(
                    worst,
                    max(
                        abs(fast.entries[i][j] - slow.entries[i][j])
                        for i in range(9)
                        for j in range(9)
                    ),
                )
                blocks_ok &= has_pair_reduction_block_structure(fast, BLOCK_TOL)
    ok = worst <= EQUIV_TOL and blocks_ok
    report(
        7,
        "pair-correlator reductions equal brute-force partial traces, block structure exact",
        ok,
        f"(max dev {worst:.2e}, tol {EQUIV_TOL:.0e})",
    )


def test_criterion_8_figure_shapes():
    start = time.perf_counter()
    sweeps = {n: negativity_sweep("dicke", n) for n in range(20, 81, 10)}
    ok = True
    for n, rows in sweeps.items():
        values = [v for _, v in rows]
        ok &= values[0] == max(values)
        ok &= all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    zero_m = [sweeps[n][0][1] for n in sorted(sweeps)]
    ok &= all(a > b for a, b in zip(zero_m, zero_m[1:]))
    for n in (30, 80):
        equal_value = negativity(family_pair_reduction("equal", n, 0)).value
        ok &= equal_value > sweeps[n][0][1]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(
        8,
        "sweep shapes: peak at M=0, monotone in |M|, ordered in N, equal > dicke",
        ok,
        f"({elapsed:.1f}s < 60s)",
    )


def test_criterion_9_spin_half_degeneracy():
    ok = True
    for n in range(1, 21):
        for tm in range(-n, n + 1, 2):
            occ = ((n + tm) // 2, (n - tm) // 2)
            closed = dicke_expansion(SPIN_HALF, n, tm)
            oracle = oracle_expansion(SPIN_HALF, n, tm)
            ok &= closed.terms == ((occ, 1.0),)
            ok &= oracle.terms == ((occ, 1.0),)
    report(
        9,
        "spin-1/2 pipeline reproduces the constant coefficient 1 exactly",
        ok,
    )

from fractions import Fraction
from itertools import accumulate
from math import isqrt, sqrt

import pytest

from dicke import (
    ALL_SPECIES,
    SPIN_HALF,
    SPIN_ONE,
    SPIN_THREE_HALVES,
    SPIN_TWO,
    DickeExpansion,
    DomainError,
    apply_lowering,
    apply_raising,
    dicke_expansion,
    enumerate_basis,
    highest_weight,
    oracle_expansion,
    total_spin_expectation,
)
from dicke.basis import lowering_depth_sizes
from dicke.coefficients import exact_coefficient_squares
import dicke.ladder
from dicke.ladder import (
    RawExpansion,
    _chain,
    _finish,
    _lowering_steps,
    _moves,
    _tables,
    _unpack,
    oracle_squares_exact,
)


def test_highest_weight_states():
    assert highest_weight(SPIN_TWO, 5).terms == (((5, 0, 0, 0, 0), 1.0),)
    assert highest_weight(SPIN_HALF, 3).terms == (((3, 0), 1.0),)
    assert highest_weight(SPIN_ONE, 1).terms == (((1, 0, 0), 1.0),)


def test_single_lowering_from_the_top_spin2():
    lowered = apply_lowering(highest_weight(SPIN_TWO, 5))
    assert set(lowered.terms) == {(4, 1, 0, 0, 0)}
    assert lowered.terms[(4, 1, 0, 0, 0)] == pytest.approx(2 * sqrt(5), abs=1e-12)


def test_lowering_annihilates_the_bottom_state():
    bottom = RawExpansion(SPIN_ONE, 4, {(0, 0, 4): 1.0})
    assert apply_lowering(bottom).terms == {}


def test_twice_lowered_spin1_matches_reference_column():
    state = apply_lowering(apply_lowering(highest_weight(SPIN_ONE, 10)))
    norm = sqrt(sum(a * a for a in state.terms.values()))
    amps = {occ: a / norm for occ, a in state.terms.items()}
    assert amps[(9, 0, 1)] == pytest.approx(0.2294, abs=5e-5)
    assert amps[(8, 2, 0)] == pytest.approx(0.9733, abs=5e-5)


def test_raising_annihilates_the_top_state():
    assert apply_raising(highest_weight(SPIN_TWO, 5)).terms == {}


def test_raise_after_lower_scales_by_twice_j():
    for species in ALL_SPECIES:
        n = 5
        top = highest_weight(species, n)
        back = apply_raising(apply_lowering(top))
        occ = (n,) + (0,) * species.twice_spin
        assert set(back.terms) == {occ}
        assert back.terms[occ] == pytest.approx(species.twice_spin * n, abs=1e-9)


def test_raising_reference_m0_reproduces_m1_column():
    m0 = dicke_expansion(SPIN_ONE, 10, 0)
    raised = apply_raising(m0)
    norm = sqrt(sum(a * a for a in raised.terms.values()))
    m1 = dicke_expansion(SPIN_ONE, 10, 2).as_dict()
    for occ, amp in raised.terms.items():
        assert amp / norm == pytest.approx(m1[occ], abs=1e-10)


def test_oracle_worked_example_spin1():
    oracle = oracle_expansion(SPIN_ONE, 10, -2)
    assert oracle.amplitude((4, 1, 5)) == pytest.approx(0.1225, abs=5e-5)
    assert oracle.amplitude((3, 3, 4)) == pytest.approx(0.4473, abs=5e-5)
    assert oracle.amplitude((0, 9, 1)) == pytest.approx(0.1746, abs=5e-5)


def test_oracle_spin2_n5_m8():
    oracle = oracle_expansion(SPIN_TWO, 5, 16)
    assert oracle.amplitude((4, 0, 1, 0, 0)) == pytest.approx(0.3974, abs=5e-5)
    assert oracle.amplitude((3, 2, 0, 0, 0)) == pytest.approx(0.9177, abs=5e-5)


def test_oracle_spin_half_coefficient_is_exactly_one():
    for n in (1, 7, 20):
        for tm in range(-n, n + 1, 2):
            oracle = oracle_expansion(SPIN_HALF, n, tm)
            assert len(oracle.terms) == 1
            assert oracle.terms[0][1] == 1.0


def test_total_spin_expectation_on_generated_states():
    assert total_spin_expectation(highest_weight(SPIN_ONE, 10)) == pytest.approx(
        110.0, abs=1e-8
    )
    assert total_spin_expectation(
        oracle_expansion(SPIN_THREE_HALVES, 6, 0)
    ) == pytest.approx(90.0, abs=1e-8)


def test_total_spin_expectation_flags_perturbed_states():
    state = oracle_expansion(SPIN_ONE, 6, 2)
    terms = dict(state.terms)
    occ = next(iter(terms))
    terms[occ] += 0.05
    norm = sqrt(sum(a * a for a in terms.values()))
    perturbed = DickeExpansion(
        SPIN_ONE, 6, 2,
        tuple((o, a / norm) for o, a in terms.items()),
    )
    expected = 6 * 7.0  # sN (sN + 1)
    assert abs(total_spin_expectation(perturbed) - expected) > 1e-3


def test_total_spin_expectation_equals_the_apply_raising_route():
    """Summing the packed raised amplitudes gives the same float as
    summing those of the public `apply_raising`, bit for bit."""
    for species in ALL_SPECIES:
        for n in range(1, 13):
            twice_j = species.twice_spin * n
            for twice_m in range(-twice_j, twice_j + 1, 2):
                for state in (
                    oracle_expansion(species, n, twice_m),
                    dicke_expansion(species, n, twice_m),
                ):
                    raised = apply_raising(state).terms.values()
                    m = twice_m / 2.0
                    expected = sum(a * a for a in raised) + m * m + m
                    assert total_spin_expectation(state) == expected


def test_total_spin_expectation_rejects_vectors_that_are_not_occupations():
    for occ in ((2, 1, 2), (4, 0), (5, 0, -1)):
        with pytest.raises(DomainError):
            total_spin_expectation(DickeExpansion(SPIN_ONE, 4, 0, ((occ, 1.0),)))


def test_oracle_support_equals_enumerated_basis():
    for species in ALL_SPECIES:
        for n in range(1, 9):
            tj = species.twice_spin * n
            for tm in range(-tj, tj + 1, 2):
                oracle = oracle_expansion(species, n, tm)
                assert set(oracle.as_dict()) == set(
                    enumerate_basis(species, n, tm)
                )


def test_oracle_matches_closed_form_to_1e10():
    for species in ALL_SPECIES:
        for n in range(1, 9):
            tj = species.twice_spin * n
            for tm in range(-tj, tj + 1, 2):
                closed = dicke_expansion(species, n, tm).as_dict()
                oracle = oracle_expansion(species, n, tm).as_dict()
                assert max(
                    abs(closed[occ] - oracle[occ]) for occ in closed
                ) <= 1e-10


def test_lowering_chain_is_self_consistent():
    for species in ALL_SPECIES:
        n = 6
        tj = species.twice_spin * n
        for tm in range(tj, -tj + 1, -2):
            lowered = apply_lowering(dicke_expansion(species, n, tm))
            norm = sqrt(sum(a * a for a in lowered.terms.values()))
            target = dicke_expansion(species, n, tm - 2).as_dict()
            for occ, amp in lowered.terms.items():
                assert amp / norm == pytest.approx(target[occ], abs=1e-10)


def test_oracle_domain_error():
    with pytest.raises(DomainError):
        oracle_expansion(SPIN_ONE, 5, 12)


def test_exact_mode_certifies_the_closed_form():
    for species in ALL_SPECIES:
        for n in (2, 4):
            tj = species.twice_spin * n
            for tm in range(-tj, tj + 1, 2):
                assert oracle_squares_exact(
                    species, n, tm
                ) == exact_coefficient_squares(species, n, tm)


def _exact_sqrt(q):
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _add_with_common_radical(q1, q2):
    """Square of sqrt(q1) + sqrt(q2); along a lowering chain the
    contributions to one vector share one radical, so the cross term is
    rational."""
    if q1 == 0:
        return q2
    if q2 == 0:
        return q1
    cross = _exact_sqrt(q1 * q2)
    assert cross is not None, "amplitudes do not share a common radical"
    return q1 + q2 + 2 * cross


def _fraction_walk(species, n, twice_m):
    """Squared amplitudes by the renormalized J- walk on squared rationals."""
    width = n.bit_length()
    mask = (1 << width) - 1
    moves = _moves(species, width, lowering=True)
    squares = {n: Fraction(1)}
    for step in _lowering_steps(species.twice_spin * n, twice_m):
        nxt = {}
        for key, q in squares.items():
            for f2, src, dst, delta in moves:
                a = key >> src & mask
                if a:
                    contrib = q * f2 * a * ((key >> dst & mask) + 1) / step
                    moved = key + delta
                    nxt[moved] = _add_with_common_radical(
                        nxt.get(moved, Fraction(0)), contrib
                    )
        squares = nxt
    return {_unpack(k, width, species.n_levels): q for k, q in squares.items()}


def test_integer_exact_mode_equals_the_fraction_walk():
    for species in ALL_SPECIES:
        for n in range(1, 9):
            tj = species.twice_spin * n
            for tm in range(-tj, tj + 1, 2):
                exact = oracle_squares_exact(species, n, tm)
                reference = _fraction_walk(species, n, tm)
                assert exact == reference
                assert list(exact) == list(reference)


def test_exact_mode_squares_sum_to_one():
    squares = oracle_squares_exact(SPIN_TWO, 5, 2)
    assert sum(squares.values()) == Fraction(1)


def test_walks_reject_vectors_that_are_not_occupations():
    for occ in ((2, 1, 2), (4, 0), (5, 0, -1)):
        with pytest.raises(DomainError):
            apply_lowering(RawExpansion(SPIN_ONE, 4, {occ: 1.0}))
        with pytest.raises(DomainError):
            apply_raising(RawExpansion(SPIN_ONE, 4, {occ: 1.0}))


def test_every_table_entry_is_its_ladder_factor():
    for species in ALL_SPECIES:
        for n in (1, 2, 7, 8, 33):
            width = n.bit_length()
            mask = (1 << width) - 1
            moves = _moves(species, width, lowering=True)
            tabled = _tables(moves, n, width)
            assert len(tabled) == len(moves)
            for (table, src, delta), (f2, m_src, _, m_delta) in zip(tabled, moves):
                assert (src, delta) == (m_src, m_delta)
                assert len(table) == (n + 1) << width
                for index, factor in enumerate(table):
                    a, b = index & mask, index >> width
                    if a >= 1 and a + b <= n:
                        assert factor == sqrt(f2 * a * (b + 1))
                    else:
                        assert factor == 0.0


def _count_table_builds(monkeypatch):
    builds = []
    build = dicke.ladder._tables

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(dicke.ladder, "_tables", counted)
    return builds


def test_three_level_chains_build_no_tables(monkeypatch):
    builds = _count_table_builds(monkeypatch)
    for species in (SPIN_HALF, SPIN_ONE):
        for n in (1, 2, 3, 400):
            oracle_expansion(species, n, -species.twice_spin * n)
    assert builds == []


def test_long_chains_build_their_tables_once(monkeypatch):
    builds = _count_table_builds(monkeypatch)
    for species in (SPIN_THREE_HALVES, SPIN_TWO):
        oracle_expansion(species, 20, 0)
    assert len(builds) == 2
    oracle_expansion(SPIN_TWO, 2, 0)  # tiny chains stay inline
    assert len(builds) == 2


def _bits(x):
    return [(occ, amp.hex()) for occ, amp in x.terms]


@pytest.mark.parametrize(
    "species, n, lowest, tabled",
    [
        (SPIN_HALF, 9, -9, False),
        (SPIN_ONE, 10, 0, False),
        (SPIN_ONE, 40, -80, False),
        (SPIN_THREE_HALVES, 6, 0, False),
        (SPIN_THREE_HALVES, 9, -27, True),
        (SPIN_TWO, 5, 0, False),
        (SPIN_TWO, 12, -24, True),
        (SPIN_TWO, 20, 0, True),
    ],
)
def test_one_chain_finishes_to_the_oracle_at_every_m(
    species, n, lowest, tabled, monkeypatch
):
    """Every state one walk passes, finished, is `oracle_expansion` at its
    M bit for bit, on walks with and without the tables."""
    builds = _count_table_builds(monkeypatch)
    finished = []
    for tm, raw, divisor in _chain(species, n, lowest):
        # renormalized at every step, not only when finished
        assert sum((v / divisor) ** 2 for v in raw.values()) == pytest.approx(1.0)
        finished.append((tm, _finish(species, n, tm, raw, divisor)))
    assert len(builds) == tabled
    assert [tm for tm, _ in finished] == list(
        range(species.twice_spin * n, lowest - 1, -2)
    )
    for tm, state in finished:
        assert (state.n_particles, state.twice_m) == (n, tm)
        assert _bits(state) == _bits(oracle_expansion(species, n, tm))


@pytest.mark.parametrize(
    "species, n, tie",
    [
        (SPIN_THREE_HALVES, 3, True),
        (SPIN_THREE_HALVES, 5, True),
        (SPIN_THREE_HALVES, 8, False),
        (SPIN_TWO, 3, True),
        (SPIN_TWO, 9, True),
        (SPIN_TWO, 20, False),
    ],
)
def test_chains_switch_to_tables_after_walking_more_vectors_than_they_hold(
    species, n, tie, monkeypatch
):
    """The tables of a chain hold 2s * N(N+1)/2 factors.  A chain to depth
    d builds them once, before its first step, when its steps read more
    vectors than that (the states at depths 0 .. d - 1), and not when the
    two are equal (`tie`)."""
    builds = _count_table_builds(monkeypatch)
    twice_j = species.twice_spin * n
    table_size = species.twice_spin * n * (n + 1) // 2
    read = list(accumulate(lowering_depth_sizes(species, n, twice_j), initial=0))
    assert (table_size in read) == tie
    for depth in range(twice_j + 1):
        builds.clear()
        chain = _chain(species, n, twice_j - 2 * depth)
        next(chain)
        assert len(builds) == int(read[depth] > table_size)
        for _ in chain:
            pass
        assert len(builds) == int(read[depth] > table_size)

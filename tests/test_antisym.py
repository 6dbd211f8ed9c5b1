from math import comb, nextafter, sqrt

import pytest

from dicke import (
    ALL_SPECIES,
    SPIN_HALF,
    SPIN_ONE,
    SPIN_THREE_HALVES,
    SPIN_TWO,
    DomainError,
    antisym_count,
    dicke_expansion,
    elementary_antisym,
    enumerate_all_antisym,
    is_antisymmetric,
)
from dicke.antisym import (
    FirstQuantizedState,
    _multiplet,
    inner_product,
    symmetric_two_particle_state,
    two_particle_multiplet_residuals,
)


@pytest.mark.parametrize(
    "species,expected",
    [(SPIN_HALF, 1), (SPIN_ONE, 4), (SPIN_THREE_HALVES, 11), (SPIN_TWO, 26)],
)
def test_antisym_count(species, expected):
    assert antisym_count(species) == expected


def test_singlet_of_two_spin_half():
    state = elementary_antisym(SPIN_HALF, (1, -1))
    amps = state.as_dict()
    assert amps[(1, -1)] == pytest.approx(1 / sqrt(2), abs=1e-15)
    assert amps[(-1, 1)] == pytest.approx(-1 / sqrt(2), abs=1e-15)


def test_three_particle_spin1_state():
    # signs follow permutation parity; the only assignment pattern that is
    # actually antisymmetric under every transposition (see VALIDATION.md)
    state = elementary_antisym(SPIN_ONE, (2, 0, -2))
    amps = state.as_dict()
    assert len(amps) == 6
    root6 = sqrt(6.0)
    assert amps[(2, 0, -2)] == pytest.approx(1 / root6, abs=1e-15)
    assert amps[(2, -2, 0)] == pytest.approx(-1 / root6, abs=1e-15)
    assert amps[(0, 2, -2)] == pytest.approx(-1 / root6, abs=1e-15)
    assert amps[(0, -2, 2)] == pytest.approx(1 / root6, abs=1e-15)
    assert amps[(-2, 2, 0)] == pytest.approx(1 / root6, abs=1e-15)
    assert amps[(-2, 0, 2)] == pytest.approx(-1 / root6, abs=1e-15)


def test_five_particle_spin2_state():
    state = elementary_antisym(SPIN_TWO, (4, 2, 0, -2, -4))
    assert len(state.terms) == 120
    assert all(
        abs(amp) == pytest.approx(1 / sqrt(120), abs=1e-15)
        for _, amp in state.terms
    )
    assert state.as_dict()[(4, 2, 0, -2, -4)] > 0


def test_repeated_level_rejected():
    with pytest.raises(DomainError):
        elementary_antisym(SPIN_ONE, (2, 2))
    with pytest.raises(DomainError):
        elementary_antisym(SPIN_ONE, (0, 2))  # not strictly decreasing
    with pytest.raises(DomainError):
        elementary_antisym(SPIN_ONE, (2,))


def test_levels_of_another_spin_rejected():
    with pytest.raises(DomainError, match="no level 2m=1"):
        elementary_antisym(SPIN_ONE, (1, -1))  # the wrong parity
    with pytest.raises(DomainError, match="no level 2m=4"):
        elementary_antisym(SPIN_ONE, (4, 2))  # out of range


def test_enumeration_counts_per_species():
    for species in ALL_SPECIES:
        states = enumerate_all_antisym(species)
        assert len(states) == antisym_count(species)
        sizes = [state.n_particles for state in states]
        for size in range(2, species.n_levels + 1):
            assert sizes.count(size) == comb(species.n_levels, size)


def test_every_enumerated_state_is_normalized_and_antisymmetric():
    for species in ALL_SPECIES:
        for state in enumerate_all_antisym(species):
            assert state.norm_square() == pytest.approx(1.0, abs=1e-12)
            assert is_antisymmetric(state)


def test_pairwise_orthogonality():
    for species in (SPIN_THREE_HALVES, SPIN_TWO):
        states = enumerate_all_antisym(species)
        for i, a in enumerate(states):
            for b in states[i + 1 :]:
                if a.n_particles == b.n_particles:
                    assert abs(inner_product(a, b)) <= 1e-12


def test_symmetric_state_is_not_antisymmetric():
    symmetric = symmetric_two_particle_state(dicke_expansion(SPIN_ONE, 2, 0))
    assert not is_antisymmetric(symmetric)


def test_symmetric_two_particle_terms_descend():
    state = symmetric_two_particle_state(dicke_expansion(SPIN_ONE, 2, 0))
    assert state.n_particles == 2
    assert [assignment for assignment, _ in state.terms] == [(2, -2), (0, 0), (-2, 2)]


def test_antisymmetry_tolerance_is_inclusive():
    # the (1, -1) amplitude is 0, so each transposition leaves exactly the
    # (-1, 1) amplitude
    for defect, expected in ((1e-12, True), (nextafter(1e-12, 1.0), False)):
        state = FirstQuantizedState(2, (((1, -1), 0.0), ((-1, 1), defect)))
        assert is_antisymmetric(state) is expected


def test_missing_transposed_terms_are_zero():
    # a lone term is not antisymmetric, whatever its sign
    assert not is_antisymmetric(FirstQuantizedState(2, (((1, -1), -1.0),)))
    uu = symmetric_two_particle_state(dicke_expansion(SPIN_ONE, 2, 4))
    assert inner_product(uu, elementary_antisym(SPIN_ONE, (2, 0))) == 0.0


def test_antisymmetry_is_scale_free():
    singlet = elementary_antisym(SPIN_HALF, (1, -1))
    scaled = FirstQuantizedState(
        2, tuple((assignment, 0.9 * amp) for assignment, amp in singlet.terms)
    )
    assert is_antisymmetric(scaled)


def test_two_particle_multiplet_lies_in_the_elementary_span():
    for species in (SPIN_ONE, SPIN_THREE_HALVES, SPIN_TWO):
        residuals = two_particle_multiplet_residuals(species)
        twice_j = 2 * species.twice_spin - 2
        assert [tm for tm, _ in residuals] == list(range(twice_j, -twice_j - 2, -2))
        assert all(residual < 1e-10 for _, residual in residuals)


def test_edge_multiplet_members_are_elementary_pair_states():
    """|J = 2s-1, M> at M = 2s-1 and 2s-2 equal the (s, s-1) and (s, s-2)
    pair states, and the mirrored members their mirror images, each with
    sign +1; every member lives on the levels of its species."""
    for species in (SPIN_THREE_HALVES, SPIN_TWO):
        ts = species.twice_spin
        residuals = dict(two_particle_multiplet_residuals(species))
        assert residuals[2 * ts - 2] < 1e-12
        states = dict(_multiplet(species))
        assert all(
            set(assignment) <= set(species.twice_levels)
            for member in states.values()
            for assignment, _ in member.terms
        )
        twice_j = 2 * ts - 2
        for sign_tm, pair in (
            (twice_j, (ts, ts - 2)),
            (twice_j - 2, (ts, ts - 4)),
            (-(twice_j - 2), (-ts + 4, -ts)),
            (-twice_j, (-ts + 2, -ts)),
        ):
            reference = elementary_antisym(species, pair)
            overlap = inner_product(reference, states[sign_tm])
            assert overlap == pytest.approx(1.0, abs=1e-12)

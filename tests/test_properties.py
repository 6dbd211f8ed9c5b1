"""Property tests of the basis walk over random spins, N <= 30 and every
valid magnetization, half-integer and negative ones included."""

from fractions import Fraction
from math import comb, isclose

from hypothesis import given, settings
from hypothesis import strategies as st

from dicke import (
    ALL_SPECIES,
    coefficient_square,
    dicke_expansion,
    enumerate_basis,
    mirror,
)
from dicke.coefficients import (
    WEIGHT_VARIANTS,
    _level_weight_squares,
    _walk,
    exact_coefficient_squares,
)


def _with_magnetization(species_and_n):
    species, n = species_and_n
    twice_j = species.twice_spin * n
    return st.tuples(
        st.just(species), st.just(n), st.sampled_from(range(-twice_j, twice_j + 1, 2))
    )


STATES = st.tuples(st.sampled_from(ALL_SPECIES), st.integers(1, 30)).flatmap(
    _with_magnetization
)


def _compositions(n, parts):
    """Every way to put n particles on `parts` levels, with no pruning."""
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for tail in _compositions(n - head, parts - 1):
            yield (head,) + tail


@settings(deadline=None)
@given(STATES)
def test_enumeration_equals_brute_force(state):
    species, n, twice_m = state
    brute = [
        occ
        for occ in _compositions(n, species.n_levels)
        if sum(c * tm for c, tm in zip(occ, species.twice_levels)) == twice_m
    ]
    assert enumerate_basis(species, n, twice_m) == sorted(brute, reverse=True)


@settings(deadline=None)
@given(STATES, st.sampled_from(WEIGHT_VARIANTS))
def test_walk_numerators_equal_the_per_vector_formula(state, variant):
    species, n, twice_m = state
    basis, numerators = _walk(species, n, twice_m, variant)
    _, scale = _level_weight_squares(species, variant)
    twice_j = species.twice_spin * n
    denominator = comb(twice_j, (twice_j - abs(twice_m)) // 2) * scale**n
    for occ, p in zip(basis, numerators):
        assert Fraction(p, denominator) == coefficient_square(
            species, n, twice_m, occ, variant
        )


@settings(deadline=None)
@given(STATES)
def test_magnetization_reversal_mirrors_the_amplitudes(state):
    species, n, twice_m = state
    plus = dicke_expansion(species, n, twice_m)
    minus = dicke_expansion(species, n, -twice_m)
    assert sorted(mirror(occ) for occ, _ in plus.terms) == sorted(
        occ for occ, _ in minus.terms
    )
    for occ, amp in plus.terms:
        assert isclose(minus.amplitude(mirror(occ)), amp, rel_tol=1e-14)
    squares = exact_coefficient_squares(species, n, -twice_m)
    for occ, square in exact_coefficient_squares(species, n, twice_m).items():
        assert squares[mirror(occ)] == square

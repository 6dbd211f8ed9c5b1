import operator
import sys
from fractions import Fraction
from itertools import accumulate
from math import comb, exp, isqrt, lgamma, log, sqrt

import pytest

from dicke import (
    ALL_SPECIES,
    SPIN_HALF,
    SPIN_ONE,
    SPIN_THREE_HALVES,
    SPIN_TWO,
    DomainError,
    SpinSpecies,
    closed_form_coefficient,
    coefficient_square,
    dicke_expansion,
    enumerate_basis,
    level_weight,
    mirror,
)
import dicke.coefficients
from dicke.coefficients import _root, _walk, exact_coefficient_squares

FOUR_DECIMALS = 5e-5


def test_level_weight_spin1_middle_level():
    assert level_weight(SPIN_ONE, 0) == pytest.approx(sqrt(2.0), abs=1e-15)


def test_level_weight_spin2_extremes():
    assert level_weight(SPIN_TWO, 4) == 1.0
    assert level_weight(SPIN_TWO, -4) == 1.0


def test_level_weight_spin_three_halves_inner_levels():
    assert level_weight(SPIN_THREE_HALVES, 1) == pytest.approx(sqrt(3.0), abs=1e-15)
    assert level_weight(SPIN_THREE_HALVES, -1) == pytest.approx(sqrt(3.0), abs=1e-15)


def test_level_weight_is_symmetric_in_m():
    for species in ALL_SPECIES:
        for tm in species.twice_levels:
            assert level_weight(species, tm) == level_weight(species, -tm)


def test_level_weight_rejects_missing_levels():
    with pytest.raises(DomainError):
        level_weight(SPIN_ONE, 1)
    with pytest.raises(DomainError):
        level_weight(SPIN_ONE, 4)


@pytest.mark.parametrize(
    "species,n,tm,occ,expected",
    [
        (SPIN_ONE, 10, 0, (0, 10, 0), 0.0744),
        (SPIN_TWO, 5, 16, (3, 2, 0, 0, 0), 0.9177),
        (SPIN_THREE_HALVES, 6, 14, (5, 0, 1, 0), 0.3430),
    ],
)
def test_reference_cells(species, n, tm, occ, expected):
    assert closed_form_coefficient(species, n, tm, occ) == pytest.approx(
        expected, abs=FOUR_DECIMALS
    )


def test_top_of_the_ladder_has_coefficient_one():
    for species in ALL_SPECIES:
        for n in (1, 4, 7):
            occ = (n,) + (0,) * species.twice_spin
            assert closed_form_coefficient(
                species, n, species.twice_spin * n, occ
            ) == 1.0


def test_vector_outside_the_basis_is_an_error():
    with pytest.raises(DomainError):
        closed_form_coefficient(SPIN_ONE, 10, 0, (5, 1, 4))
    with pytest.raises(DomainError):
        closed_form_coefficient(SPIN_ONE, 10, 0, (5, 0, 5, 0))
    with pytest.raises(DomainError):
        closed_form_coefficient(SPIN_ONE, 10, 0, (6, 0, 4))


def test_worked_example_spin1_m_minus1():
    expected = {
        (4, 1, 5): 0.1225,
        (3, 3, 4): 0.4473,
        (2, 5, 3): 0.6929,
        (1, 7, 2): 0.5238,
        (0, 9, 1): 0.1746,
    }
    expansion = dicke_expansion(SPIN_ONE, 10, -2)
    assert set(expansion.as_dict()) == set(expected)
    for occ, value in expected.items():
        assert expansion.amplitude(occ) == pytest.approx(value, abs=FOUR_DECIMALS)


def test_worked_example_spin_three_halves_m_minus1():
    expected = {
        (1, 0, 5, 0): 0.1825,
        (2, 0, 2, 2): 0.1361,
        (2, 1, 0, 3): 0.0641,
        (0, 4, 0, 2): 0.1666,
        (1, 1, 3, 1): 0.4713,
        (1, 2, 1, 2): 0.3333,
        (0, 2, 4, 0): 0.4999,
        (0, 3, 2, 1): 0.5772,
    }
    expansion = dicke_expansion(SPIN_THREE_HALVES, 6, -2)
    assert set(expansion.as_dict()) == set(expected)
    for occ, value in expected.items():
        assert expansion.amplitude(occ) == pytest.approx(value, abs=FOUR_DECIMALS)


def test_two_particle_spin1_m0():
    expansion = dicke_expansion(SPIN_ONE, 2, 0)
    assert expansion.amplitude((1, 0, 1)) == pytest.approx(sqrt(1 / 3), abs=1e-12)
    assert expansion.amplitude((0, 2, 0)) == pytest.approx(sqrt(2 / 3), abs=1e-12)


def test_exact_squares_sum_to_one():
    for species in ALL_SPECIES:
        for n in range(1, 13):
            tj = species.twice_spin * n
            for tm in range(-tj, tj + 1, 2):
                assert sum(
                    exact_coefficient_squares(species, n, tm).values()
                ) == Fraction(1)


def test_normalization_within_float_tolerance():
    for species in ALL_SPECIES:
        for n in (5, 9, 12):
            tj = species.twice_spin * n
            for tm in range(-tj, tj + 1, 2):
                assert dicke_expansion(species, n, tm).norm_square() == pytest.approx(
                    1.0, abs=1e-12
                )


def test_all_amplitudes_positive():
    for species in ALL_SPECIES:
        expansion = dicke_expansion(species, 6, 2)
        assert all(amp > 0.0 for _, amp in expansion.terms)


def test_terms_cover_the_basis_in_canonical_order():
    expansion = dicke_expansion(SPIN_TWO, 5, 2)
    assert [occ for occ, _ in expansion.terms] == enumerate_basis(SPIN_TWO, 5, 2)


def test_mirror_symmetry_of_amplitudes():
    for species in ALL_SPECIES:
        for n in (4, 7):
            tj = species.twice_spin * n
            for tm in range(tj, -1, -2):
                plus = dicke_expansion(species, n, tm)
                minus = dicke_expansion(species, n, -tm).as_dict()
                for occ, amp in plus.terms:
                    assert minus[mirror(occ)] == pytest.approx(amp, abs=1e-12)


def test_spin_half_coefficients_are_exactly_one():
    for n in range(1, 21):
        for tm in range(-n, n + 1, 2):
            occ = ((n + tm) // 2, (n - tm) // 2)
            assert coefficient_square(SPIN_HALF, n, tm, occ) == Fraction(1)
            assert closed_form_coefficient(SPIN_HALF, n, tm, occ) == 1.0


def _lgamma_amplitude(species, occ, twice_m):
    """Reference amplitude from lgamma; 0.0 below the normal float range."""
    n = sum(occ)
    twice_j = species.twice_spin * n
    k = (twice_j - abs(twice_m)) // 2
    log_square = lgamma(n + 1) - (
        lgamma(twice_j + 1) - lgamma(k + 1) - lgamma(twice_j - k + 1)
    )
    ts = species.twice_spin
    for count, tm in zip(occ, species.twice_levels):
        log_square += count * log(comb(ts, (ts - tm) // 2)) - lgamma(count + 1)
    half_log = 0.5 * log_square
    return exp(half_log) if half_log >= log(sys.float_info.min) else 0.0


def test_large_expansion_loses_no_normal_float_amplitude():
    """Spin 1, N = 2400, M = 0: squares as small as 1e-600 must not take
    their normal-float amplitudes down with them."""
    expansion = dicke_expansion(SPIN_ONE, 2400, 0)
    assert len(expansion.terms) == 1201
    sub_float = 0
    for occ, amp in expansion.terms:
        reference = _lgamma_amplitude(SPIN_ONE, occ, 0)
        if reference == 0.0:
            sub_float += 1
            assert 0.0 <= amp < sys.float_info.min
        else:
            assert amp == pytest.approx(reference, rel=1e-9, abs=0.0)
    assert sub_float == 52


def test_closed_form_coefficient_does_not_underflow():
    for occ in enumerate_basis(SPIN_ONE, 2400, 0)[::25]:
        reference = _lgamma_amplitude(SPIN_ONE, occ, 0)
        value = closed_form_coefficient(SPIN_ONE, 2400, 0, occ)
        if reference == 0.0:
            assert value < sys.float_info.min
        else:
            assert value == pytest.approx(reference, rel=1e-9, abs=0.0)


#: fraction bits of the fixed-point reference amplitudes
ORACLE_BITS = 1200


@pytest.mark.parametrize("spin, n", [("1", 80), ("1", 2400), ("3/2", 40), ("2", 30)])
def test_amplitudes_match_a_high_precision_oracle(spin, n):
    """Every amplitude against floor(sqrt(P / D) 2^b) from the exact square
    of the per-vector factorial route: within 2^-51 relative when it is a
    normal float, within 2^-1074 absolute below the normal range."""
    species = SpinSpecies.from_str(spin)
    expansion = dicke_expansion(species, n, 0)
    one = Fraction(1, 1 << ORACLE_BITS)
    for occ, amp in expansion.terms:
        square = coefficient_square(species, n, 0, occ)
        p, d = square.numerator, square.denominator
        reference = isqrt((p << 2 * ORACLE_BITS) // d) * one
        error = abs(Fraction(amp) - reference)
        if amp >= sys.float_info.min:
            assert error <= reference / 2**51, (occ, amp)
        else:
            assert error <= Fraction(1, 2**1074), (occ, amp)


def test_amplitude_lookup_matches_terms_and_defaults_to_zero():
    expansion = dicke_expansion(SPIN_TWO, 8, 2)
    for occ, amp in expansion.terms:
        assert expansion.amplitude(occ) == amp
    assert expansion.amplitude((8, 0, 0, 0, 0)) == 0.0
    # as_dict hands out a copy; editing it leaves the expansion untouched
    copy = expansion.as_dict()
    first, amp = expansion.terms[0]
    copy[first] = -1.0
    assert expansion.amplitude(first) == amp


def test_a_walk_that_does_not_sum_to_one_raises(monkeypatch):
    """Under the rejected spin-1 weight (1, 4, 1) the squares no longer sum
    to 1; both routes must refuse rather than renormalize it away."""
    monkeypatch.setattr(
        dicke.coefficients, "_level_weight_squares", lambda species: (1, 4, 1)
    )
    with pytest.raises(ArithmeticError):
        dicke_expansion(SPIN_ONE, 10, 0)
    with pytest.raises(ArithmeticError):
        exact_coefficient_squares(SPIN_ONE, 10, 0)


def _listed_root_expansion(species, n, twice_m, stride=1):
    """The per-vector route: every numerator P = N!/prod(n_m!) prod(w_m^n_m)
    from a factorial table, the formula of `coefficient_square` (checked
    against it at every `stride`-th vector), divided by the sum of all P with
    `_root` and renormalized in floating point."""
    factorials = list(accumulate(range(1, n + 1), operator.mul, initial=1))
    ts = species.twice_spin
    weights = [comb(ts, (ts - tm) // 2) for tm in species.twice_levels]
    basis = enumerate_basis(species, n, twice_m)
    numerators = []
    for occ in basis:
        p = factorials[n]
        for count, w in zip(occ, weights):
            p = p // factorials[count] * w**count
        numerators.append(p)
    total = sum(numerators)
    for occ, p in list(zip(basis, numerators))[::stride]:
        assert Fraction(p, total) == coefficient_square(species, n, twice_m, occ)
    amps = [_root(p, total) for p in numerators]
    norm = sqrt(sum(a * a for a in amps))
    return tuple((occ, a / norm) for occ, a in zip(basis, amps))


def test_expansion_equals_the_listed_root_route_on_small_states():
    for species in ALL_SPECIES:
        for n in range(1, 13):
            tj = species.twice_spin * n
            for tm in range(-tj, tj + 1, 2):
                expected = _listed_root_expansion(species, n, tm)
                assert dicke_expansion(species, n, tm).terms == expected


@pytest.mark.parametrize(
    "species, n", [(SPIN_ONE, 2400), (SPIN_TWO, 60), (SPIN_THREE_HALVES, 40)]
)
def test_expansion_equals_the_listed_root_route_on_large_states(species, n):
    terms = dicke_expansion(species, n, 0).terms
    assert terms == _listed_root_expansion(species, n, 0, stride=97)
    if species is SPIN_ONE:
        sub_float = [a for _, a in terms if a < sys.float_info.min]
        assert (len(sub_float), sub_float.count(0.0)) == (52, 34)


#: a ratio just below the smallest normal float that int / int division
#: rounds up to it: there sqrt(p / d) is 0x1p-511 but the root of the ratio
#: itself is 0x1.fffffffffffffp-512
BOUNDARY_P, BOUNDARY_D = 2**78 - 20132659, 2**1100


def test_root_of_a_ratio_rounded_up_to_the_smallest_normal():
    p, d = BOUNDARY_P, BOUNDARY_D
    assert p / d == sys.float_info.min
    assert sqrt(p / d) == float.fromhex("0x1p-511")
    assert _root(p, d) == float.fromhex("0x1.fffffffffffffp-512")


def test_expansion_takes_the_scaled_root_at_the_smallest_normal(monkeypatch):
    """A numerator whose quotient rounds to exactly the smallest normal float
    goes through `_root`, not through sqrt of the rounded quotient."""
    d = comb(1200, 600)  # D of spin 1, N = 600, M = 0
    p = d * BOUNDARY_P // BOUNDARY_D
    assert p / d == sys.float_info.min

    def walk(species, n, twice_m, value):
        return [(0,), (1,)], [value(p, d), value(d - p, d)]

    monkeypatch.setattr(dicke.coefficients, "_walk", walk)
    (_, small), (_, large) = dicke_expansion(SPIN_ONE, 600, 0).terms
    assert small == float.fromhex("0x1.fffffffffffffp-512")
    assert large == 1.0

import hashlib
import tracemalloc

import pytest

from dicke import (
    ALL_SPECIES,
    SPIN_HALF,
    SPIN_ONE,
    SPIN_THREE_HALVES,
    SPIN_TWO,
    DomainError,
    SpinSpecies,
    basis_size,
    enumerate_basis,
    enumeration_bounds,
    mirror,
    parametric_basis,
    parametric_count,
)
from dicke.basis import lowering_depth_sizes


def test_spin1_n10_m5():
    assert set(enumerate_basis(SPIN_ONE, 10, 10)) == {(7, 1, 2), (6, 3, 1), (5, 5, 0)}


def test_highest_weight_is_the_only_solution():
    assert enumerate_basis(SPIN_ONE, 10, 20) == [(10, 0, 0)]


def test_spin_three_halves_n6_m0():
    expected = {
        (1, 3, 0, 2), (3, 0, 0, 3), (0, 4, 1, 1), (2, 0, 3, 1),
        (2, 1, 1, 2), (1, 1, 4, 0), (1, 2, 2, 1), (0, 3, 3, 0),
    }
    assert set(enumerate_basis(SPIN_THREE_HALVES, 6, 0)) == expected


def test_spin2_n5_m1_has_eleven_vectors():
    vectors = enumerate_basis(SPIN_TWO, 5, 2)
    assert len(vectors) == 11
    expected = {
        (0, 3, 1, 0, 1), (2, 1, 0, 0, 2), (1, 1, 2, 0, 1), (0, 1, 4, 0, 0),
        (1, 2, 0, 1, 1), (0, 2, 2, 1, 0), (0, 3, 0, 2, 0), (2, 0, 1, 1, 1),
        (1, 0, 3, 1, 0), (1, 1, 1, 2, 0), (2, 0, 0, 3, 0),
    }
    assert set(vectors) == expected


def test_conservation_laws_hold_exactly():
    for species in ALL_SPECIES:
        for n in range(1, 9):
            tj = species.twice_spin * n
            for tm in range(-tj, tj + 1, 2):
                for occ in enumerate_basis(species, n, tm):
                    assert sum(occ) == n
                    assert sum(
                        c * lv for c, lv in zip(occ, species.twice_levels)
                    ) == tm
                    assert min(occ) >= 0


def test_output_is_descending_lexicographic_and_deterministic():
    for species in (SPIN_ONE, SPIN_TWO):
        vectors = enumerate_basis(species, 8, 2)
        assert vectors == sorted(vectors, reverse=True)
        assert vectors == enumerate_basis(species, 8, 2)
        assert len(set(vectors)) == len(vectors)


def test_negative_m_is_the_mirror_image():
    for species in ALL_SPECIES:
        for n in (3, 6):
            tj = species.twice_spin * n
            for tm in range(tj, -1, -2):
                plus = set(enumerate_basis(species, n, tm))
                minus = set(enumerate_basis(species, n, -tm))
                assert minus == {mirror(v) for v in plus}


def test_out_of_range_magnetization_is_an_error():
    with pytest.raises(DomainError):
        enumerate_basis(SPIN_TWO, 5, 2 * 99)
    with pytest.raises(DomainError):
        enumerate_basis(SPIN_ONE, 10, 22)


def test_unreachable_parity_is_an_error():
    # half-integer M for an integer-spin ensemble
    with pytest.raises(DomainError):
        enumerate_basis(SPIN_ONE, 4, 3)
    # integer M for an odd number of spin-3/2 particles
    with pytest.raises(DomainError):
        enumerate_basis(SPIN_THREE_HALVES, 5, 4)


def test_degenerate_particle_count_is_an_error():
    with pytest.raises(DomainError):
        enumerate_basis(SPIN_ONE, 0, 0)


def test_mirror_examples():
    assert mirror((4, 1, 5)) == (5, 1, 4)
    assert mirror((3, 4, 3)) == (3, 4, 3)
    assert mirror((1, 0, 5, 0)) == (0, 5, 0, 1)
    assert mirror(mirror((2, 0, 3, 1))) == (2, 0, 3, 1)


# -- printed bound parametrization, kept as a cross-check ----------------------


def test_bounds_spin1_n10_m0():
    params = enumeration_bounds(SPIN_ONE, 10, 0)
    assert params.parity_min == 0
    assert params.k_max == 5
    assert parametric_count(SPIN_ONE, 10, 0) == 6


def test_bounds_spin_three_halves_n6_m0():
    # alpha = N/2 - |M| = 3, whose running sum makes k0 = 2
    params = enumeration_bounds(SPIN_THREE_HALVES, 6, 0)
    assert params.alpha == 3
    assert params.k0 == 2


def test_bounds_spin2_n5_m9():
    # alpha = N - |M| = -4 clips to zero, k0 = 0; 2N - |M| = 1 puts k_max = 0
    params = enumeration_bounds(SPIN_TWO, 5, 18)
    assert params.alpha == -4
    assert params.k0 == 0
    assert params.k_max == 0


def test_parametric_count_spin1_matches_direct_enumeration():
    for n in range(1, 13):
        for tm in range(-2 * n, 2 * n + 1, 2):
            assert parametric_count(SPIN_ONE, n, tm) == len(
                enumerate_basis(SPIN_ONE, n, tm)
            )
            params = enumeration_bounds(SPIN_ONE, n, tm)
            assert params.k_max - params.k0 + 1 == parametric_count(SPIN_ONE, n, tm)


def test_parametric_count_spin1_examples():
    assert parametric_count(SPIN_ONE, 10, 8) == 4
    assert parametric_count(SPIN_ONE, 7, 14) == 1


def test_spin_half_basis_is_always_a_single_vector():
    species = SpinSpecies(1)
    for n in range(1, 12):
        for tm in range(-n, n + 1, 2):
            assert len(enumerate_basis(species, n, tm)) == 1
            assert parametric_count(species, n, tm) == 1
            assert parametric_basis(species, n, tm) == enumerate_basis(
                species, n, tm
            )


def test_spin1_parametric_basis_matches_direct_enumeration():
    for n in range(1, 13):
        for tm in range(-2 * n, 2 * n + 1, 2):
            assert parametric_basis(SPIN_ONE, n, tm) == enumerate_basis(
                SPIN_ONE, n, tm
            )


def test_recorded_parametric_discrepancies():
    """The printed count formulas overcount some spin-3/2 and spin-2 bases.

    These frozen values document the disagreement between the two routes;
    the direct enumeration is authoritative (see VALIDATION.md).
    """
    assert len(enumerate_basis(SPIN_THREE_HALVES, 6, 0)) == 8
    assert parametric_count(SPIN_THREE_HALVES, 6, 0) == 14
    assert len(enumerate_basis(SPIN_TWO, 5, 0)) == 12
    assert parametric_count(SPIN_TWO, 5, 0) == 18
    assert len(enumerate_basis(SPIN_TWO, 5, 16)) == 2
    assert parametric_count(SPIN_TWO, 5, 16) == 4


#: sha256 over repr((2s, N, 2M, parametric_count, parametric_basis)) for
#: every species, N = 1..12 and every M (828 cases): the paper's printed
#: formulas, wrong parts included, not their agreement with enumerate_basis
PARAMETRIC_DIGEST = "d0d3be40fa553361df5de8402650e83e0d8ecee220467b094b644879d40b586b"
#: the same over N = 13..24
PARAMETRIC_DIGEST_13_24 = (
    "64f68b23c56c68533a291846098282ff59b5111028db5f1fb894c3b01aaf6df1"
)


def parametric_digest(particle_numbers):
    digest = hashlib.sha256()
    for species in ALL_SPECIES:
        for n in particle_numbers:
            tj = species.twice_spin * n
            for tm in range(-tj, tj + 1, 2):
                case = (
                    species.twice_spin, n, tm,
                    parametric_count(species, n, tm),
                    parametric_basis(species, n, tm),
                )
                digest.update(repr(case).encode())
    return digest.hexdigest()


def test_parametric_routes_are_pinned():
    assert parametric_digest(range(1, 13)) == PARAMETRIC_DIGEST


def test_parametric_routes_are_pinned_past_n_12():
    assert parametric_digest(range(13, 25)) == PARAMETRIC_DIGEST_13_24


def test_bound_parameters_are_well_formed_on_nonempty_bases():
    for species in ALL_SPECIES:
        for n in range(1, 11):
            tj = species.twice_spin * n
            for tm in range(-tj, tj + 1, 2):
                params = enumeration_bounds(species, n, tm)
                if species.twice_spin == 1:  # the unique spin-1/2 solution
                    assert (params.k0, params.k_max, params.alpha) == (0, 0, None)
                assert params.parity_min in (0, 1)
                assert params.k0 <= params.k_max
                assert params.sign == (-1 if tm < 0 else 1)


def test_parametric_basis_generates_only_valid_vectors():
    for species in (SPIN_THREE_HALVES, SPIN_TWO):
        for n in range(1, 8):
            tj = species.twice_spin * n
            for tm in range(-tj, tj + 1, 2):
                direct = set(enumerate_basis(species, n, tm))
                for occ in parametric_basis(species, n, tm):
                    assert sum(occ) == n
                    assert (
                        sum(c * lv for c, lv in zip(occ, species.twice_levels))
                        == tm
                    )
                    assert occ in direct


def test_basis_size_matches_the_enumeration():
    for species in ALL_SPECIES:
        for n in range(1, 25):
            twice_j = species.twice_spin * n
            for twice_m in range(-twice_j, twice_j + 1, 2):
                assert basis_size(species, n, twice_m) == len(
                    enumerate_basis(species, n, twice_m)
                )


def test_basis_size_of_bases_too_large_to_enumerate():
    assert basis_size(SPIN_TWO, 60, 0) == 6786
    assert basis_size(SPIN_ONE, 2400, 0) == 1201
    assert basis_size(SPIN_TWO, 200, 0) == 230673
    assert basis_size(SPIN_TWO, 400, 0) == 1811345
    mirrored = basis_size(SPIN_THREE_HALVES, 301, -7)
    assert mirrored == basis_size(SPIN_THREE_HALVES, 301, 7)
    with pytest.raises(DomainError):
        basis_size(SPIN_TWO, 400, 1601 * 2)


def test_capped_sizes_agree_with_the_exact_sizes():
    """With a cap, a size is either above it, as the exact size is, or
    exact."""
    for species in ALL_SPECIES:
        for n in (*range(1, 25), 61, 130):
            twice_j = species.twice_spin * n
            for twice_m in range(-twice_j, twice_j + 1, 2):
                size = basis_size(species, n, twice_m)
                chain = basis_size(species, n, twice_m, chain=True)
                for cap in {0, size - 1, size, chain - 1, chain, 100}:
                    for chained, exact in ((False, size), (True, chain)):
                        capped = basis_size(species, n, twice_m, chained, cap)
                        assert (capped > cap) == (exact > cap)
                        if exact <= cap:
                            assert capped == exact
    for chained in (False, True):
        with pytest.raises(DomainError):
            basis_size(SPIN_TWO, 400, 1601 * 2, chained, 10)


def test_chain_sizes_sum_the_bases_along_the_chain():
    for species in ALL_SPECIES:
        for n in (1, 2, 5, 9):
            twice_j = species.twice_spin * n
            for twice_m in range(-twice_j, twice_j + 1, 2):
                expected = sum(
                    len(enumerate_basis(species, n, tm))
                    for tm in range(twice_j, twice_m - 1, -2)
                )
                assert basis_size(species, n, twice_m, chain=True) == expected
    assert basis_size(SPIN_TWO, 60, 0, chain=True) == 321081
    assert basis_size(SPIN_ONE, 2400, 0, chain=True) == 1442401
    assert basis_size(SPIN_TWO, 400, 0, chain=True) == 547689423


def test_spin_half_and_spin_one_sizes_are_closed_forms():
    """N = 10^8 is sized without a table of its 10^8 depths."""
    n = 10**8
    tracemalloc.start()
    try:
        sizes = (
            basis_size(SPIN_ONE, n, 0),
            basis_size(SPIN_ONE, n, 2 * n - 6),
            basis_size(SPIN_HALF, n, 0),
            basis_size(SPIN_HALF, n, 0, chain=True),
            basis_size(SPIN_HALF, n, -n, chain=True),
            basis_size(SPIN_ONE, n, 0, chain=True),
            basis_size(SPIN_ONE, n, -2 * n, chain=True),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole spin-1 chain holds every vector once: C(N + 2, 2)
    full = (n + 2) * (n + 1) // 2
    assert sizes == (50_000_001, 2, 1, 50_000_001, n + 1, 2_500_000_100_000_001, full)
    assert peak < 2**20


def test_spin_one_chain_count_sums_the_depth_table():
    """The closed-form spin-1 chain count, on both sides of depth N and at
    odd and even N, against the summed Gaussian-binomial table."""
    for n in (*range(1, 40), 64, 101):
        for twice_m in range(-2 * n, 2 * n + 1, 2):
            depth = n - twice_m // 2
            table = sum(lowering_depth_sizes(SPIN_ONE, n, depth))
            assert basis_size(SPIN_ONE, n, twice_m, chain=True) == table


#: sha256 of every basis of every species, N <= 12 and every M, in order
ENUMERATION_DIGEST = "0e93fa55412b7f7092b05a1ba843d3ad52bf2c2fd001af2996c75cdf5eaf89dd"


def test_enumeration_is_pinned():
    digest = hashlib.sha256()
    for species in ALL_SPECIES:
        for n in range(1, 13):
            twice_j = species.twice_spin * n
            for twice_m in range(-twice_j, twice_j + 1, 2):
                for occ in enumerate_basis(species, n, twice_m):
                    digest.update(repr(occ).encode() + b"\n")
                digest.update(b"\n")
    assert digest.hexdigest() == ENUMERATION_DIGEST

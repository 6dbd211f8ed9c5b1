"""Property tests over random spins, N <= 30 and every valid magnetization,
half-integer and negative ones included: the basis walk, the packed-key
ladder walks held bit for bit to a tuple-key reference, and the spin-1
entanglement layer."""

import sys
from fractions import Fraction
from math import comb, isclose, sqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from dicke import (
    ALL_SPECIES,
    SPIN_ONE,
    SPIN_THREE_HALVES,
    SPIN_TWO,
    apply_lowering,
    apply_raising,
    coefficient_square,
    dicke_expansion,
    dicke_two_particle_rdm,
    enumerate_basis,
    mirror,
    negativity,
    negativity_sweep,
    oracle_expansion,
    partial_transpose,
)
from dicke.coefficients import _root, _walk, exact_coefficient_squares
from dicke.entanglement import (
    RHO_BASIS,
    TwoQuditDensity,
    sweep_shape_violations,
)
from dicke.ladder import (
    PRUNE_THRESHOLD,
    _lowering_steps,
    _moves,
    _step,
    _table_step,
    _tables,
)
from dicke.linalg import symmetric_eigenvalues


def _with_magnetization(species_and_n):
    species, n = species_and_n
    twice_j = species.twice_spin * n
    return st.tuples(
        st.just(species), st.just(n), st.sampled_from(range(-twice_j, twice_j + 1, 2))
    )


STATES = st.tuples(st.sampled_from(ALL_SPECIES), st.integers(1, 30)).flatmap(
    _with_magnetization
)
SMALL_STATES = st.tuples(st.sampled_from(ALL_SPECIES), st.integers(1, 12)).flatmap(
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
@given(STATES)
def test_walk_numerators_equal_the_per_vector_formula(state):
    species, n, twice_m = state
    basis, pairs = _walk(species, n, twice_m, lambda p, d: (p, d))
    twice_j = species.twice_spin * n
    denominator = comb(twice_j, (twice_j - abs(twice_m)) // 2)
    for occ, (p, d) in zip(basis, pairs):
        assert d == denominator
        assert Fraction(p, d) == coefficient_square(species, n, twice_m, occ)


def _assert_fast_root_agrees(p, d):
    ratio = p / d
    if ratio > sys.float_info.min:
        assert sqrt(ratio) == _root(p, d)


@given(st.integers(0, 2**5000), st.integers(1, 2**5000))
def test_root_of_the_rounded_quotient_is_the_scaled_root(a, b):
    """Above the smallest normal float, sqrt of the correctly rounded int /
    int quotient equals `_root`, the root of the scaled exact quotient."""
    _assert_fast_root_agrees(min(a, b), max(a, b))


@given(st.integers(1, 2**120), st.integers(-2, 2), st.integers(-(2**64), 2**64))
def test_scaled_root_agrees_near_the_smallest_normal(p, shift, jitter):
    """Ratios within a factor of about 5 of 2^-1022 on either side."""
    d = p << (1022 + shift)
    _assert_fast_root_agrees(p, d + ((d >> 2) * jitter >> 64))


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


# -- ladder walks: bit identity with the tuple-key walk -------------------------


def _tuple_walk(terms, species, lowering):
    """One J- (lowering) or J+ application over tuple keys."""
    twice_spin, levels = species.twice_spin, species.twice_levels
    step = 1 if lowering else -1
    moves = [
        (i, i + step, (twice_spin + m) // 2 * ((twice_spin - m) // 2 + 1))
        for i, m in enumerate(step * tm for tm in levels)
        if 0 <= i + step < len(levels)
    ]
    out = {}
    for occ, amp in terms.items():
        for src, dst, f2 in moves:
            if occ[src]:
                moved = list(occ)
                moved[src] -= 1
                moved[dst] += 1
                key = tuple(moved)
                factor = sqrt(f2 * occ[src] * (occ[dst] + 1))
                out[key] = out.get(key, 0.0) + amp * factor
    return out


def _tuple_chain(species, n, twice_m):
    """|J, M> by lowering tuple-keyed dicts from |J, J>, step by step."""
    terms = {(n,) + (0,) * species.twice_spin: 1.0}
    for step in _lowering_steps(species.twice_spin * n, twice_m):
        divisor = sqrt(step)
        lowered = _tuple_walk(terms, species, lowering=True)
        terms = {occ: amp / divisor for occ, amp in lowered.items()}
    norm = sqrt(sum(a * a for a in terms.values()))
    cleaned = sorted(
        (occ, amp / norm)
        for occ, amp in terms.items()
        if abs(amp / norm) > PRUNE_THRESHOLD
    )
    cleaned.reverse()
    return tuple(cleaned)


@settings(deadline=None)
@given(SMALL_STATES)
def test_oracle_chain_is_bit_identical_to_the_tuple_walk(state):
    assert oracle_expansion(*state).terms == _tuple_chain(*state)


@settings(deadline=None)
@given(SMALL_STATES)
def test_public_walks_keep_the_tuple_walk_values_and_order(state):
    species = state[0]
    x = dicke_expansion(*state)
    lowered = apply_lowering(x)
    for walked, lowering, source in (
        (lowered, True, x),
        (apply_raising(x), False, x),
        (apply_raising(lowered), False, lowered),
    ):
        expected = _tuple_walk(dict(source.terms), species, lowering)
        assert list(walked.terms.items()) == list(expected.items())


@st.composite
def _packed_states(draw):
    """A spin-3/2 or spin-2 state on random packed occupation vectors of
    mixed M, with random amplitudes, and a divisor for the step to apply."""
    species = draw(st.sampled_from((SPIN_THREE_HALVES, SPIN_TWO)))
    n = draw(st.integers(1, 40))
    width = n.bit_length()
    terms = {}
    for _ in range(draw(st.integers(1, 30))):
        cuts = sorted(
            draw(st.lists(st.integers(0, n), min_size=species.twice_spin,
                          max_size=species.twice_spin))
        )
        occ = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, n])]
        key = sum(c << width * i for i, c in enumerate(occ))
        terms[key] = draw(st.floats(-1e6, 1e6))
    return species, n, terms, draw(st.floats(1e-3, 1e6))


@settings(deadline=None)
@given(_packed_states())
def test_tabled_step_is_bit_identical_to_the_inline_step(state):
    species, n, terms, divisor = state
    width = n.bit_length()
    moves = _moves(species, width, lowering=True)
    inline = _step(terms, moves, (1 << width) - 1, divisor)
    tabled = _table_step(terms, _tables(moves, n, width), (1 << 2 * width) - 1, divisor)
    assert [(k, v.hex()) for k, v in tabled.items()] == [
        (k, v.hex()) for k, v in inline.items()
    ]


# -- spin-1 entanglement ----------------------------------------------------------


def _mixture(weighted_vectors):
    """Convex mixture of the normalized vectors with the given weights."""
    total = sum(w for w, _ in weighted_vectors)
    entries = [[0.0] * 9 for _ in range(9)]
    for w, raw in weighted_vectors:
        norm = sqrt(sum(a * a for a in raw))
        vec = [a / norm for a in raw]
        for i in range(9):
            for j in range(9):
                entries[i][j] += w / total * vec[i] * vec[j]
    return TwoQuditDensity(tuple(tuple(row) for row in entries))


VECTORS = st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).filter(
    lambda v: sum(a * a for a in v) > 0.01
)
DENSITIES = st.one_of(
    st.lists(st.tuples(st.floats(0.1, 1.0), VECTORS), min_size=1, max_size=3).map(
        _mixture
    ),
    st.integers(2, 40).flatmap(
        lambda n: st.sampled_from(range(-2 * n, 2 * n + 1, 2)).map(
            lambda tm: dicke_two_particle_rdm(dicke_expansion(SPIN_ONE, n, tm))
        )
    ),
)

#: RHO_BASIS index of each level pair after u <-> d on particle 2
_FLIP_SECOND = tuple(RHO_BASIS.index((a, -b)) for a, b in RHO_BASIS)


@settings(deadline=None)
@given(DENSITIES)
def test_partial_transpose_spectrum_sums_to_one(rho):
    rho.validate()
    assert abs(sum(symmetric_eigenvalues(partial_transpose(rho))) - 1.0) <= 1e-12


@settings(deadline=None)
@given(DENSITIES)
def test_negativity_is_unchanged_by_relabelling_one_particle(rho):
    m = rho.entries
    flipped = TwoQuditDensity(
        tuple(tuple(m[i][j] for j in _FLIP_SECOND) for i in _FLIP_SECOND)
    )
    flipped.validate()
    assert isclose(negativity(flipped).value, negativity(rho).value, abs_tol=1e-12)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 40))
def test_dicke_sweeps_never_increase_with_m(n):
    rows = negativity_sweep("dicke", n)
    values = [v for _, v in rows]
    assert [tm for tm, _ in rows] == list(range(0, 2 * n + 1, 2))
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert sweep_shape_violations(rows) == []

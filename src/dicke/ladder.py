"""Ladder-operator construction of Dicke states, independent of the
closed-form engine.

The highest-weight state puts all N particles in the top level; repeated
application of the collective lowering operator then walks down in M.  In
second quantization one application moves a single particle from level m
to level m-1 with amplitude factor

    sqrt((s + m)(s - m + 1)) * sqrt(n_m (n_{m-1} + 1)),

and contributions landing on the same occupation vector are merged before
anything is normalized.  Because every Dicke amplitude in this basis is the
positive square root of a rational, an exact mode tracks squared amplitudes
as big rationals and certifies the floating-point chain on small systems.

Every walk runs on packed keys: level i of an occupation vector holds bits
[i*w, (i+1)*w) of one integer, with w = N.bit_length(), so a move is one
integer addition and reading a count is a shift and a mask.  The kernel
`_step` takes the same sources in the same order, tries the same moves in
the same order and does the same float operations as a walk over tuples,
so every amplitude and the order of every dict are those of the tuple
walk.  Keys are unpacked to tuples only at the boundary: once at the end of
a chain, and around each call of the public `apply_lowering` /
`apply_raising`, which keep tuple keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt, sqrt
from typing import Iterator

from .basis import OccupationVector, check_domain, lowering_depth_sizes
from .coefficients import DickeExpansion
from .species import DomainError, SpinSpecies

PRUNE_THRESHOLD = 1e-14


@dataclass
class RawExpansion:
    """Unnormalized occupation-basis expansion (may hold zero amplitudes)."""

    species: SpinSpecies
    n_particles: int
    terms: dict[OccupationVector, float]


def highest_weight(species: SpinSpecies, n_particles: int) -> DickeExpansion:
    """|J, J>: all particles in the m = +s level, amplitude 1."""
    twice_j = species.twice_spin * n_particles
    check_domain(species, n_particles, twice_j)
    occ = (n_particles,) + (0,) * species.twice_spin
    return DickeExpansion(species, n_particles, twice_j, ((occ, 1.0),))


PackedMove = tuple[int, int, int, int]  # (f2, source shift, target shift, key delta)


@cache
def _moves(species: SpinSpecies, width: int, lowering: bool) -> tuple[PackedMove, ...]:
    """Every single-particle move of J- (lowering) or J+ on keys whose
    levels are `width` bits wide, in level order: the ladder factor^2,
    (s + m)(s - m + 1) for lowering out of level m and (s - m)(s + m + 1)
    for raising, the shifts of the source and target counts, and the
    change of the key."""
    twice_spin = species.twice_spin
    step = 1 if lowering else -1
    moves = []
    for i, twice_m in enumerate(species.twice_levels):
        if 0 <= i + step <= twice_spin:
            tm = step * twice_m  # raising out of m is lowering out of -m
            f2 = (twice_spin + tm) // 2 * ((twice_spin - tm) // 2 + 1)
            src, dst = width * i, width * (i + step)
            moves.append((f2, src, dst, (1 << dst) - (1 << src)))
    return tuple(moves)


def _step(
    terms: dict[int, float], moves: tuple[PackedMove, ...], mask: int
) -> dict[int, float]:
    """One collective J- or J+ application on packed keys; merges coincident
    vectors in the order a tuple walk would."""
    out: dict[int, float] = {}
    for key, amp in terms.items():
        for f2, src, dst, delta in moves:
            a = key >> src & mask
            if a:
                moved = key + delta
                factor = sqrt(f2 * a * ((key >> dst & mask) + 1))
                out[moved] = out.get(moved, 0.0) + amp * factor
    return out


def _unpack(key: int, width: int, n_levels: int) -> OccupationVector:
    mask = (1 << width) - 1
    return tuple(key >> width * i & mask for i in range(n_levels))


def _apply(x: DickeExpansion | RawExpansion, lowering: bool) -> RawExpansion:
    species, n = x.species, x.n_particles
    width = n.bit_length()
    packed: dict[int, float] = {}
    for occ, amp in x.terms.items() if isinstance(x.terms, dict) else x.terms:
        if len(occ) != species.n_levels or min(occ) < 0 or sum(occ) != n:
            raise DomainError(f"{occ} is not an occupation vector of {n} particles")
        packed[sum(c << width * i for i, c in enumerate(occ))] = amp
    out = _step(packed, _moves(species, width, lowering), (1 << width) - 1)
    return RawExpansion(
        species, n, {_unpack(k, width, species.n_levels): a for k, a in out.items()}
    )


def apply_lowering(x: DickeExpansion | RawExpansion) -> RawExpansion:
    """Collective J- in second quantization; merges coincident vectors."""
    return _apply(x, lowering=True)


def apply_raising(x: DickeExpansion | RawExpansion) -> RawExpansion:
    """Collective J+; mirror image of `apply_lowering`."""
    return _apply(x, lowering=False)


def _lowering_steps(twice_j: int, twice_m: int) -> Iterator[int]:
    """(J + M)(J - M + 1), exact in integers, for each step M -> M - 1 of
    the chain from M = J down to the target."""
    for tm in range(twice_j, twice_m, -2):
        yield ((twice_j + tm) // 2) * ((twice_j - tm) // 2 + 1)


def chain_vectors(species: SpinSpecies, n_particles: int, twice_m: int) -> int:
    """Occupation vectors held by the lowering chain from |J, J> down to
    |J, M>, summed over its steps: the work of `oracle_expansion`, sized
    without running it (every vector of each intermediate basis is hit)."""
    check_domain(species, n_particles, twice_m)
    depth = (species.twice_spin * n_particles - twice_m) // 2
    return sum(lowering_depth_sizes(species, n_particles, depth))


def oracle_expansion(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> DickeExpansion:
    """|J, M> generated by lowering from |J, J>, renormalized stepwise.

    Each step divides by sqrt((J + M)(J - M + 1)) for the step M -> M - 1;
    amplitudes below PRUNE_THRESHOLD are dropped at the end.
    """
    check_domain(species, n_particles, twice_m)
    twice_j = species.twice_spin * n_particles
    width = n_particles.bit_length()
    mask = (1 << width) - 1
    moves = _moves(species, width, lowering=True)
    terms = {n_particles: 1.0}  # |J, J>: every particle in level 0
    for step in _lowering_steps(twice_j, twice_m):
        terms = _step(terms, moves, mask)
        divisor = sqrt(step)
        for key, amp in terms.items():
            terms[key] = amp / divisor
    norm = sqrt(sum(a * a for a in terms.values()))
    cleaned = sorted(
        (_unpack(key, width, species.n_levels), amp / norm)
        for key, amp in terms.items()
        if abs(amp / norm) > PRUNE_THRESHOLD
    )
    cleaned.reverse()  # descending lexicographic, matching enumerate_basis
    return DickeExpansion(species, n_particles, twice_m, tuple(cleaned))


def total_spin_expectation(x: DickeExpansion) -> float:
    """<J^2> via J^2 = J- J+ + Jz^2 + Jz; expects a normalized fixed-M state.

    For a true |J = sN, M> this equals sN (sN + 1); a perturbed expansion
    gives a smaller value, which makes this a cheap integrity check.
    """
    raised = apply_raising(x)
    jm_jp = sum(a * a for a in raised.terms.values())
    m = x.twice_m / 2.0
    return jm_jp + m * m + m


# -- exact mode ---------------------------------------------------------------


def _exact_sqrt(q: Fraction) -> Fraction | None:
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _add_with_common_radical(q1: Fraction, q2: Fraction) -> Fraction:
    """Square of sqrt(q1) + sqrt(q2), valid when q1*q2 is a perfect square.

    Along a lowering chain all contributions to one occupation vector are
    rational multiples of the same square root, so the cross term is always
    rational; anything else is a hard error, not a rounding issue.
    """
    if q1 == 0:
        return q2
    if q2 == 0:
        return q1
    cross = _exact_sqrt(q1 * q2)
    if cross is None:
        raise ArithmeticError("amplitudes do not share a common radical")
    return q1 + q2 + 2 * cross


def oracle_squares_exact(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> dict[OccupationVector, Fraction]:
    """Squared |J, M> amplitudes from the lowering chain, as exact rationals.

    Certifies the closed-form engine without any floating point; intended
    for small N (cost grows with the chain length and basis size).
    """
    check_domain(species, n_particles, twice_m)
    width = n_particles.bit_length()
    mask = (1 << width) - 1
    moves = _moves(species, width, lowering=True)
    squares: dict[int, Fraction] = {n_particles: Fraction(1)}
    for step in _lowering_steps(species.twice_spin * n_particles, twice_m):
        nxt: dict[int, Fraction] = {}
        for key, q in squares.items():
            for f2, src, dst, delta in moves:
                a = key >> src & mask
                if a:
                    moved = key + delta
                    contrib = q * f2 * a * ((key >> dst & mask) + 1) / step
                    before = nxt.get(moved, Fraction(0))
                    nxt[moved] = _add_with_common_radical(before, contrib)
        squares = nxt
    return {_unpack(k, width, species.n_levels): q for k, q in squares.items()}

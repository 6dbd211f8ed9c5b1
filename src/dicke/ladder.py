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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt, sqrt
from typing import Iterator

from .basis import OccupationVector, check_domain
from .coefficients import DickeExpansion
from .species import SpinSpecies

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


def _ladder_factor_square(twice_spin: int, twice_m: int) -> int:
    """(s + m)(s - m + 1) as an integer, for lowering out of level m."""
    return ((twice_spin + twice_m) // 2) * ((twice_spin - twice_m) // 2 + 1)


@cache
def _moves(species: SpinSpecies, lowering: bool) -> tuple[tuple[int, int, int], ...]:
    """(source level, target level, ladder factor^2) of every single-particle
    move of J- (lowering) or J+, with levels indexed as in the occupation
    vector; raising out of level m carries (s - m)(s + m + 1)."""
    levels = species.twice_levels
    step = 1 if lowering else -1
    sources = range(len(levels) - 1) if lowering else range(1, len(levels))
    return tuple(
        (i, i + step, _ladder_factor_square(species.twice_spin, step * levels[i]))
        for i in sources
    )


def _apply(x: DickeExpansion | RawExpansion, lowering: bool) -> RawExpansion:
    moves = _moves(x.species, lowering)
    out: dict[OccupationVector, float] = {}
    for occ, amp in dict(x.terms).items():
        for src, dst, f2 in moves:
            if occ[src]:
                moved = list(occ)
                moved[src] -= 1
                moved[dst] += 1
                key = tuple(moved)
                factor = sqrt(f2 * occ[src] * (occ[dst] + 1))
                out[key] = out.get(key, 0.0) + amp * factor
    return RawExpansion(x.species, x.n_particles, out)


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


def oracle_expansion(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> DickeExpansion:
    """|J, M> generated by lowering from |J, J>, renormalized stepwise.

    Each step divides by sqrt((J + M)(J - M + 1)) for the step M -> M - 1;
    amplitudes below PRUNE_THRESHOLD are dropped at the end.
    """
    check_domain(species, n_particles, twice_m)
    twice_j = species.twice_spin * n_particles
    terms = dict(highest_weight(species, n_particles).terms)
    for step in _lowering_steps(twice_j, twice_m):
        lowered = apply_lowering(RawExpansion(species, n_particles, terms))
        divisor = sqrt(step)
        terms = {occ: amp / divisor for occ, amp in lowered.terms.items()}
    norm = sqrt(sum(a * a for a in terms.values()))
    cleaned = sorted(
        (occ, amp / norm)
        for occ, amp in terms.items()
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
    moves = _moves(species, lowering=True)
    occ0 = (n_particles,) + (0,) * species.twice_spin
    squares: dict[OccupationVector, Fraction] = {occ0: Fraction(1)}
    for step in _lowering_steps(species.twice_spin * n_particles, twice_m):
        nxt: dict[OccupationVector, Fraction] = {}
        for occ, q in squares.items():
            for src, dst, f2 in moves:
                if occ[src]:
                    moved = list(occ)
                    moved[src] -= 1
                    moved[dst] += 1
                    key = tuple(moved)
                    contrib = q * f2 * occ[src] * (occ[dst] + 1) / step
                    nxt[key] = _add_with_common_radical(nxt.get(key, Fraction(0)), contrib)
        squares = nxt
    return squares

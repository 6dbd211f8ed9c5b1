"""Closed-form superposition coefficients of maximal-spin Dicke states.

The squared amplitude attached to an occupation vector is

    C^2 = P / D,    P = N!/prod(n_m!) * prod_m w_m^{n_m},
                    D = binomial(2J, J - |M|):

the permutation multiplicity times per-level weights w_m = d_m^2, over the
square of the M-dependent normalization prefactor

    (J - |M|)! * prod_{l=1}^{J-|M|} 1 / sqrt((2J - l + 1) l)
        == 1 / sqrt(binomial(2J, J - |M|)).

The validated weight is d_m = sqrt(binomial(2s, s - m)); with it every
squared amplitude is an exact rational and each expansion normalizes to 1
identically (see VALIDATION.md).

`dicke_expansion` and `exact_coefficient_squares` walk the basis run by
run (`basis._runs`) and keep P as an exact integer: the product of
binomials and weights over the counts of a run's first vector, and along
the run, where only the last three counts move, one exact small-integer
step per vector.  Both raise ArithmeticError unless the P sum to D exactly.
`exact_coefficient_squares` returns P / D as exact rationals.  The two
floating-point steps of `dicke_expansion` are the square root of the
correctly rounded quotient P / D (of the scaled integer quotient, `_root`,
where that is not above the smallest normal float, so no amplitude that is
a normal float underflows) and one renormalization.  `coefficient_square`
evaluates the same formula per vector from factorials and is the
independent oracle for the walk.  The two rejected readings of the
weight are rebuilt only in the tests, which show them failing the
reference tables.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from math import comb, factorial, ldexp, sqrt
from operator import mul, truediv
from sys import float_info

from .basis import OccupationVector, _runs, enumerate_basis
from .species import DomainError, SpinSpecies, check_domain

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable
    from fractions import Fraction

#: bits of precision kept in the scaled quotient whose square root `_root` takes
_ROOT_BITS = 120


def level_weight(species: SpinSpecies, twice_m: int) -> float:
    """Per-particle weight d_m = sqrt(binomial(2s, s - m)) of level m."""
    ts = species.twice_spin
    if abs(twice_m) > ts or (ts - twice_m) % 2 != 0:
        raise DomainError(f"no level 2m={twice_m} for spin {species.name}")
    return sqrt(comb(ts, (ts - twice_m) // 2))


def _level_weight_squares(species: SpinSpecies) -> tuple[int, ...]:
    """Squared level weights w_m = binomial(2s, s - m), ordered like the
    occupation vector."""
    ts = species.twice_spin
    return tuple(comb(ts, (ts - tm) // 2) for tm in species.twice_levels)


def _root(numerator: int, denominator: int) -> float:
    """sqrt(numerator / denominator) without forming the square in floats.

    The quotient is scaled by an even power 2^s that leaves about
    _ROOT_BITS significant bits, and a nonzero remainder is kept as a
    sticky low bit, so the float conversion rounds exactly as the ratio
    itself would; the root then carries the scale 2^(s/2) back out.  For
    ratios that are normal floats the result equals sqrt(float(ratio)).
    """
    shift = max(0, denominator.bit_length() - numerator.bit_length() + _ROOT_BITS)
    shift += shift & 1
    quotient, remainder = divmod(numerator << shift, denominator)
    return ldexp(sqrt(quotient | (remainder != 0)), -shift // 2)


def coefficient_square(
    species: SpinSpecies, n_particles: int, twice_m: int, occ: OccupationVector
) -> Fraction:
    """Exact squared closed-form coefficient of one occupation vector."""
    from fractions import Fraction

    check_domain(species, n_particles, twice_m)
    if (
        len(occ) != species.n_levels
        or any(c < 0 for c in occ)
        or sum(occ) != n_particles
        or sum(c * tm for c, tm in zip(occ, species.twice_levels)) != twice_m
    ):
        raise DomainError(
            f"occupation vector {occ} not in the (N={n_particles}, "
            f"2M={twice_m}) basis for spin {species.name}"
        )
    numerator = factorial(n_particles)
    for count, w in zip(occ, _level_weight_squares(species)):
        numerator = numerator // factorial(count) * w**count
    twice_j = species.twice_spin * n_particles
    norm = comb(twice_j, (twice_j - abs(twice_m)) // 2)
    return Fraction(numerator, norm)


def closed_form_coefficient(
    species: SpinSpecies, n_particles: int, twice_m: int, occ: OccupationVector
) -> float:
    """Closed-form amplitude (positive square root of the exact square)."""
    square = coefficient_square(species, n_particles, twice_m, occ)
    return _root(square.numerator, square.denominator)


def _walk(
    species: SpinSpecies, n_particles: int, twice_m: int, value: Callable
) -> tuple[list[OccupationVector], list]:
    """The basis and value(P, D) for each vector, where C^2 = P / D (1 / 1
    for spin 1/2); raises ArithmeticError unless the P sum to D.  A run
    prefix + (x - k, y + 2k, z - k) starts at P = prod_m binomial(r_m, n_m)
    w_m^{n_m}, r_m being the particles on level m and below, and each step
    multiplies P by x z w_y^2 / ((y + 1)(y + 2) w_x w_z), exactly since
    every P is an integer.
    """
    check_domain(species, n_particles, twice_m)
    weights = _level_weight_squares(species)
    if len(weights) == 2:  # spin 1/2: one vector, whose P is binomial(N, n_+) = D
        # so P / D is passed as 1 / 1, without forming either binomial
        return enumerate_basis(species, n_particles, twice_m), [value(1, 1)]
    twice_j = species.twice_spin * n_particles
    d = comb(twice_j, (twice_j - abs(twice_m)) // 2)
    basis, values, total = [], [], 0
    *head, w_x, w_y, w_z = weights
    up, down = w_y * w_y, w_x * w_z
    for prefix, x, y, z, size in _runs(species.twice_levels, n_particles, twice_m):
        p, rem = 1, n_particles
        for count, w in zip(prefix, head):
            p *= comb(rem, count) * w**count
            rem -= count
        p *= comb(rem, x) * comb(rem - x, y) * w_x**x * w_y**y * w_z**z
        for k in range(size):
            if k:
                p = p * (x * z * up) // ((y + 1) * (y + 2) * down)
                x, y, z = x - 1, y + 2, z - 1
            basis.append(prefix + (x, y, z))
            total += p
            values.append(value(p, d))
    if total != d:
        raise ArithmeticError("the closed-form squares do not sum to 1")
    return basis, values


def _amplitude(p: int, d: int) -> float:
    """sqrt(P / D) as `dicke_expansion` describes it."""
    r = p / d
    return sqrt(r) if r > float_info.min else _root(p, d)


class DickeExpansion(
    namedtuple("DickeExpansion", "species n_particles twice_m terms")
):
    """A fixed-(N, M) symmetric state written in the occupation basis.

    `terms` pairs every basis occupation vector with a real positive
    amplitude; amplitudes are normalized so the squares sum to 1.
    """

    __slots__ = ()

    def as_dict(self) -> dict[OccupationVector, float]:
        return dict(self.terms)

    def amplitude(self, occ: OccupationVector) -> float:
        return self.as_dict().get(occ, 0.0)

    def norm_square(self) -> float:
        return sum(a * a for _, a in self.terms)


def dicke_expansion(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> DickeExpansion:
    """Full closed-form expansion of |J = sN, M> over its occupation basis.

    Each amplitude is sqrt of the correctly rounded P / D, or `_root` where
    that is not above the smallest normal float; then one renormalization.
    """
    basis, amps = _walk(species, n_particles, twice_m, _amplitude)
    norm = sqrt(sum(map(mul, amps, amps)))
    terms = tuple(zip(basis, map(truediv, amps, repeat(norm))))
    return DickeExpansion(species, n_particles, twice_m, terms)


def exact_coefficient_squares(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> dict[OccupationVector, Fraction]:
    """Squared amplitudes of the full expansion as exact rationals."""
    from fractions import Fraction

    return dict(zip(*_walk(species, n_particles, twice_m, Fraction)))

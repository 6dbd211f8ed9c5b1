"""Independent references for the benchmark's output checks.

Nothing here imports `dicke`: every quantity is recomputed from the
textbook formulas, so a defect in the package cannot hide in its own check.
Species are given by twice their spin (1, 2, 3, 4) and quantum numbers by
twice their value, as in the package.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

FLOAT_MIN = sys.float_info.min  # smallest normal float
LOG_FLOAT_MIN = math.log(FLOAT_MIN)
SQRT_FLOAT_MIN = math.sqrt(FLOAT_MIN)


def twice_levels(twice_spin: int) -> tuple[int, ...]:
    """Twice the level magnetizations, from +s down to -s."""
    return tuple(range(twice_spin, -twice_spin - 1, -2))


def occupation_basis(twice_spin: int, n: int, twice_m: int) -> set[tuple[int, ...]]:
    """Every occupation vector with n particles and magnetization twice_m.

    Loops over all but the last two levels and solves the two conservation
    laws for those; no pruning, so it is independent of the package's
    recursive enumeration.
    """
    levels = twice_levels(twice_spin)
    head, (l_a, l_b) = levels[:-2], levels[-2:]
    found = set()

    def fill(prefix: tuple[int, ...], rem: int, acc: int) -> None:
        if len(prefix) == len(head):
            # n_a + n_b = rem and l_a n_a + l_b n_b = twice_m - acc
            num = twice_m - acc - l_b * rem
            if num % (l_a - l_b) == 0:
                n_a = num // (l_a - l_b)
                if 0 <= n_a <= rem:
                    found.add(prefix + (n_a, rem - n_a))
            return
        level = head[len(prefix)]
        for count in range(rem + 1):
            fill(prefix + (count,), rem - count, acc + level * count)

    fill((), n, 0)
    return found


def log_coefficient_square(twice_spin: int, occ: tuple[int, ...], twice_m: int) -> float:
    """log of the squared Dicke amplitude N!/prod(n!) prod C(2s, s-m)^n / C(2J, J-|M|)."""
    n = sum(occ)
    twice_j = twice_spin * n
    k = (twice_j - abs(twice_m)) // 2
    value = math.lgamma(n + 1) - (
        math.lgamma(twice_j + 1) - math.lgamma(k + 1) - math.lgamma(twice_j - k + 1)
    )
    for count, level in zip(occ, twice_levels(twice_spin)):
        value -= math.lgamma(count + 1)
        value += count * math.log(math.comb(twice_spin, (twice_spin - level) // 2))
    return value


def amplitude(twice_spin: int, occ: tuple[int, ...], twice_m: int) -> float:
    """Dicke amplitude from lgamma; 0.0 below the normal float range."""
    half_log = 0.5 * log_coefficient_square(twice_spin, occ, twice_m)
    return math.exp(half_log) if half_log >= LOG_FLOAT_MIN else 0.0


def exact_coefficient_square(twice_spin: int, occ: tuple[int, ...], twice_m: int) -> Fraction:
    """The same squared amplitude as an exact rational."""
    n = sum(occ)
    multinomial, left = 1, n
    weight = 1
    for count, level in zip(occ, twice_levels(twice_spin)):
        multinomial *= math.comb(left, count)
        left -= count
        weight *= math.comb(twice_spin, (twice_spin - level) // 2) ** count
    twice_j = twice_spin * n
    return Fraction(multinomial * weight, math.comb(twice_j, (twice_j - abs(twice_m)) // 2))


def compare_amplitudes(
    twice_spin: int,
    twice_m: int,
    basis: set[tuple[int, ...]],
    got: dict[tuple[int, ...], float],
    rel_tol: float | None = None,
    abs_tol: float | None = None,
) -> tuple[int, int]:
    """(underflowed, wrong) amplitude counts of `got` against the lgamma reference.

    An amplitude underflowed when it misses the tolerance although the
    reference is a normal float whose square is not: the value was lost by
    squaring before the root (0.0, or a root of a subnormal square).  Any
    other miss, and any vector outside the basis, is wrong.
    """
    wrong = sum(1 for occ in got if occ not in basis)
    underflowed = 0
    for occ in basis:
        ref = amplitude(twice_spin, occ, twice_m)
        value = got.get(occ, 0.0)
        if ref == 0.0:
            ok = abs(value) < FLOAT_MIN
        elif rel_tol is not None:
            ok = abs(value - ref) <= rel_tol * ref
        else:
            ok = abs(value - ref) <= abs_tol
        if ok:
            continue
        if FLOAT_MIN <= ref < SQRT_FLOAT_MIN:
            underflowed += 1
        else:
            wrong += 1
    return underflowed, wrong


def antisym_count(twice_spin: int) -> int:
    """2^(2s+1) - (2s+2): one state per subset of at least two levels."""
    d = twice_spin + 1
    return 2**d - d - 1


def pure_state_negativity(c1: float, c2: float) -> float:
    """Negativity of [uu + c1 (ud + du)/sqrt2 + c2 00 + dd]/sqrt3.

    Its amplitude matrix splits into the 00 entry c2/sqrt3 and the {u, d}
    block [[1, c1/sqrt2], [c1/sqrt2, 1]]/sqrt3, whose singular values are
    |1 +- c1/sqrt2|/sqrt3; the negativity is sum_{i<j} s_i s_j over all three.
    """
    r3 = math.sqrt(3.0)
    s = (abs(1 + c1 / math.sqrt(2.0)) / r3, abs(1 - c1 / math.sqrt(2.0)) / r3, abs(c2) / r3)
    return s[0] * s[1] + s[0] * s[2] + s[1] * s[2]

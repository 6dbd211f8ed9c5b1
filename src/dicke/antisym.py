"""Collective antisymmetric states of a few identical spin-s particles.

No two particles may share a level in an antisymmetric state, so at most
2s + 1 particles fit and every state is built on a subset of distinct
levels.  Over each subset of size n there is exactly one elementary
antisymmetric state (the normalized signed sum over all n! orderings),
giving 2^(2s+1) - (2s + 2) states in total across subset sizes 2..2s+1.

States are kept fully expanded in first quantization; n <= 5 means at most
120 terms, which makes every property directly checkable.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, permutations
from math import factorial, sqrt

from .coefficients import DickeExpansion
from .species import DomainError, SpinSpecies

Assignment = tuple[int, ...]  # per-particle twice-m values

#: largest |amplitude| sum a transposition may leave in an antisymmetric state
ANTISYMMETRY_TOLERANCE = 1e-12


class FirstQuantizedState(namedtuple("FirstQuantizedState", "n_particles terms")):
    """A few-particle state as explicit (level assignment, amplitude) terms."""

    __slots__ = ()

    def as_dict(self) -> dict[Assignment, float]:
        return dict(self.terms)

    def norm_square(self) -> float:
        return sum(a * a for _, a in self.terms)


def antisym_count(species: SpinSpecies) -> int:
    """Number of elementary antisymmetric states: 2^(2s+1) - (2s + 2)."""
    return 2 ** (species.twice_spin + 1) - (species.twice_spin + 2)


def _permutation_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def elementary_antisym(
    species: SpinSpecies, twice_levels: tuple[int, ...] | list[int]
) -> FirstQuantizedState:
    """Normalized signed sum over all orderings of distinct levels.

    `twice_levels` must be strictly decreasing; the identity ordering
    carries sign +1, which pins the overall phase.
    """
    levels = tuple(twice_levels)
    n = len(levels)
    if not 2 <= n <= species.n_levels:
        raise DomainError(
            f"need between 2 and {species.n_levels} levels, got {n}"
        )
    if len(set(levels)) != n:
        raise DomainError(f"levels must be distinct, got {levels}")
    if any(levels[i] <= levels[i + 1] for i in range(n - 1)):
        raise DomainError(f"levels must be strictly decreasing, got {levels}")
    for tm in levels:
        if abs(tm) > species.twice_spin or (species.twice_spin - tm) % 2 != 0:
            raise DomainError(f"no level 2m={tm} for spin {species.name}")
    amp = 1.0 / sqrt(factorial(n))
    terms = []
    for perm in permutations(range(n)):
        assignment = tuple(levels[p] for p in perm)
        terms.append((assignment, _permutation_sign(perm) * amp))
    terms.sort(key=lambda t: t[0], reverse=True)
    return FirstQuantizedState(n, tuple(terms))


def enumerate_all_antisym(species: SpinSpecies) -> list[FirstQuantizedState]:
    """Every elementary antisymmetric state, over all level subsets of
    size 2..2s+1, smaller subsets first."""
    levels = species.twice_levels  # already descending
    states = []
    for size in range(2, species.n_levels + 1):
        for subset in combinations(levels, size):
            states.append(elementary_antisym(species, subset))
    return states


def is_antisymmetric(state: FirstQuantizedState) -> bool:
    """True iff every particle transposition negates the state.

    Scale-free: an unnormalized multiple of an antisymmetric state passes.
    """
    amps = state.as_dict()
    n = state.n_particles
    for i in range(n - 1):
        for j in range(i + 1, n):
            for assignment, amp in amps.items():
                swapped = list(assignment)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                if abs(amps.get(tuple(swapped), 0.0) + amp) > ANTISYMMETRY_TOLERANCE:
                    return False
    return True


def inner_product(a: FirstQuantizedState, b: FirstQuantizedState) -> float:
    if a.n_particles != b.n_particles:
        raise DomainError("states live on different particle numbers")
    bd = b.as_dict()
    return sum(amp * bd.get(assignment, 0.0) for assignment, amp in a.terms)


def _lower_first_quantized(
    species: SpinSpecies, amps: dict[Assignment, float]
) -> dict[Assignment, float]:
    """Collective J- acting on a first-quantized few-particle state."""
    ts = species.twice_spin
    out: dict[Assignment, float] = {}
    for assignment, amp in amps.items():
        for i, tm in enumerate(assignment):
            if tm == -ts:
                continue
            factor = sqrt(((ts + tm) // 2) * ((ts - tm) // 2 + 1))
            lowered = assignment[:i] + (tm - 2,) + assignment[i + 1 :]
            out[lowered] = out.get(lowered, 0.0) + amp * factor
    return out


def two_particle_multiplet_residuals(
    species: SpinSpecies,
) -> list[tuple[int, float]]:
    """Check that the whole J = 2s - 1 two-particle multiplet lies in the
    span of the elementary pair states.

    The top state |J = 2s-1, M = 2s-1> is the (s, s-1) pair state; the rest
    of the multiplet is generated by lowering.  Returns (2M, residual norm
    after projection) for every member, top to bottom.  The elementary pair
    states are orthonormal, so plain overlap sums project exactly.
    """
    pairs = [
        elementary_antisym(species, subset)
        for subset in combinations(species.twice_levels, 2)
    ]
    twice_j = 2 * species.twice_spin - 2  # J = 2s - 1
    top = elementary_antisym(
        species, (species.twice_spin, species.twice_spin - 2)
    )
    amps = top.as_dict()
    results = []
    tm = twice_j
    while True:
        # subtract the projection componentwise; summing squared overlaps
        # instead would lose the residual to cancellation
        remainder = dict(amps)
        for pair in pairs:
            overlap = sum(
                amp * amps.get(assignment, 0.0) for assignment, amp in pair.terms
            )
            for assignment, amp in pair.terms:
                remainder[assignment] = (
                    remainder.get(assignment, 0.0) - overlap * amp
                )
        results.append((tm, sqrt(sum(a * a for a in remainder.values()))))
        if tm == -twice_j:
            break
        lowered = _lower_first_quantized(species, amps)
        step = sqrt(((twice_j + tm) // 2) * ((twice_j - tm) // 2 + 1))
        amps = {k: v / step for k, v in lowered.items()}
        tm -= 2
    return results


def symmetric_two_particle_state(expansion: DickeExpansion) -> FirstQuantizedState:
    """Expand a two-particle occupation-basis state into first quantization.

    Handy negative control for `is_antisymmetric` and the bridge between
    N = 2 Dicke expansions and explicit two-qudit vectors.
    """
    if expansion.n_particles != 2:
        raise DomainError("only two-particle expansions can be expanded here")
    levels = expansion.species.twice_levels
    terms: dict[Assignment, float] = {}
    for occ, amp in expansion.terms:
        occupied = [tm for tm, count in zip(levels, occ) for _ in range(count)]
        a, b = occupied
        if a == b:
            terms[(a, b)] = terms.get((a, b), 0.0) + amp
        else:
            for pair in ((a, b), (b, a)):
                terms[pair] = terms.get(pair, 0.0) + amp / sqrt(2.0)
    ordered = sorted(terms.items(), key=lambda t: t[0], reverse=True)
    return FirstQuantizedState(2, tuple(ordered))

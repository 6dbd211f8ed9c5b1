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

from .species import DomainError, SpinSpecies

TYPE_CHECKING = False
if TYPE_CHECKING:  # `antisym` runs without the basis and coefficient layers
    from collections.abc import Iterator

    from .coefficients import DickeExpansion

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
    # the levels decrease, so the orderings of their indices, which come in
    # lexicographic order, give the assignments in descending order
    for perm in permutations(range(n)):
        inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1 :])
        terms.append((tuple(levels[p] for p in perm), (-1) ** inversions * amp))
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


def _multiplet(species: SpinSpecies) -> Iterator[tuple[int, FirstQuantizedState]]:
    """The two-particle multiplet J = 2s - 1 as (2M, member), top to
    bottom: the (s, s-1) pair state, then each member lowered from the one
    above by the collective J-."""
    ts = species.twice_spin
    twice_j = 2 * ts - 2
    state = elementary_antisym(species, (ts, ts - 2))
    for tm in range(twice_j, -twice_j, -2):  # J- annihilates M = -J
        yield tm, state
        lowered: dict[Assignment, float] = {}
        for assignment, amp in state.terms:
            for i, level in enumerate(assignment):
                if level > -ts:
                    factor = sqrt(((ts + level) // 2) * ((ts - level) // 2 + 1))
                    key = assignment[:i] + (level - 2,) + assignment[i + 1 :]
                    lowered[key] = lowered.get(key, 0.0) + amp * factor
        step = sqrt(((twice_j + tm) // 2) * ((twice_j - tm) // 2 + 1))
        state = FirstQuantizedState(2, tuple((k, v / step) for k, v in lowered.items()))
    yield -twice_j, state


def two_particle_multiplet_residuals(
    species: SpinSpecies,
) -> list[tuple[int, float]]:
    """Check that the whole J = 2s - 1 two-particle multiplet lies in the
    span of the elementary pair states.

    Returns (2M, residual norm after projection) for every member of
    `_multiplet`, top to bottom.  The elementary pair states are
    orthonormal, so plain overlap sums project exactly.
    """
    pairs = [
        elementary_antisym(species, subset)
        for subset in combinations(species.twice_levels, 2)
    ]
    results = []
    for tm, member in _multiplet(species):
        # subtract the projection componentwise; summing squared overlaps
        # instead would lose the residual to cancellation
        remainder = member.as_dict()
        for pair in pairs:
            overlap = inner_product(pair, member)
            for assignment, amp in pair.terms:
                remainder[assignment] = remainder.get(assignment, 0.0) - overlap * amp
        results.append((tm, sqrt(sum(a * a for a in remainder.values()))))
    return results


def _first_quantized(expansion: DickeExpansion) -> dict[Assignment, float]:
    """An occupation-basis state in first quantization: each vector's
    amplitude over sqrt(its number of orderings) on every distinct ordering
    of its levels."""
    levels = expansion.species.twice_levels
    amplitudes: dict[Assignment, float] = {}
    for occ, amp in expansion.terms:
        letters = [tm for tm, count in zip(levels, occ) for _ in range(count)]
        orderings = set(permutations(letters))  # no other vector has these
        amplitudes.update(dict.fromkeys(orderings, amp / sqrt(len(orderings))))
    return amplitudes


def symmetric_two_particle_state(expansion: DickeExpansion) -> FirstQuantizedState:
    """Expand a two-particle occupation-basis state into first quantization.

    Handy negative control for `is_antisymmetric` and the bridge between
    N = 2 Dicke expansions and explicit two-qudit vectors.
    """
    if expansion.n_particles != 2:
        raise DomainError("only two-particle expansions can be expanded here")
    return FirstQuantizedState(
        2, tuple(sorted(_first_quantized(expansion).items(), reverse=True))
    )

"""Occupation-number bases of the maximal-spin subspace.

A permutation-symmetric state of N spin-s particles with total magnetization
M is supported on occupation vectors (n_{+s}, ..., n_{-s}) obeying the two
conservation laws

    sum_m n_m = N          and          sum_m m * n_m = M.

`enumerate_basis` solves this Diophantine system directly and is the
authoritative enumeration; `basis_size` counts its vectors, or those of
a whole lowering chain, without building them.  Its recursion, `_runs`, yields runs of vectors in which
only the last three counts move; the closed-form walk reads them too.
`enumeration_bounds`, `parametric_count` and `parametric_basis` transcribe
an alternative bound/index parametrization of the same bases; it is
retained verbatim as a cross-check because it does not reproduce the direct
enumeration everywhere (the `basis` CLI reports both counts side by side
and flags disagreements; see VALIDATION.md).
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul

from .species import DomainError, SpinSpecies, check_domain  # re-exported

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

OccupationVector = tuple[int, ...]
Run = tuple[tuple[int, ...], int, int, int, int]


def _runs(
    levels: tuple[int, ...], rem: int, need: int, i: int = 0, prefix: tuple = ()
) -> Iterator[Run]:
    """The vectors that start with `prefix`, the counts of levels[:i], with
    `rem` particles and twice-magnetization `need` left, as runs in order:
    (prefix, x, y, z, length) stands for prefix + (x - k, y + 2k, z - k),
    k < length.  The caller checks the domain; there are 3 or more levels."""
    # A count c on level i leaves rem - c particles whose reachable
    # twice-magnetization is [(rem - c)*lo, (rem - c)*levels[i+1]].  Adjacent
    # levels differ by 2 and check_domain fixed the parity, so every c in the
    # resulting [cmin, cmax] completes to at least one vector, and on the
    # last two levels the count is determined.
    lo, level, hi = levels[-1], levels[i], levels[i + 1]
    cmax = min(rem, (need - rem * lo) // (level - lo))
    cmin = max(0, -((rem * hi - need) // 2))
    if i == len(levels) - 3:
        # One run: level i is 4 above lo, so each particle taken off it puts
        # (level - lo)/2 = 2 on the first of the last pair, and the last
        # three counts step by (-1, +2, -1) from (cmax, y, z).
        y = (need - rem * lo) // 2 - 2 * cmax
        yield prefix, cmax, y, rem - cmax - y, cmax - cmin + 1
        return
    for c in range(cmax, cmin - 1, -1):
        yield from _runs(levels, rem - c, need - level * c, i + 1, prefix + (c,))


def enumerate_basis(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> list[OccupationVector]:
    """All occupation vectors with the given totals, in descending
    lexicographic order.

    Raises DomainError when |M| > s*N or the parity of M is unreachable.
    """
    check_domain(species, n_particles, twice_m)
    if species.n_levels == 2:  # spin 1/2: a single vector
        count = (twice_m + n_particles) // 2
        return [(count, n_particles - count)]
    return [
        prefix + (x - k, y + 2 * k, z - k)
        for prefix, x, y, z, length in _runs(species.twice_levels, n_particles, twice_m)
        for k in range(length)
    ]


def lowering_depth_sizes(
    species: SpinSpecies, n_particles: int, depth: int
) -> list[int]:
    """Basis sizes at M = J - k for k = 0 .. depth.

    Lowering by k moves k quanta down the 2s + 1 levels, so the vectors at
    M = J - k are the partitions of k into at most 2s parts of at most N
    each: the q^k coefficient of the Gaussian binomial [N + 2s choose 2s]_q,
    built here as prod_i (1 - q^(N+i)) / (1 - q^i) truncated at q^depth.
    """
    sizes = [1] + [0] * depth
    for i in range(1, species.twice_spin + 1):
        for k in range(depth, n_particles + i - 1, -1):  # times 1 - q^(N+i)
            sizes[k] -= sizes[k - n_particles - i]
        for k in range(i, depth + 1):  # over 1 - q^i
            sizes[k] += sizes[k - i]
    return sizes


def basis_size(
    species: SpinSpecies,
    n_particles: int,
    twice_m: int,
    chain: bool = False,
    cap: int | None = None,
) -> int:
    """len(enumerate_basis(species, n_particles, twice_m)) without
    enumerating, or with `chain` the vectors of the bases at M' = J, J - 1,
    ..., M together, which the lowering chain to M holds.

    Spin 1/2 has one vector at each depth k = J - M' and spin 1 has
    floor(k/2) + 1 at k <= N.  Otherwise the sizes are built to the full
    depth, or with a `cap` to depths 64, 128, ... until the size or the
    chain sum passes it: a result above `cap` says only that, one at or
    below it is exact.  The last size is the largest so far, as the sizes
    rise with the depth up to J (the coefficients of a Gaussian binomial
    are unimodal), and the basis at -M mirrors the one at M.
    """
    check_domain(species, n_particles, twice_m)
    lowest = twice_m if chain else abs(twice_m)
    depth = (species.twice_spin * n_particles - lowest) // 2
    if species.twice_spin == 1:
        return depth + 1 if chain else 1
    if species.twice_spin == 2 and not chain:
        return depth // 2 + 1
    reach = 64 if cap is not None else depth
    while True:
        sizes = lowering_depth_sizes(species, n_particles, min(reach, depth))
        size = sum(sizes) if chain else sizes[-1]
        if reach >= depth or size > cap:
            return size
        reach *= 2


def mirror(occ: OccupationVector) -> OccupationVector:
    """Exchange every level with its opposite (m -> -m): reverse the counts."""
    return tuple(reversed(occ))


class EnumerationParams(
    namedtuple(
        "EnumerationParams",
        "species n_particles twice_m parity_min k0 k_max sign alpha gamma beta mk",
    )
):
    """Bound parameters of the closed-form basis parametrization.

    Not every field applies to every spin: `mk`, `gamma` and `beta` exist
    for spin 3/2 and spin 2 only; the index k1 runs over 1..m_k and, for
    spin 2, k2 over 0..m_k - k1 (`parametric_basis`).  `sign` is the
    factor multiplying gamma in the level-difference constraint (+1 for
    M >= 0, -1 for M < 0; the M = 0 exponent is indeterminate and pinned
    to +1 so both signs of the difference arise as gamma changes sign).
    `alpha` is None and the three dicts are empty for spin 1/2 and spin 1.
    """

    __slots__ = ()


def enumeration_bounds(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> EnumerationParams:
    """Evaluate the printed bound formulas exactly as stated.

    No consistency with `enumerate_basis` is claimed; compare the two
    through `parametric_count` / the CLI.
    """
    check_domain(species, n_particles, twice_m)
    ts = species.twice_spin
    twice_j = ts * n_particles
    j_minus_m = (twice_j - abs(twice_m)) // 2
    # parity selector: 1 when J - |M| is odd, else 0
    parity_min = ((-1) ** (j_minus_m + 1) + 1) // 2
    sign = -1 if twice_m < 0 else 1

    if ts in (1, 2):
        # spin-1/2 has a unique solution; spin-1 uses n_0 = parity_min + 2k.
        k_max = 0 if ts == 1 else (j_minus_m - parity_min) // 2
        return EnumerationParams(
            species, n_particles, twice_m, parity_min, 0, k_max, sign, None, {}, {}, {}
        )

    if ts == 3:
        alpha = (n_particles - abs(twice_m)) // 2  # N/2 - |M|
        p = max(alpha, 0)  # (alpha + |alpha|)/2
        k0 = (p + (1 - (-1) ** p) // 2) // 2  # == ceil(p / 2)
        k_max = (j_minus_m - parity_min) // 2
        gamma, beta, mk = {}, {}, {}
        for k in range(k0, k_max + 1):
            g = j_minus_m - 3 * k
            b = k - p
            x = min(b, 0) + k + 1  # (beta - |beta|)/2 + k + 1
            m_k = (x + abs(x)) // 2 + max(g, 0)
            gamma[k], beta[k], mk[k] = g, b, m_k
        return EnumerationParams(
            species, n_particles, twice_m, parity_min, k0, k_max, sign,
            alpha, gamma, beta, mk,
        )

    # spin 2
    alpha = n_particles - abs(twice_m) // 2  # N - |M|
    q = max(alpha, 0)
    k0 = 2 * (q // 3) + q % 3
    r = 2 * n_particles - abs(twice_m) // 2  # 2N - |M|
    k_max = (2 * r) // 3
    gamma, beta, mk = {}, {}, {}
    for k in range(k0, k_max + 1):
        g = j_minus_m - 2 * k
        b = k - q
        v = (2 * k + 3 + (-1) ** k) // 4
        x = max(b, 0) + v  # (beta + |beta|)/2 + (2k + 3 + (-1)^k)/4
        m_k = (x + abs(x)) // 2 + min(g, 0)
        gamma[k], beta[k], mk[k] = g, b, m_k
    return EnumerationParams(
        species, n_particles, twice_m, parity_min, k0, k_max, sign,
        alpha, gamma, beta, mk,
    )


def parametric_count(species: SpinSpecies, n_particles: int, twice_m: int) -> int:
    """Basis size claimed by the closed-form count formulas.

    k_max + 1 for spin 1, sum of m_k for spin 3/2, sum of
    m_k (m_k + 1) / 2 for spin 2, and 1 for the unique spin-1/2 solution.
    The value is reported verbatim even where it disagrees with
    len(enumerate_basis); the CLI flags such disagreements.
    """
    params = enumeration_bounds(species, n_particles, twice_m)
    ts = species.twice_spin
    if ts == 1:
        return 1
    if ts == 2:
        return params.k_max - params.k0 + 1
    if ts == 3:
        return sum(params.mk.values())
    return sum(m * (m + 1) // 2 for m in params.mk.values())


def _printed_inner_counts(params: EnumerationParams) -> Iterator[tuple[int, ...]]:
    """The inner counts n_2 .. n_2s that the printed k/k1/k2 indices give,
    one tuple per index combination."""
    ts = params.species.twice_spin
    if ts == 1:  # spin 1/2 has no inner level
        yield ()
    elif ts == 2:
        for k in range(params.k0, params.k_max + 1):
            yield (params.parity_min + 2 * k,)  # n_0 = parity_min + 2k
    elif ts == 3:
        for k in range(params.k0, params.k_max + 1):
            g = params.gamma[k]
            diff23 = params.sign * g
            for k1 in range(1, params.mk[k] + 1):
                sum23 = abs(g) - 2 * (k1 - 1)
                yield (sum23 + diff23) // 2, (sum23 - diff23) // 2
    else:
        for k in range(params.k0, params.k_max + 1):
            g = params.gamma[k]
            diff24 = params.sign * g
            n3_base = (1 - (-1) ** k) // 2  # +1 on odd k
            for k1 in range(1, params.mk[k] + 1):
                sum24 = g + 2 * (k1 - 1)  # printed with gamma, not |gamma|
                n2, n4 = (sum24 + diff24) // 2, (sum24 - diff24) // 2
                for k2 in range(params.mk[k] - k1 + 1):
                    yield n2, 2 * (k2 + 1) + n3_base - 2, n4


def parametric_basis(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> list[OccupationVector]:
    """Occupation vectors generated by the k/k1/k2 parametrization.

    Each index combination fixes the inner counts and the conservation laws
    the outer two; combinations that solve to a negative count are dropped
    and duplicates collapsed, so the result is a set of realizable vectors
    in canonical order.  It may differ from `enumerate_basis`.
    """
    params = enumeration_bounds(species, n_particles, twice_m)
    ts, inner_levels = species.twice_spin, species.twice_levels[1:-1]
    found: set[OccupationVector] = set()
    for inner in _printed_inner_counts(params):
        # n_1 + n_2s+1 = N - sum(inner) and 2s (n_1 - n_2s+1) = 2M - sum(inner * 2m),
        # which every printed index combination solves in integers (VALIDATION.md)
        rest = n_particles - sum(inner)
        diff = (twice_m - sum(map(mul, inner, inner_levels))) // ts
        first = (rest + diff) // 2
        occ = (first, *inner, rest - first)
        if min(occ) >= 0:
            found.add(occ)
    return sorted(found, reverse=True)

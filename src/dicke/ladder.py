"""Ladder-operator construction of Dicke states, independent of the
closed-form engine.

The highest-weight state puts all N particles in the top level; repeated
application of the collective lowering operator then walks down in M.  In
second quantization one application moves a single particle from level m
to level m-1 with amplitude factor

    sqrt((s + m)(s - m + 1)) * sqrt(n_m (n_{m-1} + 1)),

and contributions landing on the same occupation vector are merged before
anything is normalized.

Every walk runs on packed keys: level i of an occupation vector holds bits
[i*w, (i+1)*w) of one integer, with w = N.bit_length(), so a move is one
integer addition and reading a count is a shift and a mask.  The kernel
`_step` takes the same sources in the same order, tries the same moves in
the same order and does the same float operations as a walk over tuples,
so every amplitude and the order of every dict are those of the tuple
walk.  Keys are unpacked to tuples only at the boundary: once at the end of
a chain, and around each call of the public `apply_lowering` /
`apply_raising`, which keep tuple keys.

A long chain walks with `_table_step`, which reads each factor from a
flat table indexed by the packed pair (n_i, n_{i+1}) instead of computing
it: the same sqrt of the same integer, so the values and dict order do not
change.  The tables of a chain hold 2s * N(N+1)/2 factors; the chain
decides before its first step, from `basis_size`, and builds them when its
steps will read more vectors than that, so building never costs more than
the walk.  Spin-1/2 and spin-1 chains never build them: with at most three
levels a level pair fixes the vector, so no factor is read twice.

One walk serves every M on its way: `_chain` yields the raw state at each
M it passes and `_finish` divides, normalizes, prunes and sorts one of
them.  `oracle_expansion` finishes the last state; the table replay walks
once per (species, N) to the lowest M its rows name and finishes each M
it needs, with the same bits as a separate chain to that M.

The exact mode walks integers: in the monomial basis with level-i
variables rescaled by prod_{k<i} sqrt(f2_k), J- is the derivation
sum_i z_{i+1} d/dz_i, and the squared amplitudes follow from the integer
coefficients with no square root taken.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import accumulate
from math import factorial, sqrt
from operator import lshift, mul

from .basis import OccupationVector, basis_size
from .coefficients import DickeExpansion
from .species import DomainError, SpinSpecies, check_domain

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator
    from fractions import Fraction

PRUNE_THRESHOLD = 1e-14


class RawExpansion(namedtuple("RawExpansion", "species n_particles terms")):
    """Unnormalized occupation-basis expansion (may hold zero amplitudes);
    `terms` is a dict from occupation vector to amplitude."""

    __slots__ = ()


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
    terms: dict[int, float],
    moves: tuple[PackedMove, ...],
    mask: int,
    divisor: float = 1.0,
) -> dict[int, float]:
    """One collective J- or J+ application on packed keys to the state
    `terms` / `divisor`; merges coincident vectors in the order a tuple
    walk would."""
    out: dict[int, float] = {}
    for key, raw in terms.items():
        amp = raw / divisor
        for f2, src, dst, delta in moves:
            a = key >> src & mask
            if a:
                moved = key + delta
                factor = sqrt(f2 * a * ((key >> dst & mask) + 1))
                out[moved] = out.get(moved, 0.0) + amp * factor
    return out


TabledMove = tuple[list[float], int, int]  # (factor table, source shift, key delta)


def _tables(
    moves: tuple[PackedMove, ...], n_particles: int, width: int
) -> tuple[TabledMove, ...]:
    """Each move's ladder factor at the index n_src | n_dst << width of a
    flat table: sqrt(f2 * a * (b + 1)) for a >= 1 particles in the source
    level and b in the target, a + b <= N, and 0.0 elsewhere."""
    n = n_particles
    tabled = []
    for f2, src, _, delta in moves:
        table = [0.0] * ((n + 1) << width)
        for a in range(1, n + 1):
            row = f2 * a
            table[a : a + ((n - a + 1) << width) : 1 << width] = map(
                sqrt, range(row, row * (n - a + 1) + 1, row)
            )
        tabled.append((table, src, delta))
    return tuple(tabled)


def _table_step(
    terms: dict[int, float],
    tabled: tuple[TabledMove, ...],
    pair_mask: int,
    divisor: float,
) -> dict[int, float]:
    """`_step` with every factor read from `_tables`: the same floats, the
    same merge order."""
    out: dict[int, float] = {}
    for key, raw in terms.items():
        amp = raw / divisor
        for table, src, delta in tabled:
            factor = table[key >> src & pair_mask]
            if factor:
                moved = key + delta
                out[moved] = out.get(moved, 0.0) + amp * factor
    return out


def _unpack(key: int, width: int, n_levels: int) -> OccupationVector:
    mask = (1 << width) - 1
    return tuple(key >> width * i & mask for i in range(n_levels))


def _packed_step(x: DickeExpansion | RawExpansion, lowering: bool) -> dict[int, float]:
    """J- or J+ applied to `x` on packed keys, after checking that every
    key is an occupation vector of x's N particles."""
    species, n = x.species, x.n_particles
    width = n.bit_length()
    shifts = range(0, width * species.n_levels, width)
    packed: dict[int, float] = {}
    for occ, amp in x.terms.items() if isinstance(x.terms, dict) else x.terms:
        if len(occ) != species.n_levels or min(occ) < 0 or sum(occ) != n:
            raise DomainError(f"{occ} is not an occupation vector of {n} particles")
        packed[sum(map(lshift, occ, shifts))] = amp
    return _step(packed, _moves(species, width, lowering), (1 << width) - 1)


def _apply(x: DickeExpansion | RawExpansion, lowering: bool) -> RawExpansion:
    species, n = x.species, x.n_particles
    width = n.bit_length()
    out = _packed_step(x, lowering)
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


def _chain(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> Iterator[tuple[int, dict[int, float], float]]:
    """The lowering chain from |J, J> down to |J, M>: yields (2M', raw,
    divisor) at every M' = J, J - 1, ..., M on the way, with the state at
    M' equal to raw / divisor on packed keys, unnormalized and unpruned.

    Each step divides by sqrt((J + M')(J - M' + 1)) for the step
    M' -> M' - 1 as the next step reads its input, so the state at M' does
    not depend on how far the chain goes on.
    """
    twice_j = species.twice_spin * n_particles
    width = n_particles.bit_length()
    mask = (1 << width) - 1
    moves = _moves(species, width, lowering=True)
    table_size = len(moves) * n_particles * (n_particles + 1) // 2
    tabled = None
    # the steps read the states at M' = J, J - 1, ..., M + 1
    if twice_m < twice_j and table_size < basis_size(
        species, n_particles, twice_m + 2, chain=True, cap=table_size
    ):
        tabled = _tables(moves, n_particles, width)
    terms, divisor = {n_particles: 1.0}, 1.0  # |J, J>: every particle in level 0
    tm = twice_j
    yield tm, terms, divisor
    for step in _lowering_steps(twice_j, twice_m):
        if tabled is None:
            terms = _step(terms, moves, mask, divisor)
        else:
            terms = _table_step(terms, tabled, (1 << 2 * width) - 1, divisor)
        divisor = sqrt(step)
        tm -= 2
        yield tm, terms, divisor


def _finish(
    species: SpinSpecies,
    n_particles: int,
    twice_m: int,
    raw: dict[int, float],
    divisor: float,
) -> DickeExpansion:
    """|J, M> from one state of `_chain`: divided, normalized, with the
    amplitudes below PRUNE_THRESHOLD dropped, in descending lexicographic
    order as `enumerate_basis` gives it."""
    width = n_particles.bit_length()
    terms = {key: value / divisor for key, value in raw.items()}
    norm = sqrt(sum(a * a for a in terms.values()))
    cleaned = sorted(
        (_unpack(key, width, species.n_levels), amp / norm)
        for key, amp in terms.items()
        if abs(amp / norm) > PRUNE_THRESHOLD
    )
    cleaned.reverse()
    return DickeExpansion(species, n_particles, twice_m, tuple(cleaned))


def oracle_expansion(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> DickeExpansion:
    """|J, M> generated by lowering from |J, J>, renormalized stepwise: the
    last state of `_chain`, finished."""
    check_domain(species, n_particles, twice_m)
    for _, raw, divisor in _chain(species, n_particles, twice_m):
        pass
    return _finish(species, n_particles, twice_m, raw, divisor)


def total_spin_expectation(x: DickeExpansion) -> float:
    """<J^2> via J^2 = J- J+ + Jz^2 + Jz; expects a normalized fixed-M state.

    For a true |J = sN, M> this equals sN (sN + 1); a perturbed expansion
    gives a smaller value, which makes this a cheap integrity check.
    """
    jm_jp = sum(a * a for a in _packed_step(x, lowering=False).values())
    m = x.twice_m / 2.0
    return jm_jp + m * m + m


# -- exact mode ---------------------------------------------------------------


def oracle_squares_exact(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> dict[OccupationVector, Fraction]:
    """Squared |J, M> amplitudes from the lowering chain, as exact rationals.

    With z_i the level-i variable scaled by prod_{k<i} sqrt(f2_k), J- acts
    on the monomials z^v as sum_i z_{i+1} d/dz_i, so the chain has integer
    coefficients phi(v) (a move out of level i multiplies by n_i), and
    psi(v)^2 is proportional to phi(v)^2 prod_i F_i^{n_i} n_i! with
    F_i = prod_{k<i} f2_k.  Certifies the closed-form engine without any
    floating point.
    """
    from fractions import Fraction

    check_domain(species, n_particles, twice_m)
    width = n_particles.bit_length()
    mask = (1 << width) - 1
    moves = _moves(species, width, lowering=True)
    phi = {n_particles: 1}
    for _ in range((species.twice_spin * n_particles - twice_m) // 2):
        nxt: dict[int, int] = {}
        for key, c in phi.items():
            for _, src, _, delta in moves:
                a = key >> src & mask
                if a:
                    moved = key + delta
                    nxt[moved] = nxt.get(moved, 0) + a * c
        phi = nxt
    level_weights = tuple(accumulate((f2 for f2, *_ in moves), mul, initial=1))
    squares = {}
    for key, c in phi.items():
        occ = _unpack(key, width, species.n_levels)
        square = c * c
        for weight, count in zip(level_weights, occ):
            square *= weight**count * factorial(count)
        squares[occ] = square
    total = sum(squares.values())
    return {occ: Fraction(square, total) for occ, square in squares.items()}

"""Two-qudit negativity and pair reductions of symmetric many-particle
states, on the d^2 level pairs (m1, m2) of two d-level particles sorted by
(|m1 + m2|, -(m1 + m2), -m1) (`pair_basis`); for spin 1 (`RHO_BASIS`):

    ud, 00, du, u0, 0u, 0d, d0, uu, dd        (u, 0, d: the m = +1, 0, -1 levels)

Negativity is always one eigensolve of the full partial transpose (which
`symmetric_eigenvalues` splits along its exact zeros); at spin 1 the
iteration-free closed form `dicke_pair_negativity` checks it for Dicke
states.  The pair reduction of an expansion of any species is the
correlator `two_body_elements`; a Dicke state's is also an exact Majorana
mixture of two-particle J = 2s states (`dicke_pair_reduction`, O(1) in N,
every species).  The brute-force partial trace is the oracle for both.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cache
from itertools import combinations_with_replacement, product, repeat
from math import acos, comb, cos, isqrt, perm, sqrt
from operator import add, mul

from .linalg import Matrix, symmetric_eigenvalues
from .species import SPIN_ONE, DomainError, SpinSpecies, check_domain

TYPE_CHECKING = False
if TYPE_CHECKING:  # the pure-state path imports no family machinery
    from collections.abc import Iterator
    from fractions import Fraction

    from .coefficients import DickeExpansion

LevelPair = tuple[int, int]  # (twice-m of particle 1, twice-m of particle 2)


@cache
def pair_basis(species: SpinSpecies) -> tuple[LevelPair, ...]:
    """The level pairs of two particles of `species`, in density-matrix
    order: sorted by |m1 + m2|, then by m1 + m2 and m1, both descending."""
    pairs = product(species.twice_levels, repeat=2)
    return tuple(sorted(pairs, key=lambda p: (abs(sum(p)), -sum(p), -p[0])))


#: density-matrix basis order of spin-1 pairs
RHO_BASIS = pair_basis(SPIN_ONE)

StateVector = tuple[float, ...]  # d^2 real amplitudes in pair_basis order

#: largest allowed |trace - 1| of a density matrix
TRACE_TOLERANCE = 1e-12
#: most negative eigenvalue a density matrix may have
PSD_TOLERANCE = 1e-10


@cache
def _pair_species(size: int) -> SpinSpecies:
    """The species whose pairs span `size` = d^2 dimensions (d = 2s + 1)."""
    d = isqrt(size)
    if d * d != size or not 2 <= d <= 5:
        raise DomainError(f"{size} is not d^2 for a pair of d = 2..5 levels")
    return SpinSpecies(d - 1)


class TwoQuditDensity(namedtuple("TwoQuditDensity", "entries")):
    """Real symmetric trace-1 matrix on the pair basis of two d-level
    particles (side d^2); its `entries` are an immutable tuple of rows."""

    __slots__ = ()

    def validate(self) -> None:
        """Shape, trace and PSD checks; `symmetric_eigenvalues` checks the
        rest."""
        m = self.entries
        _pair_species(len(m))
        if any(len(row) != len(m) for row in m):
            raise DomainError("a two-qudit density matrix must be square")
        trace = sum(m[i][i] for i in range(len(m)))
        if not abs(trace - 1.0) <= TRACE_TOLERANCE:
            raise DomainError(f"trace is {trace!r}, not 1")
        try:
            smallest = min(symmetric_eigenvalues(m))
        except ValueError as exc:
            raise DomainError(f"density {exc}") from None
        if smallest < -PSD_TOLERANCE:
            raise DomainError("density matrix is not positive semidefinite")


class NegativityReport(namedtuple("NegativityReport", "value negative_eigenvalues")):
    """Sum of |negative eigenvalues| of the partial transpose (`value`),
    with the eigenvalues themselves."""

    __slots__ = ()


def _as_density(entries: Matrix) -> TwoQuditDensity:
    rho = TwoQuditDensity(tuple(tuple(row) for row in entries))
    rho.validate()
    return rho


def density_of(state: StateVector) -> TwoQuditDensity:
    """Projector onto a normalized pure two-qudit state."""
    _pair_species(len(state))
    norm_sq = sum(a * a for a in state)
    if not abs(norm_sq - 1.0) <= 1e-10:
        raise DomainError(f"state vector norm^2 is {norm_sq!r}, not 1")
    return _as_density([[a * b for b in state] for a in state])


def named_two_qutrit_state(name: str, params: tuple[float, ...] = ()) -> StateVector:
    """Pure two-qutrit benchmark states addressed by short names.

    bg        (uu + 00 + dd)/sqrt(3), the maximally entangled pair
    psi1      [uu + c1 (ud + du)/sqrt(2) + c2 00 + dd]/sqrt(3),
              params (c1, c2) with c1^2 + c2^2 = 1
    psie      psi1 at c1 = sqrt(1/3), c2 = sqrt(2/3)
    psi2      (ud + du)/2 + 00/sqrt(2)
    bsplus    (ud + du + 00)/sqrt(3)
    bsminus   (ud + du - 00)/sqrt(3)
    """
    if params and name != "psi1":
        raise DomainError(f"only psi1 takes parameters, not {name!r}")
    root3 = sqrt(3.0)
    if name == "bg":
        amps = {(2, 2): 1.0 / root3, (0, 0): 1.0 / root3, (-2, -2): 1.0 / root3}
    elif name in ("psi1", "psie"):
        if name == "psie":
            params = (sqrt(1.0 / 3.0), sqrt(2.0 / 3.0))
        if len(params) != 2:
            raise DomainError("psi1 needs parameters c1,c2")
        c1, c2 = params
        if not abs(c1 * c1 + c2 * c2 - 1.0) <= 1e-10:
            raise DomainError(f"c1^2 + c2^2 = {c1 * c1 + c2 * c2!r}, not 1")
        ud = c1 / (root3 * sqrt(2.0))
        amps = {
            (2, 2): 1.0 / root3, (-2, -2): 1.0 / root3,
            (2, -2): ud, (-2, 2): ud, (0, 0): c2 / root3,
        }
    elif name == "psi2":
        amps = {(2, -2): 0.5, (-2, 2): 0.5, (0, 0): 1.0 / sqrt(2.0)}
    elif name in ("bsplus", "bsminus"):
        s = 1.0 if name == "bsplus" else -1.0
        amps = {(2, -2): 1.0 / root3, (-2, 2): 1.0 / root3, (0, 0): s / root3}
    else:
        raise DomainError(f"unknown state name {name!r}")
    return tuple(amps.get(pair, 0.0) for pair in RHO_BASIS)


@cache
def _pt_source(species: SpinSpecies) -> tuple[tuple[tuple[int, int], ...], ...]:
    """partial_transpose(rho)[r][c] == rho[i][j] for (i, j) = _pt_source[r][c]."""
    basis = pair_basis(species)
    index = {pair: i for i, pair in enumerate(basis)}
    return tuple(tuple((index[a, d], index[c, b]) for c, d in basis) for a, b in basis)


def partial_transpose(rho: TwoQuditDensity) -> Matrix:
    """Transpose on the second factor: <ab|rho^T2|cd> = <ad|rho|cb>.

    Input and output are both indexed in `pair_basis` order.
    """
    m = rho.entries
    return [[m[i][j] for i, j in row] for row in _pt_source(_pair_species(len(m)))]


def negativity(rho: TwoQuditDensity) -> NegativityReport:
    """Sum of absolute values of negative partial-transpose eigenvalues,
    from the full d^2 x d^2 diagonalization."""
    eigenvalues = symmetric_eigenvalues(partial_transpose(rho))
    negatives = tuple(e for e in eigenvalues if e < 0.0)
    return NegativityReport(-sum(negatives), negatives)


def has_pair_reduction_block_structure(
    rho: TwoQuditDensity, tol: float = 1e-12
) -> bool:
    """True when rho conserves m1 + m2, as the pair reduction of any
    fixed-M symmetric state does: every entry between level pairs of
    different total m vanishes to within `tol`."""
    m = rho.entries
    total = [a + b for a, b in pair_basis(_pair_species(len(m)))]
    return all(
        abs(m[i][j]) <= tol
        for i, ti in enumerate(total)
        for j, tj in enumerate(total)
        if ti != tj
    )


def schmidt_negativity(state: StateVector) -> float:
    """Pure-state oracle: negativity = sum_{i<j} s_i s_j over Schmidt
    coefficients, read off the singular values of the d x d amplitude
    matrix.

    Independent of the partial-transpose code path.
    """
    species = _pair_species(len(state))
    basis, levels = pair_basis(species), species.twice_levels
    # column b of the amplitude matrix <ab|state>
    columns = [[state[basis.index((a, b))] for a in levels] for b in levels]
    gram = [[sum(map(mul, u, v)) for v in columns] for u in columns]
    singular = [sqrt(max(e, 0.0)) for e in symmetric_eigenvalues(gram)]
    total = sum(singular)
    return (total * total - sum(s * s for s in singular)) / 2.0


# -- pair reductions of many-particle symmetric states ------------------------


@cache
def _correlator_plan(species: SpinSpecies) -> tuple:
    """One entry per two unordered level pairs {i, j}, {k, l} of equal total
    m, as sorted level indices (i lowerings from m = s): both pairs, the
    occupation shift e_i + e_j - e_k - e_l, and the pair-basis cells (ab, cd)
    and (cd, ab) with {a, b} = {i, j} and {c, d} = {k, l}."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for position, pair in enumerate(pair_basis(species)):
        ij = tuple(sorted((species.twice_spin - tm) // 2 for tm in pair))
        classes.setdefault(ij, []).append(position)
    plan = []
    for (ij, rows), (kl, cols) in combinations_with_replacement(classes.items(), 2):
        if sum(ij) == sum(kl):
            shift = tuple(ij.count(v) - kl.count(v) for v in range(species.n_levels))
            cells = {(r, c) for r in rows for c in cols}
            plan.append((ij, kl, shift, tuple(cells | {(c, r) for r, c in cells})))
    return tuple(plan)


def two_body_elements(x: DickeExpansion) -> Matrix:
    """Pair reduction of a fixed-M symmetric state, in `pair_basis` order:
    <ab|rho|cd> = <a+_a a+_b a_d a_c> / N(N-1) over the occupation
    expansion (a+ creates a particle in a level, a removes one).

    The entry depends only on the unordered pairs {a, b} and {c, d}, and
    vanishes unless they have equal total m.  A population ({a, b} =
    {c, d}) is E[n_a (n_b - [a = b])]; a coherence is one pass over the
    terms, each paired with the vector that has one particle moved from
    each of c, d to each of a, b.  Trace closure is checked downstream.
    """
    n = x.n_particles
    if n < 2:
        raise DomainError("pair reduction needs at least two particles")
    den = float(n * (n - 1))
    occs, amps = zip(*x.terms)
    squares = list(map(mul, amps, amps))
    counts = list(zip(*occs))
    position = dict(zip(occs, range(len(occs))))

    def pair_counts(i: int, j: int) -> Iterator[int]:
        """n_i (n_j - [i = j]) of every term."""
        if i == j:
            return map(mul, counts[i], map(add, counts[i], repeat(-1)))
        return map(mul, counts[i], counts[j])

    size = len(counts) ** 2
    rho = [[0.0] * size for _ in range(size)]
    for ij, kl, shift, cells in _correlator_plan(x.species):
        if ij == kl:
            value = sum(map(mul, squares, pair_counts(*ij)))
        else:
            added = list(pair_counts(*ij))
            moved = zip(*[map(add, col, repeat(s)) for col, s in zip(counts, shift)])
            value = 0.0
            for a, removed, u in zip(amps, pair_counts(*kl), map(position.get, moved)):
                if u is not None:
                    value += a * amps[u] * sqrt(removed * added[u])
        value /= den
        for r, c in cells:
            rho[r][c] = value
    return rho


def dicke_two_particle_rdm(x: DickeExpansion) -> TwoQuditDensity:
    """Two-particle reduced density matrix of a fixed-M symmetric state of
    any species, from `two_body_elements` in `pair_basis` order."""
    return _as_density(two_body_elements(x))


def _pair_weights(species: SpinSpecies, n_particles: int, twice_m: int) -> tuple:
    """The integer numerators of the weights p_0..p_4s of
    `dicke_pair_weights`, and their common denominator [2sN]_{4s}."""
    check_domain(species, n_particles, twice_m)
    if n_particles < 2:
        raise DomainError("pair reduction needs at least two particles")
    q, w = species.twice_spin * n_particles, 2 * species.twice_spin
    k = (q - twice_m) // 2
    numerators = (comb(w, j) * perm(k, j) * perm(q - k, w - j) for j in range(w + 1))
    return tuple(numerators), perm(q, w)


def dicke_pair_weights(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> tuple[Fraction, ...]:
    """Exact weights p_0..p_4s of the pair marginal of |J = sN, M>: the
    hypergeometric chance C(4s, j) [k]_j [2sN - k]_{4s-j} / [2sN]_{4s} that j
    of the k = sN - M excitations of its Majorana picture, a qubit Dicke
    state of 2sN qubits (Stockton et al., PRA 67, 022112, 2003), fall on the
    4s qubits of two particles.  Falling factorials [x]_j, unlike C(2sN, k),
    do not grow with N."""
    from fractions import Fraction

    numerators, denominator = _pair_weights(species, n_particles, twice_m)
    return tuple(Fraction(a, denominator) for a in numerators)


def dicke_pair_reduction(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> TwoQuditDensity:
    """Two-particle reduced density matrix of the Dicke state |J = sN, M>,
    exact and at a cost independent of N: sum_j p_j |D_j><D_j|
    (`dicke_pair_weights`), where D_j, the J = 2s pair state with j
    lowerings, is sqrt(w_a w_b / C(4s, j)) on ab, w = C(2s, lowerings).
    Entry (ab, cd) is p_j sqrt(W) / C(4s, j), W = w_a w_b w_c w_d: one exact
    rational rounded once where W is a square (always at spins 1/2 and 1),
    else the root of one.  Tested against `dicke_two_particle_rdm` and
    `brute_force_rdm`."""
    numerators, denominator = _pair_weights(species, n_particles, twice_m)
    ts, size = species.twice_spin, len(pair_basis(species))
    rho = [[0.0] * size for _ in range(size)]
    for (i, j), (k, l), _, cells in _correlator_plan(species):
        square = comb(ts, i) * comb(ts, j) * comb(ts, k) * comb(ts, l)
        root, scale = isqrt(square), denominator * comb(2 * ts, i + j)
        if root * root == square:
            value = numerators[i + j] * root / scale
        else:
            from .coefficients import _root

            value = _root(numerators[i + j] ** 2 * square, scale * scale)
        for r, c in cells:
            rho[r][c] = value
    return _as_density(rho)


def _smaller_root(s: float, c: float) -> float:
    """Smaller root of x^2 - s x + c for c <= 0 (so the root is <= 0), with
    no cancellation."""
    root = sqrt(s * s - 4.0 * c)
    return 2.0 * c / (s + root) if s > 0.0 else (s - root) / 2.0


def dicke_pair_negativity(n_particles: int, twice_m: int) -> float:
    """Pair negativity of the spin-1 Dicke state |J = N, M> in closed form,
    with no iteration: the second route to
    `negativity(dicke_pair_reduction(SPIN_ONE, n_particles, twice_m)).value`.

    With the weights p_j of `dicke_pair_weights`, the partial transpose
    splits into T1 = [[p0, p1/2, p2/6], [p1/2, 2p2/3, p3/2],
    [p2/6, p3/2, p4]] on (uu, 00, dd), two copies of
    [[p1/2, p2/3], [p2/3, p3/2]] and two scalars p2/6.  Exactly,
    9 p1 p3 - 4 p2^2 = 18 q (q - 1) det T1 <= 0 (q = 2N), so the only
    eigenvalues that can be negative are the smaller 2x2 root and the
    smaller root of the quadratic left once T1's largest, isolated root is
    taken from the trigonometric cubic formula (Smith, CACM 4(4):168,
    1961); both are <= 0.  Taking all three T1 roots from that
    formula would lose about N eps to the two small ones, which nearly
    coincide at large N; the quadratic's coefficients come from the exact
    invariants of T1 by Vieta, so the result keeps its relative precision.
    """
    p0, p1, p2, p3, p4 = dicke_pair_weights(SPIN_ONE, n_particles, twice_m)
    pair = _smaller_root(float((p1 + p3) / 2), float(p1 * p3 / 4 - p2 * p2 / 9))
    a, b, c, d, e, f = p0, p1 / 2, p2 / 6, 2 * p2 / 3, p3 / 2, p4
    trace = a + d + f
    minors = a * d - b * b + a * f - c * c + d * f - e * e
    det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    # roots trace/3 + 2 r cos(phi + 2 pi j/3); r > 0, since T1 is never a
    # multiple of the identity
    r = sqrt((trace * trace - 3 * minors) / 9)
    cos_3phi = float(trace**3 / 27 - trace * minors / 6 + det / 2) / r**3
    # rounding can push cos 3phi past 1 where the two small roots coincide
    top = float(trace / 3) + 2.0 * r * cos(acos(min(cos_3phi, 1.0)) / 3.0)
    # the small roots' product is det / top and their sum (minors - det / top)
    # / top, which, unlike trace - top, does not cancel
    product = float(det) / top
    t1 = _smaller_root((float(minors) - product) / top, product)
    return 0.0 - t1 - 2.0 * pair


def brute_force_rdm(x: DickeExpansion) -> TwoQuditDensity:
    """Oracle pair reduction: expand the symmetric state into the full
    d^N tensor space and trace out all but two particles.

    Exponential in N; limited to N <= 6.  Shares no code with
    `two_body_elements`.
    """
    n = x.n_particles
    if n > 6:
        raise DomainError(f"brute-force reduction is limited to N <= 6, got {n}")
    if n < 2:
        raise DomainError("pair reduction needs at least two particles")
    from .antisym import _first_quantized

    index = {pair: i for i, pair in enumerate(pair_basis(x.species))}
    rho = [[0.0] * len(index) for _ in index]
    groups: dict[tuple[int, ...], dict[LevelPair, float]] = {}
    for arrangement, amp in _first_quantized(x).items():
        groups.setdefault(arrangement[2:], {})[arrangement[:2]] = amp
    for vec in groups.values():
        for pair_i, ai in vec.items():
            for pair_j, aj in vec.items():
                rho[index[pair_i]][index[pair_j]] += ai * aj
    return _as_density(rho)


def equal_probability_expansion(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> DickeExpansion:
    """Uniform-amplitude superposition over the whole fixed-M occupation
    basis; at spin 1, the comparison family for the Dicke states."""
    from .basis import enumerate_basis
    from .coefficients import DickeExpansion

    basis = enumerate_basis(species, n_particles, twice_m)
    amp = 1.0 / sqrt(len(basis))
    return DickeExpansion(
        species, n_particles, twice_m, tuple((occ, amp) for occ in basis)
    )


SWEEP_FAMILIES = ("dicke", "equal")


def family_pair_reduction(
    family: str, n_particles: int, twice_m: int
) -> TwoQuditDensity:
    """Pair reduction of the spin-1 member of a sweep family at (N, M): the
    exact mixture for "dicke", the correlator of the expansion for "equal"."""
    if family == "dicke":
        return dicke_pair_reduction(SPIN_ONE, n_particles, twice_m)
    if family == "equal":
        x = equal_probability_expansion(SPIN_ONE, n_particles, twice_m)
        return dicke_two_particle_rdm(x)
    raise DomainError(f"unknown state family {family!r}")


def negativity_sweep(family: str, n_particles: int) -> list[tuple[int, float]]:
    """Pair negativity of a spin-1 state family at M = 0 .. J, as
    (2M, negativity) rows in ascending M order."""
    if n_particles < 2:
        raise DomainError("pair reduction needs at least two particles")
    return [
        (tm, negativity(family_pair_reduction(family, n_particles, tm)).value)
        for tm in range(0, 2 * n_particles + 1, 2)
    ]


def sweep_shape_violations(rows: list[tuple[int, float]]) -> list[str]:
    """Shape checks for a single-family sweep over M >= 0: the negativity
    must peak at M = 0 and never increase with |M|."""
    ordered = sorted(rows)
    problems = []
    values = [v for _, v in ordered]
    if values and max(values) > values[0] + 1e-12:
        problems.append("negativity is not maximal at M=0")
    for (tm_a, v_a), (tm_b, v_b) in zip(ordered, ordered[1:]):
        if v_b > v_a + 1e-12:
            problems.append(
                f"negativity increases from 2M={tm_a} to 2M={tm_b}"
            )
    return problems


def random_pure_state(rng: random.Random) -> StateVector:
    """Normalized real 9-component state, for randomized property tests."""
    raw = [rng.gauss(0.0, 1.0) for _ in range(9)]
    norm = sqrt(sum(a * a for a in raw))
    return tuple(a / norm for a in raw)

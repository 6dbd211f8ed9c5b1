"""Two-qudit negativity for spin-1 pairs and pair reductions of symmetric
many-particle states.

The 9-dimensional product basis is pinned, in this order, to

    ud, 00, du, u0, 0u, 0d, d0, uu, dd        (u, 0, d: the m = +1, 0, -1 levels)

Negativity is always evaluated with one eigensolve of the full 9x9 partial
transpose (which `symmetric_eigenvalues` splits along its exact zeros); for
Dicke pair reductions the iteration-free closed form
(`dicke_pair_negativity`) is a second route that is validated against it,
never trusted alone.  Dicke pair reductions are exact mixtures of the
five two-particle J = 2 states (`dicke_pair_reduction`, O(1) in N); the
occupation moments of an expansion (`two_body_elements`, which the
equal-probability family uses) and the brute-force partial trace are the
routes they are tested against.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import permutations
from math import acos, comb, cos, factorial, perm, sqrt

from .linalg import Matrix, symmetric_eigenvalues
from .species import SPIN_ONE, DomainError, SpinSpecies, check_domain

TYPE_CHECKING = False
if TYPE_CHECKING:  # the pure-state path imports no family machinery
    from fractions import Fraction

    from .coefficients import DickeExpansion

LevelPair = tuple[int, int]  # (twice-m of particle 1, twice-m of particle 2)

#: density-matrix basis order
RHO_BASIS: tuple[LevelPair, ...] = (
    (2, -2), (0, 0), (-2, 2),
    (2, 0), (0, 2), (0, -2), (-2, 0),
    (2, 2), (-2, -2),
)

_INDEX = {pair: i for i, pair in enumerate(RHO_BASIS)}

#: partial_transpose(rho)[r][c] == rho[i][j] for (i, j) = _PT_SOURCE[r][c]
_PT_SOURCE: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple((_INDEX[(a, d)], _INDEX[(c, b)]) for c, d in RHO_BASIS)
    for a, b in RHO_BASIS
)

StateVector = tuple[float, ...]  # 9 real amplitudes in RHO_BASIS order

#: largest allowed |trace - 1| of a density matrix
TRACE_TOLERANCE = 1e-12
#: most negative eigenvalue a density matrix may have
PSD_TOLERANCE = 1e-10


class TwoQuditDensity(namedtuple("TwoQuditDensity", "entries")):
    """Real symmetric trace-1 matrix on the pinned two-qutrit basis; its
    `entries` are an immutable tuple of rows."""

    __slots__ = ()

    def matrix(self) -> Matrix:
        return [list(row) for row in self.entries]

    def validate(self) -> None:
        """Shape, trace and PSD checks; `symmetric_eigenvalues` checks the
        rest."""
        m = self.matrix()
        if len(m) != 9 or any(len(row) != 9 for row in m):
            raise DomainError("a two-qutrit density matrix must be 9x9")
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
    """Projector onto a normalized pure two-qutrit state."""
    if len(state) != 9:
        raise DomainError(f"a two-qutrit state has 9 components, not {len(state)}")
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
    vec = [0.0] * 9

    def put(pair: LevelPair, amp: float) -> None:
        vec[_INDEX[pair]] = amp

    if name == "bg":
        for pair in ((2, 2), (0, 0), (-2, -2)):
            put(pair, 1.0 / sqrt(3.0))
    elif name in ("psi1", "psie"):
        if name == "psie":
            params = (sqrt(1.0 / 3.0), sqrt(2.0 / 3.0))
        if len(params) != 2:
            raise DomainError("psi1 needs parameters c1,c2")
        c1, c2 = params
        if not abs(c1 * c1 + c2 * c2 - 1.0) <= 1e-10:
            raise DomainError(f"c1^2 + c2^2 = {c1 * c1 + c2 * c2!r}, not 1")
        root3 = sqrt(3.0)
        put((2, 2), 1.0 / root3)
        put((-2, -2), 1.0 / root3)
        put((2, -2), c1 / (root3 * sqrt(2.0)))
        put((-2, 2), c1 / (root3 * sqrt(2.0)))
        put((0, 0), c2 / root3)
    elif name == "psi2":
        put((2, -2), 0.5)
        put((-2, 2), 0.5)
        put((0, 0), 1.0 / sqrt(2.0))
    elif name in ("bsplus", "bsminus"):
        s = 1.0 if name == "bsplus" else -1.0
        put((2, -2), 1.0 / sqrt(3.0))
        put((-2, 2), 1.0 / sqrt(3.0))
        put((0, 0), s / sqrt(3.0))
    else:
        raise DomainError(f"unknown state name {name!r}")
    return tuple(vec)


def partial_transpose(rho: TwoQuditDensity) -> Matrix:
    """Transpose on the second factor: <ab|rho^T|a'b'> = <ab'|rho|a'b>.

    Input and output are both indexed in RHO_BASIS order.
    """
    m = rho.entries
    return [[m[i][j] for i, j in row] for row in _PT_SOURCE]


def negativity(rho: TwoQuditDensity) -> NegativityReport:
    """Sum of absolute values of negative partial-transpose eigenvalues,
    from the full 9x9 diagonalization."""
    eigenvalues = symmetric_eigenvalues(partial_transpose(rho))
    negatives = tuple(e for e in eigenvalues if e < 0.0)
    return NegativityReport(-sum(negatives), negatives)


def has_pair_reduction_block_structure(
    rho: TwoQuditDensity, tol: float = 1e-12
) -> bool:
    """True when rho conserves m1 + m2, as the pair reduction of any
    fixed-M symmetric state does: every entry between RHO_BASIS pairs of
    different total m vanishes to within `tol`."""
    total = [a + b for a, b in RHO_BASIS]
    m = rho.entries
    return all(
        abs(m[i][j]) <= tol
        for i in range(9)
        for j in range(9)
        if total[i] != total[j]
    )


def schmidt_negativity(state: StateVector) -> float:
    """Pure-state oracle: negativity = sum_{i<j} s_i s_j over Schmidt
    coefficients, read off the singular values of the 3x3 amplitude matrix.

    Independent of the partial-transpose code path.
    """
    levels = (2, 0, -2)
    amp = [
        [state[_INDEX[(a, b)]] for b in levels]
        for a in levels
    ]
    gram = [
        [sum(amp[k][i] * amp[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    singular = [sqrt(max(e, 0.0)) for e in symmetric_eigenvalues(gram)]
    total = sum(singular)
    return (total * total - sum(s * s for s in singular)) / 2.0


# -- pair reductions of many-particle symmetric states ------------------------


def _require_spin_one(x: DickeExpansion) -> None:
    if x.species != SPIN_ONE:
        raise DomainError("pair reductions are implemented for spin 1 only")


def two_body_elements(x: DickeExpansion) -> dict[str, float]:
    """The 13 independent pair-reduction matrix elements of a fixed-M
    spin-1 symmetric state, from its occupation statistics.

    Keys a1..a9, b1..b3, c1, c2 name the entries of the blocks: a1, a2, a3
    and the coherences c1, c2, b3 fill the 3x3 block on (ud, 00, du); a4,
    a5, b1 the 2x2 block on (u0, 0u); a6, a7, b2 the 2x2 block on (0d, d0);
    a8 and a9 are the uu and dd populations.  a1 is fixed by the ud <-> du
    exchange symmetry of permutation-symmetric states; trace closure is
    checked downstream.
    """
    _require_spin_one(x)
    n = x.n_particles
    if n < 2:
        raise DomainError("pair reduction needs at least two particles")
    den = float(n * (n - 1))
    m = x.twice_m / 2.0
    terms = x.as_dict()

    def moment(f) -> float:
        return sum(a * a * f(*occ) for occ, a in terms.items())

    pop_out_of_zero = moment(lambda n1, n0, nm: (n - n0) / n)
    cross_pairs = moment(lambda n1, n0, nm: n1 * nm)
    up_pairs = moment(lambda n1, n0, nm: n1 * (n1 - 1))
    down_pairs = moment(lambda n1, n0, nm: nm * (nm - 1))

    a2 = 1.0 - 2.0 * pop_out_of_zero + 2.0 / den * (
        cross_pairs + 0.5 * (up_pairs + down_pairs)
    )
    a3 = cross_pairs / den
    a4 = 0.5 * pop_out_of_zero + m / (2.0 * n) - (cross_pairs + up_pairs) / den
    a6 = 0.5 * pop_out_of_zero - m / (2.0 * n) - (cross_pairs + down_pairs) / den
    a8 = up_pairs / den
    a9 = down_pairs / den
    b1 = moment(lambda n1, n0, nm: n0 * n1) / den
    b2 = moment(lambda n1, n0, nm: n0 * nm) / den

    # coherence between 00 and ud/du: pairs (n1, n0, nm) with
    # (n1 + 1, n0 - 2, nm + 1), weighted by the bosonic matrix element
    c = 0.0
    for (n1, n0, nm), amp in terms.items():
        partner = (n1 + 1, n0 - 2, nm + 1)
        if n0 >= 2 and partner in terms:
            c += amp * terms[partner] * sqrt(
                n0 * (n0 - 1) * (n1 + 1) * (nm + 1)
            )
    c /= den

    return {
        "a1": a3, "a2": a2, "a3": a3, "a4": a4, "a5": a4, "a6": a6,
        "a7": a6, "a8": a8, "a9": a9, "b1": b1, "b2": b2, "b3": a3,
        "c1": c, "c2": c,
    }


def a2_population_form(x: DickeExpansion) -> float:
    """The 00-pair population written directly as E[n0 (n0 - 1)] / N(N-1).

    Algebraically identical to the a2 returned by `two_body_elements`; both
    forms are kept and their agreement is asserted in the tests rather than
    silently substituting one for the other.
    """
    _require_spin_one(x)
    n = x.n_particles
    return sum(a * a * occ[1] * (occ[1] - 1) for occ, a in x.terms) / float(
        n * (n - 1)
    )


#: RHO_BASIS position (upper triangle) of each named pair-reduction element
_ELEMENT_POSITIONS = {
    (0, 0): "a1", (0, 1): "c1", (0, 2): "b3",
    (1, 1): "a2", (1, 2): "c2", (2, 2): "a3",
    (3, 3): "a4", (3, 4): "b1", (4, 4): "a5",
    (5, 5): "a6", (5, 6): "b2", (6, 6): "a7",
    (7, 7): "a8", (8, 8): "a9",
}


def _density_from_elements(e: dict[str, float]) -> TwoQuditDensity:
    rho = [[0.0] * 9 for _ in range(9)]
    for (i, j), key in _ELEMENT_POSITIONS.items():
        rho[i][j] = rho[j][i] = e[key]
    return _as_density(rho)


def dicke_two_particle_rdm(x: DickeExpansion) -> TwoQuditDensity:
    """Two-particle reduced density matrix of a fixed-M spin-1 symmetric
    state, assembled from `two_body_elements` in RHO_BASIS order."""
    return _density_from_elements(two_body_elements(x))


def dicke_pair_weights(n_particles: int, twice_m: int) -> tuple[Fraction, ...]:
    """Exact weights p_0..p_4 of the pair marginal of spin-1 |J = N, M>.

    In the Majorana picture |J = N, M> is the qubit Dicke state of 2N qubits
    with k = N - M excitations, so p_j is the hypergeometric chance that j
    of them fall on the four qubits of two particles:
    C(4, j) [k]_j [2N - k]_{4-j} / [2N]_4, from falling factorials [x]_j
    rather than from C(2N, k), whose size grows with N.
    """
    from fractions import Fraction

    check_domain(SPIN_ONE, n_particles, twice_m)
    if n_particles < 2:
        raise DomainError("pair reduction needs at least two particles")
    q, k = 2 * n_particles, n_particles - twice_m // 2
    return tuple(
        Fraction(comb(4, j) * perm(k, j) * perm(q - k, 4 - j), perm(q, 4))
        for j in range(5)
    )


def dicke_pair_reduction(n_particles: int, twice_m: int) -> TwoQuditDensity:
    """Two-particle reduced density matrix of the spin-1 Dicke state
    |J = N, M>, exact and at a cost independent of N.

    The marginal is sum_j p_j |D_j><D_j| (`dicke_pair_weights`), where D_j
    is the two-particle J = 2 state at 2M = 2(2 - j): uu, (u0 + 0u)/sqrt(2),
    (ud + 2 00 + du)/sqrt(6), (0d + d0)/sqrt(2), dd.  Each element is one
    exact rational rounded once.  `dicke_two_particle_rdm` of the expansion
    and `brute_force_rdm` are the independent routes it is tested against.
    """
    p0, p1, p2, p3, p4 = dicke_pair_weights(n_particles, twice_m)
    half1, half3 = float(p1 / 2), float(p3 / 2)
    sixth2, third2 = float(p2 / 6), float(p2 / 3)
    return _density_from_elements({
        "a1": sixth2, "a2": float(2 * p2 / 3), "a3": sixth2,
        "b3": sixth2, "c1": third2, "c2": third2,
        "a4": half1, "a5": half1, "b1": half1,
        "a6": half3, "a7": half3, "b2": half3,
        "a8": float(p0), "a9": float(p4),
    })


def _smaller_root(s: float, c: float) -> float:
    """Smaller root of x^2 - s x + c for c <= 0 (so the root is <= 0), with
    no cancellation."""
    root = sqrt(s * s - 4.0 * c)
    return 2.0 * c / (s + root) if s > 0.0 else (s - root) / 2.0


def dicke_pair_negativity(n_particles: int, twice_m: int) -> float:
    """Pair negativity of the spin-1 Dicke state |J = N, M> in closed form,
    with no iteration: the second route to
    `negativity(dicke_pair_reduction(n_particles, twice_m)).value`.

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
    p0, p1, p2, p3, p4 = dicke_pair_weights(n_particles, twice_m)
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
    3^N tensor space and trace out all but two particles.

    Exponential in N; limited to N <= 6.  Shares no code with
    `two_body_elements`.
    """
    _require_spin_one(x)
    n = x.n_particles
    if n > 6:
        raise DomainError(f"brute-force reduction is limited to N <= 6, got {n}")
    if n < 2:
        raise DomainError("pair reduction needs at least two particles")
    levels = x.species.twice_levels

    amplitudes: dict[tuple[int, ...], float] = {}
    for occ, amp in x.terms:
        letters = [tm for tm, count in zip(levels, occ) for _ in range(count)]
        multiplicity = factorial(n)
        for count in occ:
            multiplicity //= factorial(count)
        weight = amp / sqrt(multiplicity)
        for arrangement in set(permutations(letters)):
            amplitudes[arrangement] = amplitudes.get(arrangement, 0.0) + weight

    rho = [[0.0] * 9 for _ in range(9)]
    groups: dict[tuple[int, ...], dict[LevelPair, float]] = {}
    for arrangement, amp in amplitudes.items():
        rest = arrangement[2:]
        groups.setdefault(rest, {})[arrangement[:2]] = amp
    for vec in groups.values():
        for pair_i, ai in vec.items():
            for pair_j, aj in vec.items():
                rho[_INDEX[pair_i]][_INDEX[pair_j]] += ai * aj
    return _as_density(rho)


def equal_probability_expansion(
    species: SpinSpecies, n_particles: int, twice_m: int
) -> DickeExpansion:
    """Uniform-amplitude superposition over the whole fixed-M occupation
    basis (spin 1); the comparison family for the Dicke states."""
    from .basis import enumerate_basis
    from .coefficients import DickeExpansion

    if species != SPIN_ONE:
        raise DomainError("equal-probability states are defined for spin 1 only")
    basis = enumerate_basis(species, n_particles, twice_m)
    amp = 1.0 / sqrt(len(basis))
    return DickeExpansion(
        species, n_particles, twice_m, tuple((occ, amp) for occ in basis)
    )


SWEEP_FAMILIES = ("dicke", "equal")


def family_expansion(family: str, n_particles: int, twice_m: int) -> DickeExpansion:
    """The spin-1 member of a sweep family ("dicke" or "equal") at (N, M)."""
    if family == "dicke":
        from .coefficients import dicke_expansion

        return dicke_expansion(SPIN_ONE, n_particles, twice_m)
    if family == "equal":
        return equal_probability_expansion(SPIN_ONE, n_particles, twice_m)
    raise DomainError(f"unknown state family {family!r}")


def family_pair_reduction(
    family: str, n_particles: int, twice_m: int
) -> TwoQuditDensity:
    """Pair reduction of a sweep family member: the exact mixture for Dicke
    states, the occupation moments of the expansion for the others."""
    if family == "dicke":
        return dicke_pair_reduction(n_particles, twice_m)
    return dicke_two_particle_rdm(family_expansion(family, n_particles, twice_m))


def negativity_sweep(
    family: str,
    n_particles: int,
    twice_m_values: list[int] | None = None,
) -> list[tuple[int, float]]:
    """Pair negativity of a spin-1 state family over a range of M.

    Returns (2M, negativity) rows in ascending M order; the default range
    is M = 0 .. J.
    """
    if n_particles < 2:
        raise DomainError("pair reduction needs at least two particles")
    if twice_m_values is None:
        twice_m_values = list(range(0, 2 * n_particles + 1, 2))
    return [
        (tm, negativity(family_pair_reduction(family, n_particles, tm)).value)
        for tm in sorted(twice_m_values)
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

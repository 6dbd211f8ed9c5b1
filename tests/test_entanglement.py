import hashlib
import random
from fractions import Fraction
from itertools import product
from math import comb, sqrt

import pytest

from dicke import (
    ALL_SPECIES,
    SPIN_ONE,
    SPIN_THREE_HALVES,
    SPIN_TWO,
    DomainError,
    brute_force_rdm,
    density_of,
    dicke_expansion,
    dicke_pair_reduction,
    dicke_two_particle_rdm,
    enumerate_basis,
    equal_probability_expansion,
    highest_weight,
    named_two_qutrit_state,
    negativity,
    negativity_sweep,
    partial_transpose,
    schmidt_negativity,
)
from dicke.antisym import symmetric_two_particle_state
from dicke.entanglement import (
    PSD_TOLERANCE,
    RHO_BASIS,
    TRACE_TOLERANCE,
    TwoQuditDensity,
    dicke_pair_negativity,
    dicke_pair_weights,
    family_pair_reduction,
    has_pair_reduction_block_structure,
    random_pure_state,
    sweep_shape_violations,
)
from dicke.linalg import symmetric_eigenvalues

POINT_TOLERANCE = 5e-4


def mixed_state(rng, n_pure=3):
    """Random PSD trace-1 matrix: a convex mixture of random pure states."""
    weights = [rng.random() for _ in range(n_pure)]
    total = sum(weights)
    entries = [[0.0] * 9 for _ in range(9)]
    for w in weights:
        vec = random_pure_state(rng)
        for i in range(9):
            for j in range(9):
                entries[i][j] += (w / total) * vec[i] * vec[j]
    rho = TwoQuditDensity(tuple(tuple(row) for row in entries))
    rho.validate()
    return rho


def test_named_state_bg():
    vec = named_two_qutrit_state("bg")
    amps = dict(zip(RHO_BASIS, vec))
    for pair in ((2, 2), (0, 0), (-2, -2)):
        assert amps[pair] == pytest.approx(1 / sqrt(3), abs=1e-15)
    assert sum(a * a for a in vec) == pytest.approx(1.0, abs=1e-12)


def test_named_state_psi1_with_trivial_parameters():
    vec = named_two_qutrit_state("psi1", (1.0, 0.0))
    amps = dict(zip(RHO_BASIS, vec))
    assert amps[(2, 2)] == pytest.approx(1 / sqrt(3), abs=1e-12)
    assert amps[(2, -2)] == pytest.approx(1 / sqrt(6), abs=1e-12)
    assert amps[(-2, 2)] == pytest.approx(1 / sqrt(6), abs=1e-12)
    assert amps[(0, 0)] == 0.0


def test_named_state_psie_is_psi1_at_the_coherent_point():
    assert named_two_qutrit_state("psie") == named_two_qutrit_state(
        "psi1", (sqrt(1 / 3), sqrt(2 / 3))
    )


def test_named_states_psi2_bsplus_and_bsminus():
    r3 = 1 / sqrt(3)
    expected = {
        "psi2": {(2, -2): 0.5, (-2, 2): 0.5, (0, 0): 1 / sqrt(2)},
        "bsplus": {(2, -2): r3, (-2, 2): r3, (0, 0): r3},
        "bsminus": {(2, -2): r3, (-2, 2): r3, (0, 0): -r3},
    }
    for name, amps in expected.items():
        vec = dict(zip(RHO_BASIS, named_two_qutrit_state(name)))
        assert vec == pytest.approx({p: amps.get(p, 0.0) for p in RHO_BASIS}, abs=1e-15)


def test_psi1_constraint_enforced():
    with pytest.raises(DomainError):
        named_two_qutrit_state("psi1", (1.0, 1.0))
    with pytest.raises(DomainError, match=r"c1\^2 \+ c2\^2 = 13\.0,"):
        named_two_qutrit_state("psi1", (2.0, 3.0))
    with pytest.raises(DomainError):
        named_two_qutrit_state("psi1", (1.0,))
    with pytest.raises(DomainError):
        named_two_qutrit_state("nope")


def test_partial_transpose_leaves_diagonal_matrices_alone():
    entries = [[0.0] * 9 for _ in range(9)]
    for i, w in enumerate((0.3, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.1, 0.05)):
        entries[i][i] = w
    rho = TwoQuditDensity(tuple(tuple(r) for r in entries))
    assert tuple(map(tuple, partial_transpose(rho))) == rho.entries


def test_partial_transpose_is_an_involution():
    rng = random.Random(42)
    for _ in range(20):
        rho = mixed_state(rng)
        once = partial_transpose(rho)
        twice = partial_transpose(
            TwoQuditDensity(tuple(tuple(row) for row in once))
        )
        assert max(
            abs(twice[i][j] - rho.entries[i][j]) for i in range(9) for j in range(9)
        ) < 1e-14


def test_partial_transpose_preserves_trace_and_symmetry():
    rng = random.Random(43)
    for _ in range(20):
        rho = mixed_state(rng)
        pt = partial_transpose(rho)
        assert sum(pt[i][i] for i in range(9)) == pytest.approx(1.0, abs=1e-12)
        for i in range(9):
            for j in range(9):
                assert pt[i][j] == pytest.approx(pt[j][i], abs=1e-12)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("bg", 1.0),
        ("psie", 0.8221),
        ("psi2", 0.9571),
        ("bsplus", 1.0),
        ("bsminus", 1.0),
    ],
)
def test_negativity_point_values(name, expected):
    vec = named_two_qutrit_state(name)
    report = negativity(density_of(vec))
    assert report.value == pytest.approx(expected, abs=POINT_TOLERANCE)
    assert schmidt_negativity(vec) == pytest.approx(report.value, abs=1e-10)


def test_negativity_of_the_two_particle_m0_dicke_state():
    state = symmetric_two_particle_state(dicke_expansion(SPIN_ONE, 2, 0))
    vec = [0.0] * 9
    for assignment, amp in state.terms:
        vec[RHO_BASIS.index(assignment)] = amp
    report = negativity(density_of(tuple(vec)))
    assert report.value == pytest.approx(0.8333, abs=POINT_TOLERANCE)


def test_product_state_has_zero_negativity():
    vec = [0.0] * 9
    vec[RHO_BASIS.index((2, 2))] = 1.0
    report = negativity(density_of(tuple(vec)))
    assert report.value <= 1e-12
    assert schmidt_negativity(tuple(vec)) <= 1e-12


def test_negativity_report_value_is_sum_of_negatives():
    rng = random.Random(5)
    for _ in range(10):
        rho = density_of(random_pure_state(rng))
        report = negativity(rho)
        assert report.value == -sum(report.negative_eigenvalues)
        assert all(e < 0 for e in report.negative_eigenvalues)


def test_schmidt_oracle_agrees_on_random_pure_states():
    rng = random.Random(20240818)
    for _ in range(1000):
        vec = random_pure_state(rng)
        direct = negativity(density_of(vec)).value
        oracle = schmidt_negativity(vec)
        assert abs(direct - oracle) <= 1e-10


def test_rdm_of_the_top_state_is_a_pure_population():
    rho = dicke_two_particle_rdm(highest_weight(SPIN_ONE, 7))
    uu = RHO_BASIS.index((2, 2))
    for i in range(9):
        for j in range(9):
            expected = 1.0 if i == j == uu else 0.0
            assert rho.entries[i][j] == pytest.approx(expected, abs=1e-14)


def test_rdm_of_n2_equals_the_pure_projector():
    expansion = dicke_expansion(SPIN_ONE, 2, 0)
    rho = dicke_two_particle_rdm(expansion)
    state = symmetric_two_particle_state(expansion)
    vec = [0.0] * 9
    for assignment, amp in state.terms:
        vec[RHO_BASIS.index(assignment)] = amp
    projector = density_of(tuple(vec))
    assert max(
        abs(rho.entries[i][j] - projector.entries[i][j])
        for i in range(9)
        for j in range(9)
    ) <= 1e-12


def max_entry_difference(rho, sigma):
    return max(
        abs(a - b)
        for row_a, row_b in zip(rho.entries, sigma.entries)
        for a, b in zip(row_a, row_b)
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rdm_matches_brute_force_for_all_m(n):
    for species in ALL_SPECIES:
        ts = species.twice_spin
        for tm in range(-ts * n, ts * n + 1, 2):
            for build in (dicke_expansion, equal_probability_expansion):
                expansion = build(species, n, tm)
                fast = dicke_two_particle_rdm(expansion)
                slow = brute_force_rdm(expansion)
                assert len(fast.entries) == (ts + 1) ** 2
                assert max_entry_difference(fast, slow) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_mixture_route_matches_both_oracles(n):
    """The Majorana mixture of every species against the correlator and,
    up to N = 6, the brute-force partial trace, at every M."""
    for species in ALL_SPECIES:
        ts = species.twice_spin
        for tm in range(-ts * n, ts * n + 1, 2):
            expansion = dicke_expansion(species, n, tm)
            rho = dicke_pair_reduction(species, n, tm)
            assert max_entry_difference(rho, dicke_two_particle_rdm(expansion)) <= 1e-15
            if n <= 6:
                assert max_entry_difference(rho, brute_force_rdm(expansion)) <= 1e-10


def test_mixture_and_moment_routes_agree_up_to_n80():
    for n in range(2, 81):
        for tm in range(-2 * n, 2 * n + 1, 2):
            moments = dicke_two_particle_rdm(dicke_expansion(SPIN_ONE, n, tm))
            mixture = dicke_pair_reduction(SPIN_ONE, n, tm)
            assert max_entry_difference(mixture, moments) <= 1e-15


#: the spin-1 pair basis: ud, 00, du, u0, 0u, 0d, d0, uu, dd
SPIN_ONE_PAIRS = (
    (2, -2), (0, 0), (-2, 2),
    (2, 0), (0, 2), (0, -2), (-2, 0),
    (2, 2), (-2, -2),
)


def test_pair_basis_sort_rule_gives_the_pinned_spin_one_order():
    def rule(pair):
        return abs(pair[0] + pair[1]), -(pair[0] + pair[1]), -pair[0]

    assert tuple(sorted(product((2, 0, -2), repeat=2), key=rule)) == SPIN_ONE_PAIRS
    assert RHO_BASIS == SPIN_ONE_PAIRS


#: sha256 over repr(entries) of every spin-1 Dicke pair reduction and the
#: repr of its negativity, N = 2..80 and every M
DICKE_PAIR_DIGEST = "529d3b43c3ab372df3dd8a9cfea3395ab7333dd080dfa45ddb57f4f1b75e53c6"


def test_dicke_pair_reductions_and_negativities_are_pinned():
    digest = hashlib.sha256()
    for n in range(2, 81):
        for tm in range(-2 * n, 2 * n + 1, 2):
            rho = dicke_pair_reduction(SPIN_ONE, n, tm)
            digest.update(repr(rho.entries).encode())
            digest.update(repr(negativity(rho).value).encode())
    assert digest.hexdigest() == DICKE_PAIR_DIGEST


def test_falling_factorial_weights_are_the_hypergeometric_law():
    for species in ALL_SPECIES:
        ts = species.twice_spin
        for n in range(2, 12):
            q = ts * n
            for tm in range(-q, q + 1, 2):
                k = (q - tm) // 2
                weights = dicke_pair_weights(species, n, tm)
                assert weights == tuple(
                    Fraction(comb(2 * ts, j) * comb(q - 2 * ts, k - j), comb(q, k))
                    if 0 <= k - j <= q - 2 * ts
                    else Fraction(0)
                    for j in range(2 * ts + 1)
                )
                assert sum(weights) == 1


def test_mixture_route_at_a_million_particles(monkeypatch):
    import dicke.basis
    import dicke.coefficients

    def refuse(*args):
        raise AssertionError("an expansion was built")

    monkeypatch.setattr(dicke.basis, "enumerate_basis", refuse)
    monkeypatch.setattr(dicke.coefficients, "dicke_expansion", refuse)
    n = 10**6
    for species in ALL_SPECIES:
        rho = dicke_pair_reduction(species, n, 0)
        rho.validate()
        assert abs(n * negativity(rho).value - 0.5) < 1e-5


@pytest.mark.parametrize("n, tm", [(0, 0), (1, 0), (3, 8), (3, 1), (-2, 0)])
def test_mixture_route_rejects_states_without_a_pair(n, tm):
    with pytest.raises(DomainError):
        dicke_pair_reduction(SPIN_ONE, n, tm)
    with pytest.raises(DomainError):
        dicke_pair_negativity(n, tm)


def test_brute_force_rdm_rejects_large_systems():
    with pytest.raises(DomainError):
        brute_force_rdm(dicke_expansion(SPIN_ONE, 7, 0))


def test_pair_negativity_at_n30_m0_for_each_integer_and_half_integer_spin():
    printed = [
        f"{negativity(dicke_two_particle_rdm(dicke_expansion(species, 30, 0))).value:.6f}"
        for species in (SPIN_ONE, SPIN_THREE_HALVES, SPIN_TWO)
    ]
    assert printed == ["0.017395", "0.017446", "0.017472"]


def test_block_structure_and_symmetries_of_the_rdm():
    u0, zu, zd, dz, ud, zz, du = (
        RHO_BASIS.index(pair)
        for pair in ((2, 0), (0, 2), (0, -2), (-2, 0), (2, -2), (0, 0), (-2, 2))
    )
    for n in (4, 9, 16):
        for tm in (0, 2, 2 * (n // 2)):
            expansion = dicke_expansion(SPIN_ONE, n, tm)
            rho = dicke_two_particle_rdm(expansion)
            m = rho.entries
            assert has_pair_reduction_block_structure(rho, tol=1e-12)
            assert m[u0][u0] == m[zu][zu]
            assert m[zd][zd] == m[dz][dz]
            assert m[ud][zz] == m[du][zz]
            trace = sum(m[i][i] for i in range(len(m)))
            assert trace == pytest.approx(1.0, abs=1e-12)


def test_block_structure_is_conservation_of_total_m():
    rho = dicke_pair_reduction(SPIN_ONE, 6, 2)
    total = [a + b for a, b in RHO_BASIS]
    tol = 1e-12
    for i in range(9):
        for j in range(i + 1, 9):
            if total[i] == total[j]:
                continue
            for entry, expected in ((tol, True), (2 * tol, False)):
                entries = [list(row) for row in rho.entries]
                entries[i][j] = entries[j][i] = entry
                sigma = TwoQuditDensity(tuple(tuple(row) for row in entries))
                assert has_pair_reduction_block_structure(sigma, tol) is expected
    assert not has_pair_reduction_block_structure(
        density_of(random_pure_state(random.Random(11)))
    )


def closed_form_blocks(n, tm):
    """The blocks of the partial transpose that `dicke_pair_negativity`
    reads, on RHO_BASIS indices, rounded as `dicke_pair_reduction` rounds."""
    p0, p1, p2, p3, p4 = dicke_pair_weights(SPIN_ONE, n, tm)
    uu, zz, dd = (RHO_BASIS.index(pair) for pair in ((2, 2), (0, 0), (-2, -2)))
    t1 = [[p0, p1 / 2, p2 / 6], [p1 / 2, 2 * p2 / 3, p3 / 2], [p2 / 6, p3 / 2, p4]]
    pair = [[p1 / 2, p2 / 3], [p2 / 3, p3 / 2]]
    blocks = [((uu, zz, dd), t1)]
    for idx in (((2, 0), (0, -2)), ((0, 2), (-2, 0))):
        blocks.append((tuple(RHO_BASIS.index(p) for p in idx), pair))
    for idx in ((2, -2), (-2, 2)):
        blocks.append(((RHO_BASIS.index(idx),), [[p2 / 6]]))
    return blocks


@pytest.mark.parametrize("n, tm", [(2, 0), (2, 2), (6, 2), (9, -8), (80, 10)])
def test_partial_transpose_splits_into_the_closed_form_blocks(n, tm):
    pt = partial_transpose(dicke_pair_reduction(SPIN_ONE, n, tm))
    expected = [[0.0] * 9 for _ in range(9)]
    for idx, block in closed_form_blocks(n, tm):
        for r, i in enumerate(idx):
            for c, j in enumerate(idx):
                expected[i][j] = float(block[r][c])
    assert pt == expected


def test_closed_form_agrees_with_full_diagonalization():
    points = [(n, tm) for n in range(2, 81) for tm in range(0, 2 * n + 1, 2)]
    points += [(2400, tm) for tm in (*range(0, 4801, 38), 4796, 4798, 4800)]
    for n, tm in points:
        full = negativity(dicke_pair_reduction(SPIN_ONE, n, tm)).value
        value = dicke_pair_negativity(n, tm)
        assert abs(value - full) <= 1e-12
        assert (value > 0) == (tm < 2 * n)


@pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
def test_closed_form_agrees_with_full_diagonalization_at_large_n(n):
    for m in (0, 1, n // 3, n - 2, n - 1, n):
        full = negativity(dicke_pair_reduction(SPIN_ONE, n, 2 * m)).value
        assert abs(dicke_pair_negativity(n, 2 * m) - full) <= 1e-12


def test_closed_form_runs_no_eigensolver(monkeypatch):
    import dicke.entanglement
    import dicke.linalg

    points = [(2, 2), (7, 0), (80, 30), (10**6, 2)]
    before = [dicke_pair_negativity(n, tm) for n, tm in points]

    def refuse(*args):
        raise AssertionError("an eigensolver ran")

    for module in (dicke.entanglement, dicke.linalg):
        monkeypatch.setattr(module, "symmetric_eigenvalues", refuse)
    monkeypatch.setattr(dicke.linalg, "jacobi_eigh", refuse)
    assert [dicke_pair_negativity(n, tm) for n, tm in points] == before


def t1_invariants(p0, p1, p2, p3, p4):
    """Exact trace, sum of principal 2x2 minors and determinant of T1."""
    a, b, c, d, e, f = p0, p1 / 2, p2 / 6, 2 * p2 / 3, p3 / 2, p4
    return (
        a + d + f,
        a * d - b * b + a * f - c * c + d * f - e * e,
        a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d),
    )


def smallest_root(coefficients, steps=110):
    """Smallest root, to 2^-110, of a monic polynomial with exact
    coefficients (highest degree first) whose other roots are >= 0 and
    smallest is >= -1: bisection in Fractions."""

    def value(x):
        total = Fraction(0)
        for coefficient in coefficients:
            total = total * x + coefficient
        return total

    lo, hi = Fraction(-1), Fraction(0)
    left_sign = value(lo) > 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        v = value(mid)
        if v != 0 and (v > 0) == left_sign:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("n", [3, 10, 80, 10**4, 10**6])
def test_closed_form_keeps_its_relative_precision(n):
    for m in (0, 1, n // 3, n - 2, n - 1):
        p0, p1, p2, p3, p4 = dicke_pair_weights(SPIN_ONE, n, 2 * m)
        trace, minors, det = t1_invariants(p0, p1, p2, p3, p4)
        pair = smallest_root([1, -(p1 + p3) / 2, p1 * p3 / 4 - p2 * p2 / 9])
        exact = -smallest_root([1, -trace, minors, -det]) - 2 * pair
        assert abs(Fraction(dicke_pair_negativity(n, 2 * m)) - exact) <= 1e-15 * exact


def test_exact_positivity_statement():
    """9 p1 p3 - 4 p2^2 in closed form and as 18 q (q - 1) det T1, in
    integers and Fractions only, and its consequence for the closed form."""
    million = 10**6
    large = [(million, 2 * m) for m in (0, 1, million - 2, million - 1, million)]
    large.append((million, -2 * (million - 1)))
    grid = [(n, tm) for n in range(2, 60) for tm in range(-2 * n, 2 * n + 1, 2)]
    for n, tm in grid + large:
        p0, p1, p2, p3, p4 = dicke_pair_weights(SPIN_ONE, n, tm)
        q, k = 2 * n, n - tm // 2
        closed = Fraction(
            -144 * k**2 * (q - k) ** 2 * (k - 1) * (q - k - 1),
            q**2 * (q - 1) ** 2 * (q - 2) ** 2 * (q - 3),
        )
        _, _, det = t1_invariants(p0, p1, p2, p3, p4)
        assert 9 * p1 * p3 - 4 * p2 * p2 == closed == 18 * q * (q - 1) * det
        assert (closed < 0) == (abs(tm) <= 2 * n - 4)
    for n, tm in large:
        assert (dicke_pair_negativity(n, tm) > 0) == (abs(tm) < 2 * n)
    for n in (2, 3, 7, 59):
        for tm in range(2, 2 * n + 1, 2):
            assert dicke_pair_negativity(n, -tm) == dicke_pair_negativity(n, tm)


def large_n_law(t):
    u = (1 - t * t) / 4
    return 2 * u * (1 - u) * (1 - 3 * u) / ((1 - 2 * u) ** 2 + 2 * u * u) + (
        2 * u * u / (1 - 2 * u)
    )


@pytest.mark.parametrize("n", [100, 400, 2400])
def test_large_n_law(n):
    assert large_n_law(0.0) == 0.5
    worst = max(
        abs(n * dicke_pair_negativity(n, 2 * m) - large_n_law(m / n))
        for m in range(n + 1)
    )
    assert 0.6 < n * worst <= 0.7


def test_density_and_report_are_immutable_values():
    rho = density_of(named_two_qutrit_state("bg"))
    twin = density_of(named_two_qutrit_state("bg"))
    assert rho == twin and hash(rho) == hash(twin)
    assert rho != density_of(named_two_qutrit_state("psie"))
    assert repr(rho) == f"TwoQuditDensity(entries={rho.entries!r})"
    report = negativity(rho)
    assert report == negativity(twin) and hash(report) == hash(negativity(twin))
    assert repr(report) == (
        f"NegativityReport(value={report.value!r}, negative_eigenvalues="
        f"{report.negative_eigenvalues!r})"
    )
    with pytest.raises(AttributeError):
        rho.entries = ()
    with pytest.raises(AttributeError):
        report.value = 0.0


def test_negativity_runs_one_eigensolve(monkeypatch):
    import dicke.entanglement

    solves = []

    def counting(matrix):
        solves.append(len(matrix))
        return symmetric_eigenvalues(matrix)

    rho = dicke_two_particle_rdm(dicke_expansion(SPIN_ONE, 8, 2))
    monkeypatch.setattr(dicke.entanglement, "symmetric_eigenvalues", counting)
    report = negativity(rho)
    assert solves == [9]
    assert report.value == pytest.approx(dicke_pair_negativity(8, 2), abs=1e-12)


def test_equal_probability_expansion_examples():
    uniform = equal_probability_expansion(SPIN_ONE, 10, 0)
    assert len(uniform.terms) == 6
    for _, amp in uniform.terms:
        assert amp == pytest.approx(1 / sqrt(6), abs=1e-15)
    single = equal_probability_expansion(SPIN_ONE, 2, 4)
    assert single.terms == dicke_expansion(SPIN_ONE, 2, 4).terms
    wide = equal_probability_expansion(SPIN_ONE, 30, 0)
    assert len(wide.terms) == 16
    spin_two = equal_probability_expansion(SPIN_TWO, 4, 0)
    assert [occ for occ, _ in spin_two.terms] == enumerate_basis(SPIN_TWO, 4, 0)
    assert {amp for _, amp in spin_two.terms} == {1 / sqrt(len(spin_two.terms))}


def test_sweep_shapes_for_n20():
    rows = negativity_sweep("dicke", 20)
    assert rows[0][0] == 0
    assert rows[-1][1] == pytest.approx(0.0, abs=1e-12)
    values = [v for _, v in rows]
    # strictly decreasing away from M = 0
    assert all(a > b for a, b in zip(values, values[1:]))
    assert sweep_shape_violations(rows) == []


def test_equal_beats_dicke_at_m0():
    for n in (30, 80):
        dicke_value = negativity(family_pair_reduction("dicke", n, 0)).value
        equal_value = negativity(family_pair_reduction("equal", n, 0)).value
        assert equal_value > dicke_value


def test_sweep_rejects_too_few_particles(monkeypatch):
    import dicke.entanglement

    def unreachable(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(dicke.entanglement, "family_pair_reduction", unreachable)
    for family in ("dicke", "equal"):
        for n in (-3, 0, 1):
            with pytest.raises(DomainError):
                negativity_sweep(family, n)


def test_family_pair_reduction_builds_each_family():
    assert family_pair_reduction("dicke", 6, 2) == dicke_pair_reduction(SPIN_ONE, 6, 2)
    assert family_pair_reduction("equal", 6, 2) == dicke_two_particle_rdm(
        equal_probability_expansion(SPIN_ONE, 6, 2)
    )
    with pytest.raises(DomainError):
        family_pair_reduction("bogus", 6, 2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_density_checks_reject_non_finite_input(bad):
    with pytest.raises(DomainError):
        density_of((bad,) + (0.0,) * 8)
    with pytest.raises(DomainError):
        named_two_qutrit_state("psi1", (bad, bad))
    entries = [[0.0] * 9 for _ in range(9)]
    entries[0][0] = 1.0
    entries[1][2] = entries[2][1] = bad
    with pytest.raises(DomainError):
        TwoQuditDensity(tuple(tuple(row) for row in entries)).validate()


def test_sweep_shape_violation_detector():
    assert sweep_shape_violations([(0, 0.1), (2, 0.2)]) != []
    assert sweep_shape_violations([(0, 0.2), (2, 0.1)]) == []
    with pytest.raises(DomainError):
        negativity_sweep("bogus", 10)


def test_trace_check_admits_only_the_tolerance():
    for excess, admitted in ((TRACE_TOLERANCE / 2, True), (2 * TRACE_TOLERANCE, False)):
        entries = [[0.0] * 9 for _ in range(9)]
        entries[0][0], entries[1][1] = 0.5, 0.5 + excess
        rho = TwoQuditDensity(tuple(map(tuple, entries)))
        if admitted:
            rho.validate()
        else:
            with pytest.raises(DomainError, match="trace"):
                rho.validate()


def test_psd_check_admits_exactly_the_tolerance():
    for smallest, admitted in ((-PSD_TOLERANCE, True), (-2 * PSD_TOLERANCE, False)):
        entries = [[0.0] * 9 for _ in range(9)]
        entries[0][0], entries[1][1] = smallest, 1.0 - smallest
        rho = TwoQuditDensity(tuple(map(tuple, entries)))
        if admitted:
            rho.validate()
        else:
            with pytest.raises(DomainError):
                rho.validate()


@pytest.mark.parametrize("size", [1, 8, 10, 36])
def test_density_checks_reject_wrong_shapes(size):
    state = (1.0,) + (0.0,) * (size - 1)
    with pytest.raises(DomainError):
        density_of(state)
    square = tuple(tuple(float(i == j == 0) for j in range(size)) for i in range(size))
    with pytest.raises(DomainError):
        TwoQuditDensity(square).validate()
    ragged = [[0.0] * 9 for _ in range(9)]
    ragged[0] = [1.0] + [0.0] * (size - 1)
    with pytest.raises(DomainError):
        TwoQuditDensity(tuple(tuple(row) for row in ragged)).validate()

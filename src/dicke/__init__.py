"""Dicke states of identical spin-1/2, 1, 3/2 and 2 particles in the
occupation-number representation, elementary antisymmetric states, and
two-qudit entanglement (negativity) of spin-1 pairs.

Quantum numbers are passed as twice their physical value throughout, so
half-integer magnetizations stay exact integers.
"""

from .antisym import (
    FirstQuantizedState,
    antisym_count,
    elementary_antisym,
    enumerate_all_antisym,
    is_antisymmetric,
)
from .basis import (
    EnumerationParams,
    OccupationVector,
    basis_size,
    enumerate_basis,
    enumeration_bounds,
    mirror,
    parametric_basis,
    parametric_count,
)
from .coefficients import (
    DickeExpansion,
    closed_form_coefficient,
    coefficient_square,
    dicke_expansion,
    level_weight,
)
from .entanglement import (
    NegativityReport,
    TwoQuditDensity,
    brute_force_rdm,
    density_of,
    dicke_pair_reduction,
    dicke_two_particle_rdm,
    equal_probability_expansion,
    family_expansion,
    named_two_qutrit_state,
    negativity,
    negativity_sweep,
    partial_transpose,
    schmidt_negativity,
)
from .ladder import (
    RawExpansion,
    apply_lowering,
    apply_raising,
    highest_weight,
    oracle_expansion,
    total_spin_expectation,
)
from .linalg import symmetric_eigenvalues
from .species import (
    ALL_SPECIES,
    SPIN_HALF,
    SPIN_ONE,
    SPIN_THREE_HALVES,
    SPIN_TWO,
    DomainError,
    SpinSpecies,
    parse_twice,
    twice_to_str,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_SPECIES",
    "DickeExpansion",
    "DomainError",
    "EnumerationParams",
    "FirstQuantizedState",
    "NegativityReport",
    "OccupationVector",
    "RawExpansion",
    "SPIN_HALF",
    "SPIN_ONE",
    "SPIN_THREE_HALVES",
    "SPIN_TWO",
    "SpinSpecies",
    "TwoQuditDensity",
    "antisym_count",
    "apply_lowering",
    "apply_raising",
    "basis_size",
    "brute_force_rdm",
    "closed_form_coefficient",
    "coefficient_square",
    "density_of",
    "dicke_expansion",
    "dicke_pair_reduction",
    "dicke_two_particle_rdm",
    "elementary_antisym",
    "enumerate_all_antisym",
    "enumerate_basis",
    "enumeration_bounds",
    "equal_probability_expansion",
    "family_expansion",
    "highest_weight",
    "is_antisymmetric",
    "level_weight",
    "mirror",
    "named_two_qutrit_state",
    "negativity",
    "negativity_sweep",
    "oracle_expansion",
    "parametric_basis",
    "parametric_count",
    "parse_twice",
    "partial_transpose",
    "schmidt_negativity",
    "symmetric_eigenvalues",
    "total_spin_expectation",
    "twice_to_str",
]

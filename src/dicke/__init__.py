"""Dicke states of identical spin-1/2, 1, 3/2 and 2 particles in the
occupation-number representation, elementary antisymmetric states, and
two-qudit entanglement (negativity) of spin-1 pairs.

Quantum numbers are passed as twice their physical value throughout, so
half-integer magnetizations stay exact integers.

Submodules load on first use: `import dicke` runs no submodule, and each
public name is read from its defining submodule, which is imported the
first time one of its names is read (PEP 562).
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

#: defining submodule -> the public names it exports
_EXPORTS = {
    "antisym": (
        "FirstQuantizedState",
        "antisym_count",
        "elementary_antisym",
        "enumerate_all_antisym",
        "is_antisymmetric",
    ),
    "basis": (
        "EnumerationParams",
        "OccupationVector",
        "basis_size",
        "enumerate_basis",
        "enumeration_bounds",
        "mirror",
        "parametric_basis",
        "parametric_count",
    ),
    "coefficients": (
        "DickeExpansion",
        "closed_form_coefficient",
        "coefficient_square",
        "dicke_expansion",
        "level_weight",
    ),
    "entanglement": (
        "NegativityReport",
        "TwoQuditDensity",
        "brute_force_rdm",
        "density_of",
        "dicke_pair_reduction",
        "dicke_two_particle_rdm",
        "equal_probability_expansion",
        "named_two_qutrit_state",
        "negativity",
        "negativity_sweep",
        "partial_transpose",
        "schmidt_negativity",
    ),
    "ladder": (
        "RawExpansion",
        "apply_lowering",
        "apply_raising",
        "highest_weight",
        "oracle_expansion",
        "total_spin_expectation",
    ),
    "linalg": ("symmetric_eigenvalues",),
    "species": (
        "ALL_SPECIES",
        "SPIN_HALF",
        "SPIN_ONE",
        "SPIN_THREE_HALVES",
        "SPIN_TWO",
        "DomainError",
        "SpinSpecies",
        "parse_twice",
        "twice_to_str",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli", "svg", "tables")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    # Not cached in this namespace: a name replaced on its defining module
    # (a test's monkeypatch, a tracing wrapper) reads the same through here.
    if name in _SOURCE:
        module = f"{__name__}.{_SOURCE[name]}"
        return getattr(sys.modules.get(module) or import_module(module), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

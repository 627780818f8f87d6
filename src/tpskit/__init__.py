"""Toolkit for operator-algebra structure, tensor product structures, and holonomic control.

Given operationally available observables on a finite-dimensional state
space, the package decomposes the *-algebra they generate into its block
structure, certifies virtual bipartitions, quantifies entanglement
relative to any tensor product structure, builds parity-sector and
bosonic-mode structures, and probes controllability on degenerate
eigenspaces through loop holonomies.

`import tpskit` loads no submodule: each export below is imported from
its home module on first access, so a command pays only for the layers
it runs.
"""

import importlib

__version__ = "0.1.0"

# every export, by the module that defines it
_HOMES = {
    "algebra": ("BipartitionCertificate", "FactorCheck", "OperatorAlgebra", "algebra_residuals",
                "center", "check_bipartition", "close_algebra", "commutant", "is_factor", "join",
                "structure_decompose"),
    "bosonic": ("FockSpace", "build_fock", "ccr_residual", "mode_entanglement",
                "rotate_single_particle", "single_excitation_state", "transform_modes"),
    "errors": ("BranchCutError", "ContractViolationError", "DegenerateInputError",
               "DegeneracyError", "DimensionMismatchError", "IndexRangeError", "ParitySetError",
               "PathSingularityError", "SpecFileError", "ToleranceError", "TpskitError",
               "TruncationBoundaryError"),
    "holonomy": ("IsoDegenerateOperator", "LoopPath", "RefinementLadder", "UnitaryFamily",
                 "builtin_family", "exponential_family", "holonomy_algebra_span",
                 "holonomy_nonabelian_witness", "loop_holonomy", "principal_log_unitary",
                 "refinement_ladder"),
    "opfile": ("OperatorSpecFile", "load_spec", "parse_spec"),
    "parity": ("ParitySet", "pauli_string_matrix", "syndrome_decompose", "validate_parity_set"),
    "pure": ("DEFAULT_TOL", "Tolerance", "multiplicative_partitions"),
    "tps": ("TPS", "EntanglementMeasure", "EntanglingPowerEstimate", "entanglement",
            "entangling_power", "local_algebra", "tps_distance", "tps_equivalent"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """Import an export's home module on first access and bind the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value

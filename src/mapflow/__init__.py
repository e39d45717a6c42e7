"""mapflow: discrete averaging laboratory for quasi-integrable symplectic maps.

The public names resolve lazily (PEP 562): ``import mapflow`` loads no
submodule and no numpy, and the first access to a name imports its module.
So importing the package never settles a process's BLAS threading:
`mapflow.cli` sets it before numpy loads, and a library user keeps theirs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: the public names of each submodule; every submodule is public itself
_EXPORTS = {
    "errors": (),
    "maps": ("DomainSpec", "MapModel", "catalog", "jacobian", "near_identity_family",
             "nonexact_shear", "symplectic_matrix"),
    "interp": ("finite_differences", "interpolating_vf", "newton_weights", "orbit_window"),
    "hamiltonian": ("Box", "EmbeddingReport", "HamiltonianField", "Loop", "circle_loop",
                    "default_delta", "distance_to_identity", "embedding_error", "flow_map",
                    "h2_closed_form", "interpolating_field", "loop_action", "optimal_order",
                    "reconstruct_hamiltonian", "recover_generating", "symmetry_defect",
                    "unit_box"),
    "resonance": ("BlockMap", "CoveringParams", "ResonanceSite", "c4_estimate",
                  "covering_params", "dirichlet", "locate_site", "resonant_action",
                  "scaled_block"),
    "nucleus": ("NucleusModel", "build_nucleus", "is_resonant_mode", "nucleus_energy",
                "nucleus_radii", "resonant_average", "resonant_fourier_check",
                "trapped_orbit"),
    "experiments": ("AprioriMargins", "DriftReport", "FitReport", "StabilityRecord",
                    "apriori_check", "energy_drift", "error_law_fit", "fit_log_law",
                    "order_scaling_check", "pilot_confinement", "sn_decomposition",
                    "stability_scan"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name in _OWNER:
        return getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

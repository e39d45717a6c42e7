"""mapflow: discrete averaging laboratory for quasi-integrable symplectic maps."""

from . import errors
from .maps import (
    DomainSpec,
    MapModel,
    catalog,
    jacobian,
    near_identity_family,
    nonexact_shear,
    symplectic_matrix,
)
from .interp import (
    finite_differences,
    interpolating_vf,
    newton_weights,
    order_scaling_check,
    orbit_window,
)
from .hamiltonian import (
    Box,
    EmbeddingReport,
    HamiltonianField,
    Loop,
    circle_loop,
    default_delta,
    distance_to_identity,
    embedding_error,
    flow_map,
    h2_closed_form,
    interpolating_field,
    loop_action,
    optimal_order,
    reconstruct_hamiltonian,
    recover_generating,
    symmetry_defect,
    unit_box,
)
from .resonance import (
    BlockMap,
    CoveringParams,
    ResonanceSite,
    c4_estimate,
    covering_params,
    dirichlet,
    locate_site,
    resonant_action,
    scaled_block,
)
from .nucleus import (
    NucleusModel,
    build_nucleus,
    is_resonant_mode,
    nucleus_energy,
    nucleus_radii,
    resonant_average,
    resonant_fourier_check,
    trapped_orbit,
)
from .experiments import (
    AprioriMargins,
    DriftReport,
    FitReport,
    StabilityRecord,
    apriori_check,
    energy_drift,
    error_law_fit,
    fit_log_law,
    pilot_confinement,
    sn_decomposition,
    stability_scan,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""nqdot: weakly bound neutron states in hydride nanostructures.

Levels and wavefunctions of nanocrystal-confined neutron states, bulk
binding/lifetime material constants, Bloch sub-band structures, microwave
Rabi control, and Pareto screening of hydride crystals.
"""

__version__ = "0.1.0"

from .bulk import BulkProperties, bulk_properties, cubic_lattice_sum, dispersion, mass_gain
from .geometry import GeometrySpec, Grid, build_grid, periodic_displacements
from .kernel import assemble_kernel
from .nuclides import (
    CrystalComposition,
    NuclideTable,
    ScatteringEntry,
    default_table,
)
from .solver import (
    BoundState,
    Coupling,
    finite_lifetime,
    has_bound_state,
    reconstruct_wavefunction,
    solve_bound_states,
)

__all__ = [
    "__version__",
    "BulkProperties",
    "bulk_properties",
    "cubic_lattice_sum",
    "dispersion",
    "mass_gain",
    "GeometrySpec",
    "Grid",
    "build_grid",
    "periodic_displacements",
    "assemble_kernel",
    "CrystalComposition",
    "NuclideTable",
    "ScatteringEntry",
    "default_table",
    "BoundState",
    "Coupling",
    "finite_lifetime",
    "has_bound_state",
    "reconstruct_wavefunction",
    "solve_bound_states",
]

"""Dynamics of Halley's method on complex polynomials.

Build the Halley map (or its Koenig / Chebyshev-Halley relatives) of a
polynomial as an explicit reduced rational map, classify its fixed
points, compute basins of attraction on pixel grids, estimate rotation
symmetry, and hunt parameters with superattracting two-cycles in the
cubic family z**3 + 6z + b.
"""

from .errors import (
    ConfigError,
    ContainmentError,
    DegenerateMap,
    ExcludedParameter,
    HalleyDynError,
    Indeterminate,
    IOFailure,
    NoCycle,
    NonConvergence,
    NotFixed,
    NotNormalized,
    PoleAtTwenty,
    PropositionMismatch,
    SeedUnlabeled,
    WindowNotCentered,
)
from .polycore import (
    AffineMap,
    NormalizedForm,
    Polynomial,
    RootCluster,
    compose_affine,
    find_roots,
    normalized_form,
)
from .ratmap import (
    INF,
    DegreeCensus,
    RationalMap,
    chebyshev_halley_of,
    conjugate,
    critical_points,
    degree_census,
    eval_sphere,
    fixed_points,
    free_critical_points,
    halley_of,
    is_infinity,
    konig_of,
    local_degree_at,
    make_reduced,
    multiplier_at,
    poles,
    same_map,
)
from .classify import (
    FixedPointRecord,
    Origin,
    classify_fixed_points,
    extraneous_fixed_points,
)
from .dynamics import (
    UNDECIDED,
    BasinGrid,
    BoundednessReport,
    IntervalReport,
    OrbitOutcome,
    ProfileRow,
    Window,
    boundedness_evidence,
    classify_grid,
    free_critical_fates,
    immediate_basin_component,
    interval_convergence_check,
    iterate_orbit,
    orbit_outcomes,
    profile_to_csv,
    real_axis_profile,
)
from .symmetry import (
    SymmetryReport,
    grid_symmetry_order,
    map_rotation_order,
    polynomial_symmetry_order,
    symmetry_report,
)
from .paramsearch import (
    CycleCandidate,
    cycle_condition_polynomial,
    family_polynomial,
    halley_b,
    roots_of_F,
    verify_cycle,
    xi_of,
)
from .render import ColorMap, default_palette, read_image, render_rgb, write_image

__version__ = "0.1.0"

"""sigmalab: a numerical laboratory for planar mappings whose components
solve second-order elliptic equations.

Solve divergence-form and non-divergence-form Dirichlet problems on 2D
domains, recover stream functions, compute complex dilatations and Beltrami
residuals, and verify at desk scale that homeomorphic solution mappings have
nonvanishing Jacobian determinants.
"""

from .analysis import (
    ComplexDerivativeField,
    InjectivityResult,
    LewyReport,
    MappingField,
    PullbackSubdomain,
    QuasiconformalDefect,
    UnimodalityVerdict,
    beltrami_residual,
    complex_derivatives,
    critical_point_candidates,
    injectivity_check,
    jacobian_field,
    lewy_verify,
    pullback_subdomain,
    quasiconformal_defect,
    stream_function,
    unimodality_check,
)
from .coefficients import (
    CoefficientField,
    DilatationPair,
    EllipticityReport,
    VectorField2,
    dilatations,
    divergence_of_sigma,
    ellipticity_report,
    field_from_descriptor,
    identity_field,
    library_fields,
    max_dilatation,
    meyers_sigma,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    EllipticityError,
    MeshError,
    NotEllipticError,
    NotInjectiveError,
    ResourceLimitError,
    SigmalabError,
    SolverError,
)
from .fd import (
    GridDomain,
    GridField,
    annulus_grid,
    rectangle_grid,
    solve_nondivergence,
    to_nondivergence,
)
from .fem import (
    ScalarField,
    TriangleGradientField,
    energy,
    gradient_field,
    relative_l2_error,
    solve_dirichlet,
)
from .mesh import (
    Mesh,
    generate_annulus,
    generate_disk,
    generate_rectangle,
    read_mesh,
    refine,
)
from .oracles import (
    AnalyticSolution,
    brute_force_injectivity,
    holomorphic_oracle,
    meyers_jacobian,
    meyers_solution,
    oracle_from_descriptor,
)

__version__ = "0.1.0"

"""Lower bounds and positivity certificates for polynomial optimization
problems whose data separates into an (X,Y) part and a (Y,Z) part."""

from .poly import (
    BlockLayout,
    CouplingError,
    LayoutError,
    Polynomial,
    check_sparsity,
    grlex_key,
    monomial_basis,
)
from .problem import BlockSupportError, ProblemInstance
from .moments import (
    MomentVector,
    SymbolicMatrix,
    TruncationError,
    half_degree,
    localizing_matrix,
    min_eigenvalue,
    mixture_moments,
    moment_matrix,
    moments_of_dirac,
    riesz,
)
from .relax import (
    BlockLabel,
    BoundError,
    CapacityError,
    ConicProgram,
    LinearProgram,
    ModeError,
    NormalizationError,
    OrderError,
    assemble,
    assemble_dense,
    assemble_krivine,
    assemble_sparse_putinar,
    assemble_sparse_schmudgen,
    min_order,
    normalize_krivine,
)
from .solver import (
    INFEASIBLE,
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    OPTIMAL,
    UNBOUNDED,
    Residuals,
    SolveReport,
    solve,
    solve_lp,  # solve_lp and solve_sdp are the earlier names of solve, kept
    solve_sdp,  # so that existing imports from the package still work
)
from .certify import (
    ConeCertificate,
    ExtractionError,
    SOSCertificate,
    SOSTerm,
    VerificationReport,
    certificate_from_json,
    certificate_to_json,
    expand,
    extract,
    extract_cone,  # extract_cone and extract_sos are the earlier names of
    extract_sos,  # extract, kept so that existing imports still work
    verify,
)
from .oracle import (
    EmptyFeasibleError,
    GridCapacityError,
    OracleResult,
    grid_min,
    lipschitz_margin,
)
from .hierarchy import (
    ConfigError,
    HierarchyResult,
    RowResult,
    RunConfig,
    VARIANTS,
    run_hierarchy,
)
from .cli import ProblemFileError, parse_problem

__version__ = "0.1.0"

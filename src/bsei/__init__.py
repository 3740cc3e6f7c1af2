"""Numerical toolkit for backward stochastic evolution inclusions.

Solves dY + A Y dt in G(t, Y, Z) dt + Z dW with terminal data Y_T at desk
scale in Euclidean state space, and ships the validation machinery for the
underlying stochastic-integration identities (Gaussian-sum norms, the Ito
isometry, martingale representation).
"""

from .errors import (
    BseiError,
    ConfigError,
    NonConvergenceError,
    ScheduleError,
)
from .gamma import (
    FiniteRankOperator,
    GammaNormEstimate,
    IsomorphismReport,
    gamma_norm,
    ito_isomorphism_report,
    kw_integral,
)
from .geometry import (
    Ball,
    ConvexCompactSet,
    Polytope,
    SetValuedSpec,
    Singleton,
    distance_to,
    hausdorff,
    project,
    support,
)
from .paths import (
    BrownianEnsemble,
    MartingaleRepresentation,
    PolynomialRegression,
    TimeGrid,
    from_function,
    ito_integral,
    lp_l2_norm,
    martingale_representation,
    simulate_brownian,
    solve_linear_bsee,
    step_designs,
)
from .semigroup import SemigroupCache, gamma_bound, matrix_exponential
from .solver import (
    BSEIProblem,
    PicardSchedule,
    ResidualReport,
    Solution,
    SolveReport,
    SolverConfig,
    TerminalSpec,
    picard_solve_interval,
    schedule_from_constants,
    select_generator,
    solve,
    verify_solution,
)

__version__ = "0.1.0"

"""Two-stage stochastic PDE-constrained optimization with almost-sure
state constraints: solvers, multiplier certification, and penalization
studies on a finite-difference model problem."""

from .certify import (
    KktReport,
    kkt_residuals,
    multiplier_l1_norms,
)
from .grid import (
    EllipticityError,
    Factorization,
    Grid,
    LinearSolveError,
    MmsRow,
    assemble_operator,
    build_grid,
    mms_convergence_study,
    operator_norm_estimate,
)
from .homotopy import (
    HomotopyError,
    HomotopyLevel,
    HomotopyReport,
    fit_decay_rate,
    run_homotopy,
)
from .problem import (
    DualPoint,
    Instance,
    PrimalPoint,
    SlaterReport,
    dual_function,
    objective,
    project_c1,
    slater_check,
    zeros_dual,
)
from .scenarios import (
    FieldSpec,
    ScenarioSet,
    sample_scenarios,
)
from .solvers import (
    BarrierFailure,
    BarrierSizeError,
    SolveReport,
    SolverParams,
    solve_barrier_reference,
    solve_hard,
    solve_pdhg,
    solve_progressive_hedging,
)

__version__ = "0.1.0"

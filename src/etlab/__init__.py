"""Entropy-stable solvers for a degenerate density/temperature system.

Macroscopic side: an implicit entropic-variable scheme for the coupled
cross-diffusion equations with no-flux walls, with per-step audits of the
exact mass/energy budgets and of entropy monotonicity. Kinetic side: a
reduced BGK model with diffusive scaling whose moments converge to the
macroscopic solution as the Knudsen number shrinks.
"""

from .grid import Grid1D, build_grid, div_edge, grad_edge, integrate, second_diff
from .kinetic import (
    KineticState,
    KineticTrajectory,
    VelocityGrid,
    build_velocity_grid,
    energy_total,
    init_equilibrium,
    kinetic_step,
    maxwellian_moments_check,
    moments,
    run_kinetic,
)
from .linalg import (
    BandedCholesky,
    BandedLU,
    BandedSymmetricMatrix,
    NotSPDError,
    SingularMatrixError,
)
from .scheme import (
    SchemeParams,
    StepFailureError,
    StepReport,
    Trajectory,
    budget_audit,
    entropy_audit,
    fixed_point_step,
    lyapunov_functional,
    make_initial_state,
    run_transient,
)
from .thermo import (
    BlowupError,
    EntropicState,
    MacroState,
    OnsagerMatrix,
    entropy_tilde,
    flux_consistency,
    hessian_htilde,
    onsager,
    to_entropic,
    to_primitive,
)

__version__ = "0.1.0"

"""Entropy-stable solvers for a degenerate density/temperature system.

Macroscopic side: an implicit entropic-variable scheme for the coupled
cross-diffusion equations with no-flux walls, with per-step audits of the
exact mass/energy budgets and of entropy monotonicity. Kinetic side: a
reduced BGK model with diffusive scaling whose moments converge to the
macroscopic solution as the Knudsen number shrinks.
"""

__version__ = "0.1.0"

"""Uniform 1D cell-centered grid with conservative no-flux difference operators.

Scalars live at cell centers, fluxes at the interior edges between them.
Boundary edges carry zero flux, so the divergence of any edge flux has zero
quadrature (discrete conservation), and gradient/divergence are exact
negative adjoints with respect to the midpoint quadrature.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class Grid1D:
    """Uniform partition of [0, length] into n_cells cells of width h."""

    n_cells: int
    length: float
    h: float = dataclasses.field(init=False)
    cell_centers: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        if self.n_cells < 3:
            raise ValueError(f"need at least 3 cells, got {self.n_cells}")
        if self.length <= 0.0:
            raise ValueError(f"domain length must be positive, got {self.length}")
        object.__setattr__(self, "h", self.length / self.n_cells)
        object.__setattr__(self, "cell_centers", (np.arange(self.n_cells) + 0.5) * self.h)


def build_grid(n_cells: int, length: float) -> Grid1D:
    """Build a uniform grid; Grid1D rejects n_cells < 3 or nonpositive length."""
    return Grid1D(n_cells=int(n_cells), length=float(length))


def _check_cells(grid: Grid1D, field: np.ndarray) -> np.ndarray:
    field = np.asarray(field, dtype=float)
    if field.shape != (grid.n_cells,):
        raise ValueError(f"field has shape {field.shape}, expected ({grid.n_cells},)")
    return field


def grad_edge(grid: Grid1D, field: np.ndarray) -> np.ndarray:
    """Edge differences (field[j+1] - field[j]) / h on the interior edges."""
    field = _check_cells(grid, field)
    return (field[1:] - field[:-1]) / grid.h


def div_edge(grid: Grid1D, flux: np.ndarray) -> np.ndarray:
    """Divergence of an interior-edge flux with zero boundary flux built in.

    This is the negative adjoint of grad_edge under the cell quadrature:
    sum_i h * div_edge(F)_i * psi_i == -sum_j h * F_j * grad_edge(psi)_j.
    """
    flux = np.asarray(flux, dtype=float)
    if flux.shape != (grid.n_cells - 1,):
        raise ValueError(
            f"flux has shape {flux.shape}, expected ({grid.n_cells - 1},)"
        )
    out = np.empty(grid.n_cells)
    out[0] = flux[0]
    np.subtract(flux[1:], flux[:-1], out=out[1:-1])
    out[-1] = -flux[-1]
    return np.divide(out, grid.h, out=out)


def second_diff(grid: Grid1D, field: np.ndarray) -> np.ndarray:
    """Second difference with even-reflection ghost cells at the walls.

    Identical to div_edge(grad_edge(field)); the reflected ghosts make the
    bilinear form sum h * second_diff(u) * second_diff(psi) vanish whenever
    psi is constant, which the exact discrete budgets rely on.
    """
    field = _check_cells(grid, field)
    h2 = grid.h * grid.h
    out = np.empty(grid.n_cells)
    inner = out[1:-1]  # (field[:-2] - 2 field[1:-1] + field[2:]) / h2, in place
    np.multiply(field[1:-1], 2.0, out=inner)
    np.subtract(field[:-2], inner, out=inner)
    np.add(inner, field[2:], out=inner)
    np.divide(inner, h2, out=inner)
    out[0] = (field[1] - field[0]) / h2
    out[-1] = (field[-2] - field[-1]) / h2
    return out


def integrate(grid: Grid1D, field: np.ndarray) -> float:
    """Midpoint quadrature sum h * field_i."""
    field = _check_cells(grid, field)
    return grid.h * float(field.sum())

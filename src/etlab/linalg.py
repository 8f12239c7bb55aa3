"""Banded linear solves, backed by LAPACK.

Symmetric positive definite matrices (``BandedCholesky``) store only their
lower bands, which keeps symmetry by construction. The storage
``bands[k, j] = A[j+k, j]`` is LAPACK's lower band layout, so the
factorization (``pbtrf``) and the triangular solves (``pbtrs``) run on the
assembled array directly. General banded matrices (``BandedLU``) are
factored with partial pivoting (``gbtrf``/``gbtrs``) in LAPACK's general
band layout, which the caller assembles.

The routines come from scipy's compiled LAPACK wrapper module
``scipy.linalg._flapack``, the module ``scipy.linalg.lapack`` re-exports
them from. It is loaded by file location, so ``scipy/linalg/__init__.py``
(and the array-API layer it pulls in, most of a process's start-up time)
never runs.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np


def _load_flapack():
    """scipy.linalg._flapack, loaded without executing scipy or scipy.linalg."""
    name = "scipy.linalg._flapack"
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        linalg_dir = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(linalg_dir, "_flapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
    raise ImportError(f"LAPACK wrapper module {name} not found", name=name)


_flapack = _load_flapack()
dpbtrf = _flapack.dpbtrf
dpbtrs = _flapack.dpbtrs
dgbtrf = _flapack.dgbtrf
dgbtrs = _flapack.dgbtrs


@dataclass
class BandedSymmetricMatrix:
    """Symmetric banded matrix, lower bands only: bands[k, i] = A[i+k, i]."""

    n: int
    bandwidth: int
    bands: np.ndarray  # shape (bandwidth+1, n); bands[k, i] defined for i < n-k

    def __post_init__(self):
        self.bands = np.asarray(self.bands, dtype=float)
        if self.bands.shape != (self.bandwidth + 1, self.n):
            raise ValueError(
                f"bands shape {self.bands.shape} != ({self.bandwidth + 1}, {self.n})"
            )


class NotSPDError(ValueError):
    """A pivot of the banded Cholesky factorization was not positive."""


class BandedCholesky:
    """LL^T factorization of a banded SPD matrix; factor once, solve many.

    Raises NotSPDError when the matrix has a non-finite entry or is not
    positive definite. A non-finite right-hand side gives a non-finite
    solution rather than an error; callers test the result.
    """

    def __init__(self, m: BandedSymmetricMatrix):
        if not np.all(np.isfinite(m.bands)):
            raise NotSPDError("matrix not SPD: non-finite entries")
        self._factor, info = dpbtrf(m.bands, lower=1)
        if info > 0:
            raise NotSPDError(
                f"matrix not SPD: {info}-th leading minor not positive definite"
            )
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpbtrf")
        self.n = m.n
        self.bandwidth = m.bandwidth

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = dpbtrs(self._factor, np.asarray(rhs, dtype=float), lower=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpbtrs")
        return x


class SingularMatrixError(ValueError):
    """A banded LU factor has a zero pivot, or its matrix a non-finite entry."""


class BandedLU:
    """LU factorization with partial pivoting of a banded matrix with ``kl``
    bands below and ``ku`` above the diagonal; factor once, solve many.

    ``ab`` holds A[i, j] at ab[kl + ku + i - j, j], and zeros elsewhere:
    its rows 0..kl-1 are LAPACK's workspace for the fill-in of pivoting.
    Pass a Fortran-ordered array and it is factored in place. Raises
    SingularMatrixError when the matrix has a non-finite entry or is
    singular.
    """

    def __init__(self, ab: np.ndarray, kl: int, ku: int):
        if not np.isfinite(ab).all():
            raise SingularMatrixError("matrix singular: non-finite entries")
        self._factor, self._pivots, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
        if info > 0:
            raise SingularMatrixError(f"matrix singular: pivot {info} is zero")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dgbtrf")
        self.kl, self.ku = kl, ku

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = dgbtrs(self._factor, self.kl, self.ku, rhs, self._pivots)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dgbtrs")
        return x

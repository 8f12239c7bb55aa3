"""Banded symmetric positive definite solves, backed by LAPACK.

Only the lower bands are stored, which keeps symmetry by construction. The
storage ``bands[k, j] = A[j+k, j]`` is LAPACK's lower band layout, so the
factorization (``pbtrf``) and the triangular solves (``pbtrs``) run on the
assembled array directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs


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

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.bands[0])
        for k in range(1, self.bandwidth + 1):
            for i in range(self.n - k):
                a[i + k, i] = self.bands[k, i]
                a[i, i + k] = self.bands[k, i]
        return a


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

"""Floating-point twin of the exact layer.

Provides complex double matrices, eigenvalue clustering and the spectral
radius of an exact matrix. Everything here is approximate by design; the
exact layer is the source of truth and the tests cross-check the two.

No command runs anything here, and this is the only module of the package
that imports NumPy. ``eigenvalues``, ``SpectrumSet`` and
``spectral_radius_exact`` are the float oracle of the tests and trace
targets of the benchmark: ``verify`` decides the spectral radii of RAD_PROD
and RAD_SUM exactly (``algebraic``), and ``truncate`` reads its spectrum off
the exact charpoly.

Eigenvalues come from LAPACK (``numpy.linalg.eigvals``). Clustering uses an
absolute distance threshold ``cluster_tol`` whose default (1e-8) is
calibrated for matrices of roughly unit scale; callers working at other
scales pass their own tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, EigenvalueConvergenceError
from .exact import charpoly, poly_radical

__all__ = ["CMatrix", "SpectrumSet", "eigenvalues", "spectral_radius_exact"]

DEFAULT_CLUSTER_TOL = 1e-8


class CMatrix:
    """Square complex double matrix; a thin immutable wrapper over numpy."""

    __slots__ = ("_a",)

    def __init__(self, rows):
        a = np.array(rows, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DimensionMismatchError("CMatrix must be square with dim >= 1")
        if not np.all(np.isfinite(a.view(np.float64))):
            raise ValueError("CMatrix entries must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "_a", a)

    def __setattr__(self, name, value):
        raise AttributeError("CMatrix is immutable")

    @classmethod
    def from_exact(cls, m):
        """The float of each exact entry; a part out of float range raises
        OverflowError."""
        return cls([[complex(float(z.re), float(z.im)) for z in row] for row in m.rows()])

    @property
    def dim(self):
        return self._a.shape[0]

    @property
    def array(self):
        """Read-only ndarray view of the entries."""
        return self._a

    def entry(self, i, j):
        return complex(self._a[i, j])

    def _coerce(self, other):
        if isinstance(other, CMatrix):
            if other.dim != self.dim:
                raise DimensionMismatchError(f"dims {self.dim} and {other.dim} differ")
            return other._a
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else CMatrix(self._a + o)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else CMatrix(self._a - o)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return CMatrix(self._a * other)
        o = self._coerce(other)
        return NotImplemented if o is None else CMatrix(self._a @ o)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return CMatrix(self._a * other)
        return NotImplemented

    __matmul__ = __mul__

    def __neg__(self):
        return CMatrix(-self._a)

    def frobenius(self):
        return float(np.linalg.norm(self._a, "fro"))

    def __repr__(self):
        return f"CMatrix(dim={self.dim})"


class SpectrumSet:
    """Clustered eigenvalue multiset.

    ``points`` is a tuple of (representative, multiplicity) sorted by real
    then imaginary part. Multiplicities sum to the matrix dimension, and
    distinct representatives are pairwise farther apart than cluster_tol.
    """

    __slots__ = ("points", "cluster_tol")

    def __init__(self, values, cluster_tol=DEFAULT_CLUSTER_TOL):
        clusters = [[complex(z)] for z in values]
        merged = True
        while merged:
            merged = False
            reps = [sum(c) / len(c) for c in clusters]
            for i in range(len(clusters)):
                for j in range(i + 1, len(clusters)):
                    if abs(reps[i] - reps[j]) <= cluster_tol:
                        clusters[i].extend(clusters[j])
                        del clusters[j]
                        merged = True
                        break
                if merged:
                    break
        pts = [(sum(c) / len(c), len(c)) for c in clusters]
        pts.sort(key=lambda p: (p[0].real, p[0].imag))
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "cluster_tol", float(cluster_tol))

    def __setattr__(self, name, value):
        raise AttributeError("SpectrumSet is immutable")

    def representatives(self):
        return [z for z, _ in self.points]

    def total_multiplicity(self):
        return sum(m for _, m in self.points)

    def max_modulus(self):
        return max((abs(z) for z, _ in self.points), default=0.0)

    def __repr__(self):
        body = ", ".join(f"({z.real:.6g}{z.imag:+.6g}j)x{m}" for z, m in self.points)
        return f"SpectrumSet[{body}]"


def eigenvalues(m, cluster_tol=DEFAULT_CLUSTER_TOL):
    """Eigenvalues of a CMatrix, clustered into a SpectrumSet."""
    try:
        vals = np.linalg.eigvals(m.array)
    except np.linalg.LinAlgError as exc:
        raise EigenvalueConvergenceError(str(exc)) from exc
    return SpectrumSet(vals.tolist(), cluster_tol=cluster_tol)


def spectral_radius_exact(m):
    """Largest root modulus of the exact characteristic polynomial (0.0 when
    the matrix is nilpotent).

    Repeated eigenvalues are stripped by the exact squarefree reduction
    before any floating point enters, so the numeric rooting only ever
    sees simple roots and avoids the O(eps^(1/k)) blowup that direct
    eigenvalue solvers suffer on defective matrices.
    """
    coeffs = [complex(float(c.re), float(c.im)) for c in poly_radical(charpoly(m)).coeffs]
    return float(np.max(np.abs(np.roots(coeffs[::-1]))))

"""Dense Hermitian eigensolver, unitary propagation and 1-D root bracketing.

All matrices here are small (dim <= 16) complex numpy arrays with entries in
MHz.  The eigendecomposition is LAPACK's Hermitian solver (numpy.linalg.eigh);
hermitian_eig then fixes each eigenvector's phase so that its largest-magnitude
component is real and positive, which makes repeated calls bitwise identical.
evolve skips that step: a phase on an eigenvector cancels in V exp(-i 2 pi
lambda t) V^dag.  Kets are plain complex vectors normalized to 1.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonHermitianError

MAX_DIM = 16
HERMITICITY_TOL = 1e-12

ROOT_XTOL = 1e-10          # bisection interval width
ROOT_MIN_SEPARATION = 1e-8


class EigenSystem(NamedTuple):
    """Eigenvalues (real, ascending, MHz) and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def require_hermitian(h) -> np.ndarray:
    """Validate and return h as a finite square complex array, dim <= 16."""
    a = np.asarray(h, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n < 1 or n > MAX_DIM:
        raise ValueError(f"matrix dimension must be in [1, {MAX_DIM}], got {n}")
    scale = float(np.abs(a).max())
    if not math.isfinite(scale):  # a NaN or inf entry makes the max NaN or inf
        raise ValueError("matrix has non-finite entries")
    mismatch = float(np.abs(a - a.conj().T).max())
    if mismatch > HERMITICITY_TOL * max(scale, 1e-300):
        raise NonHermitianError(
            f"matrix is not Hermitian: max |H - H^dag| = {mismatch:.3e} "
            f"exceeds {HERMITICITY_TOL:.0e} * max|H| = {HERMITICITY_TOL * scale:.3e}"
        )
    return a


def hermitian_eig(h) -> EigenSystem:
    """Diagonalize a Hermitian matrix with LAPACK (numpy.linalg.eigh).

    Eigenvalues come back ascending; eigenvector columns are orthonormal with
    a fixed phase convention (largest-magnitude component real positive), so
    repeated calls are bitwise identical.
    """
    values, vectors = np.linalg.eigh(require_hermitian(h))
    mags = np.abs(vectors)
    rows = mags.argmax(axis=0)
    cols = np.arange(values.shape[0])
    vectors *= vectors[rows, cols].conj() / mags[rows, cols]
    vectors.imag[rows, cols] = 0.0  # kill rounding residue in the pivots
    return EigenSystem(values, vectors)


def evolve(h, psi, t: float) -> np.ndarray:
    """Propagate psi under a constant Hamiltonian for time t (units 1/MHz).

    psi(t) = V exp(-i 2 pi lambda t) V^dag psi(0); norm-preserving to
    rounding.  Time-dependent drives are handled by callers slicing time.
    A phase on any column of V cancels in this product, so the eigenvectors
    come straight from eigh without hermitian_eig's phase convention.
    """
    values, vectors = np.linalg.eigh(require_hermitian(h))
    state = np.asarray(psi, dtype=complex)
    if state.shape != values.shape:
        raise ValueError(
            f"state dimension {state.shape} does not match matrix dimension "
            f"{values.shape[0]}"
        )
    phases = np.exp(-2j * math.pi * values * t)
    return vectors @ (phases * (vectors.conj().T @ state))


def bracket_roots(
    f: Callable[[float], float], lo: float, hi: float, n_scan: int
) -> list[float]:
    """Locate roots of f on [lo, hi] by grid scan plus bisection.

    Every sign change between adjacent scan points (and every exact zero on
    the grid) is refined to an interval width of ROOT_XTOL.  Tangential roots
    that do not change sign are not detected.  Returns an ascending list with
    near-duplicates (closer than ROOT_MIN_SEPARATION) removed.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if n_scan < 2:
        raise ValueError(f"n_scan must be >= 2, got {n_scan}")
    xs = np.linspace(lo, hi, n_scan)
    fs = [float(f(float(x))) for x in xs]
    if not all(math.isfinite(y) for y in fs):
        raise ValueError("f is not finite on the scan grid")

    roots: list[float] = []
    for x, y in zip(xs, fs):
        if y == 0.0:
            roots.append(float(x))
    for i in range(n_scan - 1):
        fa, fb = fs[i], fs[i + 1]
        if fa == 0.0 or fb == 0.0 or (fa < 0.0) == (fb < 0.0):
            continue
        a, b = float(xs[i]), float(xs[i + 1])
        while b - a > ROOT_XTOL:
            mid = 0.5 * (a + b)
            fm = float(f(mid))
            if fm == 0.0:
                a = b = mid
                break
            if (fa < 0.0) != (fm < 0.0):
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))

    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] >= ROOT_MIN_SEPARATION:
            deduped.append(r)
    return deduped

"""Dense Hermitian eigensolver, unitary propagation and 1-D root bracketing.

All matrices here are small (dim <= 16) real or complex numpy arrays with
entries in MHz; a real input stays real.  Each is converted to float64 or
complex128 and shape-checked once (_square) and checked Hermitian once, by
one formula for real and complex.  The eigendecomposition is LAPACK's
Hermitian solver, called as numpy.linalg.eigh calls it, and hermitian_eig
returns its eigenvectors as they come, bitwise eigh's: their signs and phases
are LAPACK's, and repeated calls are bitwise identical.  Kets are
plain complex vectors normalized to 1.  A spin-1/2 needs no eigensolver:
spin_half_propagator is the SU(2) closed form exp(-i 2 pi K t) of a
traceless 2x2 Hermitian K, and gates builds its RF pulses and rotations
from its entries.

Three routes exist only for speed, each paid for by its own end-to-end number:
spin-gates work_per_ref on a copy without the route -> with it (bench/run.py, five
alternated 30 s pairs, seeds 1-5, 2-vCPU VM, numpy 2.4; the route read better in the
pairs counted, against the IQR of the runs with it):

* evolve steps a 2x2 H on its entries as Python numbers, by require_hermitian's
  rule and errors; larger H go through _eigh, whose phases cancel in
  V exp(-i 2 pi lambda t) V^dag: 0.0871 -> 0.1386 (x1.59, 5/5, IQR 0.0085).
* _eigh calls the LAPACK gufunc behind numpy.linalg.eigh under the error
  state eigh sets, skipping the dtype and shape handling _square has done;
  tests pin its bytes to eigh's: 0.1194 -> 0.1327 (+11.1 %, 5/5, IQR 0.0036).
* _check_hermitian_array subtracts H - H^dag without entering an error state
  when 2 max|H| is finite, where the subtraction cannot overflow:
  0.1242 -> 0.1339 (+7.8 %, 4/5, IQR 0.0081).
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg  # the gufunc behind eigh, see _eigh

from .errors import NonHermitianError

MAX_DIM = 16
HERMITICITY_TOL = 1e-12

ROOT_XTOL = 1e-10          # bisection interval width
ROOT_MIN_SEPARATION = 1e-8


class EigenSystem(NamedTuple):
    """Eigenvalues (real, ascending, MHz) and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _square(h) -> np.ndarray:
    """h as a float or complex array, checked square with dim in [1, MAX_DIM]."""
    a = np.asarray(h)
    a = np.asarray(a, dtype=complex if a.dtype.kind == "c" else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n < 1 or n > MAX_DIM:
        raise ValueError(f"matrix dimension must be in [1, {MAX_DIM}], got {n}")
    return a


def _check_hermitian(scale: float, mismatch: float) -> None:
    """Raise unless scale = max|H| is finite and mismatch = max|H - H^dag| is in tolerance.

    The array and the 2x2 scalar check both end here, so they fail alike.
    """
    if not math.isfinite(scale):  # a NaN or inf entry makes the max NaN or inf
        raise ValueError("matrix has non-finite entries")
    if mismatch > HERMITICITY_TOL * max(scale, 1e-300):
        raise NonHermitianError(
            f"matrix is not Hermitian: max |H - H^dag| = {mismatch:.3e} "
            f"exceeds {HERMITICITY_TOL:.0e} * max|H| = {HERMITICITY_TOL * scale:.3e}"
        )


def require_hermitian(h) -> np.ndarray:
    """Validate and return h as a finite square float or complex array, dim <= 16."""
    a = _square(h)
    _check_hermitian_array(a)
    return a


def _check_hermitian_array(a: np.ndarray) -> None:
    """require_hermitian's rule on an array that _square has already returned."""
    scale = float(np.abs(a).max())
    if 2.0 * scale < math.inf:
        mismatch = float(np.abs(a - a.conj().T).max())
    elif math.isfinite(scale):  # H - H^dag may overflow to inf, as the 2x2 check's does
        with np.errstate(over="ignore"):
            mismatch = float(np.abs(a - a.conj().T).max())
    else:  # a non-finite matrix is not subtracted (inf - inf warns)
        mismatch = math.nan
    _check_hermitian(scale, mismatch)


def _raise_nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


@np.errstate(call=_raise_nonconvergence, invalid="call",
             over="ignore", divide="ignore", under="ignore")
def _eigh(a: np.ndarray):
    """numpy.linalg.eigh(a) for an array that _square has returned.

    The same LAPACK call (?syevd or ?heevd on the lower triangle, through the
    gufunc numpy.linalg.eigh wraps) under the same error state, without the
    wrapper's dtype and shape handling that _square has already done.
    """
    return _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")


def _check_hermitian_2x2(h00, h01, h10, h11) -> None:
    """require_hermitian's rule on the four entries of a 2x2, as Python numbers.

    max|H - H^dag| is the larger of 2|Im h00|, 2|Im h11| and |h01 - conj(h10)|.
    """
    try:
        mags = (abs(h00), abs(h01), abs(h10), abs(h11))
    except OverflowError:  # Python's complex abs raises where numpy's gives inf
        mags = (math.inf,)
    total = sum(mags)  # NaN exactly when numpy's max of the magnitudes is NaN
    try:
        mismatch = max(
            2.0 * abs(h00.imag), 2.0 * abs(h11.imag), abs(h01 - h10.conjugate())
        )
    except OverflowError:
        mismatch = math.inf
    _check_hermitian(total if total != total else max(mags), mismatch)


def hermitian_eig(h) -> EigenSystem:
    """Diagonalize a Hermitian matrix with LAPACK (numpy.linalg.eigh).

    Eigenvalues come back ascending and eigenvector columns orthonormal, both
    bitwise what numpy.linalg.eigh returns.  No phase convention is imposed:
    each column's sign or phase is LAPACK's, and may differ between LAPACK
    builds, but repeated calls are bitwise identical.  A real matrix gets real
    eigenvectors.
    """
    return EigenSystem(*_eigh(require_hermitian(h)))


def _spin_half_entries(z: float, b: complex, t: float) -> tuple[complex, ...]:
    """(u00, u01, u10, u11) of spin_half_propagator(z, b, t), as Python complexes.

    Raises ValueError when |K|, the phase 2 pi |K| t or sin(2 pi |K| t) / |K|
    overflows; the last needs a subnormal |K| and t above ~1e307.
    """
    r = math.hypot(z, b.real, b.imag)
    theta = 2.0 * math.pi * r * t
    if not math.isfinite(theta):  # an infinite r makes theta inf, or NaN at t = 0
        raise ValueError(f"propagator phase overflows: 2 pi |K| t = {theta} "
                         f"for |K| = {r}, t = {t}")
    c = math.cos(theta)
    s = math.sin(theta) / r if r else 0.0
    if not math.isfinite(s):
        raise ValueError(f"propagator overflows: sin(2 pi |K| t) / |K| = {s} "
                         f"for |K| = {r}, t = {t}")
    sb = s * b
    return (complex(c, -s * z), complex(sb.imag, -sb.real),
            complex(-sb.imag, -sb.real), complex(c, s * z))


def spin_half_propagator(z: float, b: complex, t: float) -> np.ndarray:
    """exp(-i 2 pi K t) for the traceless Hermitian K = [[z, b], [b*, -z]].

    With r = |K| = sqrt(z^2 + |b|^2) and theta = 2 pi r t this is the SU(2)
    closed form cos(theta) 1 - i (sin(theta) / r) K; K = 0 gives 1.  z, b and
    t must be finite, which its callers check; an r or theta that overflows
    raises ValueError.
    """
    u00, u01, u10, u11 = _spin_half_entries(z, b, t)
    return np.array([[u00, u01], [u10, u11]])


def evolve(h, psi, t: float) -> np.ndarray:
    """Propagate psi under a constant Hamiltonian for time t (units 1/MHz).

    psi(t) = exp(-i 2 pi H t) psi(0); norm-preserving to rounding.
    Time-dependent drives are handled by callers slicing time.  Before any
    work, H must pass require_hermitian's rule and psi and t be finite.
    Like eigh, this reads the lower triangle and the real diagonal of H.  A
    2x2 H is checked and propagated on its four entries as Python numbers:
    its trace phase exp(-i pi (h00 + h11) t) times the spin_half_propagator
    entries of its traceless part.  Larger H go through
    V exp(-i 2 pi lambda t) V^dag, where a phase on any column of V cancels.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    a = _square(h)
    n = a.shape[0]
    if n == 2:
        (h00, h01), (h10, h11) = a.tolist()
        _check_hermitian_2x2(h00, h01, h10, h11)
    else:
        _check_hermitian_array(a)
    state = np.asarray(psi, dtype=complex)
    if state.shape != (n,):
        raise ValueError(
            f"state dimension {state.shape} does not match matrix dimension {n}"
        )
    amps = state.tolist()
    if not all(map(cmath.isfinite, amps)):
        raise ValueError("psi has non-finite entries")
    if n == 2:
        p0, p1 = amps
        u00, u01, u10, u11 = _spin_half_entries(
            0.5 * (h00.real - h11.real), h10.conjugate(), t
        )
        angle = -math.pi * (h00.real + h11.real) * t
        if not math.isfinite(angle):  # as theta in _spin_half_entries
            raise ValueError(f"propagator phase overflows: -pi (h00 + h11) t = {angle} "
                             f"for h00 + h11 = {h00.real + h11.real}, t = {t}")
        phase = cmath.rect(1.0, angle)
        return np.array([phase * (u00 * p0 + u01 * p1), phase * (u10 * p0 + u11 * p1)])
    values, vectors = _eigh(a)
    ascending = values.tolist()
    lam = max(-ascending[0], ascending[-1])  # max |lambda|
    theta = 2.0 * math.pi * lam * t
    if not math.isfinite(theta):  # as in _spin_half_entries
        raise ValueError(f"propagator phase overflows: 2 pi max|lambda| t = {theta} "
                         f"for max|lambda| = {lam}, t = {t}")
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

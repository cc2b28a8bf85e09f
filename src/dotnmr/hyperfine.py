"""Contact coupling between the electron pair and the central nucleus.

The electron density at the dot center for the lowest relative branch is

    Delta(m) = 1 / (pi l^2 2^(1+mu_m)),      l^2 = hbar / (m* omega),

reported here in oscillator-length units: Delta * l0^2 = sqrt(x^2+4) /
(pi 2^(1+mu_m)).  Exciting the center-of-mass into its first excited level
(infrared absorption; the relative motion is untouched) rescales the density
by (1 + mu_m)/2.  The spin-Hamiltonian coupling constant is A(m) =
hyperfine_c * Delta * l0^2 / 2 in MHz; singlet electrons are uncoupled.

Each function takes x as a float or an array and |m| as an int or an int
array of x's shape, so a sweep evaluates all its triplet rows in one call;
an array entry equals the scalar call's value bitwise.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import DotConfig, require_non_negative
from .spectrum import check_parity, effective_omega_ratio, mu_m


@functools.lru_cache(maxsize=64)
def _center_scales(alpha_tilde: float, top: int) -> np.ndarray:
    """Read-only pi 2^(1 + mu_m) for |m| = 0..top, each by Python's pow.

    numpy's vectorized pow can differ from Python's in the last bit, so an
    array of |m| gathers from this table to match the scalar route bitwise.
    """
    table = np.array([math.pi * 2.0 ** (1.0 + mu_m(m, alpha_tilde)) for m in range(top + 1)])
    table.flags.writeable = False
    return table


def _center_scale(m_abs, alpha_tilde: float):
    """pi 2^(1 + mu_m) for an int |m|, or an int array of them."""
    if isinstance(m_abs, int):
        return math.pi * 2.0 ** (1.0 + mu_m(m_abs, alpha_tilde))
    require_non_negative("m_abs", m_abs)
    return _center_scales(alpha_tilde, int(np.asarray(m_abs).max(initial=0))).take(m_abs)


def delta_m(cfg: DotConfig, x, m_abs):
    """Electron density at the nucleus, CM in its ground state, in 1/l0^2."""
    return effective_omega_ratio(x) / _center_scale(m_abs, cfg.alpha_tilde)


def delta_cm(cfg: DotConfig, x, m_abs):
    """Density with the CM in its first excited level: delta_m * (1+mu_m)/2."""
    return delta_m(cfg, x, m_abs) * 0.5 * (1.0 + mu_m(m_abs, cfg.alpha_tilde))


def coupling_a(cfg: DotConfig, x, m_abs, s_total: int, ir_excited: bool = False):
    """Hyperfine coupling A(m) in MHz; exactly 0 for the singlet."""
    check_parity(m_abs, s_total)
    if s_total == 0:
        return 0.0
    density = delta_cm(cfg, x, m_abs) if ir_excited else delta_m(cfg, x, m_abs)
    return 0.5 * cfg.hyperfine_c * density

"""Contact coupling between the electron pair and the central nucleus.

The electron density at the dot center for the lowest relative branch is

    Delta(m) = 1 / (pi l^2 2^(1+mu_m)),      l^2 = hbar / (m* omega),

reported here in oscillator-length units: Delta * l0^2 = sqrt(x^2+4) /
(pi 2^(1+mu_m)).  Exciting the center-of-mass into its first excited level
(infrared absorption; the relative motion is untouched) rescales the density
by (1 + mu_m)/2.  The spin-Hamiltonian coupling constant is A(m) =
hyperfine_c * Delta * l0^2 / 2 in MHz for the triplet.  The pair's spin S is
not an input: antisymmetry fixes it from |m| (spectrum.spin_for_m), and the
singlet of an even |m| is uncoupled, so A is exactly 0 there.

Each function takes x as a float or an array and |m| as an int or an int
array of x's shape, so a sweep evaluates all its triplet rows in one call;
an array entry equals the scalar call's value bitwise.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import DotConfig, require_non_negative
from .spectrum import effective_omega_ratio, mu_m, spin_for_m


@functools.lru_cache(maxsize=64)
def _center_scales(alpha_tilde: float, top: int) -> np.ndarray:
    """Read-only pi 2^(1 + mu_m) for |m| = 0..top, each by Python's pow.

    numpy's vectorized pow can differ from Python's in the last bit, so |m|
    gathers from this table to keep Python's value.  Where 2^(1 + mu_m)
    overflows (1 + mu_m >= 1024), which Python's pow raises on, the entry is
    inf, as IEEE arithmetic gives, so the density there is exactly 0.
    """
    mu = mu_m(np.arange(top + 1), alpha_tilde).tolist()
    table = np.array([math.pi * 2.0 ** (1.0 + v) if 1.0 + v < 1024.0 else math.inf for v in mu])
    table.flags.writeable = False
    return table


def _center_scale(m_abs, alpha_tilde: float):
    """pi 2^(1 + mu_m) for an int |m|, or an int array of them."""
    require_non_negative("m_abs", m_abs)
    return _center_scales(alpha_tilde, int(np.asarray(m_abs).max(initial=0))).take(m_abs)


def delta_m(cfg: DotConfig, x, m_abs):
    """Electron density at the nucleus, CM in its ground state, in 1/l0^2."""
    return effective_omega_ratio(x) / _center_scale(m_abs, cfg.alpha_tilde)


def delta_cm(cfg: DotConfig, x, m_abs):
    """Density with the CM in its first excited level: delta_m * (1+mu_m)/2."""
    return delta_m(cfg, x, m_abs) * 0.5 * (1.0 + mu_m(m_abs, cfg.alpha_tilde))


def coupling_a(cfg: DotConfig, x, m_abs, *, ir_excited: bool = False):
    """Hyperfine coupling A(m) in MHz: exactly 0 for an even |m| (singlet), S = spin_for_m(|m|)."""
    density = delta_cm(cfg, x, m_abs) if ir_excited else delta_m(cfg, x, m_abs)
    return 0.5 * cfg.hyperfine_c * density * spin_for_m(m_abs)

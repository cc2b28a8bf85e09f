"""Contact coupling between the electron pair and the central nucleus.

The electron density at the dot center for the lowest relative branch, with
the center of mass (CM) in its ground state, is

    Delta(m) = 1 / (pi l^2 2^(1+mu_m)),      l^2 = hbar / (m* omega),

where omega = omega_0 sqrt(x^2+4) (spectrum.effective_omega_ratio), so l is
the CM oscillator length.  It is reported here in oscillator-length units:
Delta * l0^2 = sqrt(x^2+4) / (pi 2^(1+mu_m)).  Exciting the CM into its level
with |m_cm| = 1 and no radial node (infrared absorption; the relative motion
is untouched) rescales the density by (1 + mu_m)/2.  The tests derive these
three results with sympy.  The spin-Hamiltonian coupling constant is A(m) =
hyperfine_c * Delta * l0^2 / 2 in MHz for the triplet.  The pair's spin S is
not an input: antisymmetry fixes it from |m| (spectrum.spin_for_m), and the
singlet of an even |m| is uncoupled, so A is exactly 0 there.

Each function takes x as a float or an array and |m| as an int or an int
array of x's shape, so a sweep evaluates all its triplet rows in one call;
an array entry equals the scalar call's value bitwise.  pi 2^(1+mu_m) is one
table per alpha_tilde, |m| = 0..1022; a larger |m| reads its inf last entry.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import DotConfig, require_non_negative
from .spectrum import effective_omega_ratio, mu_m, spin_for_m


@functools.lru_cache(maxsize=64)
def _center_scales(alpha_tilde: float) -> np.ndarray:
    """Read-only pi 2^(1 + mu_m) for |m| = 0..1022, each by Python's pow.

    numpy's vectorized pow can differ from Python's in the last bit, so |m|
    gathers from this table to keep Python's value.  Where pi 2^(1 + mu_m)
    overflows the entry is inf, as IEEE arithmetic gives (Python's pow raises
    from 2^1024 on), so the density there is exactly 0.  From |m| = 1022 on,
    pi 2^(1 + mu_m) >= pi 2^1023 overflows for every alpha_tilde >= 0, so the
    table ends there.
    """
    mu = mu_m(np.arange(1023), alpha_tilde).tolist()
    table = np.array([math.pi * 2.0 ** (1.0 + v) if 1.0 + v < 1024.0 else math.inf for v in mu])
    table.flags.writeable = False
    return table


def delta_m(cfg: DotConfig, x, m_abs):
    """Electron density at the nucleus, CM in its ground state, in 1/l0^2."""
    require_non_negative("m_abs", m_abs)
    return effective_omega_ratio(x) / _center_scales(cfg.alpha_tilde).take(m_abs, mode="clip")


def delta_cm(cfg: DotConfig, x, m_abs):
    """Density with the CM in its |m_cm| = 1 level: delta_m * (1+mu_m)/2."""
    return delta_m(cfg, x, m_abs) * 0.5 * (1.0 + mu_m(m_abs, cfg.alpha_tilde))


def coupling_a(cfg: DotConfig, x, m_abs, *, ir_excited: bool = False):
    """Hyperfine coupling A(m) in MHz: exactly 0 for an even |m| (singlet), S = spin_for_m(|m|)."""
    density = delta_cm(cfg, x, m_abs) if ir_excited else delta_m(cfg, x, m_abs)
    return 0.5 * cfg.hyperfine_c * density * spin_for_m(m_abs)

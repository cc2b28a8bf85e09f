"""Contact coupling between the electron pair and the central nucleus.

The electron density at the dot center for the lowest relative branch is

    Delta(m) = 1 / (pi l^2 2^(1+mu_m)),      l^2 = hbar / (m* omega),

reported here in oscillator-length units: Delta * l0^2 = sqrt(x^2+4) /
(pi 2^(1+mu_m)).  Exciting the center-of-mass into its first excited level
(infrared absorption; the relative motion is untouched) rescales the density
by (1 + mu_m)/2.  The spin-Hamiltonian coupling constant is A(m) =
hyperfine_c * Delta * l0^2 / 2 in MHz; singlet electrons are uncoupled.
"""

from __future__ import annotations

import math

from .config import DotConfig
from .errors import ParityError
from .spectrum import effective_omega_ratio, mu_m, spin_for_m


def delta_m(cfg: DotConfig, x: float, m_abs: int) -> float:
    """Electron density at the nucleus, CM in its ground state, in 1/l0^2."""
    return effective_omega_ratio(x) / (math.pi * 2.0 ** (1.0 + mu_m(m_abs, cfg.alpha_tilde)))


def delta_cm(cfg: DotConfig, x: float, m_abs: int) -> float:
    """Density with the CM in its first excited level: delta_m * (1+mu_m)/2."""
    return delta_m(cfg, x, m_abs) * 0.5 * (1.0 + mu_m(m_abs, cfg.alpha_tilde))


def coupling_a(
    cfg: DotConfig, x: float, m_abs: int, s_total: int, ir_excited: bool = False
) -> float:
    """Hyperfine coupling A(m) in MHz; exactly 0 for the singlet."""
    if s_total != spin_for_m(m_abs):
        raise ParityError(
            f"(|m|={m_abs}, S={s_total}) violates the parity rule: even m pairs "
            "with S=0, odd m with S=1"
        )
    if s_total == 0:
        return 0.0
    density = delta_cm(cfg, x, m_abs) if ir_excited else delta_m(cfg, x, m_abs)
    return 0.5 * cfg.hyperfine_c * density

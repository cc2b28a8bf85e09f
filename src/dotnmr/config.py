"""Physical parameters of the dot-plus-nucleus system and unit conversions.

Unit bookkeeping used throughout the package:

* orbital-sector energies are dimensionless, in units of the confinement
  quantum hbar*omega0;
* spin-sector energies are frequencies in MHz (energy divided by Planck's
  constant);
* the magnetic field enters through the dimensionless ratio
  x = omega_c / omega_0, with omega_c = e*B/m* the cyclotron frequency.

validate_config owns the rule for every DotConfig field, from its type to its
range, and SweepSpec the rule for its own fields, so load_config only parses.
A value must be a Python int or float (np.float64 is one) but no bool, m_max an
int, as JSON gives them, since the manifest writes the config as JSON.  The
require_* guards check the values computed from them where each enters.

The guards compare a Python int or float directly, numpy's reductions being
for arrays; with numpy's route for all values, spin-gates work_per_ref read
0.1213 -> 0.0881 (-27 %, worse in 5/5 alternated 30 s pairs of bench/run.py,
parent IQR 0.0067, 2-vCPU VM).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError

# Free-electron cyclotron energy per Tesla (meV/T), i.e. twice the Bohr
# magneton.  Inverts omega_c = e*B/m*:  B = x * hbar_omega0 * mstar_ratio / K_CYC.
K_CYC_MEV_PER_T = 0.1157676

# Bohr magneton as a frequency, MHz/T.  gamma_e for a g-factor g is
# g * MU_B_MHZ_PER_T; used only for the g/gamma_e consistency warning.
MU_B_MHZ_PER_T = 13996.2449


@dataclass(frozen=True)
class DotConfig:
    """Material, dot and nuclear parameters.  Immutable once validated.

    Defaults describe a silicon dot with a central spin-1/2 carbon nucleus:
    gamma_n/gamma_e are the standard 13C/electron gyromagnetic ratios and
    hyperfine_c is the contact strength C/l0^2 = 60 MHz.  The confinement
    energy and mass ratio are chosen so the first singlet-triplet boundary
    sits near 1.6 T; both stay configurable.
    """

    hbar_omega0: float = 2.5      # confinement energy, meV
    mstar_ratio: float = 0.19     # effective mass m*/m_e
    g_factor: float = 2.0         # |g*| >= 0
    gamma_n: float = 10.7084      # nuclear gyromagnetic ratio, MHz/T
    gamma_e: float = 28024.95     # electron gyromagnetic ratio, MHz/T
    hyperfine_c: float = 60.0     # contact coupling C/l0^2, MHz
    alpha_tilde: float = 3.0      # repulsion strength (alpha/l0^2)/(hbar omega0)
    m_max: int = 15               # largest |m| scanned for the ground state


CONFIG_FIELDS = tuple(f.name for f in fields(DotConfig))
# The staircase takes time and memory linear in m_max (~0.2 s at this cap on a 2-vCPU
# VM), and no label from |m| = 1022 on couples to the nucleus (its 2^(1 + mu_m) overflows)
M_MAX_LIMIT = 100_000
# JSON types and their name in errors, by annotation text (annotations are postponed here)
_JSON_TYPES = {"float": ((int, float), "a number"), "int": ((int,), "an integer"),
               "bool": ((bool,), "a boolean")}


def require_field_types(obj) -> None:
    """Raise ConfigError naming obj's first field, in order, not of its annotated JSON type."""
    for name, value in vars(obj).items():
        types, noun = _JSON_TYPES[obj.__dataclass_fields__[name].type]
        if type(value) not in types and (isinstance(value, bool) or not isinstance(value, types)):
            raise ConfigError(f"{name} must be {noun}, got {value!r}")


def require_finite_field(name: str, value) -> None:
    """Raise ConfigError naming the int or float field name unless value is finite as a float.

    An int too large for a float fails too; its message does not show it, since
    str() of an int over 4,300 digits raises as well.
    """
    try:
        if math.isfinite(value):
            return
    except OverflowError:
        raise ConfigError(f"{name} must be finite, got an integer too large for a float") from None
    raise ConfigError(f"{name} must be finite, got {value}")


def validate_config(cfg: DotConfig) -> DotConfig:
    """Check all parameter invariants; returns cfg unchanged when valid.

    Types come first, then finiteness, then ranges, each raising ConfigError naming
    the field.  Soft inconsistencies (gamma_e vs g_factor, gamma_e/gamma_n) only warn.
    """
    require_field_types(cfg)
    for name, value in vars(cfg).items():
        require_finite_field(name, value)
    if not cfg.hbar_omega0 > 0:
        raise ConfigError(f"hbar_omega0 must be > 0, got {cfg.hbar_omega0}")
    if not cfg.mstar_ratio > 0:
        raise ConfigError(f"mstar_ratio must be > 0, got {cfg.mstar_ratio}")
    if cfg.g_factor < 0:
        raise ConfigError(f"g_factor is |g*| and must be >= 0, got {cfg.g_factor}")
    if not 5 <= cfg.m_max <= M_MAX_LIMIT:
        raise ConfigError(f"m_max must be in [5, {M_MAX_LIMIT}], got {cfg.m_max}")
    if not cfg.gamma_n > 0:
        raise ConfigError(f"gamma_n must be > 0, got {cfg.gamma_n}")
    if not cfg.gamma_e > cfg.gamma_n:
        raise ConfigError(
            f"gamma_e must exceed gamma_n, got gamma_e={cfg.gamma_e}, gamma_n={cfg.gamma_n}"
        )
    if cfg.alpha_tilde < 0:
        raise ConfigError(f"alpha_tilde must be >= 0, got {cfg.alpha_tilde}")
    if cfg.hyperfine_c < 0:
        raise ConfigError(f"hyperfine_c must be >= 0, got {cfg.hyperfine_c}")

    if cfg.gamma_e < 100.0 * cfg.gamma_n:
        warnings.warn(
            f"gamma_e ({cfg.gamma_e} MHz/T) is less than 100x gamma_n "
            f"({cfg.gamma_n} MHz/T); the electron-Zeeman-dominated regime "
            "assumed by the resonance formulas may not hold",
            stacklevel=2,
        )
    expected_gamma_e = cfg.g_factor * MU_B_MHZ_PER_T
    if expected_gamma_e > 0 and abs(cfg.gamma_e / expected_gamma_e - 1.0) > 0.02:
        warnings.warn(
            f"gamma_e ({cfg.gamma_e} MHz/T) differs from g_factor*mu_B/h "
            f"({expected_gamma_e:.2f} MHz/T) by more than 2%",
            stacklevel=2,
        )
    return cfg


def require_non_negative(name: str, value) -> None:
    """Raise ValueError unless value (a number or an array) is >= 0 throughout; NaN fails.

    A Python scalar is compared directly, since numpy costs microseconds per call; an
    array's minimum is NaN if any entry is.  The message shows a scalar itself and an
    array's first failing entry.
    """
    if not (value >= 0 if isinstance(value, (int, float))
            else np.asarray(value).min(initial=0) >= 0):
        raise ValueError(f"{name} must be >= 0, got {_first_failing(value, lambda v: v >= 0)}")


def require_finite_non_negative(name: str, value) -> None:
    """require_non_negative, and raise ValueError naming value where it is +inf."""
    require_non_negative(name, value)
    if not (value if isinstance(value, (int, float)) else np.max(value, initial=0)) < math.inf:
        raise ValueError(f"{name} must be finite, got {_first_failing(value, np.isfinite)}")


def _first_failing(value, passes):
    """value if a Python scalar, else the first entry of the array value where passes fails."""
    if isinstance(value, (int, float)):
        return value
    flat = np.ravel(value)
    return flat[np.argmin(passes(flat))]


def b_field_from_ratio(cfg: DotConfig, x):
    """Magnetic field in Tesla for a ratio x = omega_c/omega_0 (float or array).

    The one owner of B's finiteness: raises FloatingPointError naming the first x whose B
    is not finite (it overflows for a large x * hbar_omega0 * mstar_ratio), so every entry
    point fails alike and nothing downstream meets an infinite B.  A float is compared
    directly, an array by one reduction.
    """
    require_non_negative("x", x)
    b = x * cfg.hbar_omega0 * cfg.mstar_ratio / K_CYC_MEV_PER_T
    if not (b if isinstance(b, float) else np.max(b, initial=0)) < math.inf:
        bad = x if isinstance(b, float) else np.ravel(x)[np.argmin(np.isfinite(b).ravel())]
        raise FloatingPointError(f"magnetic field is not finite at x = {bad}")
    return b


def nuclear_larmor_mhz(cfg: DotConfig, b_tesla):
    """Bare nuclear resonance gamma_n * B in MHz (the undoped-dot signal)."""
    return cfg.gamma_n * b_tesla

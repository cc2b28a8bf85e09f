"""Field-ratio sweep: the 14 output columns computed at once over an x grid.

The orbital ground state, the contact coupling (with and without infrared
excitation of the center of mass) and the resulting nuclear resonance are
evaluated column-wise, over all triplet rows at once.  In singlet windows
the nucleus is decoupled: the coupling and shift columns are exactly 0 and
both resonance columns equal the bare Larmor frequency.

SweepSpec checks its fields' types and its bounds' finiteness when built;
run_sweep checks the grid's ranges and its own steps, which may be a numpy
integer there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DotConfig, b_field_from_ratio, nuclear_larmor_mhz, require_field_types
from .errors import ConfigError
from .hyperfine import coupling_a, delta_cm, delta_m
from .spectrum import ground_m_abs, ground_state_at, mu_m, spin_for_m
from .spin_hamiltonian import nmr_closed_form


class Sweep(NamedTuple):
    """Sweep columns, one array entry per grid point; field order is the CSV order."""

    x: np.ndarray
    b_tesla: np.ndarray
    m_abs: np.ndarray
    s_total: np.ndarray
    mu_m: np.ndarray
    delta_l0sq: np.ndarray
    delta_cm_l0sq: np.ndarray
    a_mhz: np.ndarray
    a_cm_mhz: np.ndarray
    f0_mhz: np.ndarray
    f_nmr_mhz: np.ndarray
    f_nmr_ir_mhz: np.ndarray
    shift: np.ndarray
    shift_ir: np.ndarray


SWEEP_COLUMNS = Sweep._fields


@dataclass(frozen=True)
class SweepSpec:
    """Grid of the default sweep; ir selects the IR column for plotting.  Checked when built."""

    x_min: float = 0.05
    x_max: float = 5.0
    steps: int = 500
    ir: bool = False

    def __post_init__(self):
        require_field_types(self)
        for name in ("x_min", "x_max"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")


def sweep_row(cfg: DotConfig, x) -> Sweep:
    """Sweep columns at the ratios x > 0 (a 1-D array, or a float for one row)."""
    x = np.array(x, dtype=float, ndmin=1)
    m_abs = ground_m_abs(cfg, x)
    s_total = spin_for_m(m_abs)
    b = b_field_from_ratio(cfg, x)
    f0 = nuclear_larmor_mhz(cfg, b)
    density, density_cm, a, a_cm = np.zeros((4, len(x)))
    f_nmr, f_nmr_ir = f0.copy(), f0.copy()
    triplet = np.flatnonzero(s_total)
    xs, ms, bs = x[triplet], m_abs[triplet], b[triplet]
    density[triplet] = delta_m(cfg, xs, ms)
    density_cm[triplet] = delta_cm(cfg, xs, ms)
    a[triplet] = a_t = coupling_a(cfg, xs, ms)
    a_cm[triplet] = a_cm_t = coupling_a(cfg, xs, ms, ir_excited=True)
    f_nmr[triplet] = nmr_closed_form(a_t, bs, cfg)
    f_nmr_ir[triplet] = nmr_closed_form(a_cm_t, bs, cfg)
    # singlet rows keep f_nmr == f0 exactly, so their shifts are exactly 0
    return Sweep(x, b, m_abs, s_total, mu_m(m_abs, cfg.alpha_tilde), density, density_cm, a,
                 a_cm, f0, f_nmr, f_nmr_ir, (f_nmr - f0) / f0, (f_nmr_ir - f0) / f0)


def run_sweep(cfg: DotConfig, x_min: float, x_max: float, steps: int) -> Sweep:
    """Uniform inclusive grid of sweep columns, deterministic for fixed inputs.

    steps must be an int or a numpy integer (not a bool).  Raises
    FloatingPointError naming the first x whose row is not finite, and warns
    once when the ground state reaches m_max inside the window.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
        raise ConfigError(f"steps must be an integer, got {steps!r}")
    if steps < 2:
        raise ConfigError(f"steps must be >= 2, got {steps}")
    if not x_min > 0:
        raise ConfigError(f"x_min must be > 0 (the bare Larmor f0 vanishes at B=0), got {x_min}")
    if not x_min < x_max:
        raise ConfigError(f"need x_min < x_max, got [{x_min}, {x_max}]")
    x = x_min + np.arange(steps) * ((x_max - x_min) / (steps - 1))
    x[-1] = x_max
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, naming x
        sweep = sweep_row(cfg, x)
    if not all(np.isfinite(column).all() for column in sweep):
        finite = np.all([np.isfinite(column) for column in sweep], axis=0)
        raise FloatingPointError(f"sweep row is not finite at x = {x[np.argmin(finite)]}")
    # labels only rise with x, so the last point alone decides the m_max warning
    ground_state_at(cfg, x_max)
    return sweep

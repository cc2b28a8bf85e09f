"""Field-ratio sweep: the 14 output columns computed at once over an x grid.

The orbital ground state, the contact coupling (with and without infrared
excitation of the center of mass) and the resulting nuclear resonance are
evaluated column-wise over every row at once, one resonance chain per IR mode,
with singlet rows masked rather than split off.  In singlet windows the
nucleus is decoupled: the density and coupling columns are exactly 0, both
resonance columns equal the bare Larmor frequency, and the shift columns are
exactly 0 where f0 > 0.

SweepSpec checks its fields' types and its bounds' finiteness when built;
run_sweep checks the grid's ranges and its own steps, which may be a numpy
integer there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DotConfig, require_field_types, require_finite_field
from .errors import ConfigError
from .hyperfine import delta_cm, delta_m
from .spectrum import ground_m_abs, ground_state_at, mu_m, spin_for_m
from .spin_hamiltonian import _resonance_chain

# A 100k-row CLI sweep with SVG peaks at ~59 MB RSS (2-vCPU VM), so by linear scaling a sweep
# at this cap stays near 1.2 GB, under ~2 GB
STEPS_LIMIT = 2_000_000


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
        require_finite_field("x_min", self.x_min)
        require_finite_field("x_max", self.x_max)


def sweep_row(cfg: DotConfig, x) -> Sweep:
    """Sweep columns at the ratios x > 0 (a 1-D array, or a float for one row).

    B, f0, A, f and the shifts come from the closed-form chain that relative_shift reads
    too (spin_hamiltonian._resonance_chain), run once per IR mode over every row; the
    density columns are masked by S = spin_for_m(|m|), as A is.  A shift needs f0 > 0, is
    NaN where f0 has underflowed (run_sweep then fails naming x), and carries an absolute
    error of up to ~6.7e-13.
    """
    x = np.array(x, dtype=float, ndmin=1)
    m_abs = ground_m_abs(cfg, x)
    spin = spin_for_m(m_abs)
    b, f0, a, f, shift = _resonance_chain(cfg, x, m_abs, False)
    *_, a_cm, f_ir, shift_ir = _resonance_chain(cfg, x, m_abs, True)
    return Sweep(x, b, m_abs, spin, mu_m(m_abs, cfg.alpha_tilde), delta_m(cfg, x, m_abs) * spin,
                 delta_cm(cfg, x, m_abs) * spin, a, a_cm, f0, f, f_ir, shift, shift_ir)


def run_sweep(cfg: DotConfig, x_min: float, x_max: float, steps: int) -> Sweep:
    """Uniform inclusive grid of sweep columns, deterministic for fixed inputs.

    steps must be an int or a numpy integer (not a bool) in [2, STEPS_LIMIT].  Raises
    FloatingPointError naming the first x whose row is not finite, and warns
    once when the window reaches past the x where a label above m_max takes over.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
        raise ConfigError(f"steps must be an integer, got {steps!r}")
    if not 2 <= steps <= STEPS_LIMIT:  # before the grid is allocated
        raise ConfigError(f"steps must be in [2, {STEPS_LIMIT}], got {steps}")
    if not x_min > 0:
        raise ConfigError(f"x_min must be > 0 (the bare Larmor f0 vanishes at B=0), got {x_min}")
    if not x_min < x_max:
        raise ConfigError(f"need x_min < x_max, got [{x_min}, {x_max}]")
    x = x_min + np.arange(steps) * ((x_max - x_min) / (steps - 1))
    x[-1] = x_max
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported below, naming x
        sweep = sweep_row(cfg, x)
    if not all(np.isfinite(column).all() for column in sweep):
        finite = np.all([np.isfinite(column) for column in sweep], axis=0)
        raise FloatingPointError(f"sweep row is not finite at x = {x[np.argmin(finite)]}")
    # the grid's largest x alone decides the m_max warning
    ground_state_at(cfg, x_max)
    return sweep

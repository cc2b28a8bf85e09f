"""Two-electron orbital spectrum and magic-number ground-state transitions.

Center-of-mass and relative motion separate exactly for a parabolic dot, and
the inverse-square electron repulsion keeps the relative problem solvable in
closed form.  The lowest relative branch for angular momentum |m| is

    E_rel(m) / hbar*omega0 = sqrt(x^2 + 4)/2 * (1 + mu_m) - |m| * x / 2,

with mu_m = sqrt(m^2 + alpha_tilde) absorbing the repulsion strength.  The
center-of-mass ground energy is independent of (m, S) and drops out of all
ground-state comparisons, as does the MHz-scale hyperfine energy (nine orders
of magnitude below the meV orbital scale).

Fermion antisymmetry ties total spin to the parity of m: even m pairs with
the singlet (S=0), odd m with the triplet (S=1).  The triplet rides the
S_z = -1 Zeeman branch.  As the field ratio x grows the ground state hops
through the magic-number sequence (0,0), (1,1), (3,1), (5,1), ...

Every pair of labels crosses at most once, at a closed-form x (Wagner, Merkt
& Chaplik, PRB 45, 1951 (1992)), so the boundaries come from walking the lower
envelope label by label, with no scan or root search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import DotConfig, require_non_negative, zeeman_ratio
from .errors import ParityError


def spin_for_m(m_abs: int) -> int:
    """Total spin forced by antisymmetry: 0 for even |m|, 1 for odd."""
    return m_abs % 2


def check_parity(m_abs: int, s_total: int) -> None:
    """Raise ParityError unless S is the spin that antisymmetry forces for |m|."""
    if s_total != spin_for_m(m_abs):
        raise ParityError(
            f"(|m|={m_abs}, S={s_total}) violates the parity rule: even m pairs "
            "with S=0, odd m with S=1"
        )


def mu_m(m_abs: int, alpha_tilde: float) -> float:
    """Effective angular-momentum index sqrt(m^2 + alpha_tilde)."""
    if m_abs < 0:
        raise ValueError(f"m_abs must be >= 0, got {m_abs}")
    if alpha_tilde < 0:
        raise ValueError(f"alpha_tilde must be >= 0, got {alpha_tilde}")
    return math.sqrt(m_abs * m_abs + alpha_tilde)


def effective_omega_ratio(x):
    """Hybrid frequency over omega_0: sqrt(x^2 + 4), for a float or an array x."""
    require_non_negative("x", x)
    return np.sqrt(x * x + 4.0)


def _ground_energy(m_abs: int, s_total: int, alpha_tilde: float, omega, zeeman, x):
    """total_ground_energy from omega = effective_omega_ratio(x) and zeeman = zeeman_ratio."""
    e = 0.5 * omega * (1.0 + mu_m(m_abs, alpha_tilde)) - 0.5 * m_abs * x
    if s_total == 1:
        e = e - zeeman
    return e


def rel_ground_energy(m_abs: int, alpha_tilde: float, x):
    """Lowest relative-motion energy for angular momentum |m|, in hbar*omega0."""
    return _ground_energy(m_abs, 0, alpha_tilde, effective_omega_ratio(x), 0.0, x)


def total_ground_energy(m_abs: int, s_total: int, cfg: DotConfig, x):
    """Relative plus spin-Zeeman energy in hbar*omega0 (CM constant omitted).

    The triplet contributes -zeeman_ratio (its S_z = -1 branch); the singlet
    has no electron Zeeman energy.
    """
    check_parity(m_abs, s_total)
    return _ground_energy(
        m_abs, s_total, cfg.alpha_tilde, effective_omega_ratio(x), zeeman_ratio(cfg, x), x
    )


@dataclass(frozen=True)
class OrbitalGround:
    """Orbital ground-state label (|m|, S) at ratio x."""

    x: float
    m_abs: int
    s_total: int
    at_search_boundary: bool = False

    def __post_init__(self):
        check_parity(self.m_abs, self.s_total)

    @property
    def label(self) -> tuple[int, int]:
        return (self.m_abs, self.s_total)


@dataclass(frozen=True)
class TransitionPoint:
    """Ground-state boundary: at x_star the labels swap from_state -> to_state."""

    x_star: float
    from_state: tuple[int, int]
    to_state: tuple[int, int]

    def __post_init__(self):
        if not self.x_star > 0:
            raise ValueError(f"x_star must be > 0, got {self.x_star}")
        if self.from_state == self.to_state:
            raise ValueError("transition endpoints must differ")
        if not self.to_state[0] > self.from_state[0]:
            raise ValueError(
                f"|m| must increase across a transition, got "
                f"{self.from_state} -> {self.to_state}"
            )


def ground_m_abs(cfg: DotConfig, x):
    """Ground-state |m| at a float or an array x (S is spin_for_m(|m|)).

    The lowest total_ground_energy over m in [0, m_max]; ties go to the smaller |m|.
    Raises FloatingPointError naming the first x whose lowest energy is not
    finite (x near 1e154 and above overflows x^2).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, naming x
        omega, zeeman = effective_omega_ratio(x), zeeman_ratio(cfg, x)
        energies = np.stack([
            _ground_energy(m, spin_for_m(m), cfg.alpha_tilde, omega, zeeman, x)
            for m in range(cfg.m_max + 1)
        ])
    finite = np.isfinite(energies.min(axis=0))
    if not finite.all():
        bad = np.ravel(x)[np.argmin(np.ravel(finite))]
        raise FloatingPointError(f"ground-state energy is not finite at x = {bad}")
    return np.argmin(energies, axis=0)


def ground_state_at(cfg: DotConfig, x: float) -> OrbitalGround:
    """Ground-state label at one ratio x (see ground_m_abs).

    When the minimum lands on m_max itself the true ground state may lie
    outside the searched window, so the result carries a boundary flag and a
    warning is issued.
    """
    best_m = int(ground_m_abs(cfg, x))
    at_boundary = best_m == cfg.m_max
    if at_boundary:
        warnings.warn(
            f"ground-state search hit m_max={cfg.m_max} at x={x}; "
            "increase m_max to trust this result",
            stacklevel=2,
        )
    return OrbitalGround(
        x=x,
        m_abs=best_m,
        s_total=spin_for_m(best_m),
        at_search_boundary=at_boundary,
    )


def magic_transitions(cfg: DotConfig, x_lo: float, x_hi: float) -> list[TransitionPoint]:
    """Locate every ground-state change in (x_lo, x_hi) by walking the envelope.

    Any label b with |m| above the current label a crosses it at most once,
    at the exact root of sqrt(x^2+4) (mu_b - mu_a) = x (d|m| + g m*/m_e dS):

        x* = 2 / sqrt(k^2 - 1),   k = (d|m| + g m*/m_e dS) / (mu_b - mu_a),

    and never when k <= 1.  Labels with smaller |m| never return, so the next
    boundary is the smallest such x* above the current one.
    """
    if not 0 <= x_lo < x_hi:
        raise ValueError(f"need 0 <= x_lo < x_hi, got [{x_lo}, {x_hi}]")
    zeeman_slope = cfg.g_factor * cfg.mstar_ratio
    m_a, s_a = ground_state_at(cfg, x_lo).label
    x = x_lo
    points: list[TransitionPoint] = []
    while m_a < cfg.m_max:
        mu_a = mu_m(m_a, cfg.alpha_tilde)
        best = None
        for m_b in range(m_a + 1, cfg.m_max + 1):
            k = (m_b - m_a + zeeman_slope * (spin_for_m(m_b) - s_a)) / (
                mu_m(m_b, cfg.alpha_tilde) - mu_a
            )
            if k > 1.0:
                x_star = 2.0 / math.sqrt(k * k - 1.0)
                if x < x_star < x_hi and (best is None or x_star < best[0]):
                    best = (x_star, m_b)
        if best is None:
            break
        x, m_b = best
        s_b = spin_for_m(m_b)
        points.append(TransitionPoint(x_star=x, from_state=(m_a, s_a), to_state=(m_b, s_b)))
        m_a, s_a = m_b, s_b
        if m_a == cfg.m_max:
            warnings.warn(
                f"ground-state walk reached m_max={cfg.m_max} at x={x}; "
                "increase m_max to trust the boundaries above it",
                stacklevel=2,
            )
    return points

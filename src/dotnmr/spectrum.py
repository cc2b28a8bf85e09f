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
& Chaplik, PRB 45, 1951 (1992)), so the whole staircase comes from one walk
along the lower envelope from x = 0, with no scan or root search.  It is
computed once per (frozen, hashable) DotConfig and cached: the ground state
at any x is a binary search over its crossings, and the transitions in a
window are a slice of it.

spin_for_m alone owns the parity rule: every label's S comes from it, and
hyperfine.coupling_a takes no S but works it out from |m|.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .config import DotConfig, require_non_negative


def spin_for_m(m_abs: int) -> int:
    """Total spin forced by antisymmetry: 0 for even |m|, 1 for odd (an int or an int array)."""
    return m_abs & 1


def mu_m(m_abs, alpha_tilde: float):
    """Effective angular-momentum index sqrt(m^2 + alpha_tilde), for an int or an int array |m|.

    np.sqrt rounds correctly, so each value equals math.sqrt's.
    """
    if not alpha_tilde >= 0:
        raise ValueError(f"alpha_tilde must be >= 0, got {alpha_tilde}")
    require_non_negative("m_abs", m_abs)
    return np.sqrt(m_abs * m_abs + alpha_tilde)


def effective_omega_ratio(x):
    """Hybrid frequency over omega_0: sqrt(x^2 + 4), for a float or an array x."""
    require_non_negative("x", x)
    return np.sqrt(x * x + 4.0)


class OrbitalGround(NamedTuple):
    """Orbital ground-state label (|m|, S) at ratio x, with S = spin_for_m(|m|)."""

    x: float
    m_abs: int
    s_total: int
    at_search_boundary: bool = False

    @property
    def label(self) -> tuple[int, int]:
        return (self.m_abs, self.s_total)


class TransitionPoint(NamedTuple):
    """Ground-state boundary: at x_star > 0 the labels swap from_state -> to_state, |m| rising."""

    x_star: float
    from_state: tuple[int, int]
    to_state: tuple[int, int]


# An entry holds under 1 KB (two short arrays and its DotConfig key), so 256
# of them stay far below the process's ~40 MB; a scan over up to 256 devices
# in one process walks each envelope once.  A miss costs one walk, about as
# much as an energy argmin over all m_max + 1 labels at a single x.
@functools.lru_cache(maxsize=256)
def _staircase(cfg: DotConfig) -> tuple[np.ndarray, np.ndarray]:
    """The ground-state staircase of cfg: (crossings, labels), read-only arrays.

    labels[i] is the ground-state |m| from crossings[i - 1] to crossings[i]; the
    first holds from x = 0, where (0, 0) always wins, the last up to inf.  A
    label b above the current a crosses it at most once, at the root of
    sqrt(x^2+4) (mu_b - mu_a) = x (d|m| + g m*/m_e dS), and never when k <= 1:

        x* = 2 / sqrt(k^2 - 1),   k = (d|m| + g m*/m_e dS) / (mu_b - mu_a).

    Smaller |m| never return, so the next crossing is the smallest x* ahead: one
    behind x can only be a crossing of three or more labels at x, seen through
    rounding, and it moves the walk on at x without a window.
    """
    zeeman_slope = cfg.g_factor * cfg.mstar_ratio
    require_non_negative("g_factor * mstar_ratio", zeeman_slope)
    mu = mu_m(np.arange(cfg.m_max + 1), cfg.alpha_tilde).tolist()
    spin = [spin_for_m(m) for m in range(cfg.m_max + 1)]
    x, a, crossings, labels = 0.0, 0, [], [0]
    while a < cfg.m_max:
        next_x, next_b = math.inf, None
        for b in range(a + 1, cfg.m_max + 1):
            d_slope, d_mu = b - a + zeeman_slope * (spin[b] - spin[a]), mu[b] - mu[a]
            # mu_b == mu_a once alpha_tilde swamps m^2 (~4.5e15): b then undercuts a at
            # every x > 0 (k = +inf, x* = 0) if its slope is steeper, and never if not
            k = d_slope / d_mu if d_mu else (math.inf if d_slope > 0 else -math.inf)
            # strict < keeps the smaller |m| on a tie
            if k > 1.0 and (x_b := 2.0 / math.sqrt(k * k - 1.0)) < next_x:
                next_x, next_b = x_b, b
        if next_b is None:
            break
        if next_x > x:
            crossings.append(next_x)
            labels.append(next_b)
        else:  # a's window has zero width
            labels[-1] = next_b
        x, a = max(x, next_x), next_b
    staircase = np.array(crossings, dtype=float), np.array(labels, dtype=np.intp)
    for array in staircase:
        array.flags.writeable = False
    return staircase


def ground_m_abs(cfg: DotConfig, x):
    """Ground-state |m| at a float or an array x (S is spin_for_m(|m|)).

    Read off the cached staircase: the label of the window holding x, with
    x == x* going to the smaller |m|, as the lowest energy does on a tie.
    Raises ValueError for a negative or NaN x, and FloatingPointError naming
    the first x whose energies are not finite (x^2 overflows above ~1.3e154).
    """
    require_non_negative("x", x)
    top = float(np.asarray(x).max(initial=0.0))
    if not math.isfinite(top * top):  # x >= 0, so the largest x overflows first
        bad = next(v for v in np.ravel(x).tolist() if not math.isfinite(v * v))
        raise FloatingPointError(f"ground-state energy is not finite at x = {bad}")
    crossings, labels = _staircase(cfg)
    return labels[np.searchsorted(crossings, x, side="left")]


def ground_state_at(cfg: DotConfig, x: float) -> OrbitalGround:
    """Ground-state label at one ratio x (see ground_m_abs).

    When the label is m_max itself the true ground state may lie outside the
    searched window, so the result carries a boundary flag and a warning is
    issued on every such call.
    """
    best_m = int(ground_m_abs(cfg, x))
    at_boundary = best_m == cfg.m_max
    if at_boundary:
        warnings.warn(
            f"ground-state search hit m_max={cfg.m_max} at x={x}; "
            "increase m_max to trust this result",
            stacklevel=2,
        )
    return OrbitalGround(x, best_m, spin_for_m(best_m), at_boundary)


def magic_transitions(cfg: DotConfig, x_lo: float, x_hi: float) -> list[TransitionPoint]:
    """Every ground-state change in (x_lo, x_hi): the slice of the cached staircase.

    Warns, once per call, when the ground state in the window reaches m_max.
    """
    if not 0 <= x_lo < x_hi:
        raise ValueError(f"need 0 <= x_lo < x_hi, got [{x_lo}, {x_hi}]")
    crossings, labels = _staircase(cfg)
    first, last = np.searchsorted(crossings, x_lo, "right"), np.searchsorted(crossings, x_hi)
    m = labels[first : last + 1].tolist()
    points = [
        TransitionPoint(x_star, (m_a, spin_for_m(m_a)), (m_b, spin_for_m(m_b)))
        for x_star, m_a, m_b in zip(crossings[first:last].tolist(), m, m[1:])
    ]
    if labels[last] == cfg.m_max:
        warnings.warn(
            f"ground-state walk reached m_max={cfg.m_max} at "
            f"x={points[-1].x_star if points else x_lo}; "
            "increase m_max to trust the boundaries above it",
            stacklevel=2,
        )
    return points

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
& Chaplik, PRB 45, 1951 (1992)), taken from the exact integer b^2 - a^2 so
that no difference of rounded mu_m cancels in it, and the whole staircase is
the lower envelope of straight lines, built in one stack pass over the labels
with no scan or root search.  It is computed once per (frozen, hashable)
DotConfig and cached: the ground state at any x is a binary search over its
crossings, and the transitions in a window are a slice of it.

spin_for_m alone owns the parity rule: every label's S comes from it, and
hyperfine.coupling_a takes no S but works it out from |m|.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .config import DotConfig, largest, require_non_negative, sqrt


def spin_for_m(m_abs: int) -> int:
    """Total spin forced by antisymmetry: 0 for even |m|, 1 for odd (an int or an int array)."""
    return m_abs & 1


def mu_m(m_abs, alpha_tilde: float):
    """Effective angular-momentum index sqrt(m^2 + alpha_tilde), for an int or an int array |m|.

    An int gives a Python float, the bits of the array call's entry (see config.sqrt).
    """
    require_non_negative("alpha_tilde", alpha_tilde)
    require_non_negative("m_abs", m_abs)
    return sqrt(m_abs * m_abs + alpha_tilde)


def effective_omega_ratio(x):
    """Hybrid frequency over omega_0: sqrt(x^2 + 4), for a float or an array x (config.sqrt)."""
    require_non_negative("x", x)
    return sqrt(x * x + 4.0)


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


def _crossing(cfg: DotConfig, mu: list[float], a: int, b: int) -> float:
    """x* where label b > a undercuts label a, inf if it never does (see _staircase).

    mu holds mu_m by |m|.  An x* whose square overflows (above ~1.34e154) reads as
    inf too: no energy is finite there (see ground_m_abs), so no ground state either.
    """
    z_ds, mu_ab = cfg.g_factor * cfg.mstar_ratio * (spin_for_m(b) - spin_for_m(a)), mu[a] + mu[b]
    # eps = mu_a - a + mu_b - b; mu_a + a is 0 only where eps_a = mu_0 = alpha_tilde = 0
    d_mu, eps = (b * b - a * a) / mu_ab, cfg.alpha_tilde * (1 / (mu[a] + a or 1) + 1 / (mu[b] + b))
    gap = b - a + z_ds - d_mu if 2.0 * d_mu < b - a else z_ds + (b - a) * eps / mu_ab
    x_star = 2.0 * d_mu / (math.sqrt(gap) * math.sqrt(gap + 2.0 * d_mu)) if gap > 0 else math.inf
    return x_star if math.isfinite(x_star * x_star) else math.inf


# An entry holds two arrays of at most m_max + 1 entries, a float and its
# DotConfig key: under 1 KB at the default m_max, so 256 of them stay far below
# the process's ~40 MB, and a scan over up to 256 devices in one process builds
# each staircase once.  A miss costs one pass over m_max + 2 labels: tens of
# microseconds at the default m_max, less than an energy argmin over its 16
# labels at a single x, and a few milliseconds at m_max = 3,000.
@functools.lru_cache(maxsize=256)
def _staircase(cfg: DotConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """The ground-state staircase of cfg: (crossings, labels, x_trust), arrays read-only.

    labels[i] is the ground-state |m| from crossings[i - 1] to crossings[i]; the
    first holds from x = 0, the last up to inf.  Divided by sqrt(x^2+4)/2, the
    energy of label m is the line 1 + mu_m - t (|m| + z S) in t = x / sqrt(x^2+4)
    in [0, 1), z = g m*/m_e, so the staircase is the lower envelope of these
    lines, and a label b above a crosses a at most once, at the root of
    sqrt(x^2+4) dmu = x d, dmu = mu_b - mu_a and d = d|m| + z dS, and never
    when d <= dmu (nor, as read here, above ~1.34e154, where x^2 overflows):

        x* = 2 dmu / (sqrt(d - dmu) sqrt(d + dmu)),   dmu = (b^2 - a^2) / (mu_a + mu_b).

    b^2 - a^2 is an exact integer, so no difference of rounded mu_m cancels in
    dmu (D. Goldberg, ACM Comput. Surv. 23(1), 5 (1991)), and the two square
    roots keep d^2 from overflowing at a large z.  Nor does d - dmu cancel
    where the labels do not nearly tie: where dmu < (b - a)/2 it is taken as
    (b - a + z dS) - dmu, whose first difference is exact near a tie (Sterbenz's
    lemma), and elsewhere as z dS + (b - a)(eps_a + eps_b) / (mu_a + mu_b) with
    eps_m = mu_m - m = alpha_tilde / (mu_m + m), which cancels only where
    z dS < 0; d + dmu is (d - dmu) + 2 dmu.  So x* lies within 4 ulp of the
    crossing of the exact mu_m where z dS >= 0, and within 4 k^2/(k^2 - 1) ulp,
    k = d / dmu, its conditioning, where z dS < 0: the worst over ~34,000
    random pairs with alpha_tilde from 1e-16 to 1e300 and z up to 1e200, and
    6,000 near ties.  A plain d - dmu loses up to ~15 digits where
    alpha_tilde << m^2 and z dS = 0, every k being near 1 there.

    The slopes rise with |m|, so one pass in |m| order builds the envelope on a
    stack (A. M. Andrew, Inf. Process. Lett. 9, 216 (1979)) of labels and the x
    where each one's window starts.  A new label b pops every top whose start
    lies above b's crossing with the label below that top (on a tie the top,
    the smaller |m|, stays), then starts at its crossing with the new top; if
    that would leave the top a window of zero width, b takes the top's place
    and start instead.  So a crossing of three labels at one x leaves no window,
    and a label pushed at inf (one that never undercuts the top) gives way to
    the next.  Each of these tests is one that a walk up the envelope, taking
    at each label the smallest crossing ahead, makes too, so the two agree
    bitwise even where three labels cross within rounding of one x, as they
    do at a large alpha_tilde and a round z.  Label 0 can go only where x*
    underflows to 0, as its exact 1e-350 does at z = 1e200 and
    alpha_tilde = 1e300.

    Labels above m_max are not searched, so the pass runs on to m_max + 2, and
    the staircase is the stack just before label m_max + 1, without a top that
    starts at inf.  x_trust is where the first label above m_max starts after
    the pass: 0.0 if it replaced label 0, inf if none enters.  Up to x_trust,
    with ties going to the smaller |m|, the staircase is the ground state over
    every |m|, because two labels beyond m_max suffice.  At any t >= 0,
    c_m = mu_m - t|m| is convex in |m|, as mu_m = sqrt(m^2 + alpha_tilde) is,
    and the energy is c_m for even |m| and c_m - tz for odd |m|, with tz >= 0.
    Suppose some n > m_max + 2 lies strictly below E_q, the lowest energy over
    q <= m_max, at some t.  Bounding c at n - 2 by its chord between q and n
    puts label n - 2 strictly below E_q too, unless n is even and q odd; then
    the chord at n - 1 does it for label n - 1, whose -tz outweighs the
    1/(n - q) share of q's.  Descending, m_max + 1 or m_max + 2 lies strictly
    below E_q at that t, so the first x where a label above m_max becomes the
    ground state is one where one of those two does.  The pass takes no
    difference of rounded mu_m, so its crossings follow the exact, convex mu_m
    to within their few ulp at every alpha_tilde.
    """
    require_non_negative("g_factor * mstar_ratio", cfg.g_factor * cfg.mstar_ratio)
    mu = mu_m(np.arange(cfg.m_max + 3), cfg.alpha_tilde).tolist()
    stack = [(0, 0.0)]  # (label, x where its window starts)
    for b in range(1, cfg.m_max + 3):
        if b == cfg.m_max + 1:
            labels, starts = zip(*(entry for entry in stack if entry[1] < math.inf))
            staircase = np.array(starts[1:], dtype=float), np.array(labels, dtype=np.intp)
        # <: on a tie the smaller |m| keeps its window
        while len(stack) > 1 and _crossing(cfg, mu, stack[-2][0], b) < stack[-1][1]:
            stack.pop()
        if (x_b := _crossing(cfg, mu, stack[-1][0], b)) <= stack[-1][1]:
            x_b = stack.pop()[1]  # the top's window would have zero width: b takes it over
        stack.append((b, x_b))
    for array in staircase:
        array.flags.writeable = False
    return (*staircase, next((x for m, x in stack if m > cfg.m_max), math.inf))


def ground_m_abs(cfg: DotConfig, x):
    """Ground-state |m| at a float or an array x (S is spin_for_m(|m|)).

    Read off the cached staircase: the label of the window holding x, with
    x == x* going to the smaller |m|, as the lowest energy does on a tie.
    Raises ValueError for a negative or NaN x, and FloatingPointError naming
    the first x whose energies are not finite (x^2 overflows above ~1.3e154).
    """
    return _window_label(_staircase(cfg), x)


def _window_label(staircase, x):
    """ground_m_abs on the staircase already read: an int for a Python int or float x.

    bisect_left on a float finds the window np.searchsorted(..., side="left") does,
    without numpy's cost per call.
    """
    require_non_negative("x", x)
    top = float(largest(x))
    if not math.isfinite(top * top):  # x >= 0, so the largest x overflows first
        bad = next(v for v in np.ravel(x).tolist() if not math.isfinite(v * v))
        raise FloatingPointError(f"ground-state energy is not finite at x = {bad}")
    crossings, labels, _ = staircase
    if isinstance(x, (int, float)):
        return labels.item(bisect.bisect_left(crossings, x))
    return labels[np.searchsorted(crossings, x, side="left")]


def ground_state_at(cfg: DotConfig, x: float) -> OrbitalGround:
    """Ground-state label at one ratio x (see ground_m_abs).

    Above the staircase's x_trust a label beyond m_max is the true ground state,
    so there the result carries a boundary flag and a warning is issued on every
    such call.  The cached staircase is read once.
    """
    staircase = _staircase(cfg)
    best_m = int(_window_label(staircase, x))
    x_trust = staircase[2]
    at_boundary = x > x_trust
    if at_boundary:
        warnings.warn(
            f"ground state at x={x} lies above m_max={cfg.m_max} from x={x_trust} on; "
            "increase m_max to trust this result",
            stacklevel=2,
        )
    return OrbitalGround(x, best_m, spin_for_m(best_m), at_boundary)


def magic_transitions(cfg: DotConfig, x_lo: float, x_hi: float) -> list[TransitionPoint]:
    """Every ground-state change in (x_lo, x_hi): the slice of the cached staircase.

    Warns, once per call, when the window reaches past the staircase's x_trust.
    """
    if not 0 <= x_lo < x_hi:
        raise ValueError(f"need 0 <= x_lo < x_hi, got [{x_lo}, {x_hi}]")
    crossings, labels, x_trust = _staircase(cfg)
    first, last = np.searchsorted(crossings, x_lo, "right"), np.searchsorted(crossings, x_hi)
    m = labels[first : last + 1].tolist()
    points = [
        TransitionPoint(x_star, (m_a, spin_for_m(m_a)), (m_b, spin_for_m(m_b)))
        for x_star, m_a, m_b in zip(crossings[first:last].tolist(), m, m[1:])
    ]
    if x_hi > x_trust:
        warnings.warn(
            f"ground state lies above m_max={cfg.m_max} from x={x_trust} on; "
            "increase m_max to trust the boundaries above it",
            stacklevel=2,
        )
    return points

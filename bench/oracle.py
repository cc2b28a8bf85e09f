"""Independent reference physics for checking dotnmr outputs.

Nothing here imports dotnmr.  The formulas are re-derived from the model the
package documents, so a defect in the package cannot hide in the oracle:

* orbital energy  E(m)/hbar w0 = sqrt(x^2+4)/2 (1+mu_m) - |m| x/2 - S g m* x/2,
  with mu_m = sqrt(m^2 + alpha), S = |m| mod 2;
* ground-state staircase from the closed-form crossing of two branches,
  x* = 2/sqrt(k^2-1) with k = (d|m| + g m* dS)/d mu, walked along the lower
  envelope (no scan, no bisection);
* contact density, coupling and the closed-form nuclear resonance;
* the phase-corrected CNOT fidelity, reduced to a 1-D maximisation.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

MU_B_MHZ_PER_T = 13996.2449   # Bohr magneton over h
K_CYC_MEV_PER_T = 0.1157676   # e hbar / m_e: free-electron cyclotron energy per tesla

DEVICE_KEYS = ("hbar_omega0", "mstar_ratio", "g_factor", "gamma_n", "gamma_e",
               "hyperfine_c", "alpha_tilde", "m_max")
DEFAULT_DEVICE = {
    "hbar_omega0": 2.5, "mstar_ratio": 0.19, "g_factor": 2.0, "gamma_n": 10.7084,
    "gamma_e": 28024.95, "hyperfine_c": 60.0, "alpha_tilde": 3.0, "m_max": 15,
}
SWEEP_HEADER = ("x,b_tesla,m_abs,s_total,mu_m,delta_l0sq,delta_cm_l0sq,a_mhz,a_cm_mhz,"
                "f0_mhz,f_nmr_mhz,f_nmr_ir_mhz,shift,shift_ir")


def mu(m, alpha):
    return np.sqrt(np.asarray(m, dtype=float) ** 2 + alpha)


def orbital_energy(m, x, dev):
    """Relative + spin-Zeeman energy in units of hbar*omega0 (CM omitted)."""
    m = np.asarray(m)
    x = np.asarray(x, dtype=float)
    zeeman = (m % 2) * 0.5 * dev["g_factor"] * dev["mstar_ratio"] * x
    return 0.5 * np.sqrt(x * x + 4.0) * (1.0 + mu(m, dev["alpha_tilde"])) - 0.5 * m * x - zeeman


def crossing(a: int, b: int, dev) -> float | None:
    """Field ratio where branch b (> a) drops below branch a, or None."""
    d_mu = float(mu(b, dev["alpha_tilde"]) - mu(a, dev["alpha_tilde"]))
    k = ((b - a) + dev["g_factor"] * dev["mstar_ratio"] * (b % 2 - a % 2)) / d_mu
    if k <= 1.0:
        return None
    return 2.0 / math.sqrt(k * k - 1.0)


class Staircase:
    """Exact ground-state sequence over [x_lo, x_hi], searching |m| <= m_cap."""

    def __init__(self, dev, x_lo: float, x_hi: float, m_cap: int = 64):
        ms = np.arange(m_cap + 1)
        m = int(np.argmin(orbital_energy(ms, x_lo, dev)))
        x = x_lo
        self.boundaries: list[float] = []
        self.labels: list[int] = [m]
        while True:
            best = None
            for b in range(m + 1, m_cap + 1):
                xs = crossing(m, b, dev)
                if xs is not None and xs > x and (best is None or xs < best[0]):
                    best = (xs, b)
            if best is None or best[0] > x_hi:
                break
            x, m = best
            self.boundaries.append(x)
            self.labels.append(m)
        if m >= m_cap:
            raise ValueError(f"ground state reached the oracle search cap m={m_cap}")

    def transitions(self):
        """(x_star, (m, S) before, (m, S) after) for every boundary."""
        return [(x, (a, a % 2), (b, b % 2)) for x, a, b in
                zip(self.boundaries, self.labels, self.labels[1:])]

    def m_at(self, x: float) -> int:
        return self.labels[bisect.bisect_right(self.boundaries, x)]

    def m_array(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self.labels)[np.searchsorted(self.boundaries, xs, side="right")]

    def distance(self, xs: np.ndarray) -> np.ndarray:
        """Distance of each x to the nearest boundary (inf when there is none)."""
        if not self.boundaries:
            return np.full(np.shape(xs), np.inf)
        bd = np.asarray(self.boundaries)
        return np.min(np.abs(np.asarray(xs)[..., None] - bd), axis=-1)


def b_tesla(x, dev):
    return np.asarray(x, dtype=float) * dev["hbar_omega0"] * dev["mstar_ratio"] / K_CYC_MEV_PER_T


def density(x, m, dev, ir: bool = False):
    """Electron density at the nucleus in 1/l0^2; IR scales it by (1+mu)/2."""
    mu_m = mu(m, dev["alpha_tilde"])
    d = np.sqrt(np.asarray(x, dtype=float) ** 2 + 4.0) / (math.pi * 2.0 ** (1.0 + mu_m))
    return d * 0.5 * (1.0 + mu_m) if ir else d


def f_closed(a, b, dev):
    """Closed-form nuclear resonance of the triplet sector, MHz."""
    gn, ge = dev["gamma_n"], dev["gamma_e"]
    a = np.asarray(a, dtype=float)
    return 1.5 * a + 0.5 * (gn - ge) * b + 0.5 * np.sqrt((a + (gn + ge) * b) ** 2 + 8.0 * a * a)


def sweep_columns(xs: np.ndarray, m: np.ndarray, dev) -> np.ndarray:
    """Expected (n, 14) sweep table in CSV column order for labels m."""
    s = m % 2
    b = b_tesla(xs, dev)
    f0 = dev["gamma_n"] * b
    d = density(xs, m, dev) * s
    d_cm = density(xs, m, dev, ir=True) * s
    a = 0.5 * dev["hyperfine_c"] * d
    a_cm = 0.5 * dev["hyperfine_c"] * d_cm
    f = np.where(s == 1, f_closed(a, b, dev), f0)
    f_ir = np.where(s == 1, f_closed(a_cm, b, dev), f0)
    return np.column_stack([xs, b, m, s, mu(m, dev["alpha_tilde"]), d, d_cm, a, a_cm,
                            f0, f, f_ir, (f - f0) / f0, (f_ir - f0) / f0])


def rabi_propagator(detuning: float, rabi: float, duration: float) -> np.ndarray:
    """exp(-i 2pi (d sz + rabi sx) t) for spin-1/2 operators s = sigma/2."""
    omega = math.hypot(detuning, rabi)
    half = math.pi * omega * duration
    n_x, n_z = rabi / omega, detuning / omega
    c, s = math.cos(half), math.sin(half)
    return np.array([[c - 1j * s * n_z, -1j * s * n_x],
                     [-1j * s * n_x, c + 1j * s * n_z]])


def cnot_fidelity(rabi_over_j: float) -> float:
    """Phase-corrected average CNOT fidelity of the selective pi pulse.

    The pulse is resonant with the control-|1> branch and 2J off the other,
    so only rabi/J matters.  With the diagonal d of U CNOT^dag, the best
    local-Z correction maximises |e^-ia/2 P(b) + e^ia/2 Q(b)| = |P(b)| + |Q(b)|,
    leaving a 1-D search over b.
    """
    duration = 1.0 / (2.0 * rabi_over_j)
    u0 = rabi_propagator(-2.0, rabi_over_j, duration)   # control |0>: detuned by -2J
    u1 = rabi_propagator(0.0, rabi_over_j, duration)    # control |1>: resonant
    x = np.array([[0, 1], [1, 0]])
    d = np.concatenate([np.diag(u0), np.diag(u1 @ x)])

    def value(beta):
        e = np.exp(0.5j * np.asarray(beta))
        return np.abs(d[0] / e + d[1] * e) + np.abs(d[2] / e + d[3] * e)

    grid = np.linspace(0.0, 4.0 * math.pi, 4096, endpoint=False)
    best = grid[int(np.argmax(value(grid)))]
    lo, hi = best - grid[1], best + grid[1]
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if value(m1) < value(m2):
            lo = m1
        else:
            hi = m2
    overlap = float(value(0.5 * (lo + hi))) ** 2
    return (overlap + 4.0) / 20.0

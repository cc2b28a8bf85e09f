"""RF pulses on nuclear spin qubits: rotations, Hadamard, selective CNOT.

Computational basis |0>, |1> is nuclear spin up/down.  Single-qubit gates are
rotating-frame, rotating-wave-approximation propagators; a resonant pulse of
duration 1/(2*rabi) is a pi rotation.

Two coupled dots are modelled by a static state-dependent resonance shift:
driving one qubit, its transition sits at f -/+ J when the other qubit is in
|0>/|1>.  J is a free model parameter (default 1 kHz); the microscopic
inter-dot mechanism is deliberately not modelled here.  A selective pi pulse
at the control-|1> branch frequency realizes CNOT; the deterministic local
phases it accrues are removed by optimizing single-qubit Z corrections
before the fidelity is reported.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

UNITARITY_TOL = 1e-9


@dataclass(frozen=True)
class PulseSpec:
    """Rectangular RF drive: carrier and Rabi frequency in MHz, duration in us.

    Zero duration is allowed and yields the identity propagator.
    """

    carrier: float
    rabi: float
    phase: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        if not self.rabi > 0:
            raise ValueError(f"rabi must be > 0, got {self.rabi}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class TwoQubitModel:
    """Two nuclear qubits with a state-dependent resonance shift J (MHz)."""

    f_a: float
    f_b: float
    j_coupling: float = 0.001

    def __post_init__(self):
        if not (self.f_a > 0 and self.f_b > 0):
            raise ValueError("f_a and f_b must be > 0")
        if abs(self.j_coupling) >= min(self.f_a, self.f_b) / 10.0:
            raise ValueError(
                f"|j_coupling|={abs(self.j_coupling)} must stay below "
                f"min(f_a, f_b)/10 = {min(self.f_a, self.f_b) / 10.0}"
            )


@dataclass(frozen=True)
class GateReport:
    fidelity: float
    residual_offresonant_population: float
    corrected: bool


def rotate_qubit(axis, angle: float) -> np.ndarray:
    """exp(-i * angle * axis . S) for a spin-1/2; axis must be a unit 3-vector."""
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"axis must be a 3-vector, got shape {n.shape}")
    if abs(float(np.linalg.norm(n)) - 1.0) > 1e-12:
        raise ValueError(f"axis must be a unit vector, |axis| = {np.linalg.norm(n)}")
    half = 0.5 * angle
    ndots = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    return math.cos(half) * np.eye(2, dtype=complex) - 1j * math.sin(half) * ndots


def hadamard() -> np.ndarray:
    """|0> -> (|0>+|1>)/sqrt2, |1> -> (|0>-|1>)/sqrt2; global phase +1."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def _rabi_propagator(detuning: float, rabi: float, phase: float, duration: float) -> np.ndarray:
    """Generalized Rabi precession U = exp(-i 2pi (d Sz + f1 S_phi) t)."""
    omega = math.hypot(detuning, rabi)
    theta = 2.0 * math.pi * omega * duration
    if omega == 0.0 or duration == 0.0:
        return np.eye(2, dtype=complex)
    n = (
        rabi * math.cos(phase) * PAULI_X
        + rabi * math.sin(phase) * PAULI_Y
        + detuning * PAULI_Z
    ) / omega
    return math.cos(0.5 * theta) * np.eye(2, dtype=complex) - 1j * math.sin(0.5 * theta) * n


def rwa_pulse(model, pulse: PulseSpec, target: int = 0) -> np.ndarray:
    """RWA propagator for a rectangular pulse.

    model may be a bare Larmor frequency (float, returns a 2x2 unitary) or a
    TwoQubitModel (returns the 4x4 register unitary over |ab>, with the
    non-driven qubit selecting the +-J branch of the driven one).
    """
    if isinstance(model, (int, float)):
        return _rabi_propagator(float(model) - pulse.carrier, pulse.rabi, pulse.phase, pulse.duration)
    if not isinstance(model, TwoQubitModel):
        raise TypeError(f"model must be a frequency or TwoQubitModel, got {type(model)}")
    if target not in (0, 1):
        raise ValueError(f"target must be 0 (qubit a) or 1 (qubit b), got {target}")

    f_target = model.f_a if target == 0 else model.f_b
    branches = []
    for other in (0, 1):  # state of the non-driven qubit
        detuning = (f_target + (2 * other - 1) * model.j_coupling) - pulse.carrier
        branches.append(_rabi_propagator(detuning, pulse.rabi, pulse.phase, pulse.duration))

    u = np.zeros((4, 4), dtype=complex)
    if target == 1:
        u[:2, :2] = branches[0]
        u[2:, 2:] = branches[1]
    else:
        u[np.ix_([0, 2], [0, 2])] = branches[0]
        u[np.ix_([1, 3], [1, 3])] = branches[1]
    return u


def _require_unitary(u: np.ndarray, name: str) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{name} must be square, got shape {u.shape}")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if defect > UNITARITY_TOL:
        raise ValueError(f"{name} is not unitary: max |U^dag U - 1| = {defect:.3e}")
    return u


def gate_fidelity(u_actual, u_ideal) -> float:
    """Average gate fidelity (|Tr(U_ideal^dag U)|^2 + d) / (d^2 + d)."""
    ua = _require_unitary(u_actual, "u_actual")
    ui = _require_unitary(u_ideal, "u_ideal")
    if ua.shape != ui.shape:
        raise ValueError(f"dimension mismatch: {ua.shape} vs {ui.shape}")
    d = ua.shape[0]
    overlap = abs(np.trace(ui.conj().T @ ua)) ** 2
    return float((overlap + d) / (d * d + d))


def _golden_max(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Argmax of a unimodal f on [lo, hi] by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


def _optimized_overlap(u: np.ndarray, ideal: np.ndarray) -> float:
    """max over local Z phases of |Tr(ideal^dag (Rz x Rz) u)|^2.

    Since Rz x Rz is diagonal the trace reduces to four phased diagonal
    entries m of u @ ideal^dag: e^{-i a/2} P(b) + e^{i a/2} Q(b), with
    P(b) = e^{-i b/2} m0 + e^{i b/2} m1 and Q(b) likewise from m2, m3.  Its
    maximum over a is exactly |P| + |Q| = |m0 + e^{i b} m1| + |m2 + e^{i b} m3|,
    which has period 2 pi in b; a 256-point grid over b is refined by golden
    section, which evaluates the same expression on Python complex scalars.
    """
    m0, m1, m2, m3 = np.diag(u @ ideal.conj().T).tolist()

    def overlap(phase):  # phase = e^{i b}, a complex or an array of them
        return (abs(m0 + phase * m1) + abs(m2 + phase * m3)) ** 2

    step = 2.0 * math.pi / 256
    grid = np.arange(256) * step
    beta = float(grid[int(np.argmax(overlap(np.exp(1j * grid))))])

    def overlap_at(b):
        return overlap(cmath.exp(1j * b))

    return overlap_at(_golden_max(overlap_at, beta - step, beta + step))


def cnot_conditional(
    model: TwoQubitModel, rabi_over_j: float, optimize_phases: bool = True
) -> GateReport:
    """Selective pi pulse at the control-|1> branch of qubit b.

    rabi_over_j sets the selectivity: the spectator branch is detuned by 2J,
    so its residual excitation is bounded by rabi^2 / (rabi^2 + 4 J^2).
    """
    if model.j_coupling == 0.0:
        raise DegenerateModelError(
            "j_coupling = 0: branches coincide, conditional drive impossible"
        )
    if not 0.0 < rabi_over_j <= 2.0:
        raise ValueError(f"rabi_over_j must be in (0, 2], got {rabi_over_j}")

    rabi = rabi_over_j * abs(model.j_coupling)
    pulse = PulseSpec(
        carrier=model.f_b + model.j_coupling,
        rabi=rabi,
        phase=0.0,
        duration=1.0 / (2.0 * rabi),
    )
    u = rwa_pulse(model, pulse, target=1)
    residual = float(max(abs(u[0, 1]) ** 2, abs(u[1, 0]) ** 2))

    if optimize_phases:
        overlap = _optimized_overlap(u, CNOT)
        fidelity = float((overlap + 4.0) / 20.0)
    else:
        fidelity = gate_fidelity(u, CNOT)
    return GateReport(
        fidelity=fidelity,
        residual_offresonant_population=residual,
        corrected=optimize_phases,
    )

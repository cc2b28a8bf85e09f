"""RF pulses on nuclear spin qubits: rotations, Hadamard, selective CNOT.

Computational basis |0>, |1> is nuclear spin up/down.  Single-qubit gates are
rotating-frame, rotating-wave-approximation propagators; a resonant pulse of
duration 1/(2*rabi) is a pi rotation.  Pulses and rotations are the SU(2)
closed form numerics.spin_half_propagator, the one evolve uses for 2x2
Hamiltonians.  Every pulse and model field must be finite.

Two coupled dots are modelled by a static state-dependent resonance shift:
driving one qubit, its transition sits at f -/+ J when the other qubit is in
|0>/|1>.  J is a free model parameter (default 1 kHz); the microscopic
inter-dot mechanism is deliberately not modelled here.  A selective pi pulse
at the control-|1> branch frequency realizes CNOT; the deterministic local
phases it accrues are removed by the best single-qubit Z corrections, whose
overlap with CNOT is a closed form in two entries of the pulse, before the
fidelity is reported.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateModelError
from .numerics import spin_half_propagator

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

UNITARITY_TOL = 1e-9


def _require_finite_fields(obj) -> None:
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


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
        _require_finite_fields(self)
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
        _require_finite_fields(self)
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


def rotate_qubit(axis, angle: float) -> np.ndarray:
    """exp(-i * angle * axis . S) for a spin-1/2; axis must be a unit 3-vector."""
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"axis must be a 3-vector, got shape {n.shape}")
    if not abs(float(np.linalg.norm(n)) - 1.0) <= 1e-12:
        raise ValueError(f"axis must be a finite unit vector, |axis| = {np.linalg.norm(n)}")
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    nx, ny, nz = n.tolist()
    # axis . S = [[nz, nx - i ny], [nx + i ny, -nz]] / 2, turned by 2 pi t = angle
    return spin_half_propagator(0.5 * nz, complex(0.5 * nx, -0.5 * ny), angle / (2.0 * math.pi))


def hadamard() -> np.ndarray:
    """|0> -> (|0>+|1>)/sqrt2, |1> -> (|0>-|1>)/sqrt2; global phase +1."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def rwa_pulse(model, pulse: PulseSpec, target: int = 0) -> np.ndarray:
    """RWA propagator for a rectangular pulse.

    model may be a bare Larmor frequency (float, returns a 2x2 unitary) or a
    TwoQubitModel (returns the 4x4 register unitary over |ab>, with the
    non-driven qubit selecting the +-J branch of the driven one).  Each 2x2
    block is the generalized Rabi precession exp(-i 2pi (d Sz + rabi S_phase) t)
    at detuning d = f - carrier.
    """
    # rabi S_phase = [[0, b], [b*, 0]] with b = rabi e^{-i phase} / 2
    b = cmath.rect(0.5 * pulse.rabi, -pulse.phase)
    if isinstance(model, (int, float)):
        if not math.isfinite(model):
            raise ValueError(f"model frequency must be finite, got {model}")
        return spin_half_propagator(0.5 * (float(model) - pulse.carrier), b, pulse.duration)
    if not isinstance(model, TwoQubitModel):
        raise TypeError(f"model must be a frequency or TwoQubitModel, got {type(model)}")
    if target not in (0, 1):
        raise ValueError(f"target must be 0 (qubit a) or 1 (qubit b), got {target}")

    f_target = model.f_a if target == 0 else model.f_b
    branches = []
    for other in (0, 1):  # state of the non-driven qubit
        detuning = (f_target + (2 * other - 1) * model.j_coupling) - pulse.carrier
        branches.append(spin_half_propagator(0.5 * detuning, b, pulse.duration))

    u = np.zeros((4, 4), dtype=complex)
    if target == 1:
        u[:2, :2] = branches[0]
        u[2:, 2:] = branches[1]
    else:
        u[0::2, 0::2] = branches[0]
        u[1::2, 1::2] = branches[1]
    return u


def _require_unitary(u: np.ndarray, name: str) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{name} must be square, got shape {u.shape}")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if not defect <= UNITARITY_TOL:  # NaN fails too
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


def cnot_conditional(model: TwoQubitModel, rabi_over_j: float) -> GateReport:
    """Selective pi pulse at the control-|1> branch of qubit b, Z-corrected.

    rabi_over_j sets the selectivity: the spectator branch is detuned by 2J,
    so its residual excitation is bounded by rabi^2 / (rabi^2 + 4 J^2).

    The fidelity is taken after the best local correction Rz(alpha) x
    Rz(beta), which has a closed form.  Each block of the pulse U is SU(2)
    (u11 = u00*, u10 = -u01*), so with a = U[0,0] and b = U[2,3] the diagonal
    of U CNOT^dag is (a, a*, b, -b*).  Over the phases |Tr(CNOT^dag Z U)|
    peaks at 2 max|a -/+ i b| = 2 sqrt(|a|^2 + |b|^2 + 2 |Im(a b*)|).  The
    uncorrected fidelity is gate_fidelity(rwa_pulse(model, pulse, 1), CNOT).
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
    a, b = complex(u[0, 0]), complex(u[2, 3])
    overlap = 4.0 * max(abs(a + 1j * b), abs(a - 1j * b)) ** 2
    return GateReport(
        fidelity=(overlap + 4.0) / 20.0,
        residual_offresonant_population=residual,
    )

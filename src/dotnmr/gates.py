"""RF pulses on nuclear spin qubits: rotations, Hadamard, selective CNOT.

Computational basis |0>, |1> is nuclear spin up/down.  Single-qubit gates are
rotating-frame, rotating-wave-approximation propagators; a resonant pulse of
duration 1/(2*rabi) is a pi rotation.  Pulses and rotations are the SU(2)
closed form numerics.spin_half_propagator, the one evolve uses for 2x2 H.  Pulse
and model fields and rabi_over_j must be finite real numbers; a bool is refused
by name, as rwa_pulse refuses a bool frequency.

Two coupled dots are modelled by a static state-dependent resonance shift:
driving one qubit, its transition sits at f -/+ J when the other qubit is in
|0>/|1>.  J is a free model parameter (default 1 kHz); the microscopic
inter-dot mechanism is deliberately not modelled here.  A selective pi pulse
at the control-|1> branch frequency realizes CNOT; the deterministic local
phases it accrues are removed by the best single-qubit Z corrections, whose
overlap with CNOT is a closed form in two entries of the pulse, before the
fidelity is reported.  A CNOT therefore pays for the pulse's two SU(2)
branches and nothing else: it reads those entries, and the spectator's
residual excitation, from the branch entries that rwa_pulse places into its
4x4, without building the 4x4.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateModelError
from .numerics import _spin_half_entries, spin_half_propagator

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

UNITARITY_TOL = 1e-9


def _require_finite_fields(obj) -> None:
    """Each field (in __dict__, in declaration order) must be a finite real number, not a bool."""
    for name, value in vars(obj).items():
        _require_real(name, value)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_real(name: str, value) -> None:
    """Raise TypeError naming value unless it is a real number other than a bool."""
    if type(value) is not float and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")


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


class GateReport(NamedTuple):
    """Z-corrected CNOT fidelity and the spectator branch's residual excitation."""

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

    model may be a bare Larmor frequency (any real number but a bool, numpy
    scalars included; returns a 2x2 unitary) or a TwoQubitModel (returns the
    4x4 register unitary over |ab>, with the non-driven qubit selecting the
    +-J branch of the driven one).  Each 2x2
    block is the generalized Rabi precession exp(-i 2pi (d Sz + rabi S_phase) t)
    at detuning d = f - carrier.
    """
    if not isinstance(model, TwoQubitModel):
        if not isinstance(model, numbers.Real) or isinstance(model, bool):
            raise TypeError(f"model must be a frequency or TwoQubitModel, got {type(model)}")
        if not math.isfinite(model):
            raise ValueError(f"model frequency must be finite, got {model}")
        return spin_half_propagator(
            0.5 * (float(model) - pulse.carrier), _drive(pulse), pulse.duration
        )
    (u00, u01, u10, u11), (v00, v01, v10, v11) = _branch_entries(model, pulse, target)
    if target == 1:  # qubit a selects the block
        rows = [[u00, u01, 0, 0], [u10, u11, 0, 0], [0, 0, v00, v01], [0, 0, v10, v11]]
    else:  # qubit b selects the interleaved rows and columns
        rows = [[u00, 0, u01, 0], [0, v00, 0, v01], [u10, 0, u11, 0], [0, v10, 0, v11]]
    return np.array(rows, dtype=complex)


def _drive(pulse: PulseSpec) -> complex:
    """b of rabi S_phase = [[0, b], [b*, 0]]: b = rabi e^{-i phase} / 2."""
    return cmath.rect(0.5 * pulse.rabi, -pulse.phase)


def _branch_entries(model, pulse: PulseSpec, target: int):
    """The two SU(2) blocks of rwa_pulse(model, pulse, target), as entry 4-tuples.

    The first block acts while the non-driven qubit is in |0> (transition at
    f - J), the second while it is in |1> (f + J); each is the
    (u00, u01, u10, u11) of numerics.spin_half_propagator.
    """
    if target not in (0, 1):
        raise ValueError(f"target must be 0 (qubit a) or 1 (qubit b), got {target}")
    f_target = model.f_a if target == 0 else model.f_b
    j, b, t = model.j_coupling, _drive(pulse), pulse.duration
    return (_spin_half_entries(0.5 * ((f_target - j) - pulse.carrier), b, t),
            _spin_half_entries(0.5 * ((f_target + j) - pulse.carrier), b, t))


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
    if not isinstance(model, TwoQubitModel):
        raise TypeError(f"model must be a TwoQubitModel, got {type(model)}")
    _require_real("rabi_over_j", rabi_over_j)
    if model.j_coupling == 0.0:
        raise DegenerateModelError(
            "j_coupling = 0: branches coincide, conditional drive impossible"
        )
    if not 0.0 < rabi_over_j <= 2.0:
        raise ValueError(f"rabi_over_j must be in (0, 2], got {rabi_over_j}")

    rabi = rabi_over_j * abs(model.j_coupling)
    if rabi == 0.0:
        raise ValueError(f"rabi = rabi_over_j * |j_coupling| underflows to 0 "
                         f"for rabi_over_j = {rabi_over_j}, j_coupling = {model.j_coupling}")
    pulse = PulseSpec(
        carrier=model.f_b + model.j_coupling,
        rabi=rabi,
        phase=0.0,
        duration=1.0 / (2.0 * rabi),
    )
    # U[0,0] and U[0,1] of the spectator branch, U[2,3] of the driven one; the
    # spectator's |U[0,1]| and |U[1,0]| are equal, so either is its residual
    (a, u01, _, _), (_, b, _, _) = _branch_entries(model, pulse, target=1)
    overlap = 4.0 * max(abs(a + 1j * b), abs(a - 1j * b)) ** 2
    return GateReport(
        fidelity=(overlap + 4.0) / 20.0,
        residual_offresonant_population=abs(u01) ** 2,
    )

"""Two-electron quantum dot NMR switch simulator.

Magic-number ground-state transitions of a two-electron dot in a magnetic
field, the resulting field-tunable contact coupling to a central spin-1/2
nucleus, the switchable nuclear resonance (with and without infrared
excitation of the center of mass), and RF gates on the nuclear qubits.
"""

from .config import (
    DotConfig,
    K_CYC_MEV_PER_T,
    b_field_from_ratio,
    nuclear_larmor_mhz,
    validate_config,
)
from .errors import (
    ConfigError,
    DegenerateModelError,
    DegenerateSelectionError,
    DotnmrError,
    NonHermitianError,
)
from .gates import (
    CNOT,
    GateReport,
    PulseSpec,
    TwoQubitModel,
    cnot_conditional,
    gate_fidelity,
    hadamard,
    rotate_qubit,
    rwa_pulse,
)
from .hyperfine import coupling_a, delta_cm, delta_m
from .numerics import EigenSystem, bracket_roots, evolve, hermitian_eig
from .output import (
    RunManifest,
    build_manifest,
    emit_svg,
    load_config,
    write_csv,
    write_manifest,
)
from .spectrum import (
    OrbitalGround,
    TransitionPoint,
    effective_omega_ratio,
    ground_state_at,
    magic_transitions,
    mu_m,
)
from .spin_hamiltonian import (
    NmrResult,
    SpinBasisLabel,
    build_spin_matrix,
    nmr_closed_form,
    nmr_numeric,
    relative_shift,
    spin_basis,
)
from .sweep import SWEEP_COLUMNS, Sweep, SweepSpec, run_sweep, sweep_row

__version__ = "0.1.0"

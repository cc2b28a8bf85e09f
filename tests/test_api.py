import types

import dotnmr

# the public names of the package, pinned so that any growth or shrink of the
# API shows in the diff
PUBLIC = [
    "CNOT", "ConfigError", "DegenerateModelError", "DegenerateSelectionError", "DotConfig",
    "DotnmrError", "EigenSystem", "GateReport", "K_CYC_MEV_PER_T", "NmrResult",
    "NonHermitianError", "OrbitalGround", "PulseSpec", "SWEEP_COLUMNS", "SpinBasisLabel",
    "Sweep", "SweepSpec", "TransitionPoint", "TwoQubitModel",
    "b_field_from_ratio", "build_manifest", "build_spin_matrix",
    "cnot_conditional", "coupling_a", "delta_cm", "delta_m", "effective_omega_ratio", "emit_svg",
    "evolve", "gate_fidelity", "ground_state_at", "hadamard", "hermitian_eig", "load_config",
    "magic_transitions", "mu_m", "nmr_closed_form", "nmr_numeric", "nuclear_larmor_mhz",
    "relative_shift", "rotate_qubit", "run_sweep", "rwa_pulse", "spin_basis", "sweep_row",
    "validate_config", "write_csv", "write_manifest",
]


def test_public_export_set_is_pinned():
    names = sorted(
        name for name, value in vars(dotnmr).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC
    assert len(names) == 48

import cmath
import math

import mpmath
import numpy as np
import pytest
import sympy
from scipy.linalg import expm
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from dotnmr import (
    CNOT,
    DegenerateModelError,
    PulseSpec,
    TwoQubitModel,
    cnot_conditional,
    evolve,
    gate_fidelity,
    hadamard,
    rotate_qubit,
    rwa_pulse,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def unitarity_defect(u):
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def test_rotate_x_pi():
    u = rotate_qubit((1.0, 0.0, 0.0), math.pi)
    assert np.max(np.abs(u @ KET0 - (-1j) * KET1)) <= 1e-12


def test_rotate_z_phases():
    theta = 0.731
    u = rotate_qubit((0.0, 0.0, 1.0), theta)
    expected = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    assert np.max(np.abs(u - expected)) <= 1e-12


def test_rotate_diagonal_axis_gives_hadamard():
    axis = (1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))
    u = rotate_qubit(axis, math.pi)
    assert np.max(np.abs(u - (-1j) * hadamard())) <= 1e-12


def test_rotate_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        rotate_qubit((1.0, 1.0, 0.0), math.pi)


def test_hadamard_quoted_mapping():
    h = hadamard()
    plus = (KET0 + KET1) / math.sqrt(2.0)
    minus = (KET0 - KET1) / math.sqrt(2.0)
    assert np.max(np.abs(h @ KET0 - plus)) <= 1e-12
    assert np.max(np.abs(h @ KET1 - minus)) <= 1e-12
    assert np.max(np.abs(h @ h - np.eye(2))) <= 1e-12


def test_pulse_spec_validation():
    with pytest.raises(ValueError):
        PulseSpec(carrier=1.0, rabi=0.0, duration=1.0)
    with pytest.raises(ValueError):
        PulseSpec(carrier=1.0, rabi=1.0, duration=-0.5)
    assert PulseSpec(carrier=1.0, rabi=1.0, duration=0.0).duration == 0.0


@pytest.mark.parametrize("field", ["carrier", "rabi", "phase", "duration"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pulse_spec_rejects_non_finite_fields_by_name(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got"):
        PulseSpec(**{"carrier": 1.0, "rabi": 1.0, "duration": 1.0, field: bad})


@pytest.mark.parametrize("field", ["carrier", "rabi", "phase", "duration"])
@pytest.mark.parametrize("bad", [True, False, np.True_, "1.0", 1j])
def test_pulse_spec_refuses_non_real_fields_by_name(field, bad):
    want = f"^{field} must be a real number, got {type(bad).__name__}$"
    with pytest.raises(TypeError, match=want):
        PulseSpec(**{"carrier": 1.0, "rabi": 1.0, "duration": 1.0, field: bad})


@pytest.mark.parametrize("field", ["f_a", "f_b", "j_coupling"])
@pytest.mark.parametrize("bad", [True, False, np.True_, "1.0", 1j])
def test_two_qubit_model_refuses_non_real_fields_by_name(field, bad):
    want = f"^{field} must be a real number, got {type(bad).__name__}$"
    with pytest.raises(TypeError, match=want):
        TwoQubitModel(**{"f_a": 15.0, "f_b": 12.0, "j_coupling": 0.001, field: bad})


def test_numeric_fields_of_other_real_types_stay_accepted():
    pulse = PulseSpec(carrier=np.float32(1.5), rabi=2, phase=np.int64(0), duration=0.25)
    assert rwa_pulse(10.0, pulse).shape == (2, 2)
    assert TwoQubitModel(f_a=np.float64(15.0), f_b=12, j_coupling=0).f_b == 12


@pytest.mark.parametrize("field", ["f_a", "f_b", "j_coupling"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_two_qubit_model_rejects_non_finite_fields_by_name(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got"):
        TwoQubitModel(**{"f_a": 15.0, "f_b": 12.0, "j_coupling": 0.001, field: bad})


def test_rotate_qubit_rejects_non_finite_axis_and_angle():
    with pytest.raises(ValueError, match="axis must be a finite unit vector"):
        rotate_qubit((math.nan, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="angle must be finite"):
        rotate_qubit((1.0, 0.0, 0.0), math.nan)


@pytest.mark.parametrize("angle", [True, np.True_, np.array([1.0, 2.0]), "1.0", None])
def test_rotate_qubit_refuses_an_angle_that_is_not_a_real_number(angle):
    message = f"^angle must be a real number, got {type(angle).__name__}$"
    with pytest.raises(TypeError, match=message):
        rotate_qubit((0.0, 0.0, 1.0), angle)


def test_gate_fidelity_rejects_nan_matrix():
    with pytest.raises(ValueError, match="u_actual is not unitary"):
        gate_fidelity(np.full((2, 2), math.nan), np.eye(2))


def test_two_qubit_model_validation():
    with pytest.raises(ValueError):
        TwoQubitModel(f_a=-1.0, f_b=1.0)
    with pytest.raises(ValueError):
        TwoQubitModel(f_a=1.0, f_b=1.0, j_coupling=0.2)


def test_resonant_pi_pulse_flips_target():
    f0 = 10.0
    rabi = 0.02
    pulse = PulseSpec(carrier=f0, rabi=rabi, duration=1.0 / (2.0 * rabi))
    u = rwa_pulse(f0, pulse)
    assert abs(u[1, 0]) ** 2 >= 1.0 - 1e-9
    assert unitarity_defect(u) <= 1e-9


def test_detuned_branch_excitation_bound():
    j = 0.001
    rabi = j / 20.0
    pulse = PulseSpec(carrier=10.0 + 2.0 * j, rabi=rabi, duration=1.0 / (2.0 * rabi))
    u = rwa_pulse(10.0, pulse)
    bound = rabi ** 2 / (rabi ** 2 + 4.0 * j * j)
    assert abs(u[1, 0]) ** 2 <= bound + 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rwa_pulse_rejects_non_finite_frequency(bad):
    pulse = PulseSpec(carrier=10.0, rabi=0.02, duration=25.0)
    with pytest.raises(ValueError, match="^model frequency must be finite, got"):
        rwa_pulse(bad, pulse)
    assert unitarity_defect(rwa_pulse(-10.0, pulse)) <= 1e-12  # negative frequencies stay valid


@pytest.mark.parametrize("frequency", [np.float32(10.0), np.int64(10)])
def test_rwa_pulse_takes_numpy_frequencies(frequency):
    pulse = PulseSpec(carrier=9.5, rabi=0.3, phase=0.2, duration=1.7)
    assert np.array_equal(rwa_pulse(frequency, pulse), rwa_pulse(10.0, pulse))


def test_rwa_pulse_refuses_a_bool_frequency():
    pulse = PulseSpec(carrier=1.0, rabi=0.3, duration=1.7)
    with pytest.raises(TypeError, match="model must be a frequency or TwoQubitModel"):
        rwa_pulse(True, pulse)


@pytest.mark.parametrize("frequency, pulse", [
    (1e308, PulseSpec(carrier=-1e308, rabi=1.0, duration=1.0)),  # the detuning overflows
    (10.0, PulseSpec(carrier=10.0, rabi=1e300, duration=1e10)),  # 2 pi r t overflows
])
def test_rwa_pulse_names_an_overflowing_phase(frequency, pulse):
    with pytest.raises(ValueError, match="^propagator phase overflows"):
        rwa_pulse(frequency, pulse)


def test_zero_duration_pulse_is_identity():
    pulse = PulseSpec(carrier=9.0, rabi=1.0, duration=0.0)
    assert np.array_equal(rwa_pulse(10.0, pulse), np.eye(2, dtype=complex))


def test_register_pulse_factorizes_without_coupling():
    model = TwoQubitModel(f_a=15.0, f_b=12.0, j_coupling=0.0)
    pulse = PulseSpec(carrier=12.0, rabi=0.05, phase=0.3, duration=2.0)
    u = rwa_pulse(model, pulse, target=1)
    single = rwa_pulse(12.0, pulse)
    assert np.max(np.abs(u - np.kron(np.eye(2), single))) <= 1e-10
    u0 = rwa_pulse(model, pulse, target=0)
    single0 = rwa_pulse(15.0, pulse)
    assert np.max(np.abs(u0 - np.kron(single0, np.eye(2)))) <= 1e-10


def test_register_pulse_unitary_and_block_structure():
    model = TwoQubitModel(f_a=15.0, f_b=12.0, j_coupling=0.002)
    pulse = PulseSpec(carrier=12.002, rabi=0.0005, duration=37.0)
    u = rwa_pulse(model, pulse, target=1)
    assert unitarity_defect(u) <= 1e-9
    assert np.max(np.abs(u[:2, 2:])) == 0.0
    assert np.max(np.abs(u[2:, :2])) == 0.0


def test_rwa_pulse_matches_matrix_exponential():
    """U = expm(-2 pi i (d Sz + rabi S_phase) t), for one qubit and per branch of the register."""
    sx = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    sy = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
    sz = np.diag([0.5, -0.5]).astype(complex)
    rng = np.random.default_rng(7)
    for _ in range(50):
        f_a, f_b, j = rng.uniform(5.0, 50.0, 2).tolist() + [rng.uniform(-0.05, 0.05)]
        pulse = PulseSpec(carrier=rng.uniform(5.0, 50.0), rabi=rng.uniform(0.01, 2.0),
                          phase=rng.uniform(-4.0, 4.0), duration=rng.uniform(0.0, 5.0))

        def reference(f):
            s_phi = math.cos(pulse.phase) * sx + math.sin(pulse.phase) * sy
            h = (f - pulse.carrier) * sz + pulse.rabi * s_phi
            return expm(-2j * math.pi * pulse.duration * h)

        assert np.max(np.abs(rwa_pulse(f_a, pulse) - reference(f_a))) <= 1e-12
        model = TwoQubitModel(f_a=f_a, f_b=f_b, j_coupling=j)
        projectors = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])  # the non-driven qubit in |0>, |1>
        for target, f in ((0, f_a), (1, f_b)):
            branches = [reference(f + (2 * other - 1) * j) for other in (0, 1)]
            if target == 0:
                expected = sum(np.kron(b, p) for b, p in zip(branches, projectors))
            else:
                expected = sum(np.kron(p, b) for b, p in zip(branches, projectors))
            assert np.max(np.abs(rwa_pulse(model, pulse, target) - expected)) <= 1e-12


def test_rwa_matches_lab_frame_evolution():
    """Lab-frame oracle: time-sliced H(t) = f0 Sz + 2 rabi cos(2 pi fc t) Sx.

    At carrier/rabi = 1e3 the rotating-wave error is far below 1e-4; the
    slice count (3e4 per Rabi period) keeps the integration error below
    that too.
    """
    rabi = 1.0
    carrier = 1000.0 * rabi
    duration = 1.0 / (2.0 * rabi)
    n_slices = int(30_000 * duration * rabi)
    dt = duration / n_slices
    sz = np.diag([0.5, -0.5]).astype(complex)
    sx = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    psi = KET0.copy()
    for k in range(n_slices):
        t_mid = (k + 0.5) * dt
        h = carrier * sz + 2.0 * rabi * math.cos(2.0 * math.pi * carrier * t_mid) * sx
        psi = evolve(h, psi, dt)
    pulse = PulseSpec(carrier=carrier, rabi=rabi, duration=duration)
    psi_rwa = rwa_pulse(carrier, pulse) @ KET0
    pop_error = np.max(np.abs(np.abs(psi) ** 2 - np.abs(psi_rwa) ** 2))
    assert pop_error <= 1e-4


def test_gate_fidelity_basics():
    h = hadamard()
    assert gate_fidelity(h, h) == pytest.approx(1.0, abs=1e-12)
    assert gate_fidelity(h * np.exp(0.42j), h) == pytest.approx(1.0, abs=1e-12)
    assert gate_fidelity(np.eye(4), CNOT) == pytest.approx(0.4, abs=1e-12)


def test_gate_fidelity_rejects_bad_input():
    with pytest.raises(ValueError):
        gate_fidelity(np.eye(2) * 2.0, np.eye(2))
    with pytest.raises(ValueError):
        gate_fidelity(np.eye(2), np.eye(4))


def test_cnot_high_selectivity():
    model = TwoQubitModel(f_a=17.393, f_b=17.393, j_coupling=0.001)
    report = cnot_conditional(model, 1.0 / 20.0)
    assert report.fidelity >= 0.99
    assert report.fidelity <= 1.0 + 1e-12
    bound = (1.0 / 20.0) ** 2 / ((1.0 / 20.0) ** 2 + 4.0)
    assert report.residual_offresonant_population <= bound + 1e-12


def test_cnot_fidelity_monotone_in_selectivity():
    model = TwoQubitModel(f_a=17.393, f_b=17.393, j_coupling=0.001)
    fids = [cnot_conditional(model, r).fidelity for r in (1 / 5, 1 / 10, 1 / 20)]
    assert fids[0] <= fids[1] <= fids[2]


def test_cnot_loses_selectivity_at_strong_drive():
    model = TwoQubitModel(f_a=17.393, f_b=17.393, j_coupling=0.001)
    assert cnot_conditional(model, 2.0).fidelity < 0.9


def test_cnot_rejects_degenerate_model():
    model = TwoQubitModel(f_a=17.393, f_b=17.393, j_coupling=0.0)
    with pytest.raises(DegenerateModelError):
        cnot_conditional(model, 0.05)


def test_cnot_rejects_bad_ratio():
    model = TwoQubitModel(f_a=17.393, f_b=17.393, j_coupling=0.001)
    with pytest.raises(ValueError):
        cnot_conditional(model, 0.0)
    with pytest.raises(ValueError):
        cnot_conditional(model, 2.5)


@pytest.mark.parametrize("ratio", [True, np.array([0.05]), "0.05", None])
def test_cnot_refuses_a_ratio_that_is_not_a_real_number(ratio):
    model = TwoQubitModel(f_a=17.393, f_b=17.393, j_coupling=0.001)
    message = f"^rabi_over_j must be a real number, got {type(ratio).__name__}$"
    with pytest.raises(TypeError, match=message):
        cnot_conditional(model, ratio)


def test_cnot_rejects_a_model_that_is_not_a_two_qubit_model():
    with pytest.raises(TypeError, match="^model must be a TwoQubitModel, got <class 'float'>$"):
        cnot_conditional(17.4, 0.05)


@pytest.mark.parametrize("ratio, error", [
    (5e-324, "^rabi = rabi_over_j \\* \\|j_coupling\\| underflows to 0"),
    (1e-310, "^duration must be finite, got inf$"),
    (1e-307, "^propagator overflows: sin"),  # returned a NaN fidelity before
])
def test_cnot_names_a_pulse_too_weak_to_build(ratio, error):
    model = TwoQubitModel(f_a=1.0, f_b=1.0, j_coupling=0.0625)
    with pytest.raises(ValueError, match=error):
        cnot_conditional(model, ratio)


def selective_pi(model, rabi_over_j):
    """The pulse cnot_conditional applies: a pi pulse on the control-|1> branch of qubit b."""
    rabi = rabi_over_j * abs(model.j_coupling)
    return PulseSpec(carrier=model.f_b + model.j_coupling, rabi=rabi, duration=1.0 / (2.0 * rabi))


def test_cnot_phase_correction_never_lowers_fidelity():
    model = TwoQubitModel(f_a=17.393, f_b=17.393, j_coupling=0.001)
    for ratio in (2.0, 1.37, 1 / 5, 1 / 20):
        raw = gate_fidelity(rwa_pulse(model, selective_pi(model, ratio), 1), CNOT)
        assert cnot_conditional(model, ratio).fidelity >= raw - 1e-12


def test_cnot_conditional_matches_brute_force_mesh():
    # independent route: |Tr(CNOT^dag (Rz(a) x Rz(b)) u)|^2 on a dense (a, b)
    # mesh, its best point polished by Nelder-Mead on the full matrix product
    rng = np.random.default_rng(5)
    rz = np.array([rotate_qubit((0.0, 0.0, 1.0), t) for t in np.linspace(0, 2 * math.pi, 128)])
    zz = np.einsum("aij,bkl->abikjl", rz, rz).reshape(128, 128, 4, 4)

    def overlap_at(u, ab):
        z = np.kron(rotate_qubit((0.0, 0.0, 1.0), ab[0]), rotate_qubit((0.0, 0.0, 1.0), ab[1]))
        return abs(np.trace(CNOT.conj().T @ z @ u)) ** 2

    for k in range(24):
        f_a, f_b = rng.uniform(5.0, 50.0, 2)
        j = (-1) ** k * rng.uniform(1e-4, 0.05)
        ratio = 2.0 - rng.uniform(0.0, 2.0)  # in (0, 2]
        model = TwoQubitModel(f_a=f_a, f_b=f_b, j_coupling=j)
        u = rwa_pulse(model, selective_pi(model, ratio), 1)
        mesh = np.abs(np.einsum("ij,abjk,ki->ab", CNOT.conj().T, zz, u)) ** 2
        a, b = np.unravel_index(np.argmax(mesh), mesh.shape)
        start = np.linspace(0, 2 * math.pi, 128)[[a, b]]
        best = minimize(lambda ab: -overlap_at(u, ab), start, method="Nelder-Mead",
                        options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 4000})
        got = 20.0 * cnot_conditional(model, ratio).fidelity - 4.0
        assert got >= mesh.max() - 1e-12
        assert abs(got + best.fun) <= 1e-9


def test_cnot_peak_is_derived_symbolically():
    # over Z = Rz(alpha) x Rz(beta), |Tr(CNOT^dag Z U)| for a U of two SU(2) blocks peaks at
    # 2 max|a -/+ i b|, with a = U[0,0] (spectator block) and b = U[2,3] (driven block)
    al, be, big_a, big_b = sympy.symbols("alpha beta A B", real=True)
    ar, ai, br, bi, cr, ci, dr, di = sympy.symbols("a_r a_i b_r b_i c_r c_i d_r d_i", real=True)
    a, b, c, d = ar + sympy.I * ai, br + sympy.I * bi, cr + sympy.I * ci, dr + sympy.I * di
    u = sympy.diag(sympy.Matrix([[a, -c.conjugate()], [c, a.conjugate()]]),
                   sympy.Matrix([[d, b], [-b.conjugate(), d.conjugate()]]))
    cnot = sympy.Matrix(CNOT.real.astype(int))

    def rz(t):  # rotate_qubit((0, 0, 1), t) = exp(-i t Sz)
        return sympy.diag(sympy.exp(-sympy.I * t / 2), sympy.exp(sympy.I * t / 2))

    trace = (cnot.H * sympy.kronecker_product(rz(al), rz(be)) * u).trace()
    assert not trace.free_symbols & {cr, ci, dr, di}  # only a and b enter
    # with A = Re(e^(-i beta/2) a) and B = Im(e^(-i beta/2) b), both real:
    # Tr = 2 (A e^(-i alpha/2) + i B e^(i alpha/2)), so |Tr|^2 = 4 (A^2 + B^2 - 2 A B sin alpha)
    rot = sympy.exp(-sympy.I * be / 2)
    re_a, im_b = sympy.re(rot * a), sympy.im(rot * b)
    split = 2 * (big_a * sympy.exp(-sympy.I * al / 2) + sympy.I * big_b * sympy.exp(sympy.I * al / 2))
    assert sympy.expand(sympy.expand_complex(
        trace - split.subs({big_a: re_a, big_b: im_b}))) == 0
    assert sympy.simplify(sympy.expand_complex(split * split.conjugate())
                          - 4 * (big_a**2 + big_b**2 - 2 * big_a * big_b * sympy.sin(al))) == 0
    # over alpha the peak is 2 (|A| + |B|) = 2 max|A -/+ B|, and A -/+ B = Re(e^(-i beta/2) w)
    # with w = a +/- i b, whose peak over beta is |w|: hence 2 max|a -/+ i b|
    for sign in (1, -1):
        w = a + sign * sympy.I * b
        assert sympy.expand(sympy.expand_complex(re_a - sign * im_b - sympy.re(rot * w))) == 0
    peak = sympy.lambdify((ar, ai, br, bi), 2 * sympy.Max(sympy.Abs(a - sympy.I * b),
                                                          sympy.Abs(a + sympy.I * b)), "mpmath")

    rng = np.random.default_rng(11)
    for k in range(12):
        f_a, f_b = rng.uniform(5.0, 50.0, 2)
        model = TwoQubitModel(f_a=f_a, f_b=f_b, j_coupling=(-1) ** k * rng.uniform(1e-4, 0.05))
        ratio = 2.0 - rng.uniform(0.0, 2.0)
        u_num = rwa_pulse(model, selective_pi(model, ratio), 1)
        a_num, b_num = complex(u_num[0, 0]), complex(u_num[2, 3])
        with mpmath.workdps(50):
            want = peak(a_num.real, a_num.imag, b_num.real, b_num.imag)
            fidelity = float((want**2 + 4) / 20)
        assert abs(cnot_conditional(model, ratio).fidelity - fidelity) <= 4 * math.ulp(fidelity)
        # the peak is reached: beta = 2 arg(w) for the larger w, then sin(alpha) = -sign(A B)
        w = max(a_num - 1j * b_num, a_num + 1j * b_num, key=abs)
        beta = 2.0 * cmath.phase(w)
        turn = cmath.exp(-0.5j * beta)
        alpha = -math.pi / 2 if (turn * a_num).real * (turn * b_num).imag >= 0 else math.pi / 2
        z = np.kron(rotate_qubit((0.0, 0.0, 1.0), alpha), rotate_qubit((0.0, 0.0, 1.0), beta))
        assert abs(abs(np.trace(CNOT.conj().T @ z @ u_num)) - float(want)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    f_b=st.floats(1.0, 100.0),
    j=st.floats(1e-5, 0.09).flatmap(lambda j: st.sampled_from((j, -j))),
    ratio=st.one_of(st.just(2.0), st.floats(0.0, 2.0, exclude_min=True)),
)
def test_cnot_conditional_reads_the_entries_of_the_register_pulse(f_b, j, ratio):
    # the report is exactly what the 4x4 of rwa_pulse gives: the corrected
    # overlap from U[0,0] and U[2,3], the residual from U[0,1] and U[1,0]
    model = TwoQubitModel(f_a=f_b, f_b=f_b, j_coupling=j)
    try:
        report = cnot_conditional(model, ratio)
    except ValueError:  # a pulse too weak to build (test_cnot_names_a_pulse_too_weak_to_build)
        assert min(ratio, ratio * abs(j)) < 1e-300
        return
    u = rwa_pulse(model, selective_pi(model, ratio), 1)
    a, b = complex(u[0, 0]), complex(u[2, 3])
    overlap = 4.0 * max(abs(a + 1j * b), abs(a - 1j * b)) ** 2
    assert report.fidelity == (overlap + 4.0) / 20.0
    assert report.residual_offresonant_population == max(abs(u[0, 1]) ** 2, abs(u[1, 0]) ** 2)


def test_argument_shapes_and_targets_are_refused_by_name():
    with pytest.raises(ValueError, match=r"^axis must be a 3-vector, got shape \(2,\)$"):
        rotate_qubit((1.0, 0.0), math.pi)
    model = TwoQubitModel(f_a=17.0, f_b=17.5, j_coupling=0.01)
    with pytest.raises(ValueError, match="^target must be 0 \\(qubit a\\) or 1 \\(qubit b\\), got 2$"):
        rwa_pulse(model, PulseSpec(carrier=17.0, rabi=0.001, duration=1.0), target=2)
    with pytest.raises(ValueError, match=r"^u_actual must be square, got shape \(2, 3\)$"):
        gate_fidelity(np.zeros((2, 3)), np.eye(2))

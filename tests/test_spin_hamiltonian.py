import math
import struct
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dotnmr import (
    DegenerateSelectionError,
    DotConfig,
    SpinBasisLabel,
    build_spin_matrix,
    hermitian_eig,
    nmr_closed_form,
    nmr_numeric,
    relative_shift,
    run_sweep,
    validate_config,
)
from dotnmr.spectrum import _staircase, ground_m_abs, magic_transitions
from dotnmr.spin_hamiltonian import _resonance_chain, spin_basis


def test_basis_ordering_triplet():
    labels = spin_basis(1)
    assert [(lb.i_z, lb.s_z) for lb in labels] == [
        (0.5, 1), (0.5, 0), (-0.5, 1), (0.5, -1), (-0.5, 0), (-0.5, -1),
    ]
    f_z = [lb.f_z for lb in labels]
    assert f_z == sorted(f_z, reverse=True)


def test_basis_ordering_singlet():
    labels = spin_basis(0)
    assert [(lb.i_z, lb.s_z) for lb in labels] == [(0.5, 0), (-0.5, 0)]


def test_label_validation(default_cfg):
    # S = -1 builds no label at all, so only the check in spin_basis can refuse it
    for s_total in (2, -1):
        with pytest.raises(ValueError, match=rf"^s_total must be 0 or 1, got {s_total}$"):
            build_spin_matrix(1.0, 1.0, default_cfg, s_total)


@pytest.mark.parametrize("s_total", [0, 1])
def test_spin_basis_labels_are_in_range(s_total):
    labels = spin_basis(s_total)
    assert len(labels) == 2 * (2 * s_total + 1)
    for lb in labels:
        assert lb.i_z in (0.5, -0.5)
        assert lb.s_total == s_total
        assert abs(lb.s_z) <= s_total


def test_triplet_matrix_elements(default_cfg):
    a, b = 3.0, 0.5
    gn = default_cfg.gamma_n * b
    ge = default_cfg.gamma_e * b
    h = build_spin_matrix(a, b, default_cfg, 1)
    idx = {(lb.i_z, lb.s_z): i for i, lb in enumerate(spin_basis(1))}

    assert h[idx[(0.5, 1)], idx[(0.5, 1)]] == pytest.approx(a - gn / 2 + ge, rel=1e-14)
    assert h[idx[(-0.5, -1)], idx[(-0.5, -1)]] == pytest.approx(a + gn / 2 - ge, rel=1e-14)
    assert h[idx[(0.5, -1)], idx[(-0.5, 0)]] == pytest.approx(math.sqrt(2.0) * a, rel=1e-14)
    assert h[idx[(-0.5, 1)], idx[(0.5, 0)]] == pytest.approx(math.sqrt(2.0) * a, rel=1e-14)
    assert np.max(np.abs(h - h.conj().T)) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.0, 50.0),
    b=st.floats(0.0, 30.0),
    gamma_n=st.floats(0.1, 100.0),
    gamma_e=st.floats(100.0, 1e5),
)
def test_triplet_matrix_matches_kron_route(a, b, gamma_n, gamma_e):
    # independent route: H from Kronecker products of the spin-1/2 (nucleus)
    # and spin-1 (electron pair) operators, permuted into spin_basis(1) order
    iz, ip = np.diag([0.5, -0.5]), np.array([[0.0, 1.0], [0.0, 0.0]])
    sz, sp = np.diag([1.0, 0.0, -1.0]), math.sqrt(2.0) * np.eye(3, k=1)
    h = (
        a * (np.kron(ip, sp.T) + np.kron(ip.T, sp) + 2.0 * np.kron(iz, sz))
        - gamma_n * b * np.kron(iz, np.eye(3))
        + gamma_e * b * np.kron(np.eye(2), sz)
    )
    perm = [(0 if lb.i_z > 0 else 1) * 3 + (1 - lb.s_z) for lb in spin_basis(1)]
    want = h[np.ix_(perm, perm)]
    got = build_spin_matrix(a, b, DotConfig(gamma_n=gamma_n, gamma_e=gamma_e), 1)
    tol = 8 * np.finfo(float).eps * max(1.0, np.max(np.abs(want)))
    assert np.all(got.imag == 0.0)
    assert np.max(np.abs(got.real - want)) <= tol


def test_f_z_block_structure_is_exact(default_cfg):
    h = build_spin_matrix(1.7, 0.9, default_cfg, 1)
    assert h.shape == (6, 6) and h.dtype == np.float64
    for i, li in enumerate(spin_basis(1)):
        for j, lj in enumerate(spin_basis(1)):
            if li.f_z != lj.f_z:
                assert h[i, j] == 0.0


def test_singlet_matrix_is_nuclear_zeeman_only(default_cfg):
    b = 2.0
    h = build_spin_matrix(5.0, b, default_cfg, 0)  # coupling ignored for S=0
    expected = np.diag([-0.5 * default_cfg.gamma_n * b, 0.5 * default_cfg.gamma_n * b])
    assert np.allclose(h, expected, atol=0)


def test_traceless_zeeman(default_cfg):
    assert np.trace(build_spin_matrix(0.0, 1.3, default_cfg, 1)) == 0.0


def test_closed_form_limits(default_cfg):
    b = 20.0 / default_cfg.gamma_n  # gamma_n B = 20 MHz
    assert nmr_closed_form(0.0, b, default_cfg) == pytest.approx(20.0, rel=1e-12)
    assert nmr_closed_form(2.0, 0.0, default_cfg) == pytest.approx(6.0, rel=1e-12)


def test_closed_form_large_field_example():
    cfg = DotConfig(gamma_n=20.0, gamma_e=52344.0)  # gn B = 20, ge B = 52344 at B = 1
    f = nmr_closed_form(2.0, 1.0, cfg)
    direct = 3.0 + 0.5 * (20.0 - 52344.0) + 0.5 * math.sqrt((2.0 + 52364.0) ** 2 + 32.0)
    assert f == pytest.approx(direct, rel=1e-15)
    assert f == pytest.approx(24.0002, abs=5e-5)
    assert abs(f - (20.0 + 4.0)) / f < 1e-3  # electron-Zeeman-dominated approximation


def test_numeric_matches_closed_form_on_grid(default_cfg):
    worst = 0.0
    for a in np.logspace(math.log10(0.1), math.log10(10.0), 20):
        for b in np.logspace(math.log10(0.1), math.log10(10.0), 20):
            res = nmr_numeric(float(a), float(b), default_cfg)
            worst = max(worst, abs(res.f_nmr - res.f_closed) / res.f_closed)
    assert worst <= 1e-10


def test_numeric_mixing_normalization(default_cfg):
    for a, b in ((0.5, 0.2), (8.0, 0.1), (1.0, 9.0)):
        res = nmr_numeric(a, b, default_cfg)
        assert abs(res.c1 ** 2 + res.c2 ** 2 - 1.0) <= 1e-10
        assert res.f_nmr > 0.0


def test_decoupled_limit_amplitudes(default_cfg):
    res = nmr_numeric(0.0, 1.0, default_cfg)
    assert res.c1 == pytest.approx(1.0, abs=1e-12)
    assert res.c2 == pytest.approx(0.0, abs=1e-12)
    assert res.f_nmr == pytest.approx(res.f0, rel=1e-12)


def test_larmor_limit(default_cfg):
    b = 1.5
    f0 = default_cfg.gamma_n * b
    assert abs(nmr_closed_form(0.0, b, default_cfg) - f0) / f0 <= 1e-12
    # at A = 1e-6 f0 the physical deviation is 2A, i.e. 2e-6 relative
    a = 1e-6 * f0
    deviation = abs(nmr_closed_form(a, b, default_cfg) - f0) / f0
    assert deviation <= 2.1e-6
    assert deviation >= 1.9e-6


def test_zeeman_dominated_approximation(default_cfg):
    # whenever gamma_e B >= 2000 A the resonance is gamma_n B + 2A to 1e-3
    for a in (0.5, 2.0, 10.0):
        for b in np.logspace(-1, 1, 8):
            if default_cfg.gamma_e * b < 2000.0 * a:
                continue
            f = nmr_closed_form(a, float(b), default_cfg)
            approx = default_cfg.gamma_n * float(b) + 2.0 * a
            assert abs(f - approx) / f <= 1e-3


def test_perturbative_mixing_scaling(default_cfg):
    # c2^2 -> 2 A^2 / (gamma_e B)^2 in the strong-field limit
    a = 1.0
    bs = (2.0, 4.0, 8.0, 16.0)
    c2sq = [nmr_numeric(a, b, default_cfg).c2 ** 2 for b in bs]
    prefactor = c2sq[-1] * (default_cfg.gamma_e * bs[-1]) ** 2 / (2.0 * a * a)
    assert prefactor == pytest.approx(1.0, rel=2e-2)
    slope = math.log(c2sq[-1] / c2sq[0]) / math.log(bs[-1] / bs[0])
    assert slope == pytest.approx(-2.0, abs=2e-2)


def test_degenerate_selection_guard():
    # equal diagonal entries in the F_z=-1/2 block force 50/50 eigenvectors
    a, b, gn = 1.0, 1.0, 2.0
    degenerate = DotConfig(gamma_n=gn, gamma_e=-(a + gn * b) / b)
    with pytest.raises(DegenerateSelectionError):
        nmr_numeric(a, b, degenerate)


def test_relative_shift_singlet_window(default_cfg):
    assert relative_shift(default_cfg, 0.2) == 0.0
    assert relative_shift(default_cfg, 0.2, ir_excited=True) == 0.0


def test_relative_shift_at_onset(default_cfg):
    x1 = magic_transitions(default_cfg, 0.0, 1.0)[0].x_star
    shift = relative_shift(default_cfg, x1 + 1e-9)
    assert shift == pytest.approx(0.2799, abs=2e-4)
    shift_ir = relative_shift(default_cfg, x1 + 1e-9, ir_excited=True)
    assert shift_ir == pytest.approx(0.4198, abs=2e-4)


def test_relative_shift_requires_positive_x(default_cfg):
    with pytest.raises(ValueError):
        relative_shift(default_cfg, 0.0)


@pytest.mark.parametrize("field, value", [("hyperfine_c", 1e308), ("hbar_omega0", 1e-320)])
def test_relative_shift_names_x_where_the_shift_is_not_finite(field, value):
    # A overflows the closed form's square at hyperfine_c = 1e308, and f0 is subnormal at
    # hbar_omega0 = 1e-320; pytest turns an escaping RuntimeWarning into an error
    cfg = validate_config(DotConfig(**{field: value}))
    with pytest.raises(FloatingPointError, match=r"^relative shift is not finite at x = 1\.0$"):
        relative_shift(cfg, 1.0)


EPS = float(np.finfo(float).eps)


def stable_shift(a, b, cfg):
    """(f - f0)/f0 without cancellation: f - gamma_n B = 2A + 4A^2/(sqrt(s^2 + 8A^2) + s)."""
    s = a + (cfg.gamma_n + cfg.gamma_e) * b
    return (2.0 * a + 4.0 * a * a / (math.sqrt(s * s + 8.0 * a * a) + s)) / (cfg.gamma_n * b)


def exact_shift(a, b, cfg):
    """(f - f0)/f0 at 50 digits from the floats A and B, with the exact f0 = gamma_n B."""
    with mpmath.workdps(50):
        a, b, gn, ge = map(mpmath.mpf, (a, b, cfg.gamma_n, cfg.gamma_e))
        f = 1.5 * a + (gn - ge) * b / 2 + mpmath.sqrt((a + (gn + ge) * b) ** 2 + 8 * a * a) / 2
        return float((f - gn * b) / (gn * b))


@settings(max_examples=40, deadline=None)
@given(
    g=st.floats(0.0, 3.0),
    mstar=st.floats(0.01, 1.0),
    alpha=st.floats(0.0, 1000.0),
    m_max=st.integers(5, 40),
    x_lo=st.floats(1e-3, 29.0),
)
def test_shift_error_is_bounded_by_the_oracle(g, mstar, alpha, m_max, x_lo):
    # f sums terms of size gamma_e B / 2, so the shift's absolute error is of order
    # eps gamma_e/gamma_n whatever its size; the form without cancellation keeps the
    # relative error at a few eps.  A and B are the sweep's own floats.
    cfg = DotConfig(g_factor=g, mstar_ratio=mstar, alpha_tilde=alpha, m_max=m_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m_max warnings
        sweep = run_sweep(cfg, x_lo, 30.0, 25)
    bound = 2.0 * EPS * cfg.gamma_e / cfg.gamma_n
    for a_column, shift_column in ((sweep.a_mhz, sweep.shift), (sweep.a_cm_mhz, sweep.shift_ir)):
        for a, b, shift in zip(a_column.tolist(), sweep.b_tesla.tolist(), shift_column.tolist()):
            exact = exact_shift(a, b, cfg)
            assert abs(shift - exact) <= bound
            assert abs(stable_shift(a, b, cfg) - exact) <= 4.0 * EPS * abs(exact)


@settings(max_examples=60, deadline=None)
@given(
    g=st.floats(0.0, 3.0),
    mstar=st.floats(0.01, 1.0),
    alpha=st.floats(0.0, 1000.0),
    m_max=st.integers(5, 40),
    xs=st.lists(st.floats(1e-3, 30.0), max_size=6),
)
@example(g=2.0, mstar=0.19, alpha=3.0, m_max=15, xs=[5e-324])  # f0 underflows: NaN shifts
# label 1's exact crossing x* = 2/sqrt(2 g m*/m_e) = 3e154 lies where x^2 overflows, so the
# staircase reads it as inf
@example(g=2.225073858507203e-309, mstar=1.0, alpha=0.0, m_max=5, xs=[])
def test_resonance_chain_gives_the_same_bits_on_floats_and_arrays(g, mstar, alpha, m_max, xs):
    # one pass over a float and its int |m| gives 0-d values, each the array call's entry
    cfg = DotConfig(g_factor=g, mstar_ratio=mstar, alpha_tilde=alpha, m_max=m_max)
    crossings = _staircase(cfg)[0]
    edges = [0.0, *crossings[crossings < 30.0].tolist(), 30.0]
    # an x inside every window below 30 as well, so singlets and triplets both occur
    x = np.array(xs + [(lo + hi) / 2 for lo, hi in zip(edges, edges[1:])])
    m_abs = ground_m_abs(cfg, x)
    for ir in (False, True):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rows = _resonance_chain(cfg, x, m_abs, ir)
            for i, (x_i, m_i) in enumerate(zip(x.tolist(), m_abs.tolist())):
                point = _resonance_chain(cfg, x_i, m_i, ir)
                assert all(np.ndim(value) == 0 for value in point)
                assert [np.float64(v).tobytes() for v in point] == [v[i].tobytes() for v in rows]


def test_closed_form_is_the_f_z_block_resonance_symbolically(default_cfg):
    # H = A (I+ S- + I- S+ + 2 Iz Sz) - gamma_n B Iz + gamma_e B Sz from Kronecker
    # products of the spin-1/2 (nucleus) and spin-1 (electron pair) matrices
    a, b, gn, ge = sympy.symbols("A B gamma_n gamma_e", positive=True)
    iz, ip = sympy.diag(sympy.Rational(1, 2), -sympy.Rational(1, 2)), sympy.Matrix([[0, 1], [0, 0]])
    sz = sympy.diag(1, 0, -1)
    sp = sympy.Matrix([[0, sympy.sqrt(2), 0], [0, 0, sympy.sqrt(2)], [0, 0, 0]])
    kron = sympy.kronecker_product
    h = (a * (kron(ip, sp.T) + kron(ip.T, sp) + 2 * kron(iz, sz))
         - gn * b * kron(iz, sympy.eye(3)) + ge * b * kron(sympy.eye(2), sz))
    labels = spin_basis(1)
    perm = [(0 if lb.i_z > 0 else 1) * 3 + (1 - lb.s_z) for lb in labels]
    h = h.extract(perm, perm)
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            if li.f_z != lj.f_z:
                assert h[i, j] == 0
    block = [i for i, lb in enumerate(labels) if lb.f_z == -0.5]
    (stretched,) = [i for i, lb in enumerate(labels) if lb.f_z == -1.5]
    root = sympy.sqrt((a + (gn + ge) * b) ** 2 + 8 * a ** 2)
    closed = 3 * a / 2 + (gn - ge) * b / 2 + root / 2  # nmr_closed_form's expression
    gaps = [sympy.simplify(h[stretched, stretched] - e - closed)
            for e in h.extract(block, block).eigenvals()]
    # |Psi> is the lower eigenstate of the block, and the other one lies root above it
    assert [sympy.simplify(gap * (gap + root)) for gap in gaps] == [0, 0]
    assert gaps.count(0) == 1
    # and nmr_closed_form evaluates that expression
    f = sympy.lambdify((a, b, gn, ge), closed, "mpmath")
    for a_mhz, b_tesla in ((0.0, 1.3), (2.447, 1.846), (37.0, 0.01), (1e-3, 25.0)):
        with mpmath.workdps(50):
            want = float(f(a_mhz, b_tesla, default_cfg.gamma_n, default_cfg.gamma_e))
        got = nmr_closed_form(a_mhz, b_tesla, default_cfg)
        assert got == pytest.approx(want, rel=4 * EPS * default_cfg.gamma_e / default_cfg.gamma_n)


def test_build_matrix_rejects_negative_inputs(default_cfg):
    with pytest.raises(ValueError):
        build_spin_matrix(-1.0, 1.0, default_cfg, 1)
    with pytest.raises(ValueError):
        build_spin_matrix(1.0, -1.0, default_cfg, 1)


@pytest.mark.parametrize("bad", [math.inf, np.float64(np.inf), np.array([1.0, np.inf])])
def test_infinite_inputs_fail_by_name_before_any_arithmetic(default_cfg, bad):
    # pytest turns numpy's "invalid value" RuntimeWarning into an error, so a
    # ValueError here was raised before any arithmetic on the infinite value
    for name, args in (("a_mhz", (bad, 1.0)), ("b_tesla", (1.0, bad))):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            nmr_closed_form(*args, default_cfg)
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            build_spin_matrix(*args, default_cfg, 1)
        if np.ndim(bad) == 0:
            with mock.patch("dotnmr.spin_hamiltonian.hermitian_eig") as eig:
                with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
                    nmr_numeric(*args, default_cfg)
            eig.assert_not_called()


def test_build_matrix_rejects_nan_inputs_by_name(default_cfg):
    with pytest.raises(ValueError, match="a_mhz must be >= 0"):
        build_spin_matrix(math.nan, 1.0, default_cfg, 1)
    with pytest.raises(ValueError, match="b_tesla must be >= 0"):
        build_spin_matrix(1.0, math.nan, default_cfg, 0)
    with pytest.raises(ValueError, match="a_mhz"):
        nmr_numeric(math.nan, 1.0, default_cfg)


# rows of |+;1,-1>, |-;1,0> and |-;1,-1> in the triplet basis
_ROWS = [spin_basis(1).index(SpinBasisLabel(*lb))
         for lb in ((0.5, 1, -1), (-0.5, 1, 0), (-0.5, 1, -1))]


def _reference_selection(values, vectors):
    """(f_nmr, c1, c2) as nmr_numeric picks them, by numpy; None if the pair is degenerate.

    The pair is the last two of a stable argsort of the weight on |+;1,-1> and
    |-;1,0>, the stretched state the first argmax of the weight on |-;1,-1>.
    vectors are eigh's, with LAPACK's signs: |Psi> takes the sign of its entry
    at the first argmax of its magnitudes.
    """
    weight = vectors[_ROWS] ** 2
    cand = np.argsort(weight[0] + weight[1], kind="stable")[-2:]
    o0, o1 = weight[0, cand]
    if abs(o0 - o1) <= 1e-12:
        return None
    j_psi = cand[0] if o0 > o1 else cand[1]
    j_low = int(weight[2].argmax())
    psi = vectors[:, j_psi]
    sign = -1.0 if psi[np.abs(psi).argmax()] < 0.0 else 1.0
    c1, c2 = sign * vectors[_ROWS[:2], j_psi]
    return float(values[j_low] - values[j_psi]), c1, c2


def _selection(a, b, cfg):
    try:
        res = nmr_numeric(a, b, cfg)
    except DegenerateSelectionError:
        return None
    return res.f_nmr, res.c1, res.c2


_FIELD = st.one_of(st.just(0.0), st.floats(1e-4, 1e2))


@settings(max_examples=200, deadline=None)
@given(a=_FIELD, b=_FIELD)
def test_nmr_selection_matches_stable_argsort_reference(default_cfg, a, b):
    eig = np.linalg.eigh(build_spin_matrix(a, b, default_cfg, 1))
    assert _selection(a, b, default_cfg) == _reference_selection(*eig)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((0.0, 0.5, -0.5, 1.0)), min_size=18, max_size=18))
# |Psi> is column 0, whose two largest entries -0.5 (|+;1,-1>) and 0.5 (|-;1,0>) tie:
# the first in basis order sets the sign, so c1 = 0.5 and c2 = -0.5
@example(entries=[-0.5, 0, 0, 0, 0, 0, 0.5, 1.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1.0])
def test_nmr_selection_tie_rules(default_cfg, entries):
    # eigenvectors with many equal weights: the tie rules decide the selection and the sign
    vectors = np.zeros((6, 6))
    vectors[_ROWS] = np.reshape(entries, (3, 6))
    values = np.array([0.0, 1.0, 3.0, 7.0, 15.0, 31.0])  # each difference names its pair
    with mock.patch("dotnmr.spin_hamiltonian.hermitian_eig", return_value=(values, vectors)):
        got = _selection(1.0, 1.0, default_cfg)
    assert got == _reference_selection(values, vectors)


def _bits(x):
    return struct.pack("<d", x)


# A and B over the default sweep's triplet rows (0.6-5.3 MHz, 0.2-20.5 T), and both zeros
_SWEEP_A = st.one_of(st.just(0.0), st.floats(0.6, 5.3))
_SWEEP_B = st.one_of(st.just(0.0), st.floats(0.2, 20.5))


@settings(max_examples=300, deadline=None)
@given(a=_SWEEP_A, b=_SWEEP_B)
def test_nmr_numeric_diagonalizes_the_built_matrix_once(default_cfg, a, b):
    with mock.patch("dotnmr.spin_hamiltonian.hermitian_eig", wraps=hermitian_eig) as eig:
        got = _selection(a, b, default_cfg)
    eig.assert_called_once()
    (passed,), kwargs = eig.call_args
    want = build_spin_matrix(a, b, default_cfg, 1)
    assert not kwargs
    assert passed.dtype == want.dtype == np.float64 and passed.shape == (6, 6)
    assert passed.tobytes() == want.tobytes()
    ref = _reference_selection(*np.linalg.eigh(want))
    assert (got is None) == (ref is None)
    if got is None:
        return
    res = nmr_numeric(a, b, default_cfg)
    fields = (res.f_nmr, res.f_closed, res.c1, res.c2, res.f0)
    assert [type(v) for v in fields] == [float, np.float64, float, float, float]
    assert [_bits(v) for v in fields] == [
        _bits(v) for v in (ref[0], nmr_closed_form(a, b, default_cfg), ref[1], ref[2],
                           default_cfg.gamma_n * b)
    ]

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dotnmr import (
    NonHermitianError,
    bracket_roots,
    evolve,
    hermitian_eig,
)
from dotnmr.numerics import require_hermitian
from dotnmr.spectrum import mu_m


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def test_diagonal_matrix():
    es = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(es.values, [1.0, 2.0, 3.0], atol=0)
    # eigenvectors are the permuted identity columns
    assert np.allclose(np.abs(es.vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-15)


def test_symmetric_2x2():
    a = 0.7
    es = hermitian_eig(np.array([[0.0, a], [a, 0.0]]))
    assert np.allclose(es.values, [-a, a], atol=1e-15)


def test_random_hermitian_reconstruction_and_orthonormality():
    rng = np.random.default_rng(20240811)
    for _ in range(100):
        h = random_hermitian(rng, 8)
        es = hermitian_eig(h)
        scale = max(1.0, float(np.max(np.abs(h))))
        rec = np.max(np.abs(es.vectors @ np.diag(es.values) @ es.vectors.conj().T - h))
        orth = np.max(np.abs(es.vectors.conj().T @ es.vectors - np.eye(8)))
        assert rec <= 1e-12 * scale
        assert orth <= 1e-12
        assert np.all(np.diff(es.values) >= 0)
        # independent oracle: LAPACK eigenvalues
        assert np.allclose(es.values, np.linalg.eigvalsh(h), atol=1e-10)


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(7)
    for n in (2, 5, 11, 16):
        h = random_hermitian(rng, n)
        es = hermitian_eig(h)
        trace = float(np.trace(h).real)
        assert abs(np.sum(es.values) - trace) <= 1e-10 * max(1.0, abs(trace))


def test_phase_convention_and_determinism():
    rng = np.random.default_rng(99)
    h = random_hermitian(rng, 6)
    es1 = hermitian_eig(h)
    es2 = hermitian_eig(h)
    assert np.array_equal(es1.values, es2.values)
    assert np.array_equal(es1.vectors, es2.vectors)
    for j in range(6):
        k = int(np.argmax(np.abs(es1.vectors[:, j])))
        pivot = es1.vectors[k, j]
        assert pivot.imag == 0.0
        assert pivot.real > 0.0


def _error(f, *args):
    try:
        f(*args)
    except Exception as e:  # any error: its type and message are what is compared
        return type(e), str(e)
    return None


# max|H| = 2 in the mismatch cases, so the tolerance on max|H - H^dag| is 2e-12
_OVER, _UNDER = 2.5e-12, 1.5e-12
_BAD_2X2 = [
    (np.full((2, 2), np.nan), ValueError),
    (np.full((2, 2), np.inf), ValueError),
    (np.full((2, 2), -np.inf), ValueError),
    (np.full((2, 2), complex(np.inf, np.nan)), ValueError),
    (np.array([[1.0, np.nan], [0.5, 2.0]]), ValueError),
    (np.array([[1.0, 0.5], [complex(0.5, np.inf), 2.0]]), ValueError),
    (np.array([[1.0, 0.5 + _OVER], [0.5, 2.0]]), NonHermitianError),
    (np.array([[1.0, 0.5 + _UNDER], [0.5, 2.0]]), None),
    (np.array([[1.0, 0.5 + _OVER * 1j], [0.5, 2.0]]), NonHermitianError),
    (np.array([[1.0, 0.5 + _UNDER * 1j], [0.5, 2.0]]), None),
    (np.array([[1.0, 0.5], [0.5 + _OVER * 1j, 2.0]]), NonHermitianError),
    (np.array([[1.0 + 0.5 * _OVER * 1j, 0.5], [0.5, 2.0]]), NonHermitianError),
    (np.array([[1.0, 0.5], [0.5, 2.0 + 0.5 * _UNDER * 1j]]), None),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), NonHermitianError),
]


def test_rejects_non_hermitian_and_bad_shapes():
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((17, 17)))
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, np.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_eig(np.full((2, 2), bad))
        with pytest.raises(ValueError, match="non-finite"):
            evolve(np.full((2, 2), bad), np.array([1.0, 0.0], dtype=complex), 1.0)
    with pytest.raises(ValueError, match=r"state dimension \(3,\) does not match matrix dim"):
        evolve(np.eye(2), np.array([1.0, 0.0, 0.0], dtype=complex), 1.0)
    # evolve checks a 2x2 on its scalar entries, the others on the array; both
    # must fail with the same type and message
    psi = np.array([0.6, 0.8j])
    for h, kind in _BAD_2X2:
        want = _error(require_hermitian, h)
        assert (want and want[0]) is kind
        assert _error(evolve, h, psi, 0.3) == want
        if want is None:
            # within tolerance, only the lower triangle and the real diagonal are read
            lower = np.tril(h, -1)
            exact = lower + lower.conj().T + np.diag(np.diag(h).real)
            assert np.array_equal(evolve(h, psi, 0.3), evolve(exact, psi, 0.3))


def test_evolve_rejects_non_finite_time_and_state():
    h2 = np.array([[1.0, 0.5], [0.5, -1.0]])
    h4 = np.diag([1.0, 2.0, 3.0, 4.0])
    for h in (h2, h4):
        psi = np.zeros(len(h), dtype=complex)
        psi[0] = 1.0
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                evolve(h, psi, t)
        for bad in (math.nan, math.inf, complex(0.0, math.nan)):
            state = psi.copy()
            state[-1] = bad
            with pytest.raises(ValueError, match="psi has non-finite entries"):
                evolve(h, state, 0.1)


def test_evolve_takes_integer_lists():
    # exp(-i 2 pi (1/4) sigma_x) = -i sigma_x
    out = evolve([[0, 1], [1, 0]], [1, 0], 0.25)
    assert np.max(np.abs(out - np.array([0.0, -1j]))) <= 1e-15


def test_tiny_hermiticity_violation_tolerated():
    h = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
    es = hermitian_eig(h)
    assert es.values.shape == (2,)


def test_evolve_zero_hamiltonian():
    psi = np.array([0.6, 0.8j], dtype=complex)
    out = evolve(np.zeros((2, 2)), psi, 3.7)
    assert np.allclose(out, psi, atol=0)


def test_evolve_pi_pulse_full_transfer():
    # resonant Rabi drive f1 Sx for t = 1/(2 f1) flips the spin
    f1 = 2.5
    h = np.array([[0.0, f1 / 2], [f1 / 2, 0.0]])
    psi = evolve(h, np.array([1.0, 0.0], dtype=complex), 1.0 / (2.0 * f1))
    assert abs(abs(psi[1]) ** 2 - 1.0) <= 1e-9


def test_evolve_conserves_energy_and_norm():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 5)
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi /= np.linalg.norm(psi)
    e0 = np.vdot(psi, h @ psi).real
    for t in (0.1, 1.0, 17.3):
        out = evolve(h, psi, t)
        assert abs(np.vdot(out, h @ out).real - e0) <= 1e-10
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_evolve_group_property():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    once = evolve(h, psi, 0.9 + 0.4)
    twice = evolve(h, evolve(h, psi, 0.9), 0.4)
    assert np.max(np.abs(once - twice)) <= 1e-10


def test_evolve_matches_matrix_exponential():
    # independent route: scipy's Pade expm of -i 2 pi H t, no eigendecomposition
    rng = np.random.default_rng(11)
    for n in range(2, 17):
        h = random_hermitian(rng, n)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        for t in (1e-3, 0.37, 4.1):
            want = expm(-2j * math.pi * t * h) @ psi
            assert np.max(np.abs(evolve(h, psi, t) - want)) <= 1e-12


def _entry(draw, kind):
    """0, or a value of magnitude in [1e-3, 1e3] with either sign (kind complex or float)."""
    def part():
        if draw(st.booleans()):
            return 0.0
        return draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-3.0, 3.0))
    return complex(part(), part()) if kind is complex else part()


@st.composite
def spin_half_cases(draw):
    shape = draw(st.sampled_from(("full", "diagonal", "off-diagonal", "zero")))
    h = np.zeros((2, 2), dtype=complex)
    if shape in ("full", "diagonal"):
        h[0, 0], h[1, 1] = _entry(draw, float), _entry(draw, float)
    if shape in ("full", "off-diagonal"):
        h[1, 0] = _entry(draw, complex)
        h[0, 1] = h[1, 0].conjugate()
    norm = max(float(np.linalg.norm(h, 2)), 1.0)
    t = draw(st.floats(0.0, 10.0)) / norm  # ||H|| t <= 10
    angles = draw(st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)))
    psi = np.array([math.cos(angles[0]), math.sin(angles[0]) * np.exp(1j * angles[1])])
    return h, psi, t


@settings(max_examples=150, deadline=None)
@given(spin_half_cases())
def test_evolve_2x2_closed_form_matches_matrix_exponential(case):
    # independent route: scipy's Pade expm, no eigendecomposition or SU(2) formula
    h, psi, t = case
    want = expm(-2j * math.pi * t * h) @ psi
    assert np.max(np.abs(evolve(h, psi, t) - want)) <= 1e-12


def test_evolve_2x2_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        evolve(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([1.0, 0.0], dtype=complex), 1.0)


def test_evolve_2x2_reads_the_lower_triangle_as_eigh_does():
    # the 1e-14 upper-triangle mismatch is within tolerance; like eigh, evolve
    # must read only the lower triangle, so reading h01 instead shows as ~6e-14
    h = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
    psi = np.array([1.0, 0.0], dtype=complex)
    w, v = np.linalg.eigh(h)
    want = v @ (np.exp(-2j * math.pi * w * 1.0) * (v.conj().T @ psi))
    assert np.max(np.abs(evolve(h, psi, 1.0) - want)) <= 5e-15


def test_hermitian_eig_keeps_a_real_matrix_real():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(6, 6))
    es = hermitian_eig(m + m.T)
    assert es.vectors.dtype == np.float64
    assert np.max(np.abs(es.vectors @ np.diag(es.values) @ es.vectors.T - (m + m.T))) <= 1e-12
    pivots = es.vectors[np.abs(es.vectors).argmax(axis=0), np.arange(6)]
    assert np.all(pivots > 0.0)


def test_evolve_dimension_mismatch():
    with pytest.raises(ValueError):
        evolve(np.zeros((2, 2)), np.array([1.0, 0.0, 0.0], dtype=complex), 1.0)


def test_bracket_linear_root():
    roots = bracket_roots(lambda x: x - 1.0, 0.0, 2.0, 50)
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) <= 1e-9


def test_bracket_no_roots():
    assert bracket_roots(lambda x: x * x + 1.0, -3.0, 3.0, 100) == []


def test_bracket_multiple_roots_sorted():
    roots = bracket_roots(math.sin, 0.5, 10.0, 200)
    assert len(roots) == 3
    for r, expected in zip(roots, (math.pi, 2 * math.pi, 3 * math.pi)):
        assert abs(r - expected) <= 1e-9
    assert roots == sorted(roots)


def test_bracket_energy_difference_m1_vs_m3():
    # oracle: sqrt(x^2+4) (mu3 - mu1) = 2x solves to x = 2k/sqrt(4-k^2)
    k = mu_m(3, 3.0) - mu_m(1, 3.0)
    x_star = 2.0 * k / math.sqrt(4.0 - k * k)

    def gap(x):
        return math.sqrt(x * x + 4.0) * k - 2.0 * x

    roots = bracket_roots(gap, 0.1, 5.0, 400)
    assert len(roots) == 1
    assert abs(roots[0] - x_star) <= 1e-9
    assert round(roots[0], 5) == 2.14914


def test_bracket_rejects_bad_input():
    with pytest.raises(ValueError):
        bracket_roots(lambda x: x, 1.0, 1.0, 10)
    with pytest.raises(ValueError):
        bracket_roots(lambda x: x, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        bracket_roots(lambda x: float("nan"), 0.0, 1.0, 5)

import cmath
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
from dotnmr import numerics
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


def test_repeated_calls_are_bitwise_identical():
    rng = np.random.default_rng(99)
    h = random_hermitian(rng, 6)
    es1 = hermitian_eig(h)
    es2 = hermitian_eig(h)
    assert es1.values.tobytes() == es2.values.tobytes()
    assert es1.vectors.tobytes() == es2.vectors.tobytes()


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


def _evolve_reference(h, psi, t):
    """evolve(h, psi, t) by a test-side copy of its arithmetic.

    A 2x2 is the SU(2) closed form of its traceless part, read from the lower
    triangle, times the trace phase; a larger H is V exp(-i 2 pi lambda t) V^dag
    with V straight from eigh.
    """
    a = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
    state = np.asarray(psi, dtype=complex)
    if a.shape != (2, 2):
        values, vectors = np.linalg.eigh(a)
        return vectors @ (np.exp(-2j * math.pi * values * t) * (vectors.conj().T @ state))
    (h00, _), (h10, h11) = a.tolist()
    z, b = 0.5 * (h00.real - h11.real), h10.conjugate()
    r = math.hypot(z, b.real, b.imag)
    theta = 2.0 * math.pi * r * t
    c, s = math.cos(theta), (math.sin(theta) / r if r else 0.0)
    sb = s * b
    u00, u01 = complex(c, -s * z), complex(sb.imag, -sb.real)
    u10, u11 = complex(-sb.imag, -sb.real), complex(c, s * z)
    p0, p1 = state.tolist()
    phase = cmath.rect(1.0, -math.pi * (h00.real + h11.real) * t)
    return np.array([phase * (u00 * p0 + u01 * p1), phase * (u10 * p0 + u11 * p1)])


@st.composite
def small_hermitian_cases(draw):
    """(H, psi, t) at dims 2-4, real or complex, with ||H|| t <= 10."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.normal(size=(n, n)) * 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        h = h + 1j * rng.normal(size=(n, n)) * 10.0 ** draw(st.integers(-3, 3))
    h = np.tril(h, -1) + np.tril(h, -1).conj().T + np.diag(np.diag(h).real)
    t = draw(st.floats(0.0, 10.0)) / max(float(np.linalg.norm(h, 2)), 1.0)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return h, psi / np.linalg.norm(psi), t


@settings(max_examples=200, deadline=None)
@given(small_hermitian_cases())
def test_evolve_returns_the_reference_bytes_at_dims_2_to_4(case):
    h, psi, t = case
    got, want = evolve(h, psi, t), _evolve_reference(h, psi, t)
    assert got.dtype == want.dtype == np.complex128
    assert got.tobytes() == want.tobytes()


def _bad_matrices(n):
    """(H, expected error type): n x n, off either side of the tolerance, or non-finite."""
    rng = np.random.default_rng(n)
    base = random_hermitian(rng, n)
    base /= np.abs(base).max()  # max|H| = 1: the tolerance on max|H - H^dag| is 1e-12
    cases = []
    for i, j, step, kind in ((n - 1, 0, 2e-12, NonHermitianError),
                             (0, n - 1, 0.5, NonHermitianError),
                             (n - 1, 0, 5e-13, None),
                             (1, 1, 2e-12j, NonHermitianError),
                             (1, 1, 4e-13j, None)):
        h = base.copy()
        h[i, j] += step
        cases.append((h, kind))
        cases.append((h.real.copy(), None if kind is None or step.imag else kind))
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, np.nan)):
        h = base.copy()
        h[n - 1, n // 2] = bad
        cases.append((h, ValueError))
    cases.append((np.full((n, n), np.nan), ValueError))
    return cases


@pytest.mark.parametrize("n", [2, 3, 4])
def test_evolve_raises_require_hermitians_errors_at_dims_2_to_4(n):
    psi = np.ones(n, dtype=complex) / math.sqrt(n)
    for h, kind in _bad_matrices(n):
        want = _error(require_hermitian, h)
        assert (want and want[0]) is kind
        if kind is ValueError:
            assert want[1] == "matrix has non-finite entries"
        elif kind is NonHermitianError:
            assert want[1].startswith("matrix is not Hermitian: max |H - H^dag| = ")
        assert _error(evolve, h, psi, 0.3) == want
    # mis-shaped matrices fail on their shape before psi is looked at
    for shape, message in (((n, n + 1), f"expected a square matrix, got shape {(n, n + 1)}"),
                           ((n,), f"expected a square matrix, got shape {(n,)}"),
                           ((1, n, n), f"expected a square matrix, got shape {(1, n, n)}"),
                           ((17, 17), "matrix dimension must be in [1, 16], got 17")):
        assert _error(evolve, np.zeros(shape), psi, 0.3) == (ValueError, message)
    assert _error(evolve, np.eye(n), np.ones(n + 1), 0.3) == (
        ValueError, f"state dimension {(n + 1,)} does not match matrix dimension {n}")


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float32, np.complex64, ">f8", ">c16"])
def test_other_dtypes_are_taken_as_float64_or_complex128(dtype):
    for h in ([[1, 1], [1, 0]], [[2, 1, 0], [1, 3, 1], [0, 1, 0]]):
        given = np.array(h).astype(dtype)
        h = given.astype(complex if given.dtype.kind == "c" else float)
        assert require_hermitian(given).dtype == h.dtype
        psi = np.ones(len(h)) / math.sqrt(len(h))
        assert evolve(given, psi, 0.3).tobytes() == evolve(h, psi, 0.3).tobytes()
        for got, want in zip(hermitian_eig(given), hermitian_eig(h)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.sampled_from(["<f8", ">f8", "<c16", ">c16", "f4", "c8", "i8", "?"]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_square_passes_float64_and_complex128_through(n, dtype, strided, seed):
    rng = np.random.default_rng(seed)
    h = (rng.normal(size=(n, 2 * n)) * 4.0).astype(dtype)
    h = h[:, ::2] if strided else h[:, :n].copy()
    a = numerics._square(h)
    if h.dtype in (np.float64, np.complex128) and h.dtype.isnative:
        assert a is h
    else:
        assert a.dtype == (complex if h.dtype.kind == "c" else float)
        assert a.tobytes() == h.astype(a.dtype).tobytes()


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


@st.composite
def real_matrices(draw, symmetric=True):
    """Real n x n matrices, n in 1..16, with ties in the eigenvectors' largest entries.

    Small integer entries make ties likely.  A mirror-symmetric matrix
    (h[i, j] = h[n-1-i, n-1-j]) has eigenvectors that are even or odd under
    the mirror, so an odd one has equal largest entries of opposite sign.
    """
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        m = rng.integers(-2, 3, size=(n, n)).astype(float)
    else:
        m = rng.normal(size=(n, n)) * 10.0 ** draw(st.integers(-6, 6))
    h = np.tril(m) + np.tril(m, -1).T
    if draw(st.booleans()):
        h = h + h[::-1, ::-1]
    if not symmetric:  # one entry moved by a relative step on either side of the tolerance
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        step = draw(st.sampled_from([0.0, 5e-13, 2e-12, 1e-6, 1.0]))
        h[i, j] += step * max(float(np.abs(h).max()), 1.0) * draw(st.sampled_from([-1.0, 1.0]))
    return h


@settings(max_examples=300, deadline=None)
@given(real_matrices(), st.booleans(), st.integers(0, 2**32 - 1))
def test_hermitian_eig_returns_numpy_linalg_eighs_bytes(h, complex_, seed):
    # no phase convention: values and vectors are eigh's, signs and phases included;
    # a complex draw adds an antisymmetric imaginary part, so it stays Hermitian
    if complex_:
        z = np.tril(np.random.default_rng(seed).normal(size=h.shape), -1)
        h = h + 1j * (z - z.T)
    es = hermitian_eig(h)
    values, vectors = np.linalg.eigh(h)
    assert es.vectors.dtype == vectors.dtype == (complex if complex_ else float)
    assert es.values.tobytes() == values.tobytes()
    assert es.vectors.tobytes() == vectors.tobytes()


@settings(max_examples=300, deadline=None)
@given(real_matrices(symmetric=False))
def test_require_hermitian_real_mismatch_is_max_abs_of_h_minus_its_transpose(h):
    scale = float(np.abs(h).max())
    mismatch = float(np.abs(h - h.T).max())
    assert float((h - h.T).max()) == mismatch  # H - H^T is exactly antisymmetric
    want = None
    if mismatch > 1e-12 * max(scale, 1e-300):
        want = (NonHermitianError,
                f"matrix is not Hermitian: max |H - H^dag| = {mismatch:.3e} "
                f"exceeds 1e-12 * max|H| = {1e-12 * scale:.3e}")
    assert _error(require_hermitian, h) == want


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


@settings(max_examples=200, deadline=None)
@given(real_matrices(), st.integers(0, 2**32 - 1))
def test_lapack_call_matches_numpy_linalg_eigh_bitwise(h, seed):
    # hermitian_eig and evolve call the gufunc behind numpy.linalg.eigh directly
    z = np.random.default_rng(seed).normal(size=h.shape)
    for a in (h, h + 1j * (np.tril(z, -1) - np.tril(z, -1).T)):
        got, want = numerics._eigh(a), np.linalg.eigh(a)
        for g, w in zip(got, want):
            assert type(g) is np.ndarray and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


def test_lapack_nonconvergence_raises_numpy_linalg_eighs_error(monkeypatch):
    # the gufunc reports a failed solve by raising the invalid flag, which
    # numpy.linalg.eigh's error state turns into LinAlgError
    class FailingGufunc:
        @staticmethod
        def eigh_lo(a, signature):
            return np.sqrt(np.full(len(a), -1.0)), np.full_like(a, np.nan)

    monkeypatch.setattr(numerics, "_umath_linalg", FailingGufunc)
    for h in (np.eye(3), np.eye(4, dtype=complex)):
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            hermitian_eig(h)
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            evolve(h, np.ones(len(h)), 0.1)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_evolve_raises_on_an_overflowing_phase_at_every_dim(n, sign):
    # 2 pi lambda t overflows at t = 1e308; the largest |lambda| is the first
    # eigenvalue for sign -1 and the last for sign +1.  No route may warn or
    # return NaN (pytest turns a RuntimeWarning into an error)
    h = np.diag(sign * np.arange(1.0, n + 1))
    psi = np.ones(n) / math.sqrt(n)
    kind, message = _error(evolve, h, psi, 1e308)
    assert kind is ValueError
    assert message.startswith("propagator phase overflows: 2 pi ")
    assert evolve(h, psi, 0.0).tolist() == psi.tolist()


@pytest.mark.parametrize("n", [2, 3])
def test_evolve_names_an_overflowing_trace_phase(n):
    # h00 + h11 overflows while the 2x2's traceless part is 0; the dim-3 route
    # meets the same H as its largest eigenvalue
    psi = np.eye(n)[0]
    kind, message = _error(evolve, np.diag([1e308] * n), psi, 1.0)
    assert kind is ValueError
    assert message.startswith("propagator phase overflows: ")


# 2x2s whose 2 max|H|, max|H| or H - H^dag overflows: the scalar and the array
# Hermitian checks must report each alike, and a dim-4 block of it too
_OVERFLOWING_2X2 = [
    np.array([[1e308, -1e308], [1e308, 1e308]]),
    # |1.5e308 + 1.5e308j| overflows: Python's abs raises, numpy's gives inf
    np.array([[1.0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 1.0]]),
    # h01 - conj(h10) = 1.5e308 + 1.5e308j, whose abs overflows
    np.array([[0.0, 1e308 + 1e308j], [-5e307 + 5e307j, 0.0]]),
]


@pytest.mark.parametrize("h", _OVERFLOWING_2X2)
def test_overflowing_hermitian_checks_fail_alike_without_a_warning(h):
    want = _error(require_hermitian, h)
    assert want is not None and want[0] in (ValueError, NonHermitianError)
    assert _error(hermitian_eig, h) == want
    assert _error(evolve, h, [1.0, 0.0], 0.3) == want
    block = np.kron(np.eye(2), h)  # the same entries through the dim >= 3 route
    assert _error(hermitian_eig, block) == want
    assert _error(evolve, block, [1.0, 0.0, 0.0, 0.0], 0.3) == want


def test_bracket_keeps_an_exact_zero_on_its_scan_grid():
    # linspace(-1, 1, 5) holds 0.0 exactly, where f is exactly 0 without a sign change
    # between its neighbours' bracket
    assert bracket_roots(lambda x: x * x * x, -1.0, 1.0, 5) == [0.0]
    assert bracket_roots(lambda x: x * x, -1.0, 1.0, 5) == [0.0]

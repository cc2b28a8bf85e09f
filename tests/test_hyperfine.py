import inspect
import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dotnmr import (
    DotConfig,
    coupling_a,
    delta_cm,
    delta_m,
    mu_m,
)
from dotnmr.hyperfine import _center_scales


def density_quadrature(x: float) -> float:
    """Independent oracle for the non-interacting case (alpha_tilde=0, m=0).

    The pair factorizes into center-of-mass and relative Gaussians of hybrid
    frequency Omega = sqrt(omega_c^2 + 4 omega_0^2)/2, with squared lengths
    l_R^2 = l^2 (mass 2m*) and l_r^2 = 4 l^2 (mass m*/2), l^2 = hbar/(m* omega).
    The contact density is integral |xi(-r/2)|^2 |zeta(r)|^2 d^2r, here in
    1/l0^2 units with l^2 = l0^2 / sqrt(x^2+4).
    """
    l_sq = 1.0 / math.sqrt(x * x + 4.0)
    l_cm_sq = l_sq
    l_rel_sq = 4.0 * l_sq

    def integrand(r):
        cm = math.exp(-(r / 2.0) ** 2 / l_cm_sq) / (math.pi * l_cm_sq)
        rel = math.exp(-(r ** 2) / l_rel_sq) / (math.pi * l_rel_sq)
        return cm * rel * 2.0 * math.pi * r

    value, err = quad(integrand, 0.0, 12.0)
    assert err < 1e-10
    return value


@pytest.mark.parametrize("x", [0.0, 0.7, 2.5])
def test_delta_matches_independent_quadrature(x):
    cfg = DotConfig(alpha_tilde=0.0)
    assert delta_m(cfg, x, 0) == pytest.approx(density_quadrature(x), rel=1e-9)


def test_delta_non_interacting_zero_field():
    cfg = DotConfig(alpha_tilde=0.0)
    assert delta_m(cfg, 0.0, 0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert round(delta_m(cfg, 0.0, 0), 6) == 0.318310


def test_delta_m1_near_first_boundary(default_cfg):
    # exponent 1 + mu_1 = 3 gives the 1/(8 pi) prefactor
    x = 0.39584
    expected = math.sqrt(x * x + 4.0) / (8.0 * math.pi)
    assert delta_m(default_cfg, x, 1) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.0811213, abs=5e-7)


def test_delta_ratio_is_fig1_jump_factor(default_cfg):
    for x in (0.5, 2.1491399, 4.0):
        ratio = delta_m(default_cfg, x, 1) / delta_m(default_cfg, x, 3)
        assert ratio == pytest.approx(2.0 ** (mu_m(3, 3.0) - mu_m(1, 3.0)), rel=1e-10)
    assert abs(ratio - 2.7589162) < 1e-6


def test_delta_cm_renormalization_factors(default_cfg):
    for x in (0.2, 1.3):
        assert delta_cm(default_cfg, x, 1) == pytest.approx(
            1.5 * delta_m(default_cfg, x, 1), rel=1e-14
        )
        factor3 = 0.5 * (1.0 + math.sqrt(12.0))
        assert delta_cm(default_cfg, x, 3) == pytest.approx(
            factor3 * delta_m(default_cfg, x, 3), rel=1e-14
        )
        assert round(factor3, 5) == 2.23205


def test_delta_cm_fixed_point_at_mu_one():
    cfg = DotConfig(alpha_tilde=1.0)  # mu_0 = 1
    for x in (0.0, 1.7):
        assert delta_cm(cfg, x, 0) == delta_m(cfg, x, 0)


def test_coupling_singlet_is_zero(default_cfg):
    for x in (0.1, 2.6):
        for m in (0, 2, 4):
            assert coupling_a(default_cfg, x, m) == 0.0
            assert coupling_a(default_cfg, x, m, ir_excited=True) == 0.0


def test_coupling_triplet_values(default_cfg):
    x = 0.39584
    expected = 30.0 * delta_m(default_cfg, x, 1)
    assert coupling_a(default_cfg, x, 1) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(2.4336, abs=5e-4)
    assert coupling_a(default_cfg, x, 1, ir_excited=True) == pytest.approx(
        1.5 * expected, rel=1e-14
    )


def triplet_coupling(cfg, x, m_abs, ir_excited):
    """Reference A(m) of the triplet: 0.5 * hyperfine_c * density, with no spin factor."""
    return 0.5 * cfg.hyperfine_c * (delta_cm if ir_excited else delta_m)(cfg, x, m_abs)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 50.0), st.integers(0, 40), st.booleans(),
       st.lists(st.integers(0, 40), min_size=1, max_size=12))
@example(0.0, 1, False, [1, 4, 6])
@example(2.6, 0, True, [0, 1, 2, 3])
def test_coupling_takes_s_from_the_parity_of_m(x, m, ir, ms):
    cfg = DotConfig()
    a = coupling_a(cfg, x, m, ir_excited=ir)
    if m & 1:
        assert a == triplet_coupling(cfg, x, m, ir)  # bitwise: the spin factor is exactly 1
    else:
        assert a == 0.0 and math.copysign(1.0, a) == 1.0
    m_arr = np.array(ms)
    xs = np.linspace(x, x + 1.0, len(ms))
    values = coupling_a(cfg, xs, m_arr, ir_excited=ir)
    triplet = triplet_coupling(cfg, xs, m_arr, ir)
    want = np.where(m_arr & 1 == 1, triplet, 0.0)
    assert values.dtype == np.float64 and values.tobytes() == want.tobytes()


def test_coupling_takes_no_spin_argument(default_cfg):
    with pytest.raises(TypeError):
        coupling_a(default_cfg, 1.0, 1, 1)
    with pytest.raises(TypeError):
        coupling_a(default_cfg, 1.0, 1, 1, True)


def test_geometric_factor_separates_from_exponential(default_cfg):
    # Delta * l0^2 * 2/sqrt(x^2+4) is the l^2-normalized density: constant in x
    for m in (1, 3):
        values = [
            delta_m(default_cfg, x, m) * 2.0 / math.sqrt(x * x + 4.0)
            for x in (0.1, 0.9, 2.2, 4.8)
        ]
        for v in values[1:]:
            assert abs(v - values[0]) <= 1e-12


def test_drop_ratio_across_any_triplet_transition(default_cfg):
    for m_from, m_to in ((1, 3), (3, 5), (5, 7)):
        x = 2.0  # same-x comparison isolates the 2^(-mu) physics
        ratio = delta_m(default_cfg, x, m_from) / delta_m(default_cfg, x, m_to)
        expected = 2.0 ** (mu_m(m_to, 3.0) - mu_m(m_from, 3.0))
        assert ratio == pytest.approx(expected, rel=1e-10)


def test_delta_cm_dominates_when_mu_above_one(default_cfg):
    for m in (1, 3, 5):  # mu_m >= 2 with the default repulsion
        for x in (0.0, 1.1, 3.3):
            assert delta_cm(default_cfg, x, m) >= delta_m(default_cfg, x, m)


def test_array_labels_match_scalar_calls_bitwise(default_cfg):
    x = np.linspace(0.0, 9.0, 40)
    m = np.arange(40) % 20 | 1  # odd labels 1..19, in no order
    for values, scalar in (
        (mu_m(m, default_cfg.alpha_tilde), lambda xi, mi: mu_m(mi, default_cfg.alpha_tilde)),
        (delta_m(default_cfg, x, m), lambda xi, mi: delta_m(default_cfg, xi, mi)),
        (delta_cm(default_cfg, x, m), lambda xi, mi: delta_cm(default_cfg, xi, mi)),
        (coupling_a(default_cfg, x, m), lambda xi, mi: coupling_a(default_cfg, xi, mi)),
        (coupling_a(default_cfg, x, m, ir_excited=True),
         lambda xi, mi: coupling_a(default_cfg, xi, mi, ir_excited=True)),
    ):
        expected = [scalar(xi, mi) for xi, mi in zip(x.tolist(), m.tolist())]
        assert values.tobytes() == np.array(expected, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 60), st.floats(0.0, 1e3))
def test_center_scale_is_pythons_pow_bitwise(m, alpha):
    want = math.pi * 2.0 ** (1.0 + math.sqrt(m * m + alpha))
    assert _center_scales(alpha)[m] == want
    assert _center_scales(alpha).take(np.array([m, m])).tolist() == [want, want]


def test_array_labels_are_checked(default_cfg):
    with pytest.raises(ValueError, match="m_abs must be >= 0"):
        delta_m(default_cfg, np.ones(3), np.array([1, -1, 3]))
    with pytest.raises(ValueError, match="m_abs must be >= 0"):
        mu_m(np.array([0, -2]), 3.0)
    with pytest.raises(ValueError, match="m_abs must be >= 0"):
        coupling_a(default_cfg, np.ones(3), np.array([1, -2, 3]))


def test_density_is_exactly_zero_where_two_to_the_mu_overflows():
    # 1 + mu_0 is 1001.0 at alpha_tilde 1e6 and 1415.2 at 2e6; Python's 2.0 ** y raises
    # from y = 1024, and pi 2^y already overflows to inf a little below it
    finite, overflowing = DotConfig(alpha_tilde=1e6), DotConfig(alpha_tilde=2e6)
    assert 0.0 < delta_m(finite, 1.0, 1) < 1e-300
    assert np.isinf(_center_scales(overflowing.alpha_tilde)).all()
    for m in (0, 1, np.array([1, 3, 15])):
        assert np.all(delta_m(overflowing, 1.0, m) == 0.0)
        assert np.all(delta_cm(overflowing, 1.0, m) == 0.0)
        assert np.all(coupling_a(overflowing, 1.0, m, ir_excited=True) == 0.0)


def test_one_table_of_1023_entries_serves_every_m(default_cfg):
    # from |m| = 1022 on, pi 2^(1 + mu_m) >= pi 2^1023 overflows for every alpha_tilde >= 0
    assert list(inspect.signature(_center_scales).parameters) == ["alpha_tilde"]
    _center_scales.cache_clear()
    for m in (0, 3, 15, 1021, 1022, 1023, 10**6, np.arange(40) | 1,
              np.array([3, 10**6, 1021])):
        delta_m(default_cfg, 2.5, m)
        coupling_a(default_cfg, 2.5, m, ir_excited=True)
    info = _center_scales.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    table = _center_scales(default_cfg.alpha_tilde)
    assert table.shape == (1023,) and not table.flags.writeable
    assert math.isfinite(table[1021]) and table[1022] == math.inf


@pytest.mark.parametrize("m, want", [
    # delta_m, delta_cm, coupling_a and its IR value at x = 2.5 for the default config
    (1021, (2.2652400640389175e-308, 1.1575393367090249e-305, 6.795720192116752e-307,
            3.4726180101270745e-304)),
    (1022, (0.0, 0.0, 0.0, 0.0)),
    (1023, (0.0, 0.0, 0.0, 0.0)),
    (10**6, (0.0, 0.0, 0.0, 0.0)),
])
def test_density_at_the_end_of_the_table(default_cfg, m, want):
    got = (delta_m(default_cfg, 2.5, m), delta_cm(default_cfg, 2.5, m),
           coupling_a(default_cfg, 2.5, m), coupling_a(default_cfg, 2.5, m, ir_excited=True))
    assert [float(v).hex() for v in got] == [v.hex() for v in want]
    ms = np.array([m, 1, m])
    assert delta_m(default_cfg, 2.5, ms)[[0, 2]].tolist() == [want[0], want[0]]


# The pair separates into a centre of mass (CM, mass 2 m*) and a relative motion (mass
# m*/2), each in a parabola of frequency Omega = omega_0 sqrt(x^2 + 4) / 2, and a
# beta / r^2 repulsion acts on the relative motion only.  The tests below derive what
# the hyperfine docstring states from that alone.
_R, _S = sympy.symbols("r s", positive=True)  # s = r^2
_HBAR, _OMEGA, _OMEGA0, _MSTAR, _X = sympy.symbols("hbar Omega omega_0 m_star x", positive=True)


def _radial_residual(u, mass, m, beta, energy):
    """(H u - E u) / u for the 2-D radial Hamiltonian of u(r) e^(i m phi), simplified.

    H = -hbar^2/2M (d^2/dr^2 + (1/r) d/dr - m^2/r^2) + M Omega^2 r^2 / 2 + beta / r^2.
    """
    hu = (-_HBAR**2 / (2 * mass) * (u.diff(_R, 2) + u.diff(_R) / _R - m**2 / _R**2 * u)
          + mass * _OMEGA**2 * _R**2 / 2 * u + beta / _R**2 * u)
    return sympy.cancel(sympy.powsimp(sympy.expand((hu - energy * u) / u), force=True))


def _gaussian_state(mass, power):
    """r^power e^(-r^2 / 2 l^2), l^2 = hbar / (M Omega): the nodeless state of |m| = power."""
    return _R**power * sympy.exp(-_R**2 * mass * _OMEGA / (2 * _HBAR))


def _plane_density(u):
    """|u(r)|^2 normalized over the plane, as a function of s = r^2 (d^2r = pi ds)."""
    rho = sympy.powsimp((u**2).subs(_R, sympy.sqrt(_S)), force=True)
    return rho / sympy.integrate(sympy.pi * rho, (_S, 0, sympy.oo))


def _centre_density(cm_state, mu):
    """One electron's density at the centre: electron 1 sits at R + r/2 = 0, so R^2 = s/4.

    The relative state is r^mu e^(-r^2 / 2 l^2) (see the radial test), with the CM
    in cm_state; the result is in l0 units, l0^2 = hbar / (m* omega_0).
    """
    rel = _plane_density(_gaussian_state(_MSTAR / 2, mu))
    cm = _plane_density(cm_state).subs(_S, _S / 4)
    density = sympy.integrate(sympy.pi * cm * rel, (_S, 0, sympy.oo))
    omega = _OMEGA0 * sympy.sqrt(_X**2 + 4) / 2
    return sympy.simplify(density.subs(_OMEGA, omega) * _HBAR / (_MSTAR * _OMEGA0))


def test_relative_ground_state_is_derived_symbolically():
    # r^mu e^(-r^2 / 2 l^2) solves the relative radial equation at E = hbar Omega (1 + mu),
    # mu = sqrt(m^2 + 2 (m*/2) beta / hbar^2) = sqrt(m^2 + alpha_tilde), as mu_m computes
    m, beta = sympy.symbols("m beta", positive=True)
    mu = sympy.sqrt(m**2 + _MSTAR * beta / _HBAR**2)
    u = _gaussian_state(_MSTAR / 2, mu)
    assert _radial_residual(u, _MSTAR / 2, m, beta, _HBAR * _OMEGA * (1 + mu)) == 0
    # the CM's ground state and its level with |m_cm| = 1 and no radial node
    assert _radial_residual(_gaussian_state(2 * _MSTAR, 0), 2 * _MSTAR, 0, 0, _HBAR * _OMEGA) == 0
    assert _radial_residual(_gaussian_state(2 * _MSTAR, 1), 2 * _MSTAR, 1, 0,
                            2 * _HBAR * _OMEGA) == 0
    assert mu.subs(beta, 3 * _HBAR**2 / _MSTAR).subs(m, 3) == sympy.sqrt(12)
    assert mu_m(3, 3.0) == math.sqrt(12.0)


def test_centre_density_is_derived_symbolically(default_cfg):
    # with the CM in its ground state, one electron's centre density in l0 units is
    # sqrt(x^2 + 4) / (pi 2^(1 + mu)), which delta_m evaluates from its float mu_m
    mu = sympy.Symbol("mu", positive=True)
    density = _centre_density(_gaussian_state(2 * _MSTAR, 0), mu)
    assert sympy.simplify(density - sympy.sqrt(_X**2 + 4) / (sympy.pi * 2**(1 + mu))) == 0
    at = sympy.lambdify((_X, mu), density, "mpmath")
    for x in (0.0, 0.39584, 2.5, 7.0):
        for m in (0, 1, 3, 15):
            with mpmath.workdps(50):
                want = float(at(mpmath.mpf(x), mpmath.mpf(float(mu_m(m, default_cfg.alpha_tilde)))))
            assert abs(delta_m(default_cfg, x, m) - want) <= 4 * math.ulp(want)


def test_cm_level_with_m_cm_one_rescales_the_density_symbolically(default_cfg):
    # infrared absorption lifts the CM into its |m_cm| = 1 level; the relative motion and
    # with it mu stay, and the centre density grows by (1 + mu) / 2
    mu = sympy.Symbol("mu", positive=True)
    ground = _centre_density(_gaussian_state(2 * _MSTAR, 0), mu)
    excited = _centre_density(_gaussian_state(2 * _MSTAR, 1), mu)
    assert sympy.simplify(excited / ground - (1 + mu) / 2) == 0
    for x in (0.0, 2.5):
        for m in (0, 1, 3, 15):
            factor = 0.5 * (1.0 + float(mu_m(m, default_cfg.alpha_tilde)))
            assert delta_cm(default_cfg, x, m) == pytest.approx(
                factor * delta_m(default_cfg, x, m), rel=2 * np.finfo(float).eps)

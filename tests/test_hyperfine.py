import math

import numpy as np
import pytest
from scipy.integrate import quad

from dotnmr import (
    DotConfig,
    ParityError,
    coupling_a,
    delta_cm,
    delta_m,
    mu_m,
)


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
        assert coupling_a(default_cfg, x, 0, 0) == 0.0
        assert coupling_a(default_cfg, x, 0, 0, ir_excited=True) == 0.0


def test_coupling_triplet_values(default_cfg):
    x = 0.39584
    expected = 30.0 * delta_m(default_cfg, x, 1)
    assert coupling_a(default_cfg, x, 1, 1) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(2.4336, abs=5e-4)
    assert coupling_a(default_cfg, x, 1, 1, ir_excited=True) == pytest.approx(
        1.5 * expected, rel=1e-14
    )


def test_coupling_parity_violation(default_cfg):
    with pytest.raises(ParityError):
        coupling_a(default_cfg, 1.0, 2, 1)
    with pytest.raises(ParityError):
        coupling_a(default_cfg, 1.0, 1, 0)


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
        (coupling_a(default_cfg, x, m, 1), lambda xi, mi: coupling_a(default_cfg, xi, mi, 1)),
        (coupling_a(default_cfg, x, m, 1, ir_excited=True),
         lambda xi, mi: coupling_a(default_cfg, xi, mi, 1, ir_excited=True)),
    ):
        expected = [scalar(xi, mi) for xi, mi in zip(x.tolist(), m.tolist())]
        assert values.tobytes() == np.array(expected, dtype=float).tobytes()


def test_array_labels_are_checked(default_cfg):
    with pytest.raises(ValueError, match="m_abs must be >= 0"):
        delta_m(default_cfg, np.ones(3), np.array([1, -1, 3]))
    with pytest.raises(ValueError, match="m_abs must be >= 0"):
        mu_m(np.array([0, -2]), 3.0)
    with pytest.raises(ParityError, match=r"\(\|m\|=4, S=1\)"):
        coupling_a(default_cfg, np.ones(3), np.array([1, 4, 6]), 1)

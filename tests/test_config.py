import math

import numpy as np
import pytest

from dotnmr import (
    ConfigError,
    DotConfig,
    K_CYC_MEV_PER_T,
    b_field_from_ratio,
    validate_config,
    zeeman_ratio,
)
from dotnmr.config import H_MEV_PER_MHZ, MU_B_MHZ_PER_T
from dotnmr.spectrum import effective_omega_ratio
from dotnmr.spin_hamiltonian import nmr_closed_form

BOHR_MAGNETON_MEV_PER_T = 5.7883818060e-2


def test_default_config_accepted(default_cfg):
    assert validate_config(default_cfg) is default_cfg
    assert default_cfg.hyperfine_c == 60.0
    assert default_cfg.alpha_tilde == 3.0


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(hbar_omega0=0.0), "hbar_omega0"),
        (dict(hbar_omega0=-1.0), "hbar_omega0"),
        (dict(mstar_ratio=0.0), "mstar_ratio"),
        (dict(gamma_n=-1.0), "gamma_n"),
        (dict(gamma_n=0.0), "gamma_n"),
        (dict(gamma_e=5.0), "gamma_e"),  # below gamma_n
        (dict(alpha_tilde=-0.1), "alpha_tilde"),
        (dict(hyperfine_c=-2.0), "hyperfine_c"),
        (dict(m_max=4), "m_max"),
        (dict(m_max=7.5), "m_max"),
        (dict(alpha_tilde=math.nan), "alpha_tilde"),
        (dict(g_factor=math.nan), "g_factor"),
        (dict(hyperfine_c=math.inf), "hyperfine_c"),
        (dict(hbar_omega0=math.inf), "hbar_omega0"),
        (dict(g_factor=-0.44), "g_factor"),
    ],
)
def test_invalid_config_names_field(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        validate_config(DotConfig(**kwargs))


def test_weak_gamma_hierarchy_warns():
    with pytest.warns(UserWarning, match="100x gamma_n"):
        validate_config(DotConfig(gamma_n=400.0))


def test_gamma_e_vs_g_factor_mismatch_warns():
    with pytest.warns(UserWarning, match="g_factor"):
        validate_config(DotConfig(g_factor=1.0))


def test_k_cyc_is_twice_bohr_magneton():
    assert abs(K_CYC_MEV_PER_T / (2.0 * BOHR_MAGNETON_MEV_PER_T) - 1.0) < 1e-6


def test_b_field_unit_dot():
    cfg = DotConfig(hbar_omega0=1.0, mstar_ratio=1.0, g_factor=2.0)
    assert b_field_from_ratio(cfg, 1.0) == pytest.approx(1.0 / 0.1157676, rel=1e-12)
    assert round(b_field_from_ratio(cfg, 1.0), 4) == 8.6380


def test_b_field_default_at_first_boundary(default_cfg):
    expected = 0.39584 * 2.5 * 0.19 / 0.1157676
    assert b_field_from_ratio(default_cfg, 0.39584) == pytest.approx(expected, rel=1e-12)
    assert round(expected, 4) == 1.6242


def test_b_field_zero_and_negative(default_cfg):
    assert b_field_from_ratio(default_cfg, 0.0) == 0.0
    with pytest.raises(ValueError):
        b_field_from_ratio(default_cfg, -0.1)


@pytest.mark.parametrize(
    "bad", [-0.1, math.nan, np.float64(-1.0), np.array([0.5, -1e-300]), np.array([1.0, np.nan])]
)
def test_non_negative_guards_reject_negative_and_nan(default_cfg, bad):
    for call in (
        lambda: b_field_from_ratio(default_cfg, bad),
        lambda: zeeman_ratio(default_cfg, bad),
        lambda: effective_omega_ratio(bad),
    ):
        with pytest.raises(ValueError, match="x must be >= 0"):
            call()
    with pytest.raises(ValueError, match="a_mhz must be >= 0"):
        nmr_closed_form(bad, 1.0, default_cfg)
    with pytest.raises(ValueError, match="b_tesla must be >= 0"):
        nmr_closed_form(1.0, bad, default_cfg)


def test_b_field_linear_in_x(default_cfg):
    for x in (0.1, 0.7, 2.3, 4.9):
        assert b_field_from_ratio(default_cfg, 2.0 * x) == pytest.approx(
            2.0 * b_field_from_ratio(default_cfg, x), rel=0, abs=0
        )


@pytest.mark.parametrize(
    "g, mstar, x, expected",
    [(2.0, 0.19, 1.0, 0.19), (2.0, 1.0, 2.0, 2.0), (0.0, 0.19, 1.5, 0.0)],
)
def test_zeeman_ratio_algebra(g, mstar, x, expected):
    cfg = DotConfig(g_factor=g, mstar_ratio=mstar)
    assert zeeman_ratio(cfg, x) == pytest.approx(expected, abs=1e-15)


def test_zeeman_cross_unit_consistency():
    # gamma_e set exactly to g * mu_B / h: the two unit routes must agree
    g = 2.0
    cfg = DotConfig(g_factor=g, gamma_e=g * MU_B_MHZ_PER_T)
    for x in (0.3, 1.0, 3.7):
        zeeman_mev = zeeman_ratio(cfg, x) * cfg.hbar_omega0
        via_gamma = cfg.gamma_e * b_field_from_ratio(cfg, x) * H_MEV_PER_MHZ
        assert abs(zeeman_mev / via_gamma - 1.0) < 1e-3

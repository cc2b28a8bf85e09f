import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotnmr import (
    ConfigError,
    DotConfig,
    K_CYC_MEV_PER_T,
    b_field_from_ratio,
    validate_config,
)
from dotnmr.config import (
    CONFIG_FIELDS,
    M_MAX_LIMIT,
    MU_B_MHZ_PER_T,
    require_finite_field,
    require_finite_non_negative,
    require_non_negative,
)
from dotnmr.spectrum import effective_omega_ratio
from dotnmr.spin_hamiltonian import nmr_closed_form

BOHR_MAGNETON_MEV_PER_T = 5.7883818060e-2
H_MEV_PER_MHZ = 4.135667696e-6  # Planck constant in meV per MHz of frequency


def zeeman_ratio(cfg, x):
    """Electron Zeeman energy g*mu_B*B over hbar*omega0: (g/2) (m*/m_e) x."""
    return 0.5 * cfg.g_factor * cfg.mstar_ratio * x


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


@pytest.mark.parametrize("field, value", [
    ("g_factor", True),
    ("hyperfine_c", True),
    ("hbar_omega0", "2.5"),
    ("alpha_tilde", None),
    ("gamma_n", 1 + 0j),
    ("hbar_omega0", Decimal("2.5")),
    ("hbar_omega0", np.float32(2.5)),
    ("hyperfine_c", Fraction(60)),
])
def test_library_config_refuses_a_non_json_number_by_field(field, value):
    # the rule load_config's JSON values meet, with the same message
    with pytest.raises(ConfigError, match=f"^{field} must be a number, got {re.escape(repr(value))}$"):
        validate_config(DotConfig(**{field: value}))


def test_float64_passes_and_float32_fails_every_number_field():
    float_fields = [name for name in CONFIG_FIELDS if name != "m_max"]
    default = DotConfig()
    as_float64 = DotConfig(**{name: np.float64(getattr(default, name)) for name in float_fields})
    assert validate_config(as_float64) == default
    for name in float_fields:
        with pytest.raises(ConfigError, match=f"^{name} must be a number, got np.float32"):
            validate_config(DotConfig(**{name: np.float32(getattr(default, name))}))


def test_types_are_checked_for_every_field_before_finiteness():
    with pytest.raises(ConfigError, match="^m_max must be an integer, got 7.5$"):
        validate_config(DotConfig(alpha_tilde=math.nan, m_max=7.5))
    with pytest.raises(ConfigError, match="^gamma_n must be a number, got True$"):
        validate_config(DotConfig(hbar_omega0=math.inf, gamma_n=True))


@pytest.mark.parametrize("name", CONFIG_FIELDS)
@pytest.mark.parametrize("digits", [400, 5000])
def test_an_int_too_large_for_a_float_is_refused_by_name(name, digits):
    # float() of it raises OverflowError, and str() of one over 4,300 digits raises too
    big = 10 ** digits
    message = f"{name} must be finite, got an integer too large for a float"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        validate_config(DotConfig(**{name: big}))
    require_finite_field(name, int(np.finfo(float).max))  # the largest int that converts


def test_m_max_is_capped_by_name():
    for m_max in (5, 3000, M_MAX_LIMIT):
        validate_config(DotConfig(m_max=m_max))
    for m_max in (4, M_MAX_LIMIT + 1, 10**12):
        message = rf"^m_max must be in \[5, {M_MAX_LIMIT}\], got {m_max}$"
        with pytest.raises(ConfigError, match=message):
            validate_config(DotConfig(m_max=m_max))


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
        lambda: effective_omega_ratio(bad),
    ):
        with pytest.raises(ValueError, match="x must be >= 0"):
            call()
    with pytest.raises(ValueError, match="a_mhz must be >= 0"):
        nmr_closed_form(bad, 1.0, default_cfg)
    with pytest.raises(ValueError, match="b_tesla must be >= 0"):
        nmr_closed_form(1.0, bad, default_cfg)


@settings(max_examples=300, deadline=None)
@given(st.floats() | st.integers(-2**70, 2**70) | st.booleans())
def test_guards_on_python_scalars_match_the_array_route(value):
    def error(check, v):
        try:
            check("v", v)
        except ValueError as exc:
            return str(exc)

    want = None if value >= 0 else f"v must be >= 0, got {value}"
    assert error(require_non_negative, value) == want
    if want is None and not value < math.inf:
        want = f"v must be finite, got {value}"
    assert error(require_finite_non_negative, value) == want
    for check in (require_non_negative, require_finite_non_negative):
        assert (error(check, np.array([value])) is None) == (error(check, value) is None)


@pytest.mark.parametrize("values, shown", [
    ([1.0, -2.0, -3.0], "-2.0"),
    ([0.5, np.nan, -1.0], "nan"),
    ([[0.0, 1.0], [-0.25, 2.0]], "-0.25"),
])
def test_non_negative_guard_names_an_arrays_first_failing_entry(values, shown):
    with pytest.raises(ValueError, match=f"^v must be >= 0, got {shown}$"):
        require_non_negative("v", np.array(values))


def test_finite_guard_names_an_arrays_first_failing_entry():
    values = np.full(100_000, 1e308)
    values[7:] = np.inf
    with pytest.raises(ValueError, match="^v must be finite, got inf$"):
        require_finite_non_negative("v", values)


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

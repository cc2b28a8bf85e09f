import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dotnmr import (
    DotConfig,
    effective_omega_ratio,
    ground_state_at,
    magic_transitions,
    mu_m,
    validate_config,
)
from dotnmr.spectrum import _staircase, ground_m_abs


def boundary_singlet_triplet(zeeman_slope: float, alpha_tilde: float = 3.0) -> float:
    """Closed-form (0,0)->(1,1) crossing: sqrt(x^2+4) (mu1-mu0) = x (1 + 2 z)."""
    k = mu_m(1, alpha_tilde) - mu_m(0, alpha_tilde)
    w = 1.0 + 2.0 * zeeman_slope
    return 2.0 * k / math.sqrt(w * w - k * k)


def boundary_triplet_triplet(m_from: int, m_to: int, alpha_tilde: float = 3.0) -> float:
    """Closed-form triplet crossing: sqrt(x^2+4) (mu' - mu) = (m' - m) x."""
    k = mu_m(m_to, alpha_tilde) - mu_m(m_from, alpha_tilde)
    d = m_to - m_from
    return 2.0 * k / math.sqrt(d * d - k * k)


def rel_ground_energy(m_abs: int, alpha_tilde: float, x):
    """Lowest relative-motion energy for angular momentum |m|, in hbar*omega0."""
    return 0.5 * effective_omega_ratio(x) * (1.0 + mu_m(m_abs, alpha_tilde)) - 0.5 * m_abs * x


def total_ground_energy(m_abs: int, s_total: int, cfg, x):
    """Relative plus spin-Zeeman energy in hbar*omega0 (CM constant omitted).

    The triplet contributes minus the electron Zeeman energy over hbar*omega0,
    (g/2) (m*/m_e) x (its S_z = -1 branch); the singlet has none.  Antisymmetry
    allows only S = |m| & 1.
    """
    assert s_total == m_abs & 1, f"(|m|={m_abs}, S={s_total}) breaks the parity rule"
    energy = rel_ground_energy(m_abs, cfg.alpha_tilde, x)
    return energy - 0.5 * cfg.g_factor * cfg.mstar_ratio * x if s_total == 1 else energy


# with m*/m_e = 0.19 and alpha_tilde = 3 this g_factor makes (1,1), (2,0) and (3,1)
# cross at one x = 2.1491..., where g m*/m_e = (d23 - d12) / (d12 + d23) and
# d_ab = mu_b - mu_a; the rounded (2,0) -> (3,1) crossing equals the (1,1) -> (2,0) one
TRIPLE_G = 0.6204594976771666


def argmin_ground_m(cfg, x):
    """Independent reference: the lowest total_ground_energy over |m| in [0, m_max].

    Ties go to the smaller |m| (np.argmin keeps the first minimum).
    """
    energies = np.stack(
        [total_ground_energy(m, m % 2, cfg, x) for m in range(cfg.m_max + 1)]
    )
    return np.argmin(energies, axis=0)


def test_mu_m_values():
    assert mu_m(0, 3.0) == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert round(mu_m(0, 3.0), 7) == 1.7320508
    assert mu_m(1, 3.0) == 2.0
    for m in range(6):
        assert mu_m(m, 0.0) == m


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.0, 1e6))
def test_mu_m_is_math_sqrt_bitwise(m, alpha):
    want = math.sqrt(m * m + alpha)
    assert mu_m(m, alpha) == want
    assert mu_m(np.array([m, 0]), alpha).tolist() == [want, math.sqrt(alpha)]


def test_mu_m_rejects_negative():
    with pytest.raises(ValueError):
        mu_m(-1, 3.0)
    with pytest.raises(ValueError):
        mu_m(1, -0.5)


def test_effective_omega_ratio():
    assert effective_omega_ratio(0.0) == 2.0
    x2 = boundary_triplet_triplet(1, 3)
    assert effective_omega_ratio(x2) == pytest.approx(math.sqrt(x2 * x2 + 4.0), rel=0)
    assert round(effective_omega_ratio(x2), 5) == 2.93578
    grid = [0.1 * i for i in range(60)]
    values = [effective_omega_ratio(x) for x in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_rel_ground_energy_at_zero_field():
    assert rel_ground_energy(0, 3.0, 0.0) == pytest.approx(1.0 + math.sqrt(3.0), rel=1e-15)
    assert round(rel_ground_energy(0, 3.0, 0.0), 7) == 2.7320508
    assert rel_ground_energy(1, 3.0, 0.0) == pytest.approx(3.0, rel=1e-15)


def test_rel_energy_degeneracy_at_triplet_boundary():
    x2 = boundary_triplet_triplet(1, 3)
    assert abs(rel_ground_energy(1, 3.0, x2) - rel_ground_energy(3, 3.0, x2)) <= 1e-12
    # the nearby round-number value is degenerate to ~3e-5
    assert abs(rel_ground_energy(1, 3.0, 2.14908) - rel_ground_energy(3, 3.0, 2.14908)) <= 1e-4


def test_total_energy_singlet_has_no_zeeman(default_cfg):
    for x in (0.0, 0.5, 2.0):
        assert total_ground_energy(0, 0, default_cfg, x) == rel_ground_energy(0, 3.0, x)


def test_total_energy_triplet_at_x1(default_cfg):
    # direct evaluation: 1.5*sqrt(5) - 0.5 - 0.19
    expected = 1.5 * math.sqrt(5.0) - 0.5 - 0.19
    assert total_ground_energy(1, 1, default_cfg, 1.0) == pytest.approx(expected, rel=1e-14)
    assert round(expected, 7) == 2.6641020


def test_total_energy_parity_violations(default_cfg):
    with pytest.raises(AssertionError, match=r"\(\|m\|=2, S=1\) breaks the parity rule"):
        total_ground_energy(2, 1, default_cfg, 1.0)
    with pytest.raises(AssertionError, match=r"\(\|m\|=1, S=0\) breaks the parity rule"):
        total_ground_energy(1, 0, default_cfg, 1.0)


def test_ground_state_windows(default_cfg):
    assert ground_state_at(default_cfg, 0.1).label == (0, 0)
    assert ground_state_at(default_cfg, 1.0).label == (1, 1)
    assert ground_state_at(default_cfg, 3.0).label == (3, 1)
    assert not ground_state_at(default_cfg, 3.0).at_search_boundary


def test_ground_state_boundary_warning():
    cfg = validate_config(DotConfig(m_max=5))
    with pytest.warns(UserWarning, match="m_max"):
        g = ground_state_at(cfg, 20.0)
    assert g.at_search_boundary
    assert g.m_abs == 5


def test_magic_transitions_default_window(default_cfg):
    points = magic_transitions(default_cfg, 0.0, 5.0)
    assert [(p.from_state, p.to_state) for p in points] == [
        ((0, 0), (1, 1)),
        ((1, 1), (3, 1)),
        ((3, 1), (5, 1)),
    ]
    expected = [
        boundary_singlet_triplet(0.19),
        boundary_triplet_triplet(1, 3),
        boundary_triplet_triplet(3, 5),
    ]
    for point, x_star in zip(points, expected):
        assert abs(point.x_star - x_star) <= 1e-8


def test_magic_transitions_zero_g_variant():
    cfg = validate_config(DotConfig(g_factor=0.0, gamma_e=28024.95))
    points = magic_transitions(cfg, 0.0, 1.0)
    assert len(points) == 1
    assert abs(points[0].x_star - boundary_singlet_triplet(0.0)) <= 1e-8
    assert round(points[0].x_star, 5) == 0.55624


def test_magic_transitions_empty_window(default_cfg):
    assert magic_transitions(default_cfg, 2.5, 4.0) == []


def test_magic_transitions_bad_range(default_cfg):
    with pytest.raises(ValueError):
        magic_transitions(default_cfg, 2.0, 1.0)
    with pytest.raises(ValueError):
        magic_transitions(default_cfg, -1.0, 1.0)


def test_triplet_crossing_independent_of_zeeman_across_g():
    # Zeeman cancels between two triplets: the (1,1)/(3,1) energy crossing
    # must not move with g
    from dotnmr import bracket_roots

    crossings = []
    for g in (0.0, 1.0, 2.0):
        cfg = DotConfig(g_factor=g)

        def gap(x, cfg=cfg):
            return total_ground_energy(1, 1, cfg, x) - total_ground_energy(3, 1, cfg, x)

        roots = bracket_roots(gap, 1.0, 3.0, 64)
        assert len(roots) == 1
        crossings.append(roots[0])
    assert max(crossings) - min(crossings) <= 1e-9


def test_triplet_boundary_independent_of_zeeman_parameters():
    # sequence-level check for Zeeman strengths large enough that no even-m
    # singlet window intervenes (at g=0 a (2,0) window preempts this boundary)
    reference = None
    for g, mstar, omega in ((1.0, 0.5, 1.0), (2.0, 0.19, 2.5), (1.0, 0.19, 7.0)):
        cfg = DotConfig(g_factor=g, mstar_ratio=mstar, hbar_omega0=omega)
        points = magic_transitions(cfg, 1.0, 3.0)
        assert len(points) == 1
        assert (points[0].from_state, points[0].to_state) == ((1, 1), (3, 1))
        if reference is None:
            reference = points[0].x_star
        else:
            assert abs(points[0].x_star - reference) <= 1e-9


def test_weak_zeeman_admits_even_m_singlet_window():
    # with no spin polarization the ground-state staircase visits (2,0)
    cfg = DotConfig(g_factor=0.0)
    labels = [(p.from_state, p.to_state) for p in magic_transitions(cfg, 1.0, 3.0)]
    assert labels == [((1, 1), (2, 0)), ((2, 0), (3, 1))]


def test_ground_state_m_non_decreasing(default_cfg):
    previous = -1
    x = 0.0
    while x <= 6.0:
        m = ground_state_at(default_cfg, x).m_abs
        assert m >= previous
        previous = m
        x += 1e-3


def test_label_sequence_matches_magic_numbers(default_cfg):
    seen = []
    for i in range(0, 5001, 2):
        label = ground_state_at(default_cfg, i / 1000.0).label
        if not seen or seen[-1] != label:
            seen.append(label)
    assert seen == [(0, 0), (1, 1), (3, 1), (5, 1)]


@settings(max_examples=200, deadline=None)
@given(
    g=st.floats(0.0, 3.0),
    mstar=st.floats(0.05, 0.6),
    alpha=st.floats(0.0, 8.0),
    m_max=st.integers(5, 25),
    x_lo=st.floats(0.0, 4.0),
    span=st.floats(0.1, 8.0),
)
# three labels cross at one x here, which a walk must report once
@example(g=TRIPLE_G, mstar=0.19, alpha=3.0, m_max=10, x_lo=2.0, span=1.0)
def test_envelope_walk_matches_ground_state_scan(g, mstar, alpha, m_max, x_lo, span):
    cfg = DotConfig(g_factor=g, mstar_ratio=mstar, alpha_tilde=alpha, m_max=m_max)
    x_hi = x_lo + span

    def ground(x):
        result = ground_state_at(cfg, x)
        assert result.s_total == result.m_abs & 1
        return result.label

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # strong Zeeman drives the walk to m_max
        points = magic_transitions(cfg, x_lo, x_hi)
        x_stars = [p.x_star for p in points]
        # what the records' builders guarantee: x* > 0 and rising, |m| rising
        # across each boundary, and S = |m| & 1 in every label
        assert all(a < b for a, b in zip([0.0, *x_stars], x_stars))
        for p in points:
            assert p.to_state[0] > p.from_state[0]
            assert all(s == m & 1 for m, s in (p.from_state, p.to_state))
        labels = [ground(x_lo)] + [p.to_state for p in points]
        edges = [x_lo, *x_stars, x_hi]
        for lo, hi, label in zip(edges, edges[1:], labels):
            assert ground(0.5 * (lo + hi)) == label
        for i, p in enumerate(points):
            assert p.from_state == labels[i]
            eps = 0.25 * min(4e-7, edges[i + 1] - edges[i], edges[i + 2] - edges[i + 1])
            before, after = p.x_star - eps, p.x_star + eps
            assert ground(before) == p.from_state
            assert ground(after) == p.to_state
            # the (from, to) energy gap changes sign across x*
            assert total_ground_energy(*p.from_state, cfg, before) < total_ground_energy(
                *p.to_state, cfg, before
            )
            assert total_ground_energy(*p.from_state, cfg, after) > total_ground_energy(
                *p.to_state, cfg, after
            )


def test_magic_transitions_warns_once_at_m_max():
    with pytest.warns(UserWarning, match="m_max") as record:
        points = magic_transitions(DotConfig(m_max=5), 0.05, 5.0)
    assert points[-1].to_state == (5, 1)
    assert len([w for w in record if "m_max" in str(w.message)]) == 1


@settings(max_examples=200, deadline=None)
@given(
    g=st.floats(0.0, 3.0),
    mstar=st.floats(0.05, 0.6),
    alpha=st.floats(0.0, 8.0),
    m_max=st.integers(5, 25),
    xs=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=50),
)
# the walk once skipped (3,1) past this triple crossing, leaving (2,0) up to x = 3.21
@example(g=TRIPLE_G, mstar=0.19, alpha=3.0, m_max=10, xs=[2.5, 3.0])
def test_staircase_labels_match_energy_argmin(g, mstar, alpha, m_max, xs):
    cfg = DotConfig(g_factor=g, mstar_ratio=mstar, alpha_tilde=alpha, m_max=m_max)
    crossings, _ = _staircase(cfg)
    # the rounded energies may order either way within a few ulps of a crossing
    xs = [x for x in [0.0, *xs] if np.all(np.abs(crossings - x) > 1e-9 * x)]
    want = argmin_ground_m(cfg, np.array(xs))
    assert np.array_equal(ground_m_abs(cfg, np.array(xs)), want)
    assert [int(ground_m_abs(cfg, x)) for x in xs] == want.tolist()


def test_staircase_passes_a_triple_crossing_without_a_window():
    cfg = DotConfig(g_factor=TRIPLE_G, mstar_ratio=0.19, alpha_tilde=3.0, m_max=10)
    crossings, labels = _staircase(cfg)
    assert labels.tolist() == [0, 1, 3, 5, 7, 9]
    assert np.all(np.diff(crossings) > 0)
    xs = np.array([2.0, 2.5, 3.0, 4.0])
    assert np.array_equal(ground_m_abs(cfg, xs), argmin_ground_m(cfg, xs))


def test_exact_crossing_goes_to_the_smaller_m(default_cfg):
    points = magic_transitions(default_cfg, 0.0, 5.0)
    assert points
    for p in points:
        assert ground_state_at(default_cfg, p.x_star).label == p.from_state
        assert ground_state_at(default_cfg, math.nextafter(p.x_star, math.inf)).label == p.to_state
    xs = np.array([p.x_star for p in points])
    assert ground_m_abs(default_cfg, xs).tolist() == [p.from_state[0] for p in points]


def test_staircase_is_cached_per_config():
    a, b = DotConfig(alpha_tilde=2.5), DotConfig(alpha_tilde=2.5)
    assert a is not b
    assert _staircase(a) is _staircase(b)
    crossings, labels = _staircase(a)
    assert not crossings.flags.writeable and not labels.flags.writeable
    other = _staircase(DotConfig(alpha_tilde=2.6))
    assert other is not _staircase(a)
    assert not np.array_equal(other[0], crossings)


def test_every_call_past_m_max_warns():
    cfg = DotConfig(m_max=5)
    for _ in range(2):
        with pytest.warns(UserWarning, match="m_max"):
            assert ground_state_at(cfg, 20.0).at_search_boundary
        with pytest.warns(UserWarning, match="m_max") as record:
            magic_transitions(cfg, 0.05, 20.0)
        assert len(record) == 1


@pytest.mark.parametrize("x", [math.nan, -1e-300, np.array([1.0, math.nan])])
def test_ground_m_abs_rejects_nan_and_negative_x(default_cfg, x):
    with pytest.raises(ValueError, match="x must be >= 0"):
        ground_m_abs(default_cfg, x)


def test_ground_m_abs_names_the_first_overflowing_x(default_cfg):
    with pytest.raises(FloatingPointError, match=r"not finite at x = 2e\+154"):
        ground_m_abs(default_cfg, np.array([1.0, 2e154, math.inf]))
    with pytest.raises(FloatingPointError, match="not finite at x = inf"):
        ground_m_abs(default_cfg, math.inf)


@pytest.mark.parametrize("field", ["alpha_tilde", "g_factor", "mstar_ratio"])
def test_staircase_rejects_a_nan_config_value_by_name(field):
    with pytest.raises(ValueError, match=field):
        ground_state_at(DotConfig(**{field: math.nan}), 1.0)


@pytest.mark.parametrize("g, m_max, ground", [(2.0, 15, 15), (10.0, 16, 15)])
def test_equal_mu_labels_cross_at_zero_or_never(g, m_max, ground):
    # at alpha_tilde = 1e40 every mu_m rounds to 1e20, so E_b - E_a = -x/2 (d|m| + g m* dS):
    # b undercuts a at every x > 0 when that slope is positive, and never when it is not
    # (g m* = 1.9 keeps an odd |m| below the even |m| + 1 above it)
    cfg = DotConfig(alpha_tilde=1e40, g_factor=g, mstar_ratio=0.19, m_max=m_max)
    crossings, labels = _staircase(cfg)
    assert crossings.tolist() == [] and labels.tolist() == [ground]
    assert ground_m_abs(cfg, np.array([1e-300, 1.0, 5.0])).tolist() == [ground] * 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the first walk ends at m_max
        assert magic_transitions(cfg, 1e-6, 5.0) == []

import functools
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
import sympy
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
from dotnmr.config import require_non_negative
from dotnmr.spectrum import _crossing, _staircase, ground_m_abs, spin_for_m


def exact_mu(m_abs: int, alpha_tilde: float):
    """mu_m from the float alpha_tilde at mpmath's working precision."""
    return mpmath.sqrt(m_abs * m_abs + mpmath.mpf(alpha_tilde))


def exact_crossing(cfg, a: int, b: int):
    """The reference crossing of labels a < b from the exact mu_m at 50 digits, and its k.

    sqrt(x^2+4) (mu_b - mu_a) = x d, d = d|m| + z dS with the float z = g m*/m_e,
    solves to x* = 2 dmu / sqrt(d^2 - dmu^2) where k = d / dmu > 1 (inf elsewhere);
    dmu = (b^2 - a^2) / (mu_a + mu_b) keeps 50 digits at any alpha_tilde.
    """
    with mpmath.workdps(50):
        d_mu = (b * b - a * a) / (exact_mu(a, cfg.alpha_tilde) + exact_mu(b, cfg.alpha_tilde))
        d = b - a + mpmath.mpf(cfg.g_factor * cfg.mstar_ratio) * (spin_for_m(b) - spin_for_m(a))
        k = d / d_mu
        return (2 * d_mu / mpmath.sqrt(d * d - d_mu * d_mu) if k > 1 else mpmath.inf), k


def assert_crossing_within(x_star: float, want, k, ulps: float):
    """x_star lies within ulps * k^2/(k^2 - 1) ulp of the reference want (k^2/(k^2 - 1): x*'s
    conditioning in d - dmu)."""
    want = float(want)
    with mpmath.workdps(50):
        bound = float(ulps * k * k / (k * k - 1))
    assert abs(x_star - want) <= bound * math.ulp(want), (x_star, want, bound)


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


# with m*/m_e = 0.19 and alpha_tilde = 2.5 this g_factor makes (1,1), (2,0) and (3,1)
# cross at one x = 2.33996..., where g m*/m_e = (d23 - d12) / (d12 + d23) and
# d_ab = mu_b - mu_a: the float just below the nearest to that g at 50 digits, at which the
# 1 -> 2, 2 -> 3 and 1 -> 3 crossings round to one float (at alpha_tilde = 3 no float g does)
TRIPLE_ALPHA, TRIPLE_G = 2.5, 0.5641901713746585


def argmin_ground_m(cfg, x):
    """Independent reference: the lowest total_ground_energy over |m| in [0, m_max].

    Ties go to the smaller |m| (np.argmin keeps the first minimum).
    """
    energies = np.stack(
        [total_ground_energy(m, m % 2, cfg, x) for m in range(cfg.m_max + 1)]
    )
    return np.argmin(energies, axis=0)


@functools.lru_cache(maxsize=256)
def walk_staircase(cfg: DotConfig) -> tuple[np.ndarray, np.ndarray]:
    """The ground-state staircase of cfg: (crossings, labels), read-only arrays.

    The reference for _staircase's stack pass: a walk along the lower envelope
    from x = 0, at each label taking the smallest crossing ahead over every
    larger |m| (quadratic in m_max).  Each crossing is spectrum._crossing's, the
    one crossing expression, x* = 2 dmu / (sqrt(d - dmu) sqrt(d + dmu)) with
    dmu = (b^2 - a^2) / (mu_a + mu_b), d = d|m| + g m*/m_e dS and d - dmu formed
    without cancellation, inf where d <= dmu; the tests check that expression
    against mpmath, and this walk checks the pass around it bitwise.

    labels[i] is the ground-state |m| from crossings[i - 1] to crossings[i]; the
    first holds from x = 0, where (0, 0) always wins, the last up to inf.
    Smaller |m| never return, so the next crossing is the smallest x* ahead: one
    behind x can only be a crossing of three or more labels at x, seen through
    rounding, and it moves the walk on at x without a window.
    """
    require_non_negative("g_factor * mstar_ratio", cfg.g_factor * cfg.mstar_ratio)
    mu = mu_m(np.arange(cfg.m_max + 1), cfg.alpha_tilde).tolist()
    x, a, crossings, labels = 0.0, 0, [], [0]
    while a < cfg.m_max:
        next_x, next_b = math.inf, None
        for b in range(a + 1, cfg.m_max + 1):
            # strict < keeps the smaller |m| on a tie
            if (x_b := _crossing(cfg, mu, a, b)) < next_x:
                next_x, next_b = x_b, b
        if next_b is None:
            break
        if next_x > x:
            crossings.append(next_x)
            labels.append(next_b)
        else:  # a's window has zero width
            labels[-1] = next_b
        x, a = max(x, next_x), next_b
    staircase = np.array(crossings, dtype=float), np.array(labels, dtype=np.intp)
    for array in staircase:
        array.flags.writeable = False
    return staircase


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
    # require_non_negative's message, for a float, an int and NaN alike
    for alpha in (-0.5, -1, math.nan):
        with pytest.raises(ValueError, match=rf"^alpha_tilde must be >= 0, got {alpha}$"):
            mu_m(1, alpha)


def test_effective_omega_ratio(default_cfg):
    assert effective_omega_ratio(0.0) == 2.0
    x2 = float(exact_crossing(default_cfg, 1, 3)[0])
    assert effective_omega_ratio(x2) == pytest.approx(math.sqrt(x2 * x2 + 4.0), rel=0)
    assert round(effective_omega_ratio(x2), 5) == 2.93578
    grid = [0.1 * i for i in range(60)]
    values = [effective_omega_ratio(x) for x in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_rel_ground_energy_at_zero_field():
    assert rel_ground_energy(0, 3.0, 0.0) == pytest.approx(1.0 + math.sqrt(3.0), rel=1e-15)
    assert round(rel_ground_energy(0, 3.0, 0.0), 7) == 2.7320508
    assert rel_ground_energy(1, 3.0, 0.0) == pytest.approx(3.0, rel=1e-15)


def test_rel_energy_degeneracy_at_triplet_boundary(default_cfg):
    x2 = float(exact_crossing(default_cfg, 1, 3)[0])
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
    for point, (a, b) in zip(points, [(0, 1), (1, 3), (3, 5)]):
        assert abs(point.x_star - exact_crossing(default_cfg, a, b)[0]) <= 1e-8


def test_magic_transitions_zero_g_variant():
    cfg = validate_config(DotConfig(g_factor=0.0, gamma_e=28024.95))
    points = magic_transitions(cfg, 0.0, 1.0)
    assert len(points) == 1
    assert abs(points[0].x_star - exact_crossing(cfg, 0, 1)[0]) <= 1e-8
    assert round(points[0].x_star, 5) == 0.55624


def test_crossing_is_derived_symbolically(default_cfg):
    # two labels cross where sqrt(x^2+4) dmu = x d, with d = k dmu; k = 1 + u, u > 0
    x, dmu, u = sympy.symbols("x Delta_mu u", positive=True)
    d = (1 + u) * dmu
    (root,) = sympy.solve(sympy.sqrt(x**2 + 4) * dmu - x * d, x)
    assert sympy.simplify(root - 2 * dmu / (sympy.sqrt(d - dmu) * sympy.sqrt(d + dmu))) == 0
    assert sympy.simplify(root / sympy.sqrt(sympy.factor(root**2 + 4)) - dmu / d) == 0  # t* = 1/k
    # and no crossing at x > 0 where d <= dmu
    assert sympy.solve(sympy.sqrt(x**2 + 4) * dmu - x * dmu / (1 + u), x) == []
    # mu_b - mu_a without the difference: (b^2 - a^2) / (mu_a + mu_b)
    a, b, alpha = sympy.symbols("a b alpha", positive=True)
    mu_a, mu_b = sympy.sqrt(a**2 + alpha), sympy.sqrt(b**2 + alpha)
    assert sympy.expand((mu_b - mu_a) * (mu_a + mu_b)) == b**2 - a**2
    # and d - dmu without it: z dS + (b - a)(eps_a + eps_b)/(mu_a + mu_b), eps_m = mu_m - m
    z_ds = sympy.Symbol("z_dS", real=True)
    eps_a, eps_b = alpha / (mu_a + a), alpha / (mu_b + b)
    assert sympy.simplify(eps_a - (mu_a - a)) == 0
    gap = z_ds + (b - a) * (eps_a + eps_b) / (mu_a + mu_b)
    assert sympy.simplify(gap - (b - a + z_ds - (b**2 - a**2) / (mu_a + mu_b))) == 0
    # evaluated at 50 digits from the exact mu_m and the float z = g m*/m_e
    x_star = sympy.lambdify((dmu, u), root, "mpmath")
    cfg = default_cfg
    points = magic_transitions(cfg, 0.0, 5.0)
    assert [(p.from_state[0], p.to_state[0]) for p in points] == [(0, 1), (1, 3), (3, 5)]
    for p in points:
        m_a, m_b = p.from_state[0], p.to_state[0]
        want, k = exact_crossing(cfg, m_a, m_b)
        with mpmath.workdps(50):
            d_mu = exact_mu(m_b, cfg.alpha_tilde) - exact_mu(m_a, cfg.alpha_tilde)
            assert abs(x_star(d_mu, k - 1) / want - 1) < mpmath.mpf(10) ** -45
        assert abs(p.x_star - float(want)) <= 4 * math.ulp(float(want))


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
@example(g=TRIPLE_G, mstar=0.19, alpha=TRIPLE_ALPHA, m_max=10, x_lo=2.0, span=1.0)
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
    # with m_max 5, label 7 takes over from 5 at x_trust = 6.84
    cfg = DotConfig(m_max=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert magic_transitions(cfg, 0.05, 5.0)[-1].to_state == (5, 1)
    with pytest.warns(UserWarning, match=r"m_max=5 from x=6\.83") as record:
        points = magic_transitions(cfg, 0.05, 8.0)
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
# three labels cross at one x here; past such a crossing the walk once skipped (3,1)
@example(g=TRIPLE_G, mstar=0.19, alpha=TRIPLE_ALPHA, m_max=10, xs=[2.5, 3.0])
def test_staircase_labels_match_energy_argmin(g, mstar, alpha, m_max, xs):
    cfg = DotConfig(g_factor=g, mstar_ratio=mstar, alpha_tilde=alpha, m_max=m_max)
    crossings, _, _ = _staircase(cfg)
    # the rounded energies may order either way within a few ulps of a crossing
    xs = [x for x in [0.0, *xs] if np.all(np.abs(crossings - x) > 1e-9 * x)]
    want = argmin_ground_m(cfg, np.array(xs))
    assert np.array_equal(ground_m_abs(cfg, np.array(xs)), want)
    assert [int(ground_m_abs(cfg, x)) for x in xs] == want.tolist()


def test_staircase_passes_a_triple_crossing_without_a_window():
    with mpmath.workdps(50):
        d12, d23 = (exact_mu(b, TRIPLE_ALPHA) - exact_mu(b - 1, TRIPLE_ALPHA) for b in (2, 3))
        nearest = float((d23 - d12) / (d12 + d23) / mpmath.mpf(0.19))
    assert TRIPLE_G == np.nextafter(nearest, 0.0)
    cfg = DotConfig(g_factor=TRIPLE_G, mstar_ratio=0.19, alpha_tilde=TRIPLE_ALPHA, m_max=10)
    mu = mu_m(np.arange(4), TRIPLE_ALPHA).tolist()
    assert _crossing(cfg, mu, 1, 2) == _crossing(cfg, mu, 2, 3) == _crossing(cfg, mu, 1, 3)
    crossings, labels, _ = _staircase(cfg)
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
    crossings, labels, _ = _staircase(a)
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
def test_labels_whose_mu_m_round_equal_cross_where_the_exact_mu_m_do(g, m_max, ground):
    # at alpha_tilde = 1e40 every mu_m rounds to 1e20, but mu_b - mu_a = (b^2 - a^2) / (mu_a + mu_b)
    # does not: label 1 takes over from 0 at ~1e-20 / (1 + g m*), then each odd label from the
    # one below every 4e-20 (g m* = 0.38 and 1.9 both keep an odd |m| below the even |m| + 1)
    cfg = DotConfig(alpha_tilde=1e40, g_factor=g, mstar_ratio=0.19, m_max=m_max)
    crossings, labels, x_trust = _staircase(cfg)
    assert labels.tolist() == [0, *range(1, ground + 1, 2)]
    assert 1e-21 < crossings[0] < 1e-20 and crossings[-1] < x_trust < 1e-18
    for a, b, x_star in zip(labels, labels[1:], crossings):
        assert_crossing_within(x_star, *exact_crossing(cfg, a, b), ulps=3)
    assert ground_m_abs(cfg, np.array([1e-300, 2e-20, 1.0, 5.0])).tolist() == [0, 1, ground, ground]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # label 17 takes over at x_trust = 3.2e-19
        assert magic_transitions(cfg, 1e-6, 5.0) == []


def test_a_huge_alpha_tilde_holds_label_0_up_to_its_first_crossing():
    # mu_1 - mu_0 = 1.6e-9 at alpha_tilde = 1e17, where mu_m's ulp is 1.5e-8: from the rounded
    # difference the staircase started at |m| = 6
    cfg = validate_config(DotConfig(alpha_tilde=1e17))
    assert ground_state_at(cfg, 1e-9).m_abs == 0
    crossings, labels, _ = _staircase(cfg)
    assert labels[:4].tolist() == [0, 1, 3, 5]
    assert_crossing_within(crossings[0], *exact_crossing(cfg, 0, 1), ulps=3)


def test_a_huge_zeeman_slope_keeps_label_0():
    # d = 1 + g m*/m_e = 1e160 squares past the float range; each square root alone does not
    cfg = DotConfig(g_factor=1e160, mstar_ratio=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gamma_e disagrees with this g_factor
        validate_config(cfg)
    crossings, labels, _ = _staircase(cfg)
    assert labels[:3].tolist() == [0, 1, 3]
    want, k = exact_crossing(cfg, 0, 1)
    assert f"{float(want):.5e}" == "5.35898e-161"
    assert_crossing_within(crossings[0], want, k, ulps=3)
    assert ground_m_abs(cfg, np.array([5e-161, 6e-161])).tolist() == [0, 1]


@pytest.mark.parametrize("cfg, to_states", [
    (DotConfig(alpha_tilde=0.0, g_factor=2.2e-309, mstar_ratio=1.0), []),
    (DotConfig(alpha_tilde=2.2e-309, g_factor=0.0), [(1, 1)]),
])
def test_no_transition_lies_where_no_energy_is_finite(cfg, to_states):
    # x^2 overflows above ~1.34e154, where ground_state_at raises; the first config's exact
    # 0 -> 1 crossing lies at 3.0e154, and the second's 1 -> 2 to 14 -> 15 at 6.0e154 to 6.2e155
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gamma_e disagrees with these g_factors
        validate_config(cfg)
    points = magic_transitions(cfg, 0.0, math.inf)
    assert [tp.to_state for tp in points] == to_states
    for tp in points:
        assert ground_state_at(cfg, tp.x_star).label == tp.from_state
    assert _staircase(cfg)[2] == math.inf


# alpha_tilde from 0 through the ~1e16 where neighbouring mu_m round equal or an ulp
# apart, up to 1e40, where every mu_m rounds to 1e20
ALPHA_TILDES = st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(1e15, 1e17),
                         st.floats(0.0, 1e40))


@settings(max_examples=300, deadline=None)
@given(g=st.floats(0.0, 30.0), mstar=st.floats(0.01, 1.0), alpha=ALPHA_TILDES,
       m_max=st.integers(5, 60))
@example(g=TRIPLE_G, mstar=0.19, alpha=TRIPLE_ALPHA, m_max=10)
@example(g=2.0, mstar=0.19, alpha=1e40, m_max=15)
@example(g=10.0, mstar=0.19, alpha=1e40, m_max=16)
# mu_1 rounds to mu_0 here; label 1 takes over from 0 at x = 8.7e-9
@example(g=1.8722154568906961, mstar=0.18893532221650913, alpha=7184623333950467.0, m_max=19)
# every k is within ~1e-13 of 1 at such an alpha_tilde: crossings from a plain d - dmu lost
# all their digits, and the walk and the pass parted
@example(g=0.0, mstar=1.0, alpha=1e-12, m_max=28)
@example(g=0.5, mstar=0.1, alpha=3.26030291104947e-13, m_max=39)
# z = 0.025 = 1/(2*18 + 4) puts 19, 20 and 21 within rounding of one x = 40/sqrt(alpha_tilde),
# where a pass that set b's crossing with the top against the top's start parted from the walk
@example(g=2.5, mstar=0.01, alpha=6.876980490053638e16, m_max=21)
# and likewise 1, 2 and 3 at z = 0.25
@example(g=0.5, mstar=0.5, alpha=5039495173366100.0, m_max=5)
def test_stack_pass_equals_the_walk_bitwise(g, mstar, alpha, m_max):
    cfg = DotConfig(g_factor=g, mstar_ratio=mstar, alpha_tilde=alpha, m_max=m_max)
    crossings, labels, _ = _staircase(cfg)
    want_crossings, want_labels = walk_staircase(cfg)
    assert crossings.dtype == want_crossings.dtype and labels.dtype == want_labels.dtype
    assert crossings.tobytes() == want_crossings.tobytes()
    assert labels.tobytes() == want_labels.tobytes()


def walk_x_trust(cfg, labels_beyond: int) -> float:
    """Where the walk over m_max + labels_beyond labels first leaves |m| <= m_max (inf if never)."""
    crossings, labels = walk_staircase(
        DotConfig(**{**vars(cfg), "m_max": cfg.m_max + labels_beyond}))
    above = np.flatnonzero(labels > cfg.m_max)
    if not len(above):
        return math.inf
    return float(crossings[above[0] - 1]) if above[0] else 0.0


@settings(max_examples=25, deadline=None)
@given(g=st.floats(0.0, 30.0), mstar=st.floats(0.01, 1.0), alpha=ALPHA_TILDES,
       m_max=st.integers(5, 60))
@example(g=2.0, mstar=0.19, alpha=3.0, m_max=15)
@example(g=2.0, mstar=0.19, alpha=1e17, m_max=15)
@example(g=2.0, mstar=0.19, alpha=1e40, m_max=15)
@example(g=10.0, mstar=0.19, alpha=1e40, m_max=16)
def test_two_labels_beyond_m_max_give_x_trust(g, mstar, alpha, m_max):
    cfg = DotConfig(g_factor=g, mstar_ratio=mstar, alpha_tilde=alpha, m_max=m_max)
    assert _staircase(cfg)[2] == walk_x_trust(cfg, 2) == walk_x_trust(cfg, 300)


@pytest.mark.parametrize("m_max", [15, 16])
def test_default_device_is_trusted_up_to_18_44(m_max):
    # label 17 takes over from 15 there; no even label above 0 ever wins
    cfg = DotConfig(m_max=m_max)
    crossings, labels, x_trust = _staircase(cfg)
    assert labels[-1] == 15 and round(x_trust, 2) == 18.44
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not ground_state_at(cfg, 17.0).at_search_boundary
        # a tie at x_trust itself goes to the smaller |m|, which the staircase holds
        assert ground_state_at(cfg, x_trust) == (x_trust, 15, 1, False)
        magic_transitions(cfg, 0.05, x_trust)
    above = math.nextafter(x_trust, math.inf)
    with pytest.warns(UserWarning, match=f"m_max={m_max} from x={x_trust!r} on"):
        assert ground_state_at(cfg, above).at_search_boundary
    with pytest.warns(UserWarning, match=f"m_max={m_max} from x={x_trust!r} on"):
        magic_transitions(cfg, 0.05, above)


def test_an_m_max_whose_parity_never_wins_still_warns():
    with pytest.warns(UserWarning, match="m_max=16"):
        ground = ground_state_at(DotConfig(m_max=16), 30.0)
    assert ground.m_abs == 15 and ground.at_search_boundary
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert ground_state_at(DotConfig(m_max=40), 30.0).m_abs == 25


def test_a_3000_label_staircase_builds_in_milliseconds():
    # linear in m_max, ~3 ms; walk_staircase, quadratic, takes ~0.6 s (both on a 2-vCPU VM)
    cfg = DotConfig(m_max=3000)
    _staircase.cache_clear()
    start = time.perf_counter()
    magic_transitions(cfg, 0.05, 5.0)
    assert time.perf_counter() - start < 0.1


def exact_ground_m(cfg, xs) -> list[int]:
    """mpmath's argmin of the energy over |m| <= m_max at each x, ties to the smaller |m|.

    Over sqrt(x^2+4)/2 and less label 0's, label m's energy is
    m^2/(mu_m + mu_0) - t (m + z S), t = x / sqrt(x^2+4): no difference of mu_m cancels,
    and the digits grow with log10 z, which the odd labels share.
    """
    z = cfg.g_factor * cfg.mstar_ratio
    with mpmath.workdps(50 + max(0, math.ceil(math.log10(z or 1)))):
        mu_0 = exact_mu(0, cfg.alpha_tilde)
        rise = [m * m / (exact_mu(m, cfg.alpha_tilde) + mu_0) if m else mpmath.mpf(0)
                for m in range(cfg.m_max + 1)]
        slope = [m + mpmath.mpf(z) * spin_for_m(m) for m in range(cfg.m_max + 1)]
        grounds = []
        for x in xs:
            t = mpmath.mpf(x) / mpmath.sqrt(mpmath.mpf(x) ** 2 + 4)
            energy = [r - t * s for r, s in zip(rise, slope)]
            grounds.append(min(range(cfg.m_max + 1), key=energy.__getitem__))
    return grounds


@settings(max_examples=40, deadline=None)
@given(alpha=st.one_of(st.just(0.0), st.floats(-3.0, 300.0).map(lambda e: 10.0**e)),
       z=st.one_of(st.just(0.0), st.floats(-3.0, 200.0).map(lambda e: 10.0**e)),
       m_max=st.integers(5, 60))
# from rounded mu_m differences the first held |m| = 6 from x = 0, and the second lost
# label 0 to an overflowing d^2
@example(alpha=1e17, z=0.38, m_max=15)
@example(alpha=3.0, z=1e160, m_max=15)
# x* underflows to 0 here (exactly 1e-350), and label 1 replaces label 0 at x = 0
@example(alpha=1e300, z=1e200, m_max=5)
# odd label 5 and even label 6 nearly tie here, so d - dmu must come from b - a + z dS first
@example(alpha=1e17, z=0.99, m_max=6)
# and here every k is near 1, so it must come from mu_m - m = alpha_tilde / (mu_m + m)
@example(alpha=1e-12, z=0.0, m_max=28)
@example(alpha=1e22, z=0.01, m_max=50)
def test_staircase_matches_mpmath_over_the_accepted_range(alpha, z, m_max):
    # a differential test against the exact mu_m over alpha_tilde and z = g m*/m_e up to
    # where validate_config still accepts them: every crossing within 8 k^2/(k^2 - 1) ulp,
    # and the label of every window up to x_trust mpmath's ground state at its midpoint, the
    # first window's also at the smallest positive x, unless its crossing rounds to that x
    cfg = DotConfig(alpha_tilde=alpha, g_factor=z, mstar_ratio=1.0, m_max=m_max)
    crossings, labels, x_trust = _staircase(cfg)
    for a, b, x_star in zip(labels, labels[1:], crossings):
        assert_crossing_within(x_star, *exact_crossing(cfg, a, b), ulps=8)
    # (windows cut at x_trust, which can fall an ulp before the last crossing, as at
    # alpha_tilde = 1e22, z = 0.01, m_max = 50, where 49, 50 and 51 cross within rounding)
    edges = [0.0, *crossings.tolist(), math.inf]
    windows = [(lo, min(hi, x_trust)) for lo, hi in zip(edges, edges[1:])]
    held = [(m, 0.5 * lo + 0.5 * hi) for m, (lo, hi) in zip(labels.tolist(), windows)
            if lo < hi < math.inf]
    if windows[0][1] > math.ulp(0.0):
        held.append((labels[0], math.ulp(0.0)))
    assert exact_ground_m(cfg, [x for _, x in held]) == [m for m, _ in held]

"""Acceptance suite: one test per release criterion, at its stated tolerance.

The conftest hook prints a PASS/FAIL line per criterion.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np
import pytest

from dotnmr import (
    CNOT,
    PulseSpec,
    TwoQubitModel,
    b_field_from_ratio,
    cnot_conditional,
    coupling_a,
    delta_m,
    evolve,
    ground_state_at,
    hadamard,
    magic_transitions,
    mu_m,
    nmr_closed_form,
    nmr_numeric,
    relative_shift,
    rwa_pulse,
)
from dotnmr.cli import main
from dotnmr.numerics import hermitian_eig


def test_criterion_1_magic_transition_anchors(default_cfg):
    points = magic_transitions(default_cfg, 0.0, 5.0)
    x_by_pair = {(p.from_state[0], p.to_state[0]): p.x_star for p in points}
    assert abs(x_by_pair[(1, 3)] - 2.14908) <= 0.001
    assert abs(x_by_pair[(3, 5)] - 4.49667) <= 0.001


def test_criterion_2_ground_state_sequence(default_cfg):
    labels = []
    for i in range(0, 5001):
        label = ground_state_at(default_cfg, i / 1000.0).label
        if not labels or labels[-1] != label:
            labels.append(label)
    assert labels == [(0, 0), (1, 1), (3, 1), (5, 1)]


def test_criterion_3_coupling_curve(default_cfg):
    points = magic_transitions(default_cfg, 0.0, 5.0)
    x1, x2 = points[0].x_star, points[1].x_star
    # singlet window: no coupling at all
    for x in (0.05, 0.5 * x1):
        g = ground_state_at(default_cfg, x)
        assert g.s_total == 0
        assert coupling_a(default_cfg, x, g.m_abs) == 0.0
    # triplet windows: positive coupling
    for x in (0.5 * (x1 + x2), x2 + 0.5):
        g = ground_state_at(default_cfg, x)
        assert g.s_total == 1
        assert coupling_a(default_cfg, x, g.m_abs) > 0.0
    # drop across the (1,1)->(3,1) boundary
    ratio = delta_m(default_cfg, x2, 1) / delta_m(default_cfg, x2, 3)
    assert abs(ratio - 2.75915) <= 1e-3


def test_criterion_4_closed_form_equivalence(default_cfg):
    worst = 0.0
    for a in np.logspace(math.log10(0.1), math.log10(10.0), 20):
        for b in np.logspace(math.log10(0.1), math.log10(10.0), 20):
            res = nmr_numeric(float(a), float(b), default_cfg)
            worst = max(worst, abs(res.f_nmr - res.f_closed) / res.f_closed)
    assert worst <= 1e-10


def test_criterion_5_larmor_and_approximation_limits(default_cfg):
    for b in (0.3, 1.6, 7.0):
        f0 = default_cfg.gamma_n * b
        assert abs(nmr_closed_form(0.0, b, default_cfg) - f0) / f0 <= 1e-12
    for a in (0.5, 2.434, 10.0):
        for b in (0.5, 1.6, 8.0):
            if default_cfg.gamma_e * b < 2000.0 * a:
                continue
            f = nmr_closed_form(a, b, default_cfg)
            assert abs(f - (default_cfg.gamma_n * b + 2.0 * a)) / f <= 1e-3


def test_criterion_6_resonance_shift_curve(default_cfg):
    points = magic_transitions(default_cfg, 0.0, 5.0)
    x1 = points[0].x_star
    onset = x1 + 1e-9

    peak = relative_shift(default_cfg, onset)
    assert 0.20 <= peak <= 0.35

    b_onset = b_field_from_ratio(default_cfg, x1)
    assert abs(b_onset - 1.62) <= 0.05

    for x in (0.1, 0.3):
        assert relative_shift(default_cfg, x) == 0.0

    # IR curve = no-IR curve with the coupling rescaled by (1 + mu_m)/2
    for x in (onset, 1.0, 2.5, 4.8):
        g = ground_state_at(default_cfg, x)
        if g.s_total == 0:
            continue
        a = coupling_a(default_cfg, x, g.m_abs, ir_excited=False)
        scale = 0.5 * (1.0 + mu_m(g.m_abs, default_cfg.alpha_tilde))
        b = b_field_from_ratio(default_cfg, x)
        f0 = default_cfg.gamma_n * b
        direct = (nmr_closed_form(a * scale, b, default_cfg) - f0) / f0
        assert relative_shift(default_cfg, x, ir_excited=True) == pytest.approx(
            direct, rel=1e-12
        )


def test_criterion_7_gates():
    h = hadamard()
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    plus = (ket0 + ket1) / math.sqrt(2.0)
    minus = (ket0 - ket1) / math.sqrt(2.0)
    # allow one global phase, fixed by the first mapping
    phase = np.vdot(plus, h @ ket0)
    phase /= abs(phase)
    assert np.max(np.abs(h @ ket0 - phase * plus)) <= 1e-12
    assert np.max(np.abs(h @ ket1 - phase * minus)) <= 1e-12

    model = TwoQubitModel(f_a=17.393, f_b=17.393, j_coupling=0.001)
    fids = [cnot_conditional(model, r).fidelity for r in (1 / 5, 1 / 10, 1 / 20)]
    assert fids[-1] >= 0.99
    assert fids[0] <= fids[1] <= fids[2]


def test_criterion_8_numerics_quality():
    rng = np.random.default_rng(8675309)
    for _ in range(100):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (m + m.conj().T) / 2
        es = hermitian_eig(h)
        scale = max(1.0, float(np.max(np.abs(h))))
        rec = np.max(np.abs(es.vectors @ np.diag(es.values) @ es.vectors.conj().T - h))
        assert rec <= 1e-12 * scale

    # norm drift across 1e4 sequential evolve steps
    h = (lambda m: (m + m.conj().T) / 2)(
        rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    )
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    for _ in range(10_000):
        psi = evolve(h, psi, 0.01)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-9

    # RWA pi pulse vs lab-frame time-sliced evolution at carrier/rabi = 1e3
    rabi = 1.0
    carrier = 1000.0 * rabi
    duration = 1.0 / (2.0 * rabi)
    n_slices = 15_000
    dt = duration / n_slices
    sz = np.diag([0.5, -0.5]).astype(complex)
    sx = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    for k in range(n_slices):
        t_mid = (k + 0.5) * dt
        h_lab = carrier * sz + 2.0 * rabi * math.cos(2.0 * math.pi * carrier * t_mid) * sx
        psi = evolve(h_lab, psi, dt)
    pulse = PulseSpec(carrier=carrier, rabi=rabi, duration=duration)
    psi_rwa = rwa_pulse(carrier, pulse) @ np.array([1.0, 0.0], dtype=complex)
    assert np.max(np.abs(np.abs(psi) ** 2 - np.abs(psi_rwa) ** 2)) <= 1e-4


def test_criterion_9_cli_determinism(tmp_path, capsys, default_cfg):
    for name in ("first", "second"):
        assert main(["sweep", "--out-dir", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert (
        (tmp_path / "first" / "sweep.csv").read_bytes()
        == (tmp_path / "second" / "sweep.csv").read_bytes()
    )

    assert main(["transitions"]) == 0
    out = capsys.readouterr().out
    expected = [p.x_star for p in magic_transitions(default_cfg, 0.05, 5.0)]
    assert len(expected) == 3
    for x_star in expected:
        assert f"{x_star:.6f}" in out

"""Liveness tests of the benchmark's gate: corrupted outputs must count as failed.

Run from the repository root:  python3 -m pytest bench -q
"""

import dataclasses
import re
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import probe  # noqa: E402
from dotnmr import output  # noqa: E402
import workloads  # noqa: E402
from child import measure  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402

pytestmark = pytest.mark.filterwarnings("error")


class SmallScan(workloads.DeviceScan):
    n_configs = 3


class SmallSweep(workloads.SweepDense):
    steps = 3000


def made(cls, seed: int, work_dir: Path):
    wl = cls(seed, work_dir)
    wl.write_inputs()
    return wl


def failed_ratio(wl, n_ops: int, corrupt=None) -> float:
    """Failed share of n_ops operations, each output first passed through corrupt.

    The corruption runs after the operation, just before the check, so it
    cannot make the operation itself fail; and a problem must come from the
    check finding the fault, not from the check or operation raising.
    """
    if corrupt is not None:
        check = wl.check

        def corrupt_then_check(i, out):
            corrupt(out)
            return check(i, out)

        wl.check = corrupt_then_check
    res = measure(wl, None, n_ops=n_ops)
    raised = [p for p in res["problems"] if " raised " in p]
    assert not raised, raised
    return res["failed"] / res["ops"]


def flip_byte(path: Path, digit_index: int = 1000):
    data = bytearray(path.read_bytes())
    i = [k for k, c in enumerate(data) if chr(c).isdigit()][digit_index]
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


def test_clean_runs_pass(tmp_path):
    assert failed_ratio(made(SmallScan, 11, tmp_path / "scan"), 3) == 0
    assert failed_ratio(made(SmallSweep, 11, tmp_path / "sweep"), 2) == 0
    assert failed_ratio(made(workloads.SpinGates, 11, tmp_path / "gates"), 1) == 0


def test_flipped_csv_byte_fails(tmp_path):
    wl = made(SmallScan, 3, tmp_path)
    assert failed_ratio(wl, 2, lambda out: flip_byte(out["sweep_dir"] / "sweep.csv")) > 0
    wl = made(SmallSweep, 3, tmp_path / "dense")
    assert failed_ratio(wl, 2, lambda out: flip_byte(wl.out_dir / "sweep.csv")) > 0


def test_moved_transition_fails(tmp_path):
    def move(out):
        code, text, err = out["transitions"]
        x = re.search(r"^(\d+\.\d{6}) ", text, re.M).group(1)
        moved = text.replace(x, f"{float(x) + 1e-5:.6f}", 1)
        assert moved != text
        out["transitions"] = (code, moved, err)

    assert failed_ratio(made(SmallScan, 4, tmp_path), 2, move) > 0


def test_perturbed_resonance_fails(tmp_path):
    def nudge(out):
        x, ir, (code, text, err), shift = out["nmr"][0]
        f = re.search(r"f_nmr \(numeric\) = (\S+)", text).group(1)
        nudged = text.replace(f"(numeric) = {f}", f"(numeric) = {float(f) * (1 + 3e-8):.9g}")
        assert nudged != text
        out["nmr"][0] = (x, ir, (code, nudged, err), shift)

    assert failed_ratio(made(SmallScan, 5, tmp_path), 1, nudge) > 0


def test_wrong_gate_outputs_fail(tmp_path):
    def cnot(out):
        ratio, fid = out["cnot"][-1]
        out["cnot"][-1] = (ratio, fid - 1e-6)

    assert failed_ratio(made(workloads.SpinGates, 6, tmp_path), 1, cnot) > 0

    def evolve(out):
        p, psi, rwa, fid = out["pulses"][1]
        out["pulses"][1] = (p, psi * np.exp(1e-7j), rwa, fid)

    assert failed_ratio(made(workloads.SpinGates, 6, tmp_path), 1, evolve) > 0


def test_golden_digest_is_checked(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.GOLDEN, "sweep-dense",
                        {"seed": 0, "steps": SmallSweep.steps, "sha256": "0" * 64})
    assert failed_ratio(made(SmallSweep, 0, tmp_path), 1) > 0


def test_wrongly_loaded_input_fails(tmp_path):
    wl = made(SmallScan, 7, tmp_path)
    loaded = [output.load_config(d["path"]) for d in wl.devices]
    assert wl.check_inputs(loaded) == []
    cfg, spec = loaded[1]
    loaded[1] = (dataclasses.replace(cfg, g_factor=cfg.g_factor + 1e-3), spec)
    assert wl.check_inputs(loaded)


def test_oracle_staircase_matches_known_boundaries():
    stair = oracle.Staircase(oracle.DEFAULT_DEVICE, 0.05, 5.0)
    assert stair.labels == [0, 1, 3, 5]
    assert np.allclose(stair.boundaries, [0.395866, 2.149140, 4.496688], atol=1e-6)


def test_tracer_wraps_every_binding_and_restores_them():
    import dotnmr.cli
    import dotnmr.spectrum

    original = dotnmr.spectrum.ground_state_at
    tracer = Tracer()
    tracer.install()
    try:
        assert dotnmr.cli.ground_state_at is not original
        assert dotnmr.sweep.ground_state_at is dotnmr.cli.ground_state_at
        code, _, _ = workloads.cli_call(["nmr", "--x", "0.45"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert dotnmr.cli.ground_state_at is original
    calls = dict(zip(NAMES, tracer.calls))
    for name in ("cli.main", "spectrum.ground_state_at", "hyperfine.coupling_a",
                 "spin_hamiltonian.nmr_numeric", "numerics.hermitian_eig"):
        assert calls[name] >= 1, name
    # self times of all spans add up to the top-level span's duration
    assert sum(tracer.self_s) == pytest.approx(tracer.top_level_s(), rel=1e-9)


def test_speed_probe_ticks_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with probe.SpeedProbe() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.4:
            sum(range(1000))
        busy = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(speed.took) >= 4 and min(speed.took) > 0
    assert speed.ref_units(t0, busy) == pytest.approx(busy / np.median(speed.took), rel=0.5)

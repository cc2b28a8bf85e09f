"""Seeded workload inputs, the operations that drive dotnmr, and their checks.

Each workload builds its inputs and their oracle data from the seed at
construction, writes the input files the program loads with
``write_inputs()``, then exposes ``run(i)`` for operation i of a closed loop
with one client and ``check(i, out)`` which compares that operation's outputs
against the oracle and returns a list of problems (empty when correct).
Program calls go through module attributes at call time, so the tracer's
patched bindings see them.

Input ranges come from the package's documentation: the default device and
sweep window of README.md, the per-device parameters README.md says are tuned
(hbar_omega0, mstar_ratio, g_factor; varied by 20 % around their defaults),
the fields and couplings the default sweep produces, and the CNOT defaults of
the ``gate`` command.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import dotnmr
from dotnmr import cli, gates, numerics
from dotnmr import spin_hamiltonian as sh

import oracle

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())
perf = time.perf_counter


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """dotnmr's CLI in-process, returning (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def close(value: float, expected: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(value - expected) <= rel * abs(expected) + abs_tol


# numbers rendered with .9g carry up to 5e-9 relative rounding
PRINTED_REL = 6e-9


# --------------------------------------------------------------------------
# sweep output check shared by sweep-dense and device-scan


def check_sweep_dir(out_dir: Path, dev: dict, stair: oracle.Staircase, grid: dict,
                    svg: bool) -> list[str]:
    """Manifest digests, CSV header/grid/values and SVG segments of one sweep."""
    problems = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    expected_files = {"sweep.csv", "coupling.svg", "shift.svg"} if svg else {"sweep.csv"}
    if {e["path"] for e in manifest["outputs"]} != expected_files:
        problems.append(f"manifest lists {manifest['outputs']}")
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out_dir / entry["path"]).read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            problems.append(f"manifest sha256 of {entry['path']} does not match its bytes")
    if manifest["config"] != {k: dev[k] for k in oracle.DEVICE_KEYS}:
        problems.append("manifest config differs from the input config")
    if manifest["grid"] != grid:
        problems.append(f"manifest grid {manifest['grid']} != {grid}")

    with open(out_dir / "sweep.csv") as fh:
        header = fh.readline().rstrip("\n")
    if header != oracle.SWEEP_HEADER:
        return problems + [f"CSV header {header!r}"]
    rows = np.loadtxt(out_dir / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
    steps = grid["steps"]
    if rows.shape != (steps, 14):
        return problems + [f"CSV shape {rows.shape}, expected ({steps}, 14)"]
    xs = rows[:, 0]
    want_x = grid["x_min"] + np.arange(steps) * ((grid["x_max"] - grid["x_min"]) / (steps - 1))
    want_x[-1] = grid["x_max"]
    if not np.allclose(xs, want_x, rtol=PRINTED_REL, atol=0):
        problems.append("CSV x column is not the requested grid")

    # labels: exact away from boundaries; next to one either neighbour is fine
    m = rows[:, 2].astype(int)
    m_oracle = stair.m_array(xs)
    near = stair.distance(xs) <= 1e-7 * np.maximum(xs, 1.0)
    m_other = stair.m_array(xs - 2e-7 * np.maximum(xs, 1.0))
    bad = (m != m_oracle) & ~(near & (m == m_other))
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(f"{int(bad.sum())} rows with wrong m_abs, first x={xs[i]!r}: "
                        f"{m[i]} vs oracle {m_oracle[i]}")
        return problems

    want = oracle.sweep_columns(xs, m, dev)
    err = np.abs(rows - want)
    tol = 2 * PRINTED_REL * np.abs(want) + 1e-15 * np.abs(want[:, [9]])
    bad = err > tol
    if bad.any():
        i, j = np.argwhere(bad)[0]
        problems.append(f"{int(bad.any(axis=1).sum())} CSV rows off the oracle, first "
                        f"row {i} column {j}: {rows[i, j]!r} vs {want[i, j]!r}")
    singlet = rows[:, 3] == 0
    if not (np.all(rows[singlet, 10] == rows[singlet, 9])
            and np.all(rows[singlet, 11] == rows[singlet, 9])
            and np.all(rows[singlet][:, [5, 6, 7, 8, 12, 13]] == 0.0)):
        problems.append("singlet rows are not exactly decoupled (f_nmr != f0)")

    if svg:
        segments = 1 + int(np.count_nonzero(np.diff(m)))
        for name in ("coupling.svg", "shift.svg"):
            n_lines = (out_dir / name).read_text().count("<polyline")
            if n_lines != segments:
                problems.append(f"{name} has {n_lines} polylines, oracle {segments} segments")
    return problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_default_config(loaded: list) -> list[str]:
    want = dotnmr.DotConfig(**oracle.DEFAULT_DEVICE)
    return [] if loaded == [want] else [f"default config loaded as {loaded}, expected {want}"]


# --------------------------------------------------------------------------


class SweepDense:
    """One ~1e5-row CLI sweep with SVG over a seed-jittered window, repeated."""

    work_unit = "rows"
    steps = 100_000

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.out_dir = work_dir / "out"
        self.dev = dict(oracle.DEFAULT_DEVICE)
        self.grid = {"x_min": round(0.05 + rng.uniform(0.0, 0.01), 6),
                     "x_max": round(5.0 + rng.uniform(-0.05, 0.05), 6),
                     "steps": self.steps, "ir": False}
        self.stair = oracle.Staircase(self.dev, self.grid["x_min"], self.grid["x_max"])
        if self.stair.labels[-1] >= self.dev["m_max"]:
            raise ValueError("default device reaches m_max inside the window")
        self.argv = ["sweep", "--x-min", repr(self.grid["x_min"]),
                     "--x-max", repr(self.grid["x_max"]), "--steps", str(self.steps),
                     "--svg", "--out-dir", str(self.out_dir)]
        self.first_digest = None

    def write_inputs(self) -> None:
        """The sweep runs on the default device: there is no input file."""

    def check_inputs(self, loaded: list) -> list[str]:
        return check_default_config(loaded)

    def run(self, i: int, samples: dict) -> dict:
        code, _, err = cli_call(self.argv)
        return {"code": code, "err": err, "work": self.steps}

    def check(self, i: int, out: dict) -> list[str]:
        if out["code"] != 0:
            return [f"sweep exited {out['code']}: {out['err'].strip()}"]
        digest = sha256(self.out_dir / "sweep.csv")
        if self.first_digest is None:
            problems = check_sweep_dir(self.out_dir, self.dev, self.stair, self.grid, svg=True)
            golden = GOLDEN["sweep-dense"]
            if ((self.seed, self.steps) == (golden["seed"], golden["steps"])
                    and digest != golden["sha256"]):
                problems.append(f"seed-{self.seed} CSV sha256 {digest} "
                                f"!= golden {golden['sha256']}")
            self.first_digest = digest
            return problems
        problems = []
        if digest != self.first_digest:
            problems.append("repeated sweep is not byte-identical to the first")
        manifest = json.loads((self.out_dir / "manifest.json").read_text())
        for entry in manifest["outputs"]:
            if sha256(self.out_dir / entry["path"]) != entry["sha256"]:
                problems.append(f"manifest sha256 of {entry['path']} does not match its bytes")
        return problems


# --------------------------------------------------------------------------

TRANSITION_RE = re.compile(r"^(\S+)\s+\((\d+), (\d+)\) -> \((\d+), (\d+)\)\s+(\S+)$")
NUM = r"([-+0-9.eE]+|nan|inf)"


def latin_hypercube(rng, n: int, ranges: dict) -> list[dict]:
    """n points, each parameter range cut into n strata used once each.

    Stratifying keeps the total work of a seed's inputs close to that of any
    other seed, so seeds change the inputs but not the size of the job.
    """
    cols = {k: lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n
            for k, (lo, hi) in ranges.items()}
    return [{k: float(v[i]) for k, v in cols.items()} for i in range(n)]


# README.md names these three as the parameters tuned per device; each is
# varied by 20 % around its README default.  The rest of the device and the
# sweep window are README defaults.
TUNED = ("hbar_omega0", "mstar_ratio", "g_factor")
DEVICE_RANGES = {k: (0.8 * oracle.DEFAULT_DEVICE[k], 1.2 * oracle.DEFAULT_DEVICE[k])
                 for k in TUNED}
DEVICE_GRID = {"x_min": 0.05, "x_max": 5.0, "steps": 200, "ir": False}


def device_config(p: dict) -> tuple[dict, dict, oracle.Staircase]:
    """A consistent device from one sample point, its window and oracle staircase."""
    dev = dict(oracle.DEFAULT_DEVICE)
    dev.update({k: round(p[k], 4) for k in TUNED})
    dev["gamma_e"] = round(dev["g_factor"] * oracle.MU_B_MHZ_PER_T, 4)  # consistent: no warning
    grid = dict(DEVICE_GRID)
    stair = oracle.Staircase(dev, grid["x_min"], grid["x_max"])
    if not stair.labels[-1] < dev["m_max"]:
        raise ValueError("generated device reaches m_max inside its window")
    return dev, grid, stair


class DeviceScan:
    """~100 seeded device configs, each driven through transitions, nmr, sweep."""

    work_unit = "configs"
    n_configs = 100

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng([seed, 2])
        self.in_dir = work_dir / "inputs"
        self.out_dir = work_dir / "out"
        self.devices = []
        for k, point in enumerate(latin_hypercube(rng, self.n_configs, DEVICE_RANGES)):
            dev, grid, stair = device_config(point)
            path = self.in_dir / f"device{k:03d}.json"
            queries = [x * (1.0 + 1e-4) for x in stair.boundaries]
            self.devices.append({
                "dev": dev, "grid": grid, "stair": stair, "path": str(path),
                "queries": queries, "cfg": dotnmr.DotConfig(**dev),
            })

    def write_inputs(self) -> None:
        self.in_dir.mkdir(parents=True, exist_ok=True)
        for d in self.devices:
            Path(d["path"]).write_text(json.dumps({**d["dev"], "sweep": d["grid"]}, indent=1))

    def check_inputs(self, loaded: list) -> list[str]:
        """load_config must return each generated device and its sweep grid."""
        if len(loaded) != len(self.devices):
            return [f"{len(loaded)} device files loaded, {len(self.devices)} generated"]
        return [f"load_config({d['path']}) returned {cfg}, {spec}"
                for d, (cfg, spec) in zip(self.devices, loaded)
                if cfg != d["cfg"] or spec != dotnmr.SweepSpec(**d["grid"])]

    def run(self, i: int, samples: dict) -> dict:
        d = self.devices[i % len(self.devices)]
        sweep_dir = self.out_dir
        out = {"work": 1}
        t0 = perf()
        out["transitions"] = cli_call(["transitions", "--config", d["path"]])
        t1 = perf()
        samples.setdefault("transitions", []).append(t1 - t0)
        out["nmr"] = []
        for x in d["queries"]:
            for ir in (False, True):
                t0 = perf()
                res = cli_call(["nmr", "--config", d["path"], "--x", repr(x)]
                               + (["--ir"] if ir else []))
                samples.setdefault("nmr_query", []).append(perf() - t0)
                # the library form of the same query, cross-checked against the CLI
                shift = sh.relative_shift(d["cfg"], x, ir)
                out["nmr"].append((x, ir, res, shift))
        t0 = perf()
        out["sweep"] = cli_call(["sweep", "--config", d["path"], "--svg",
                                 "--out-dir", str(sweep_dir)])
        samples.setdefault("short_sweep", []).append(perf() - t0)
        out["sweep_dir"] = sweep_dir
        return out

    def check(self, i: int, out: dict) -> list[str]:
        d = self.devices[i % len(self.devices)]
        problems = check_transitions(out["transitions"], d["dev"], d["stair"])
        for x, ir, res, shift in out["nmr"]:
            problems += check_nmr(res, x, ir, shift, d["dev"], d["stair"])
        code, _, err = out["sweep"]
        if code != 0:
            problems.append(f"short sweep exited {code}: {err.strip()}")
        else:
            problems += check_sweep_dir(out["sweep_dir"], d["dev"], d["stair"], d["grid"], svg=True)
        return problems


def check_transitions(res, dev: dict, stair: oracle.Staircase) -> list[str]:
    code, text, err = res
    if code != 0:
        return [f"transitions exited {code}: {err.strip()}"]
    found = []
    for line in text.splitlines()[1:]:
        match = TRANSITION_RE.match(line)
        if match:
            x, ma, sa, mb, sb, b = match.groups()
            found.append((float(x), (int(ma), int(sa)), (int(mb), int(sb)), float(b)))
    want = stair.transitions()
    if len(found) != len(want):
        return [f"{len(found)} transitions printed, oracle has {len(want)}"]
    problems = []
    for (x, a, b, bt), (x_o, a_o, b_o) in zip(found, want):
        # printed with 6 decimals: 5e-7 rounding plus the package's 1e-10 bisection
        if abs(x - x_o) > 1e-6 or (a, b) != (a_o, b_o):
            problems.append(f"transition {x:.6f} {a}->{b} vs oracle {x_o:.8f} {a_o}->{b_o}")
        if abs(bt - float(oracle.b_tesla(x_o, dev))) > 1e-6:
            problems.append(f"transition field {bt} T vs oracle {float(oracle.b_tesla(x_o, dev))}")
    return problems


def _field(pattern: str, text: str) -> float:
    match = re.search(pattern, text)
    if match is None:
        raise ValueError(f"no {pattern!r} in output")
    return float(match.group(1))


def check_nmr(res, x: float, ir: bool, shift: float, dev: dict,
              stair: oracle.Staircase) -> list[str]:
    code, text, err = res
    if code != 0:
        return [f"nmr --x {x!r} exited {code}: {err.strip()}"]
    m = stair.m_at(x)
    s = m % 2
    b = float(oracle.b_tesla(x, dev))
    f0 = dev["gamma_n"] * b
    problems = []
    label = re.search(r"ground state \(\|m\|,S\) = \((\d+), (\d+)\)", text)
    if label is None or (int(label.group(1)), int(label.group(2))) != (m, s):
        return [f"nmr --x {x!r}: ground state {label and label.groups()} vs oracle ({m}, {s})"]
    if not close(_field(r"B = " + NUM + " T", text), b, 0.0, 1e-6):
        problems.append(f"nmr --x {x!r}: field differs from oracle {b}")
    mu_m = float(oracle.mu(m, dev["alpha_tilde"]))
    if not close(_field(r"mu_m = " + NUM, text), mu_m, PRINTED_REL):
        problems.append(f"nmr --x {x!r}: mu_m differs from oracle")
    if s == 0:
        if not close(_field(r"f_nmr = f0 = " + NUM, text), f0, PRINTED_REL) or shift != 0.0:
            problems.append(f"nmr --x {x!r}: singlet resonance is not exactly f0")
        return problems
    dens = float(oracle.density(x, m, dev, ir))
    a = 0.5 * dev["hyperfine_c"] * dens
    f = float(oracle.f_closed(a, b, dev))
    want_shift = (f - f0) / f0
    checks = [
        (r"delta\*l0\^2 = " + NUM, dens, "density"),
        (r"A = " + NUM + " MHz", a, "coupling A"),
        (r"f0 = " + NUM + " MHz", f0, "f0"),
        # numeric diagonalisation vs closed form: 1e-9 plus print rounding
        (r"f_nmr \(numeric\) = " + NUM, f, "numeric f_nmr"),
        (r"f_nmr \(closed\)  = " + NUM, f, "closed f_nmr"),
        (r"relative shift = " + NUM, want_shift, "relative shift"),
    ]
    for pattern, want, what in checks:
        if not close(_field(pattern, text), want, 1e-9 + PRINTED_REL, 1e-12):
            problems.append(f"nmr --x {x!r} ir={ir}: {what} differs from oracle {want!r}")
    if f"ir_excited = {ir}" not in text:
        problems.append(f"nmr --x {x!r}: ir flag not echoed")
    c1 = _field(r"c1 = " + NUM, text)
    c2 = _field(r"c2 = " + NUM, text)
    if abs(c1 * c1 + c2 * c2 - 1.0) > 1e-8:
        problems.append(f"nmr --x {x!r}: mixing amplitudes not normalised")
    if not close(shift, want_shift, 1e-9, 1e-13):
        problems.append(f"relative_shift({x!r}, ir={ir}) = {shift!r} vs oracle {want_shift!r}")
    return problems


# --------------------------------------------------------------------------

SZ = np.diag([0.5, -0.5]).astype(complex)
SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
CNOT_LADDER = (1 / 5, 1 / 10, 1 / 20)   # the selectivity ladder of the gate command
J_COUPLING = 0.001                      # MHz, TwoQubitModel and gate command default


def default_sweep_range() -> tuple[tuple[float, float], tuple[float, float]]:
    """(A, B) ranges over the default device's README sweep, triplet rows only.

    A spans both the plain and the IR-excited coupling, in MHz; B is in T.
    """
    dev = oracle.DEFAULT_DEVICE
    xs = np.linspace(0.05, 5.0, 2001)
    cols = oracle.sweep_columns(xs, oracle.Staircase(dev, 0.05, 5.0).m_array(xs), dev)
    a = cols[:, 7:9][cols[:, 3] == 1]
    return (float(a.min()), float(a.max())), (float(cols[0, 1]), float(cols[-1, 1]))


def lab_frame_pulse(rng, dim: int, b_range: tuple[float, float]) -> dict:
    """Time-sliced lab-frame Hamiltonians of an RF pi pulse on qubit a.

    Qubit a is the default nucleus at a field drawn from b_range.  rabi/f and
    slices per Larmor period are fixed per dimension, so every pulse of one
    dimension takes the same number of evolve steps; at dim 4 qubit b sits
    40-80 % above qubit a and a weak zz term couples them.  These ratios are
    the benchmark's choice: they keep the pulse selective and the step count
    fixed, and the check compares the states, not the physics.
    """
    f_a = oracle.DEFAULT_DEVICE["gamma_n"] * rng.uniform(*b_range)
    if dim == 2:
        rabi, per_period = f_a / 20.0, 12
        h0, drive = f_a * SZ, SX
    else:
        f_b = f_a * rng.uniform(1.4, 1.8)
        rabi, per_period = f_a / 10.0, 8
        zz = 0.02 * f_a * np.kron(SZ, SZ)
        h0 = f_a * np.kron(SZ, I2) + f_b * np.kron(I2, SZ) + zz
        drive = np.kron(SX, I2) + np.kron(I2, SX)
    duration = 1.0 / (2.0 * rabi)
    n = round(duration * f_a * per_period)
    dt = duration / n
    hs = [h0 + 2.0 * rabi * math.cos(2.0 * math.pi * f_a * (k + 0.5) * dt) * drive
          for k in range(n)]
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0
    # |0...> -> |1...>: index of qubit a flipped
    return {"f": f_a, "rabi": rabi, "duration": duration, "dt": dt, "hs": hs,
            "psi0": psi0, "flipped": dim // 2}


class SpinGates:
    """Library-only rounds of nmr_numeric, lab-frame RF pulses and CNOTs."""

    work_unit = "rounds"
    nmr_per_round = 48
    n_pulses = 8

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng([seed, 3])
        self.cfg = dotnmr.validate_config(dotnmr.DotConfig())
        self.dev = dict(oracle.DEFAULT_DEVICE)
        # log-grid over the (A, B) the default sweep produces, jittered per cell
        a_range, b_range = default_sweep_range()
        a_edges = np.geomspace(*a_range, 25)
        b_edges = np.geomspace(*b_range, 25)
        ai, bi = np.meshgrid(np.arange(24), np.arange(24), indexing="ij")
        a = a_edges[ai] * (a_edges[1] / a_edges[0]) ** rng.uniform(size=ai.shape)
        b = b_edges[bi] * (b_edges[1] / b_edges[0]) ** rng.uniform(size=bi.shape)
        order = rng.permutation(a.size)
        self.ab = list(zip(a.ravel()[order].tolist(), b.ravel()[order].tolist()))
        self.pulses = [lab_frame_pulse(rng, dim, b_range)
                       for _ in range(self.n_pulses) for dim in (2, 4)]
        # CNOT: default nucleus at a field of the default sweep, default J, and
        # rabi/J log-uniform between the ends of the gate command's ladder
        self.cnots = [(self.dev["gamma_n"] * rng.uniform(*b_range),
                       math.exp(rng.uniform(math.log(1 / 20), math.log(1 / 5))))
                      for _ in range(64)]
        self.ladder_fidelity = {r: oracle.cnot_fidelity(r) for r in CNOT_LADDER}

    def write_inputs(self) -> None:
        """Library calls only: the inputs live in memory, there is no input file."""

    def check_inputs(self, loaded: list) -> list[str]:
        return check_default_config(loaded)

    def run(self, i: int, samples: dict) -> dict:
        n = self.nmr_per_round
        start = (i * n) % len(self.ab)
        points = self.ab[start:start + n]
        nmr = []
        for a, b in points:
            t0 = perf()
            nmr.append(sh.nmr_numeric(a, b, self.cfg))
            samples.setdefault("nmr_numeric", []).append(perf() - t0)

        pulses = []
        for p in self.pulses[(2 * i) % len(self.pulses):][:2]:
            psi = p["psi0"]
            t0 = perf()
            for h in p["hs"]:
                psi = numerics.evolve(h, psi, p["dt"])
            samples.setdefault("evolve", []).append(perf() - t0)
            samples.setdefault("evolve_steps", []).append(len(p["hs"]))
            rwa = fid = None
            if len(psi) == 2:
                spec = dotnmr.PulseSpec(carrier=p["f"], rabi=p["rabi"], duration=p["duration"])
                rwa = gates.rwa_pulse(p["f"], spec)
                fid = gates.gate_fidelity(rwa, -2j * SX)
            pulses.append((p, psi, rwa, fid))

        f_b, r = self.cnots[i % len(self.cnots)]
        model = dotnmr.TwoQubitModel(f_a=f_b, f_b=f_b, j_coupling=J_COUPLING)
        cnot = []
        for ratio in CNOT_LADDER + (r,):
            t0 = perf()
            cnot.append((ratio, gates.cnot_conditional(model, ratio).fidelity))
            samples.setdefault("cnot", []).append(perf() - t0)
        return {"work": 1, "nmr": list(zip(points, nmr)), "pulses": pulses, "cnot": cnot}

    def check(self, i: int, out: dict) -> list[str]:
        problems = []
        for (a, b), res in out["nmr"]:
            f = float(oracle.f_closed(a, b, self.dev))
            if not close(res.f_nmr, f, 1e-9):
                problems.append(f"nmr_numeric(A={a!r}, B={b!r}) = {res.f_nmr!r} "
                                f"vs closed form {f!r}")
            if not close(res.f_closed, f, 1e-12) or res.f0 != self.dev["gamma_n"] * b:
                problems.append(f"nmr_numeric(A={a!r}, B={b!r}) closed form / f0 off the oracle")

        for p, psi, rwa, fid in out["pulses"]:
            ref = p["psi0"]
            for h in p["hs"]:
                w, v = np.linalg.eigh(h)
                ref = v @ (np.exp(-2j * math.pi * w * p["dt"]) * (v.conj().T @ ref))
            if np.max(np.abs(psi - ref)) > 1e-9:
                problems.append(f"evolve of a dim-{len(psi)} pulse differs from LAPACK reference")
            if abs(psi[p["flipped"]]) ** 2 < 0.9:
                problems.append(f"dim-{len(psi)} pi pulse flipped only "
                                f"{abs(psi[p['flipped']]) ** 2:.3f}")
            if rwa is not None:
                want = oracle.rabi_propagator(0.0, p["rabi"], p["duration"])
                if np.max(np.abs(rwa - want)) > 1e-12:
                    problems.append("rwa_pulse differs from the closed-form Rabi propagator")
                want_fid = (abs(np.trace(2j * SX @ want)) ** 2 + 2.0) / 6.0
                if abs(fid - want_fid) > 1e-12:
                    problems.append(f"gate_fidelity {fid!r} vs oracle {want_fid!r}")
                if abs(abs(psi[1]) ** 2 - abs(rwa[1, 0]) ** 2) > 0.02:
                    problems.append("lab-frame pi pulse disagrees with the RWA propagator")

        fids = dict(out["cnot"])
        for ratio, fid in out["cnot"]:
            want = self.ladder_fidelity.get(ratio)
            if want is None:
                want = oracle.cnot_fidelity(ratio)
            if abs(fid - want) > 1e-9:
                problems.append(f"CNOT fidelity at rabi/J={ratio:.4f}: {fid!r} vs oracle {want!r}")
        ladder = [fids[r] for r in CNOT_LADDER]
        if ladder[-1] < 0.99 or not ladder[0] <= ladder[1] <= ladder[2]:
            problems.append(f"CNOT fidelities {ladder} not >= 0.99 at 1/20 or not monotone")
        return problems


WORKLOADS = {"sweep-dense": SweepDense, "device-scan": DeviceScan, "spin-gates": SpinGates}


def eig_layer(hermitian_eig, seed: int) -> tuple[dict, list[str]]:
    """Per-dimension time of hermitian_eig on seeded random Hermitian matrices."""
    rng = np.random.default_rng([seed, 4])
    timings, problems = {}, []
    for dim, reps in ((2, 200), (4, 60), (6, 20), (8, 12), (16, 4)):
        per_call = []
        for _ in range(reps):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (z + z.conj().T) / 2
            t0 = perf()
            es = hermitian_eig(h)
            per_call.append(perf() - t0)
            scale = max(1.0, float(np.max(np.abs(h))))
            rec = np.max(np.abs(es.vectors @ np.diag(es.values) @ es.vectors.conj().T - h))
            if rec > 1e-12 * scale:
                problems.append(f"hermitian_eig dim {dim}: reconstruction residual {rec:.2e}")
        timings[f"numerics.hermitian_eig.us_dim{dim}"] = float(np.median(per_call)) * 1e6
    return timings, problems

import bisect
import csv
import dataclasses
import hashlib
import json
import math
import re
import tempfile
import warnings
from pathlib import Path
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dotnmr import (
    ConfigError,
    DotConfig,
    SWEEP_COLUMNS,
    Sweep,
    b_field_from_ratio,
    build_manifest,
    coupling_a,
    delta_cm,
    delta_m,
    emit_svg,
    ground_state_at,
    load_config,
    magic_transitions,
    mu_m,
    nmr_closed_form,
    nmr_numeric,
    nuclear_larmor_mhz,
    relative_shift,
    run_sweep,
    sweep_row,
    write_csv,
    write_manifest,
)
from dotnmr import _numfmt
from dotnmr._numfmt import f2_point_runs, g9_rows
from dotnmr.cli import main
from dotnmr.config import CONFIG_FIELDS, validate_config
from dotnmr.output import RunManifest, WrittenPath
from dotnmr.sweep import SweepSpec

ROW_FORMAT = ",".join("%d" if c in ("m_abs", "s_total") else "%.9g" for c in SWEEP_COLUMNS) + "\n"


@pytest.fixture(scope="module")
def default_sweep(default_cfg):
    return run_sweep(default_cfg, 0.05, 5.0, 500)


def test_sweep_row_count_and_grid(default_cfg, default_sweep):
    assert all(len(column) == 500 for column in default_sweep)
    assert default_sweep.x[0] == 0.05
    assert default_sweep.x[-1] == 5.0
    assert len(run_sweep(default_cfg, 0.1, 0.2, 2).x) == 2


def test_sweep_bad_bounds(default_cfg):
    with pytest.raises(ConfigError):
        run_sweep(default_cfg, 0.0, 5.0, 100)
    with pytest.raises(ConfigError):
        run_sweep(default_cfg, 1.0, 0.5, 100)
    with pytest.raises(ConfigError):
        run_sweep(default_cfg, 0.1, 5.0, 1)


@pytest.mark.parametrize("steps", [2.5, 3.7, 5.0, True, "5", None])
def test_sweep_refuses_a_non_integer_step_count(default_cfg, steps):
    # a float count used to give a non-uniform grid: 2.5 made [0.05, 3.35, 5.0]
    message = f"steps must be an integer, got {steps!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_sweep(default_cfg, 0.05, 5.0, steps)


def test_sweep_accepts_numpy_integer_steps(default_cfg):
    for steps in (np.int64(5), np.int32(5), np.uint8(5)):
        sweep = run_sweep(default_cfg, 0.05, 5.0, steps)
        assert np.array_equal(sweep.x, run_sweep(default_cfg, 0.05, 5.0, 5).x)


def test_sweep_singlet_rows_are_decoupled(default_sweep):
    singlet = default_sweep.s_total == 0
    assert singlet.any()
    for column in ("delta_l0sq", "delta_cm_l0sq", "a_mhz", "a_cm_mhz", "shift", "shift_ir"):
        assert np.all(getattr(default_sweep, column)[singlet] == 0.0), column
    assert np.array_equal(default_sweep.f_nmr_mhz[singlet], default_sweep.f0_mhz[singlet])
    assert np.array_equal(default_sweep.f_nmr_ir_mhz[singlet], default_sweep.f0_mhz[singlet])


def test_sweep_triplet_rows_consistent(default_cfg, default_sweep):
    sw = default_sweep
    triplet = sw.s_total == 1
    assert np.all(sw.delta_l0sq[triplet] > 0.0)
    np.testing.assert_allclose(
        sw.a_mhz[triplet], 0.5 * default_cfg.hyperfine_c * sw.delta_l0sq[triplet], rtol=1e-14
    )
    np.testing.assert_allclose(
        sw.shift[triplet], (sw.f_nmr_mhz - sw.f0_mhz)[triplet] / sw.f0_mhz[triplet], rtol=1e-12
    )
    assert np.all(sw.shift_ir[triplet] > sw.shift[triplet])
    for column in ("f0_mhz", "f_nmr_mhz", "f_nmr_ir_mhz"):
        assert np.all(getattr(sw, column) >= 0.0)


def test_sweep_window_sequence(default_sweep):
    labels = []
    for label in zip(default_sweep.m_abs.tolist(), default_sweep.s_total.tolist()):
        if not labels or labels[-1] != label:
            labels.append(label)
    assert labels == [(0, 0), (1, 1), (3, 1), (5, 1)]


def test_sweep_shift_jumps_at_boundaries(default_cfg, default_sweep):
    # shift is zero before the first boundary and positive right after
    assert np.all(default_sweep.shift[default_sweep.x < 0.39] == 0.0)
    assert 0.20 <= default_sweep.shift.max() <= 0.35


def test_row_error_reports_offending_x(default_cfg, monkeypatch):
    import dotnmr.spin_hamiltonian as sh_mod

    def nan_resonance(a_mhz, b_tesla, cfg):
        return np.full_like(a_mhz, np.nan)

    # the closed-form chain that sweep_row reads calls the resonance through this binding
    monkeypatch.setattr(sh_mod, "nmr_closed_form", nan_resonance)
    # x = 0.2 is a singlet row (finite); 0.4 is the first triplet row
    with pytest.raises(FloatingPointError, match="x = 0.4$"):
        run_sweep(default_cfg, 0.2, 1.0, 5)


def test_sweep_error_keeps_its_type(default_cfg, monkeypatch, tmp_path, capsys):
    import dotnmr.sweep as sweep_mod

    def bad_density(cfg, x, m_abs):
        raise ConfigError("synthetic hyperfine_c failure")

    monkeypatch.setattr(sweep_mod, "delta_m", bad_density)
    with pytest.raises(ConfigError, match="hyperfine_c"):
        run_sweep(default_cfg, 0.5, 1.0, 3)
    assert main(["sweep", "--out-dir", str(tmp_path)]) == 1
    assert "hyperfine_c" in capsys.readouterr().err


def test_sweep_warns_once_at_m_max():
    with pytest.warns(UserWarning, match="m_max") as record:
        sweep = run_sweep(DotConfig(m_max=5), 0.05, 20.0, 1000)
    assert sweep.m_abs[-1] == 5
    assert len([w for w in record if "m_max" in str(w.message)]) == 1


def test_format_number_nine_significant_digits(tmp_path):
    values = dict.fromkeys(SWEEP_COLUMNS, 0.0)
    values.update(x=0.1234567894, b_tesla=1.0, m_abs=3, s_total=1,
                  mu_m=123456789.123, delta_l0sq=1e-7)
    sweep = Sweep(**{name: np.array([value]) for name, value in values.items()})
    line = write_csv(sweep, tmp_path / "fmt.csv").read_text().splitlines()[1]
    assert line.split(",")[:6] == ["0.123456789", "1", "3", "1", "123456789", "1e-07"]


def test_write_csv_layout(tmp_path, default_cfg):
    path = write_csv(sweep_row(default_cfg, 1.0), tmp_path / "one.csv")
    text = path.read_text()
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert text.endswith("\n")
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert float(parsed[0]["x"]) == 1.0
    assert parsed[0]["m_abs"] == "1"


def test_write_csv_deterministic(tmp_path, default_cfg, default_sweep):
    p1 = write_csv(default_sweep, tmp_path / "a.csv")
    p2 = write_csv(default_sweep, tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()
    digest = hashlib.sha256(p1.read_bytes()).hexdigest()
    sweep_again = run_sweep(default_cfg, 0.05, 5.0, 500)
    p3 = write_csv(sweep_again, tmp_path / "c.csv")
    assert hashlib.sha256(p3.read_bytes()).hexdigest() == digest


def test_write_csv_rejects_empty(tmp_path, default_cfg):
    with pytest.raises(ValueError):
        write_csv(sweep_row(default_cfg, np.empty(0)), tmp_path / "none.csv")


def test_default_sweep_golden_digest(tmp_path, default_sweep):
    # fixed 9-significant-digit formatting keeps this digest platform-stable
    path = write_csv(default_sweep, tmp_path / "golden.csv")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "bb28da2a371430dc8b5a7673ac96ad8fab34bfc08e3d959d21eae892a499d67d"


@pytest.mark.parametrize(
    "column, digest",
    [
        ("delta_l0sq", "2013d2f0bfc345014c9917f3995a9165d50fdf2c9c9268f5fdda153d61da6755"),
        ("shift", "922d37575fb7146edb1d991e2b459a6e2ee8e426c65275a94838f7ec4a259ae6"),
        ("shift_ir", "3456461907964208ddf1da1bf6373894bd0cabf3c9d711c7ac850e88e158ef84"),
    ],
)
def test_default_svg_golden_digest(tmp_path, default_sweep, column, digest):
    path = emit_svg(default_sweep, column, tmp_path / f"{column}.svg")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def reference_csv(sweep) -> bytes:
    """write_csv's bytes with every row formatted by Python's %."""
    rows = "".join(ROW_FORMAT % row for row in zip(*(c.tolist() for c in sweep)))
    return (",".join(SWEEP_COLUMNS) + "\n" + rows).encode("ascii")


def csv_bytes(sweep) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        return write_csv(sweep, Path(tmp) / "sweep.csv").read_bytes()


def g9(values) -> list[str]:
    text = b"".join(g9_rows([np.array(values, dtype=float)], "%.9g\n")).decode("ascii")
    return text.split("\n")[:-1]


@st.composite
def near_g9_ties(draw):
    """Doubles within two ulps of a 9-digit rounding tie (D + 1/2) 10^(X - 8)."""
    value = (draw(st.integers(10**8, 10**9 - 1)) + 0.5) * 10.0 ** draw(st.integers(-22, 0))
    for _ in range(draw(st.integers(0, 2))):
        value = np.nextafter(value, draw(st.sampled_from([0.0, math.inf])))
    return float(value) * draw(st.sampled_from([1.0, -1.0]))


@st.composite
def exact_g9_ties(draw):
    """Doubles v = j / 2^(k+1), j odd, whose v 10^k = j 5^k / 2 is a tie in [1e8, 1e9)."""
    k = draw(st.integers(0, 8))
    j = draw(st.integers(math.ceil(1e8 * 2 / 5**k), math.ceil(1e9 * 2 / 5**k) - 1)) | 1
    return j / 2.0 ** (k + 1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=32))
def test_g9_matches_python_on_finite_doubles(values):
    assert g9(values) == ["%.9g" % v for v in values]


@settings(max_examples=50, deadline=None)
@given(st.lists(near_g9_ties() | exact_g9_ties(), min_size=1, max_size=16))
def test_g9_rounds_ties_half_even_on_the_exact_value(values):
    assert g9(values) == ["%.9g" % v for v in values]


def test_g9_edge_values():
    edges = [
        (0.0, "0"),
        (-0.0, "-0"),
        (1e-14, "1e-14"),
        (9.999999999999998e-15, "1e-14"),
        (1.0000000000000002e-14, "1e-14"),
        (9.999999995e-15, "1e-14"),
        (999999999.5, "1e+09"),
        (-999999999.5, "-1e+09"),
        (999999999.4999999, "999999999"),
        (9.9999999995e-05, "0.0001"),
        (9.9999999949e-05, "9.99999999e-05"),
        (99999999.95, "100000000"),
        (9999999.995, "9999999.99"),
        (-123456789.5, "-123456790"),
        (0.000123456789, "0.000123456789"),
        (5e-324, "4.94065646e-324"),
        (1e300, "1e+300"),
    ]
    values, expected = zip(*edges)
    assert g9(values) == list(expected)
    assert ["%.9g" % v for v in values] == list(expected)


def test_g9_rows_reach_every_slot_shape():
    # n kept digits "12..n" at each exponent X in [-14, 8], with both signs in both columns,
    # so every (X, kept, separator, sign) row of the slot tables is used; zeros added
    shapes = [float(f"{'123456789'[:n]}e{x - n + 1}") for x in range(-14, 9) for n in range(1, 10)]
    rows = [(v, -v) for v in shapes + [0.0]] + [(-v, v) for v in shapes + [0.0]]
    rows *= _numfmt._BLOCK_ROWS // len(rows) + 1  # two blocks, the last one shorter
    assert _numfmt._BLOCK_ROWS < len(rows) < 2 * _numfmt._BLOCK_ROWS
    left, right = (np.array(c) for c in zip(*rows))
    expected = "".join("%.9g,%.9g\n" % row for row in rows).encode("ascii")
    assert b"".join(g9_rows([left, right], "%.9g,%.9g\n")) == expected


# coordinates with 1 to 4 integer digits, exact half-cent ties, and 5 digits from 9999.995 up
F2_COORDINATE = (
    st.integers(0, 3).flatmap(lambda k: st.floats(0.0 if k == 0 else 10.0**k, 10.0 ** (k + 1),
                                                  exclude_max=True))
    | st.integers(0, 10**6 - 1).map(lambda d: (d + 0.5) / 100)
    | st.integers(0, 8 * 10**4 - 1).map(lambda j: j / 8)
    | st.floats(9999.99, 1e4, exclude_max=True)
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_f2_points_match_python(data):
    points = data.draw(st.lists(st.tuples(F2_COORDINATE, F2_COORDINATE), min_size=1, max_size=12))
    n = len(points)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    repeat = data.draw(st.integers(1, 3))  # copies of the first cut: empty runs in the middle
    # repeated bounds at the start and the end leave empty runs there too
    bounds = ([0] * data.draw(st.integers(1, 3)) + cuts[:1] * repeat + cuts[1:]
              + [n] * data.draw(st.integers(1, 3)))
    text = [f"{a:.2f},{b:.2f}" for a, b in points]
    expected = [" ".join(text[lo:hi]).encode() for lo, hi in zip(bounds[:-1], bounds[1:])]
    u, v = np.array(points).T
    assert f2_point_runs(u, v, bounds) == expected


def test_f2_point_runs_cover_every_digit_count():
    u = np.array([0.004, 7.125, 12.345, 99.995, 123.456, 999.995, 4321.005, 9999.994, 9999.995])
    v = u[::-1].copy()
    bounds = [0, 0, 3, 3, 3, 7, 9, 9]
    text = [f"{a:.2f},{b:.2f}" for a, b in zip(u.tolist(), v.tolist())]
    assert {len(t.split(",")[0].split(".")[0]) for t in text} == {1, 2, 3, 4, 5}
    expected = [" ".join(text[lo:hi]).encode() for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert f2_point_runs(u, v, bounds) == expected


def scalar_sweep_row(cfg, x):
    """One sweep row from the scalar chain, independent of the vector path."""
    ground = ground_state_at(cfg, x)
    m, s = ground.m_abs, ground.s_total
    b = b_field_from_ratio(cfg, x)
    f0 = nuclear_larmor_mhz(cfg, b)
    a, a_cm = coupling_a(cfg, x, m), coupling_a(cfg, x, m, ir_excited=True)
    density, density_cm = (delta_m(cfg, x, m), delta_cm(cfg, x, m)) if s else (0.0, 0.0)
    f, f_ir = (nmr_closed_form(a, b, cfg), nmr_closed_form(a_cm, b, cfg)) if s else (f0, f0)
    return (x, b, m, s, mu_m(m, cfg.alpha_tilde), density, density_cm, a, a_cm, f0, f, f_ir,
            (f - f0) / f0, (f_ir - f0) / f0)


@settings(max_examples=60, deadline=None)
@given(
    g=st.floats(0.0, 3.0),
    mstar=st.floats(0.05, 0.6),
    alpha=st.floats(0.0, 8.0),
    c=st.floats(0.0, 500.0),
    m_max=st.integers(5, 25),
    window=st.sampled_from(["free", "singlet", "top"]),
    lo=st.floats(1e-3, 1.0),
    span=st.floats(1e-6, 50.0),
    steps=st.integers(2, 300),
)
@example(g=2.0, mstar=0.19, alpha=3.0, c=60.0, m_max=5, window="top", lo=0.5, span=2.0,
         steps=300)
# a near-zero alpha puts the last crossing (5 -> 6 here) above 1e6
@example(g=0.0, mstar=0.5, alpha=1e-10, c=0.0, m_max=6, window="top", lo=1.0, span=1.0,
         steps=2)
@example(g=0.0, mstar=0.5, alpha=1.33384671841697, c=0.0, m_max=5, window="singlet",
         lo=0.125, span=50.0, steps=2)
# and this one's exact crossings from 1 -> 2 on lie past ~1e155, where x^2 overflows, so its
# staircase ends at 0 -> 1 (2.1e77)
@example(g=0.0, mstar=0.5, alpha=2.225073858507203e-309, c=0.0, m_max=5, window="top", lo=1.0,
         span=1.0, steps=2)
def test_sweep_row_matches_the_scalar_chain_bitwise(g, mstar, alpha, c, m_max, window, lo,
                                                    span, steps):
    cfg = DotConfig(g_factor=g, mstar_ratio=mstar, alpha_tilde=alpha, hyperfine_c=c,
                    m_max=m_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m_max and gamma_e consistency warnings
        points = magic_transitions(cfg, 0.0, math.inf)
        edges = [p.x_star for p in points]
        if window == "free":
            x_lo, x_hi = 4.0 * lo, 4.0 * lo + span
        elif window == "singlet":  # below the first boundary, which goes to the singlet
            first = edges[0] if edges else 10.0
            x_lo = 0.5 * lo * first
            x_hi = min(x_lo + (first - x_lo) * span / 50.0, first)  # the sum can round past it
        else:  # past the last boundary, up to the top label
            last = edges[-1] if edges else 1.0
            x_lo, x_hi = lo * last, last * (1.0 + span)
        if not math.isfinite(x_hi * x_hi):  # no energy is finite there: the sweep names x
            with pytest.raises(FloatingPointError, match="not finite at x"):
                run_sweep(cfg, x_lo, x_hi, steps)
            return
        sweep = run_sweep(cfg, x_lo, x_hi, steps)
        expected = np.array([scalar_sweep_row(cfg, x) for x in sweep.x.tolist()], dtype=float)
        shifts = np.array([[relative_shift(cfg, x, ir) for ir in (False, True)]
                           for x in sweep.x.tolist()])
    if window == "singlet":
        assert not sweep.s_total.any()
    elif window == "top":
        assert sweep.m_abs[-1] == (points[-1].to_state[0] if points else 0)
    for name, column, reference in zip(SWEEP_COLUMNS, sweep, expected.T):
        assert column.astype(float).tobytes() == reference.tobytes(), name
    # the library's point query reads the same chain as the sweep's columns
    assert np.column_stack([sweep.shift, sweep.shift_ir]).tobytes() == shifts.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    g=st.floats(0.0, 3.0),
    mstar=st.floats(0.05, 0.6),
    alpha=st.floats(0.0, 8.0),
    c=st.floats(0.0, 500.0),
    m_max=st.integers(5, 25),
    x_lo=st.floats(1e-6, 4.0),
    span=st.floats(1e-6, 50.0),
    steps=st.integers(2, 300),
)
def test_write_csv_matches_python_formatting(g, mstar, alpha, c, m_max, x_lo, span, steps):
    cfg = DotConfig(g_factor=g, mstar_ratio=mstar, alpha_tilde=alpha, hyperfine_c=c, m_max=m_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m_max and gamma_e consistency warnings
        sweep = run_sweep(cfg, x_lo, x_lo + span, steps)
    assert csv_bytes(sweep) == reference_csv(sweep)


@pytest.mark.parametrize("x_min, x_max", [(1e-20, 1e-3), (1.0, 2e9)])
def test_write_csv_fallback_rows_match_python(default_cfg, x_min, x_max):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the ground state reaches m_max
        sweep = run_sweep(default_cfg, x_min, x_max, 3000)
    cells = np.stack([c.astype(float) for c in sweep])
    foreign = (cells != 0) & ((np.abs(cells) < 1e-14) | (np.abs(cells) >= 1e9))
    assert 0 < foreign.any(axis=0).sum() < len(sweep.x)
    assert csv_bytes(sweep) == reference_csv(sweep)


def test_write_csv_fallback_rows_across_blocks(default_cfg):
    block = _numfmt._BLOCK_ROWS
    sweep = run_sweep(default_cfg, 0.05, 5.0, 2 * block + 7)
    foreign = [0, block - 1, block, block + 1, 2 * block + 6]
    for i, value in zip(foreign, (1e-300, 5e-324, -2e9, 999999999.5, 1e9)):
        sweep.mu_m[i] = value
    sweep.m_abs[block + 3] = 10**12
    assert csv_bytes(sweep) == reference_csv(sweep)


def test_write_csv_truncates_float_labels_like_percent_d(default_cfg):
    sweep = sweep_row(default_cfg, np.array([1.0, 2.0, 3.0]))
    sweep = sweep._replace(m_abs=np.array([3.7, -0.5, 2e9]), s_total=np.array([1.0, 0.0, -1.5]))
    assert csv_bytes(sweep) == reference_csv(sweep)


@pytest.mark.parametrize("column, value", [("a_mhz", np.nan), ("shift", -np.inf), ("x", np.inf)])
def test_emitters_reject_non_finite_cells(tmp_path, default_cfg, column, value):
    sweep = sweep_row(default_cfg, np.array([0.5, 1.0, 2.0]))
    getattr(sweep, column)[1] = value
    x_text = "inf" if column == "x" else "1.0"
    with pytest.raises(ValueError, match=f"{column} is not finite at x = {x_text}"):
        write_csv(sweep, tmp_path / "bad.csv")
    with pytest.raises(ValueError, match=f"{column} is not finite at x = {x_text}"):
        emit_svg(sweep, "a_mhz" if column == "x" else column, tmp_path / "bad.svg")
    assert not (tmp_path / "bad.csv").exists() and not (tmp_path / "bad.svg").exists()


def test_svg_renders_constant_x(tmp_path, default_cfg):
    ns = "{http://www.w3.org/2000/svg}"
    for sweep in (sweep_row(default_cfg, 1.0), sweep_row(default_cfg, np.full(3, 1.0))):
        root = ET.fromstring(emit_svg(sweep, "shift", tmp_path / "one.svg").read_text())
        points = root.find(f"{ns}polyline").get("points").split()
        assert {point.split(",")[0] for point in points} == {"392.00"}  # mid-plot


def test_svg_rejects_unscalable_range(tmp_path, default_cfg):
    sweep = sweep_row(default_cfg, np.array([0.5, 1.0]))
    sweep.a_mhz[:] = [-1e308, 1e308]
    with pytest.raises(ValueError, match="cannot scale"):
        emit_svg(sweep, "a_mhz", tmp_path / "wide.svg")


def test_svg_segments_match_windows(tmp_path, default_sweep):
    path = emit_svg(default_sweep, "delta_l0sq", tmp_path / "delta.svg")
    text = path.read_text()
    assert text.count("<polyline") == 4
    ET.fromstring(text)  # well-formed XML


def test_svg_shift_singlet_segment_is_flat_zero(tmp_path, default_sweep):
    path = emit_svg(default_sweep, "shift", tmp_path / "shift.svg")
    root = ET.fromstring(path.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 4
    first = polylines[0].get("points").split()
    y_values = {point.split(",")[1] for point in first}
    assert len(y_values) == 1  # singlet window renders as one flat line


def test_svg_rejects_bad_input(tmp_path, default_cfg, default_sweep):
    with pytest.raises(ValueError, match="unknown column"):
        emit_svg(default_sweep, "nope", tmp_path / "x.svg")
    with pytest.raises(ValueError):
        emit_svg(sweep_row(default_cfg, np.empty(0)), "shift", tmp_path / "x.svg")


def test_svg_deterministic(tmp_path, default_sweep):
    p1 = emit_svg(default_sweep, "shift", tmp_path / "s1.svg")
    p2 = emit_svg(default_sweep, "shift", tmp_path / "s2.svg")
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("field, value, noun", [
    ("steps", 2.5, "an integer"),
    ("steps", True, "an integer"),
    ("ir", "yes", "a boolean"),
    ("x_min", True, "a number"),
    ("x_max", None, "a number"),
    ("steps", np.int64(5), "an integer"),
])
def test_sweep_spec_refuses_a_non_json_type_by_field(field, value, noun):
    message = f"{field} must be {noun}, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SweepSpec(**{field: value})


def test_sweep_spec_takes_float64_bounds_and_checks_types_before_finiteness():
    assert SweepSpec(np.float64(0.05), np.float64(5.0)) == SweepSpec()
    with pytest.raises(ConfigError, match="^steps must be an integer, got 2.5$"):
        SweepSpec(x_min=math.inf, steps=2.5)


def test_sweep_spec_refuses_a_bound_too_large_for_a_float_by_name():
    for name in ("x_min", "x_max"):
        message = f"{name} must be finite, got an integer too large for a float"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SweepSpec(**{name: 10 ** 5000})


def test_load_config_empty_object(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    cfg, spec = load_config(path)
    assert cfg == DotConfig()
    assert spec == SweepSpec()


def test_load_config_override_matches_default(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha_tilde": 3.0}))
    cfg, _ = load_config(path)
    assert cfg == DotConfig()


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 3.0}))
    with pytest.raises(ConfigError, match="alpha"):
        load_config(path)


def test_load_config_unknown_sweep_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sweep": {"dx": 0.1}}))
    with pytest.raises(ConfigError, match="dx"):
        load_config(path)


def test_load_config_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "alpha_tilde": ,\n}')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_load_config_type_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m_max": 7.5}))
    with pytest.raises(ConfigError, match="m_max"):
        load_config(path)
    path.write_text(json.dumps({"hbar_omega0": "big"}))
    with pytest.raises(ConfigError, match="hbar_omega0"):
        load_config(path)
    path.write_text(json.dumps({"sweep": {"ir": 1}}))
    with pytest.raises(ConfigError, match="ir"):
        load_config(path)


def test_load_config_invalid_value_propagates(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"hbar_omega0": -1.0}))
    with pytest.raises(ConfigError, match="hbar_omega0"):
        load_config(path)


def reference_load_config(path):
    """Reference route: load_config's checks over json.loads of the file read in text mode."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text, parse_constant=str)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(CONFIG_FIELDS) - {"sweep"})
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    cfg_kwargs = {}
    for key in CONFIG_FIELDS:
        if key not in data:
            continue
        value = data[key]
        if key == "m_max":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"m_max must be an integer, got {value!r}")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        cfg_kwargs[key] = value
    cfg = validate_config(DotConfig(**cfg_kwargs))
    sweep_data = data.get("sweep", {})
    if not isinstance(sweep_data, dict):
        raise ConfigError("'sweep' must be a JSON object")
    unknown = sorted(set(sweep_data) - {"x_min", "x_max", "steps", "ir"})
    if unknown:
        raise ConfigError(f"unknown sweep key(s): {', '.join(unknown)}")
    for key in ("x_min", "x_max"):
        if key in sweep_data and (
            not isinstance(sweep_data[key], (int, float)) or isinstance(sweep_data[key], bool)
        ):
            raise ConfigError(f"sweep.{key} must be a number, got {sweep_data[key]!r}")
    if "steps" in sweep_data and (
        not isinstance(sweep_data["steps"], int) or isinstance(sweep_data["steps"], bool)
    ):
        raise ConfigError(f"sweep.steps must be an integer, got {sweep_data['steps']!r}")
    if "ir" in sweep_data and not isinstance(sweep_data["ir"], bool):
        raise ConfigError(f"sweep.ir must be a boolean, got {sweep_data['ir']!r}")
    try:
        return cfg, SweepSpec(**sweep_data)
    except ConfigError as exc:  # a grid error names the key as the file spells it
        raise ConfigError(f"sweep.{exc}") from None


def outcome(load, path):
    """(cfg, spec) as loaded, or the error's type and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # validate_config's soft gamma_e warnings
        try:
            return load(path)
        except Exception as exc:
            return type(exc), str(exc)


def assert_loads_like_json_loads(path, data: bytes):
    path.write_bytes(data)
    assert outcome(load_config, path) == outcome(reference_load_config, path)


@pytest.mark.parametrize("data", [
    b"{}",
    b'{\r\n  "alpha_tilde": 2.5,\r\n  "sweep": {"steps": 7, "ir": true}\r\n}\r\n',
    b'{\r\n  "alpha_tilde": ,\r\n}',  # CRLF: the same line and column
    b'{\r  "alpha_tilde": 2.5,\r  "m_max":\r}',  # lone CR counts as a newline in text mode
    b'{\n  "alpha_tilde": 2.5\n  "g_factor": 1.0\n}',
    b'\xef\xbb\xbf{"alpha_tilde": 2.5}',  # UTF-8 BOM
    b'\xef\xbb\xbf',
    b'{"alpha_tilde": NaN}',
    b'{"hyperfine_c": Infinity}',
    b'{"hyperfine_c": -Infinity}',
    b'{"hyperfine_c": 1e999}',
    b'{"sweep": {"x_max": NaN}}',
    b'{"sweep": {"x_max": 1e999}}',
    b'{"sweep": {"x_min": -1e999, "steps": 3}}',
    b'{"m_max": 7.0}',
    b'{"m_max": true}',
    b'{"sweep": {"ir": 1}}',
    b'{"sweep": {"steps": false}}',
    b'{"alpha": 1, "beta": 2}',
    b'{"sweep": {"dx": 0.1, "x_min": 1}}',
    b'{"sweep": []}',
    b'[1, 2]',
    b'"text"',
    b"",
    b"   \n",
    b'{"alpha_tilde": 2.5} {}',
    b'{"alpha_tilde": "2.5"}',
    b'{"alpha_tilde": 2.5, "alpha_tilde": -1}',
    b'{"k\xc3\xa9y": 1}',
    b'{"sweep": {"x_min": 2.0, "x_max": 1.0, "steps": 1}}',
    b'{"alpha_tilde": 3.0}\xff',  # not UTF-8
    b'\r\n{"m_max": 7}\xe2\x82',  # a truncated character after a newline
])
def test_load_config_matches_json_loads_route(tmp_path, data):
    assert_loads_like_json_loads(tmp_path / "cfg.json", data)


def test_load_config_matches_json_loads_route_on_read_errors(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        assert outcome(load_config, path) == outcome(reference_load_config, path)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scratch")


JSON_SCALARS = (st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10, 40)
                | st.booleans() | st.none() | st.text(max_size=3)
                | st.sampled_from(["NaN", "Infinity", "-Infinity"]).map(json.dumps))
CONFIG_KEYS = st.sampled_from([*CONFIG_FIELDS, "alpha", "Sweep"])
SWEEP_KEYS = st.sampled_from(["x_min", "x_max", "steps", "ir", "dx"])


@settings(max_examples=200, deadline=None)
@given(
    config=st.dictionaries(CONFIG_KEYS, JSON_SCALARS, max_size=4),
    sweep=st.none() | st.dictionaries(SWEEP_KEYS, JSON_SCALARS, max_size=4) | JSON_SCALARS,
    indent=st.sampled_from([None, 0, 2]),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    bom=st.booleans(),
    cut=st.none() | st.integers(0, 400),
)
def test_load_config_matches_json_loads_route_on_drawn_files(
    scratch_dir, config, sweep, indent, newline, bom, cut
):
    if sweep is not None:
        config["sweep"] = sweep
    text = json.dumps(config, indent=indent)
    # the constants were drawn as JSON strings; unquote them into bare literals
    for constant in ("NaN", "Infinity", "-Infinity"):
        text = text.replace(json.dumps(json.dumps(constant)), constant)
    text = ("\ufeff" if bom else "") + text.replace("\n", newline)[:cut]
    assert_loads_like_json_loads(scratch_dir / "cfg.json", text.encode("utf-8"))


def library_route(data: dict):
    """(cfg, spec) built from data's values directly, a grid error prefixed as load_config does."""
    cfg = validate_config(DotConfig(**{k: v for k, v in data.items() if k != "sweep"}))
    try:
        return cfg, SweepSpec(**data.get("sweep", {}))
    except ConfigError as exc:
        raise ConfigError(f"sweep.{exc}") from None


# every JSON value type, with infinities written as 1e999 (a float to json.loads)
JSON_VALUES = (st.floats(allow_nan=False) | st.integers(-10, 40) | st.booleans() | st.none()
               | st.text(alphabet="ab5.", max_size=3) | st.lists(st.integers(0, 9), max_size=2))


@settings(max_examples=300, deadline=None)
@given(
    config=st.dictionaries(st.sampled_from(CONFIG_FIELDS), JSON_VALUES, max_size=4),
    sweep=st.none() | st.dictionaries(st.sampled_from(["x_min", "x_max", "steps", "ir"]),
                                      JSON_VALUES, max_size=4),
)
def test_library_route_and_load_config_agree_on_json_dicts(scratch_dir, config, sweep):
    if sweep is not None:
        config["sweep"] = sweep
    text = json.dumps(config).replace("-Infinity", "-1e999").replace("Infinity", "1e999")
    path = scratch_dir / "lib.json"
    path.write_text(text)
    assert json.loads(text) == config
    assert outcome(load_config, path) == outcome(lambda _: library_route(config), path)


def reference_manifest_bytes(cfg, spec, paths) -> bytes:
    """manifest.json as dataclasses.asdict serialized it."""
    manifest = RunManifest(
        config=dataclasses.asdict(cfg),
        grid=dataclasses.asdict(spec),
        outputs=[{"path": p.name, "sha256": p.sha256} for p in paths],
    )
    return (json.dumps(dataclasses.asdict(manifest), indent=2, sort_keys=True) + "\n").encode()


def written(name, digest):
    path = WrittenPath(name)
    path.sha256 = digest
    return path


def test_manifest_bytes_match_asdict_route(tmp_path, default_cfg, default_sweep):
    paths = [write_csv(default_sweep, tmp_path / "sweep.csv"),
             emit_svg(default_sweep, "shift", tmp_path / "shift.svg")]
    out = write_manifest(build_manifest(default_cfg, SweepSpec(), paths), tmp_path / "m.json")
    assert out.read_bytes() == reference_manifest_bytes(default_cfg, SweepSpec(), paths)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.floats(), min_size=7, max_size=7),
    m_max=st.integers(-(2**70), 2**70),
    x_min=st.floats(allow_nan=False, allow_infinity=False),
    x_max=st.floats(allow_nan=False, allow_infinity=False),
    steps=st.integers(-5, 10**6),
    ir=st.booleans(),
    names=st.lists(st.text(max_size=8), max_size=3),
)
def test_manifest_bytes_match_asdict_route_on_drawn_configs(
    scratch_dir, values, m_max, x_min, x_max, steps, ir, names
):
    floats = [name for name in CONFIG_FIELDS if name != "m_max"]
    cfg = DotConfig(**dict(zip(floats, values)), m_max=m_max)
    spec = SweepSpec(x_min, x_max, steps, ir)
    paths = [written(name, hashlib.sha256(name.encode()).hexdigest()) for name in names]
    out = write_manifest(build_manifest(cfg, spec, paths), scratch_dir / "manifest.json")
    assert out.read_bytes() == reference_manifest_bytes(cfg, spec, paths)


def test_manifest_digests_match_bytes(tmp_path, default_cfg, default_sweep):
    csv_path = write_csv(default_sweep, tmp_path / "sweep.csv")
    svg_path = emit_svg(default_sweep, "shift", tmp_path / "shift.svg")
    manifest = build_manifest(default_cfg, SweepSpec(), [csv_path, svg_path])
    out = write_manifest(manifest, tmp_path / "manifest.json")
    data = json.loads(out.read_text())
    assert data["config"]["hyperfine_c"] == 60.0
    assert data["grid"]["steps"] == 500
    by_name = {entry["path"]: entry["sha256"] for entry in data["outputs"]}
    assert by_name["sweep.csv"] == hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert by_name["shift.svg"] == hashlib.sha256(svg_path.read_bytes()).hexdigest()


@settings(max_examples=100, deadline=None)
@given(
    g=st.floats(0.0, 3.0),
    mstar=st.floats(0.05, 0.6),
    alpha=st.floats(0.0, 8.0),
    m_max=st.integers(5, 25),
    x_lo=st.floats(0.01, 4.0),
    span=st.floats(0.01, 8.0),
    steps=st.integers(2, 400),
)
def test_sweep_matches_independent_routes(g, mstar, alpha, m_max, x_lo, span, steps):
    cfg = DotConfig(g_factor=g, mstar_ratio=mstar, alpha_tilde=alpha, m_max=m_max)
    x_hi = x_lo + span
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # strong Zeeman drives the labels to m_max
        sw = run_sweep(cfg, x_lo, x_hi, steps)
        points = magic_transitions(cfg, x_lo, x_hi)
        first = ground_state_at(cfg, x_lo).label
    # labels follow the closed-form staircase away from each boundary
    edges = [p.x_star for p in points]
    staircase = [first] + [p.to_state for p in points]
    for x, m, s in zip(sw.x.tolist(), sw.m_abs.tolist(), sw.s_total.tolist()):
        if all(abs(x - e) > 1e-9 * x for e in edges):
            assert (m, s) == staircase[bisect.bisect(edges, x)], x
    # closed-form resonance against the 6x6 diagonalisation
    triplet = np.flatnonzero(sw.s_total == 1)
    for i in triplet[:: max(1, len(triplet) // 4)][:5]:
        numeric = nmr_numeric(float(sw.a_mhz[i]), float(sw.b_tesla[i]), cfg).f_nmr
        assert sw.f_nmr_mhz[i] == pytest.approx(numeric, rel=1e-9)
    # singlet rows are exactly decoupled
    singlet = sw.s_total == 0
    assert np.array_equal(sw.f_nmr_mhz[singlet], sw.f0_mhz[singlet])
    assert np.array_equal(sw.f_nmr_ir_mhz[singlet], sw.f0_mhz[singlet])
    for column in (sw.a_mhz, sw.a_cm_mhz, sw.shift, sw.shift_ir):
        assert np.all(column[singlet] == 0.0)

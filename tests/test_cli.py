import csv
import hashlib
import json
import re
import sys

import pytest

from dotnmr import (ConfigError, b_field_from_ratio, cli, ground_state_at, load_config,
                    magic_transitions, nuclear_larmor_mhz, relative_shift, run_sweep)
from dotnmr.cli import main
from dotnmr.spectrum import _staircase


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sweep_writes_outputs(tmp_path, capsys):
    code = main(["sweep", "--x-min", "0.1", "--x-max", "2.0", "--steps", "50",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "manifest.json").exists()
    out = capsys.readouterr().out
    assert "wrote 50 rows" in out


def test_sweep_deterministic_across_runs(tmp_path):
    for name in ("r1", "r2"):
        assert main(["sweep", "--out-dir", str(tmp_path / name)]) == 0
    b1 = (tmp_path / "r1" / "sweep.csv").read_bytes()
    b2 = (tmp_path / "r2" / "sweep.csv").read_bytes()
    assert b1 == b2


def test_sweep_svg_and_manifest_digests(tmp_path):
    code = main(["sweep", "--steps", "120", "--svg", "--out-dir", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    names = {entry["path"] for entry in manifest["outputs"]}
    assert names == {"sweep.csv", "coupling.svg", "shift.svg"}
    for entry in manifest["outputs"]:
        assert entry["sha256"] == sha256_of(tmp_path / entry["path"])


def test_sweep_ir_selects_ir_shift_column(tmp_path):
    code = main(["sweep", "--steps", "80", "--svg", "--ir", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "shift_ir" in (tmp_path / "shift.svg").read_text()


def test_transitions_output_matches_library(default_cfg, capsys):
    assert main(["transitions"]) == 0
    out = capsys.readouterr().out
    printed = [float(v) for v in re.findall(r"^(\d+\.\d{6})", out, re.MULTILINE)]
    expected = [p.x_star for p in magic_transitions(default_cfg, 0.05, 5.0)]
    assert len(printed) == 3
    for got, want in zip(printed, expected):
        assert got == round(want, 6)


def test_transitions_empty_window(capsys):
    assert main(["transitions", "--x-min", "2.5", "--x-max", "4.0"]) == 0
    assert "no ground-state change" in capsys.readouterr().out


def test_nmr_triplet_point(capsys):
    assert main(["nmr", "--x", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "(1, 1)" in out
    assert "f_nmr (numeric)" in out
    numeric = float(re.search(r"f_nmr \(numeric\) = ([0-9.]+)", out).group(1))
    closed = float(re.search(r"f_nmr \(closed\)  = ([0-9.]+)", out).group(1))
    assert numeric == pytest.approx(closed, rel=1e-9)


def test_nmr_singlet_point(capsys):
    assert main(["nmr", "--x", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "shift = 0" in out


def test_gate_demo(capsys):
    assert main(["gate"]) == 0
    out = capsys.readouterr().out
    assert "fidelity" in out
    assert "rabi/J = 1/20" in out


def test_config_file_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha_tilde": 3.0, "sweep": {"steps": 40}}))
    code = main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
    assert code == 0
    assert "wrote 40 rows" in capsys.readouterr().out


def test_exit_code_for_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"hbar_omega0": -2.0}))
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_non_utf8_config_exits_1_naming_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "latin1.json"
    cfg_path.write_bytes(b'{"alpha_tilde": 3.0}\xff')
    assert main(["transitions", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"config error: cannot read config {cfg_path}: 'utf-8' codec can't decode "
        "byte 0xff in position 20: invalid start byte\n"
    )


@pytest.mark.parametrize(
    "command, text, field",
    [
        (["sweep"], '{"alpha_tilde": NaN}', "alpha_tilde"),
        (["transitions"], '{"g_factor": NaN}', "g_factor"),
        (["nmr", "--x", "1.0"], '{"hyperfine_c": Infinity}', "hyperfine_c"),
        (["nmr", "--x", "1.0"], '{"hyperfine_c": 1e999}', "hyperfine_c"),
        (["sweep", "--x-max", "inf", "--steps", "3"], "{}", "x_max"),
        (["sweep"], '{"sweep": {"x_max": 1e999}}', "x_max"),
        (["nmr", "--x", "nan"], "{}", "--x"),
    ],
)
def test_exit_code_for_non_finite_config_value(
    tmp_path, monkeypatch, capsys, command, text, field
):
    monkeypatch.chdir(tmp_path)  # sweep writes into the working directory
    (tmp_path / "bad.json").write_text(text)
    assert main([*command, "--config", "bad.json"]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", [["transitions"], ["nmr", "--x", "1"], ["sweep"]])
@pytest.mark.parametrize("text, key", [
    ('{"hbar_omega0": 1%s}' % ("0" * 400), "hbar_omega0 must be finite"),
    ('{"sweep": {"x_max": 1%s}}' % ("0" * 400), "sweep.x_max must be finite"),
    ('{"m_max": 1%s}' % ("0" * 400), "m_max must be finite"),
    ('{"alpha_tilde": 1%s}' % ("0" * 5000), "invalid JSON in big.json: Exceeds the limit"),
])
def test_an_int_too_large_for_a_float_exits_1_before_printing(
    tmp_path, monkeypatch, capsys, command, text, key
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.json").write_text(text)
    assert main([*command, "--config", "big.json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {key}")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", [["transitions"], ["nmr", "--x", "1"], ["sweep"]])
def test_a_huge_m_max_exits_1_before_building_anything(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.json").write_text('{"m_max": 1000000000000}')
    misses = _staircase.cache_info().misses
    assert main([*command, "--config", "big.json"]) == 1
    assert _staircase.cache_info().misses == misses
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: m_max must be in [5, 100000], got 1000000000000\n"
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_warns_where_a_label_above_an_even_m_max_takes_over(tmp_path, monkeypatch, capsys):
    # no even label above 0 wins for the default device, so the labels stop at 15 while
    # label 17 takes over at x = 18.44
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text('{"m_max": 16, "sweep": {"x_max": 30.0, "steps": 50}}')
    with pytest.warns(UserWarning, match=r"m_max=16 from x=18\.43") as record:
        assert main(["sweep", "--config", "c.json"]) == 0
    assert len(record) == 1
    with (tmp_path / "sweep.csv").open() as fh:
        assert list(csv.DictReader(fh))[-1]["m_abs"] == "15"


@pytest.mark.parametrize(
    "command, x",
    [
        (["nmr", "--x", "1e200"], "1e+200"),
        (["nmr", "--x", "1e308"], "1e+308"),
        (["sweep", "--x-max", "1e200", "--steps", "3"], "5e+199"),
    ],
)
def test_exit_code_for_overflowing_x(tmp_path, monkeypatch, capsys, command, x):
    # x^2 overflows above ~1.3e154, leaving no finite energy to pick a label from
    monkeypatch.chdir(tmp_path)
    assert main(command) == 2
    assert f"not finite at x = {x}" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("text", ['{"hyperfine_c": 1e308}', '{"hbar_omega0": 1e-320}',
                                  '{"hbar_omega0": 1e305, "mstar_ratio": 1.0}'])
def test_nmr_exits_2_naming_x_before_printing_a_non_finite_resonance(tmp_path, capsys, text):
    # f_nmr (closed) overflows at hyperfine_c = 1e308 and the shift at hbar_omega0 = 1e-320;
    # at hbar_omega0 = 1e305 B is finite but gamma_e B is not, which the chain reports
    # before the 6x6 meets it.  pytest turns an escaping RuntimeWarning into an error
    (tmp_path / "c.json").write_text(text)
    for ir in ([], ["--ir"]):
        assert main(["nmr", "--x", "1.0", "--config", str(tmp_path / "c.json")] + ir) == 2
        assert capsys.readouterr() == (
            "", "numerical failure: nmr result is not finite at x = 1.0\n")


@pytest.mark.parametrize("config, x", [("{}", 5e-324), ('{"hbar_omega0": 5e-324}', 0.5)])
def test_entry_points_agree_where_f0_underflows(tmp_path, capsys, config, x):
    # B and f0 = gamma_n B round to 0 for the default device at x = 5e-324, in the singlet
    # window (x = 1e-323 already gives f0 = 4.74e-322), and at hbar_omega0 = 5e-324 from x = 0.5
    # on, in the triplet (1, 1), whose f then divides by 0.  No shift is left, so every entry
    # point fails naming x; pytest turns an escaping RuntimeWarning into an error
    path = tmp_path / "c.json"
    path.write_text(config)
    cfg, _ = load_config(path)
    assert nuclear_larmor_mhz(cfg, b_field_from_ratio(cfg, x)) == 0.0
    with pytest.raises(FloatingPointError, match=rf"^sweep row is not finite at x = {x}$"):
        run_sweep(cfg, x, 1.0, 3)
    for ir in (False, True):
        with pytest.raises(FloatingPointError, match=rf"^relative shift is not finite at x = {x}$"):
            relative_shift(cfg, x, ir_excited=ir)
        assert main(["nmr", "--x", repr(x), "--config", str(path)] + (["--ir"] if ir else [])) == 2
        assert capsys.readouterr() == ("", f"numerical failure: nmr result is not finite at x = {x}\n")


@pytest.mark.parametrize("x", [0.3, 1.0])
def test_entry_points_agree_where_b_overflows(tmp_path, capsys, x):
    # a valid config whose B = x hbar_omega0 m*/m_e / K overflows at every x in the
    # window, in the singlet (x = 0.3) and in the triplet (1, 1) (x = 1.0) alike: every
    # entry point fails naming x before it prints anything
    path = tmp_path / "c.json"
    path.write_text('{"g_factor": 0, "hbar_omega0": 1e308, "mstar_ratio": 10}')
    cfg, _ = load_config(path)
    assert ground_state_at(cfg, x).label == {0.3: (0, 0), 1.0: (1, 1)}[x]
    message = rf"^magnetic field is not finite at x = {x}$"
    with pytest.raises(FloatingPointError, match=message):
        run_sweep(cfg, x, x + 0.1, 3)
    for ir in (False, True):
        with pytest.raises(FloatingPointError, match=message):
            relative_shift(cfg, x, ir_excited=ir)
        assert main(["nmr", "--x", repr(x), "--config", str(path)] + (["--ir"] if ir else [])) == 2
        assert capsys.readouterr() == ("", f"numerical failure: {message[1:-1]}\n")
    x_star = magic_transitions(cfg, 0.05, 5.0)[0].x_star
    assert main(["transitions", "--config", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"numerical failure: magnetic field is not finite at x = {x_star}\n")


def test_sweep_guard_message_names_one_value_of_an_array(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text('{"mstar_ratio": 1e308}')
    assert main(["sweep", "--steps", "100000", "--config", "c.json"]) == 2
    # B = x 2.5e308 / K overflows from the grid's 673rd x on, and the message names that x
    assert capsys.readouterr().err == (
        "numerical failure: magnetic field is not finite at x = 0.08326433264332644\n")


@pytest.mark.parametrize("alpha_tilde", [2e6, 1e40])
def test_huge_alpha_tilde_leaves_the_nucleus_uncoupled(tmp_path, monkeypatch, capsys, alpha_tilde):
    # 2^(1 + mu_m) overflows from alpha_tilde ~ 1.05e6, and every mu_m rounds equal from ~4.5e15
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"alpha_tilde": alpha_tilde}))
    for command in (["transitions"], ["nmr", "--x", "1.0"], ["nmr", "--x", "1.0", "--ir"],
                    ["sweep", "--steps", "50", "--svg"]):
        with pytest.warns(UserWarning, match="m_max=15"):
            assert main([*command, "--config", "c.json"]) == 0
    with (tmp_path / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert {row["m_abs"] for row in rows} == {"15"}
    assert all(float(row["a_mhz"]) == float(row["a_cm_mhz"]) == 0.0 for row in rows)
    assert all(abs(float(row["shift"])) < 1e-12 for row in rows)
    out = capsys.readouterr().out
    assert out.count("A = 0 MHz") == 2


def test_exit_code_for_usage_error(capsys):
    assert main(["sweep", "--bogus-flag"]) == 1
    assert main(["nmr"]) == 1  # missing required --x


def test_exit_code_for_numerical_failure(capsys):
    assert main(["nmr", "--x", "1e200"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_for_bad_sweep_bounds(capsys):
    assert main(["sweep", "--x-min", "0", "--out-dir", "/tmp/ignored"]) == 1


def test_sweep_rerun_into_same_dir_writes_identical_files(tmp_path):
    names = ("sweep.csv", "coupling.svg", "shift.svg", "manifest.json")
    runs = []
    for _ in range(2):
        assert main(["sweep", "--steps", "90", "--svg", "--out-dir", str(tmp_path)]) == 0
        runs.append({name: (tmp_path / name).read_bytes() for name in names})
        manifest = json.loads(runs[-1]["manifest.json"])
        for entry in manifest["outputs"]:
            assert entry["sha256"] == sha256_of(tmp_path / entry["path"])
    assert runs[0] == runs[1]


def test_sweep_replaces_a_symlink_instead_of_following_it(tmp_path):
    target = tmp_path / "elsewhere.csv"
    target.write_bytes(b"keep me\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "sweep.csv").symlink_to(target)
    assert main(["sweep", "--steps", "20", "--out-dir", str(out_dir)]) == 0
    csv_path = out_dir / "sweep.csv"
    assert csv_path.is_file() and not csv_path.is_symlink()
    assert csv_path.read_bytes().startswith(b"x,b_tesla,")
    assert target.read_bytes() == b"keep me\n"


def test_sweep_out_dir_that_is_a_file_exits_1(tmp_path, capsys):
    out_file = tmp_path / "out"
    out_file.write_bytes(b"")
    assert main(["sweep", "--steps", "20", "--out-dir", str(out_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write {out_file}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("name", ["sweep.csv", "coupling.svg", "shift.svg", "manifest.json"])
def test_sweep_directory_at_an_output_path_exits_1(tmp_path, capsys, name):
    (tmp_path / name).mkdir()
    assert main(["sweep", "--steps", "20", "--svg", "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write {tmp_path / name}: ")
    assert captured.err.count("\n") == 1
    assert (tmp_path / name).is_dir()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nmr", "--x", "0"], "--x must be finite and > 0, got 0.0"),
        (["nmr", "--x", "-1"], "--x must be finite and > 0, got -1.0"),
        (["nmr", "--x=-inf"], "--x must be finite and > 0, got -inf"),
        (["transitions", "--x-min", "-1"], "--x-min must be >= 0, got -1.0"),
        (["transitions", "--x-min", "-1", "--x-max", "-2"], "--x-min must be >= 0, got -1.0"),
        (["transitions", "--x-min", "3", "--x-max", "2"],
         "--x-max must exceed --x-min, got 2.0 <= 3.0"),
        (["transitions", "--x-min", "2", "--x-max", "2"],
         "--x-max must exceed --x-min, got 2.0 <= 2.0"),
        (["gate", "--f-a", "inf"], "--f-a must be finite, got inf"),
        (["gate", "--f-b", "nan"], "--f-b must be finite, got nan"),
        (["gate", "--j-coupling", "nan"], "--j-coupling must be finite, got nan"),
        (["gate", "--rabi-over-j", "nan"], "--rabi-over-j must be finite and > 0, got nan"),
        (["gate", "--rabi-over-j", "inf"], "--rabi-over-j must be finite and > 0, got inf"),
        (["gate", "--rabi-over-j", "0"], "--rabi-over-j must be finite and > 0, got 0.0"),
        (["gate", "--f-a", "-1"], "--f-a must be > 0, got -1.0"),
        (["gate", "--f-a", "0"], "--f-a must be > 0, got 0.0"),
        (["gate", "--f-b", "-2"], "--f-b must be > 0, got -2.0"),
        (["gate", "--j-coupling", "5"],
         "--j-coupling: |j_coupling|=5.0 must stay below min(f_a, f_b)/10 = 1.7393"),
        (["gate", "--j-coupling", "0"],
         "--j-coupling must be nonzero for a conditional gate, got 0.0"),
        (["gate", "--rabi-over-j", "3"], "--rabi-over-j must be <= 2, got 3.0"),
        # a bound the flags did not give is named by its config key
        (["transitions", "--config", "neg.json"], "sweep.x_min must be >= 0, got -1.0"),
        (["transitions", "--config", "inverted.json"],
         "sweep.x_max must exceed sweep.x_min, got 2.0 <= 3.0"),
        (["transitions", "--config", "inverted.json", "--x-max", "1"],
         "--x-max must exceed sweep.x_min, got 1.0 <= 3.0"),
        (["transitions", "--config", "inverted.json", "--x-min", "2.5"],
         "sweep.x_max must exceed --x-min, got 2.0 <= 2.5"),
        (["transitions", "--config", "neg.json", "--x-max", "-2"],
         "sweep.x_min must be >= 0, got -1.0"),
    ],
)
def test_bad_point_query_flag_exits_1_before_printing(tmp_path, monkeypatch, capsys, argv,
                                                      message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "neg.json").write_text('{"sweep": {"x_min": -1.0}}')
    (tmp_path / "inverted.json").write_text('{"sweep": {"x_min": 3.0, "x_max": 2.0}}')
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


# argv for both parse routes: a command first takes its own parser, anything else
# the top-level one; dev.json and out/ are relative to the test's directory
_ARGV_TABLE = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["bogus", "--x", "0.45"],
    ["NMR", "--x", "0.45"],
    ["nm", "--x", "0.45"],
    ["--config", "dev.json", "nmr", "--x", "0.45"],
    ["-h", "nmr"],
    ["nmr", "--x", "0.45"],
    ["nmr", "--x", "1.3", "--ir", "--config", "dev.json"],
    ["nmr", "--con", "dev.json", "--x", "0.45"],
    ["nmr", "--x=0.45", "--ir", "--ir"],
    ["nmr", "--x", "0.45", "--x", "1.3"],
    ["nmr", "--x=-1"],
    ["nmr", "--x", "-1"],
    ["nmr", "--x", "abc"],
    ["nmr", "--x"],
    ["nmr"],
    ["nmr", "--x-m", "1"],
    ["nmr", "-x", "1"],
    ["nmr", "--x", "0.45", "extra"],
    ["nmr", "--x", "0.45", "--", "extra"],
    ["nmr", "--", "--x", "0.45"],
    ["nmr", "-h"],
    ["nmr", "--help", "--bogus"],
    ["nmr", "nmr", "--x", "0.45"],
    ["transitions"],
    ["transitions", "--x-min", "0.1", "--x-max", "3", "--config", "dev.json"],
    ["transitions", "--x-m", "1"],
    ["transitions", "--x-max=-1"],
    ["transitions", "--help"],
    ["sweep", "--steps", "40", "--svg", "--out-dir", "out"],
    ["sweep", "--config", "dev.json", "--ir", "--svg", "--out-dir", "out"],
    ["sweep", "--steps", "1.5", "--out-dir", "out"],
    ["sweep", "--st", "30", "--x-min", "0.2", "--x-max", "2", "--out-dir", "out"],
    ["sweep", "--s", "30"],
    ["sweep", "--bogus-flag"],
    ["sweep", "-h"],
    ["gate", "--rabi-over-j", "0.1", "--f-a", "17", "--f-b=18", "--j-coupling", "0.002"],
    ["gate", "--f-a", "-1"],
    ["gate", "--j-coupling", "nan"],
    ["gate", "--rabi", "3"],
    ["gate", "--f", "17"],
    ["gate", "-h"],
]


def _parsed(parse, argv, capsys):
    """What parse makes of argv: the namespace, the usage error or the help exit, with output."""
    try:
        result = ("args", repr(sorted(vars(parse(argv)).items())))  # nan equal to nan
    except ConfigError as exc:
        result = ("config error", str(exc))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return (*result, *capsys.readouterr())


def _ran(argv, capsys):
    """main's exit code (or help exit), stdout and stderr for argv."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", _ARGV_TABLE, ids=" ".join)
def test_command_parser_route_matches_the_top_level_parser(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dev.json").write_text('{"alpha_tilde": 3.0, "sweep": {"steps": 40}}')
    top_level = cli.build_parser().parse_args
    assert _parsed(cli._parse, argv, capsys) == _parsed(top_level, argv, capsys)
    got = _ran(argv, capsys)
    monkeypatch.setattr(cli, "_parse", top_level)
    assert got == _ran(argv, capsys)


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    assert main(["nmr", "--x", "0.45"]) == 0
    want = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["dotnmr", "nmr", "--x", "0.45"])
    assert main() == 0
    assert capsys.readouterr() == want
    monkeypatch.setattr(sys, "argv", ["dotnmr"])
    assert main(None) == 1
    assert capsys.readouterr().err == (
        "config error: the following arguments are required: command\n"
    )
    monkeypatch.setattr(sys, "argv", ["dotnmr", "bogus"])
    assert main() == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err

import json
import re

import pytest

from dotnmr import magic_transitions
from dotnmr.cli import main
from dotnmr.output import sha256_of


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


def test_exit_code_for_usage_error(capsys):
    assert main(["sweep", "--bogus-flag"]) == 1
    assert main(["nmr"]) == 1  # missing required --x


def test_exit_code_for_numerical_failure(capsys):
    assert main(["gate", "--j-coupling", "0"]) == 2
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
    ],
)
def test_bad_point_query_flag_exits_1_before_printing(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"

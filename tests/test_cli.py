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


def test_exit_code_for_usage_error(capsys):
    assert main(["sweep", "--bogus-flag"]) == 1
    assert main(["nmr"]) == 1  # missing required --x


def test_exit_code_for_numerical_failure(capsys):
    assert main(["gate", "--j-coupling", "0"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_for_bad_sweep_bounds(capsys):
    assert main(["sweep", "--x-min", "0", "--out-dir", "/tmp/ignored"]) == 1

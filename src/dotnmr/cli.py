"""Command-line front end.

Subcommands:
  sweep        field-ratio sweep -> CSV (+ optional SVG plots) + manifest
  transitions  table of ground-state boundaries in a ratio window
  nmr          single-point couplings and resonance frequencies
  gate         Hadamard check and conditional-CNOT fidelity demo

Exit codes: 0 success, 1 configuration error, 2 numerical failure.

Dispatch: when the first argument names a command, main parses the rest with that
command's own parser and records the name as args.command; the top-level parser would give
the same namespace, after classifying every argument and matching the subcommand pattern.
Everything else (no arguments, -h/--help, an unknown command, anything placed before the
command) goes through the top-level parser, which owns the overall help and the usage
errors.  Both routes end in the same parsers, whose error() raises ConfigError, so the
output and exit code of every argv stay the same.  The shorter route pays for itself:
device-scan work_per_ref 0.0971 with the top-level parser only -> 0.1071 with it (+10.3 %,
5/5 alternated 30 s pairs of bench/run.py, IQR 0.0032 of the runs with it, 2-vCPU VM).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .config import DotConfig, b_field_from_ratio, validate_config
from .errors import ConfigError, DotnmrError
from .gates import TwoQubitModel, cnot_conditional, hadamard
from .hyperfine import delta_cm, delta_m
from .output import (
    SweepSpec,
    build_manifest,
    emit_svg,
    load_config,
    write_csv,
    write_manifest,
)
from .spectrum import ground_state_at, magic_transitions, mu_m
from .spin_hamiltonian import _resonance_chain, nmr_numeric
from .sweep import run_sweep


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to exit code 1."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _parsers() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and each command's own parser by name, built once."""
    parser = _Parser(prog="dotnmr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--x-min", type=float, default=None, help="lower field ratio")
        p.add_argument("--x-max", type=float, default=None, help="upper field ratio")

    p_sweep = sub.add_parser("sweep", help="run a field-ratio sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--steps", type=int, default=None, help="grid points (inclusive)")
    p_sweep.add_argument("--ir", action="store_true", help="plot the IR-excited shift column")
    p_sweep.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    p_sweep.add_argument("--svg", action="store_true", help="also emit SVG line plots")

    p_tr = sub.add_parser("transitions", help="list ground-state boundaries")
    add_common(p_tr)

    p_nmr = sub.add_parser("nmr", help="resonance at one field ratio")
    p_nmr.add_argument("--config", type=Path, default=None, help="JSON config file")
    p_nmr.add_argument("--x", type=float, required=True, help="field ratio omega_c/omega_0")
    p_nmr.add_argument("--ir", action="store_true", help="IR-excited center of mass")

    p_gate = sub.add_parser("gate", help="RF gate demos")
    p_gate.add_argument("--f-a", type=float, default=17.393, help="qubit a Larmor, MHz")
    p_gate.add_argument("--f-b", type=float, default=17.393, help="qubit b Larmor, MHz")
    p_gate.add_argument("--j-coupling", type=float, default=0.001,
                        help="state-dependent shift J, MHz")
    p_gate.add_argument("--rabi-over-j", type=float, default=0.05,
                        help="pulse selectivity ratio")
    return parser, {"sweep": p_sweep, "transitions": p_tr, "nmr": p_nmr, "gate": p_gate}


def build_parser() -> argparse.ArgumentParser:
    """The dotnmr argument parser, built on first use and shared by later calls."""
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the top-level parser would parse it, by the shorter route if any."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def _load(args) -> tuple[DotConfig, SweepSpec]:
    if getattr(args, "config", None) is not None:
        cfg, spec = load_config(args.config)
    else:
        cfg, spec = validate_config(DotConfig()), SweepSpec()
    overrides = {}
    for key in ("x_min", "x_max", "steps"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "ir", False):
        overrides["ir"] = True
    if overrides:
        spec = SweepSpec(**{**spec.__dict__, **overrides})
    return cfg, spec


def _flag(args, flag: str, positive: bool = False) -> float:
    """The value of a float flag; ConfigError naming it unless finite (and > 0 if positive)."""
    value = getattr(args, flag[2:].replace("-", "_"))
    if not math.isfinite(value) or (positive and not value > 0):
        raise ConfigError(f"{flag} must be finite{' and > 0' if positive else ''}, got {value}")
    return value


def _cmd_sweep(args) -> int:
    cfg, spec = _load(args)
    sweep = run_sweep(cfg, spec.x_min, spec.x_max, spec.steps)
    out_dir = args.out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc.strerror or exc}") from exc
    paths = [write_csv(sweep, out_dir / "sweep.csv")]
    if args.svg:
        paths.append(emit_svg(sweep, "delta_l0sq", out_dir / "coupling.svg"))
        shift_column = "shift_ir" if spec.ir else "shift"
        paths.append(emit_svg(sweep, shift_column, out_dir / "shift.svg"))
    manifest = build_manifest(cfg, spec, paths)
    manifest_path = write_manifest(manifest, out_dir / "manifest.json")
    print(f"wrote {len(sweep.x)} rows over x in [{spec.x_min:g}, {spec.x_max:g}]")
    for entry in manifest.outputs:
        print(f"  {out_dir / entry['path']}  sha256={entry['sha256'][:16]}")
    print(f"  {manifest_path}")
    return 0


def _cmd_transitions(args) -> int:
    cfg, spec = _load(args)
    # a bound the flags did not give comes from the config file (the defaults pass)
    lo, hi = (f"--{key.replace('_', '-')}" if getattr(args, key) is not None else f"sweep.{key}"
              for key in ("x_min", "x_max"))
    if not spec.x_min >= 0:
        raise ConfigError(f"{lo} must be >= 0, got {spec.x_min}")
    if not spec.x_max > spec.x_min:
        raise ConfigError(f"{hi} must exceed {lo}, got {spec.x_max} <= {spec.x_min}")
    points = magic_transitions(cfg, spec.x_min, spec.x_max)
    b_tesla = [b_field_from_ratio(cfg, tp.x_star) for tp in points]  # before any output
    print("x_star      (|m|,S) -> (|m|,S)    B_tesla")
    for tp, b in zip(points, b_tesla):
        print(f"{tp.x_star:.6f}    {tp.from_state} -> {tp.to_state}    {b:.6f}")
    if not points:
        print("(no ground-state change in this window)")
    return 0


def _cmd_nmr(args) -> int:
    """Print the resonance at --x; everything is computed first, so a failure prints nothing.

    B, f0, A and the closed-form f_nmr come from the closed-form chain (_resonance_chain); a
    triplet's f_nmr, mixing and shift come from the numeric 6x6, with the closed form beside
    it; the 6x6 is built only from a finite chain.  Raises FloatingPointError naming x when a
    value to print or the chain's shift is not finite, as run_sweep does; that shift is not
    finite wherever f0 has underflowed to 0, and an overflowing B fails in the chain's
    b_field_from_ratio, naming x too.
    """
    cfg, _ = _load(args)
    x = _flag(args, "--x", positive=True)  # the bare Larmor f0 vanishes at x = 0
    ground = ground_state_at(cfg, x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported below, naming x
        b, f0, a, f_closed, shift = map(float, _resonance_chain(cfg, x, ground.m_abs, args.ir))
    mu = mu_m(ground.m_abs, cfg.alpha_tilde)
    lines = [f"x = {x:g}   B = {b:.6f} T   ground state (|m|,S) = {ground.label}",
             f"mu_m = {mu:.9g}"]
    values = [b, f0, a, f_closed, shift, mu]
    if ground.s_total == 0:
        lines.append(f"singlet window: nucleus uncoupled, f_nmr = f0 = {f0:.9g} MHz, shift = 0")
    elif all(map(math.isfinite, values)):  # else the 6x6 would fail first, not naming x
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, naming x
            density = delta_cm(cfg, x, ground.m_abs) if args.ir else delta_m(cfg, x, ground.m_abs)
            result = nmr_numeric(a, b, cfg)
        shift = (result.f_nmr - result.f0) / result.f0 if result.f0 else math.nan
        values += [density, *result, shift]
        lines += [
            f"ir_excited = {args.ir}",
            f"delta*l0^2 = {density:.9g}   A = {a:.9g} MHz",
            f"f0 = {result.f0:.9g} MHz",
            f"f_nmr (numeric) = {result.f_nmr:.9g} MHz",
            f"f_nmr (closed)  = {f_closed:.9g} MHz",
            f"mixing: c1 = {result.c1:.9g}, c2 = {result.c2:.9g}",
            f"relative shift = {shift:.9g}",
        ]
    if not all(map(math.isfinite, values)):
        raise FloatingPointError(f"nmr result is not finite at x = {x}")
    print("\n".join(lines))
    return 0


def _cmd_gate(args) -> int:
    for flag in ("--f-a", "--f-b", "--j-coupling", "--rabi-over-j"):
        value = _flag(args, flag, positive=flag == "--rabi-over-j")
        if flag in ("--f-a", "--f-b") and not value > 0:
            raise ConfigError(f"{flag} must be > 0, got {value}")
    try:  # f_a, f_b > 0 hold, so the model can only reject J's range
        model = TwoQubitModel(f_a=args.f_a, f_b=args.f_b, j_coupling=args.j_coupling)
    except ValueError as exc:
        raise ConfigError(f"--j-coupling: {exc}") from None
    if model.j_coupling == 0:
        raise ConfigError(
            f"--j-coupling must be nonzero for a conditional gate, got {model.j_coupling}"
        )
    if args.rabi_over_j > 2:
        raise ConfigError(f"--rabi-over-j must be <= 2, got {args.rabi_over_j}")
    h = hadamard()
    print("Hadamard acts as |0> -> (|0>+|1>)/sqrt2, |1> -> (|0>-|1>)/sqrt2:")
    print(f"  column 0: ({h[0, 0].real:+.6f}, {h[1, 0].real:+.6f})")
    print(f"  column 1: ({h[0, 1].real:+.6f}, {h[1, 1].real:+.6f})")
    print(f"two-qubit model: f_a={model.f_a} MHz, f_b={model.f_b} MHz, J={model.j_coupling} MHz")
    report = cnot_conditional(model, args.rabi_over_j)
    print(
        f"CNOT at rabi/J = {args.rabi_over_j:g}: fidelity = {report.fidelity:.8f}, "
        f"off-resonant residual = {report.residual_offresonant_population:.3e}"
    )
    print("selectivity sweep:")
    for ratio in (1 / 5, 1 / 10, 1 / 20):
        rep = cnot_conditional(model, ratio)
        print(f"  rabi/J = 1/{round(1 / ratio)}: fidelity = {rep.fidelity:.8f}")
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "transitions": _cmd_transitions,
    "nmr": _cmd_nmr,
    "gate": _cmd_gate,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DotnmrError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

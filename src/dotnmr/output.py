"""CSV, SVG and run-manifest emission plus JSON config ingestion.

All emitted bytes are deterministic: numbers are rendered with 9 significant
digits, newlines are '\\n', and nothing date- or platform-dependent is
written, so repeated runs produce identical digests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .config import CONFIG_FIELDS, DotConfig, validate_config
from .errors import ConfigError
from .sweep import SWEEP_COLUMNS, SweepRow, SweepSpec

SVG_WIDTH = 720
SVG_HEIGHT = 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 84, 20, 20, 56

_SWEEP_SPEC_FIELDS = tuple(f.name for f in fields(SweepSpec))


def format_number(value) -> str:
    """Fixed 9-significant-digit rendering used for all emitted numbers."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return format(value, ".9g")


def write_csv(rows: list[SweepRow], path) -> Path:
    """Write sweep rows with the 14-column header; byte-identical per rerun."""
    if not rows:
        raise ValueError("cannot write an empty sweep")
    path = Path(path)
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(format_number(getattr(row, c)) for c in SWEEP_COLUMNS))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def emit_svg(rows: list[SweepRow], y_column: str, path) -> Path:
    """Render one sweep column as a static SVG line plot.

    Consecutive rows sharing the same (|m|, S) label form one polyline;
    segments are not joined across ground-state changes, so the first-order
    jumps appear as genuine breaks.
    """
    if not rows:
        raise ValueError("cannot plot an empty sweep")
    if y_column not in SWEEP_COLUMNS:
        raise ValueError(f"unknown column {y_column!r}; choose one of {SWEEP_COLUMNS}")
    path = Path(path)

    xs = [row.x for row in rows]
    ys = [float(getattr(row, y_column)) for row in rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    segments: list[list[SweepRow]] = []
    for row in rows:
        if segments and (row.m_abs, row.s_total) == (
            segments[-1][-1].m_abs,
            segments[-1][-1].s_total,
        ):
            segments[-1].append(row)
        else:
            segments.append([row])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{SVG_HEIGHT - _MARGIN_BOTTOM}" stroke="black"/>',
        f'<line x1="{_MARGIN_LEFT}" y1="{SVG_HEIGHT - _MARGIN_BOTTOM}" '
        f'x2="{SVG_WIDTH - _MARGIN_RIGHT}" y2="{SVG_HEIGHT - _MARGIN_BOTTOM}" stroke="black"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        x_pix = px(tx)
        y_base = SVG_HEIGHT - _MARGIN_BOTTOM
        parts.append(
            f'<line x1="{x_pix:.2f}" y1="{y_base}" x2="{x_pix:.2f}" y2="{y_base + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x_pix:.2f}" y="{y_base + 22}" font-size="12" '
            f'font-family="sans-serif" text-anchor="middle">{format(tx, ".4g")}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y_pix = py(ty)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 6}" y1="{y_pix:.2f}" x2="{_MARGIN_LEFT}" y2="{y_pix:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 10}" y="{y_pix + 4:.2f}" font-size="12" '
            f'font-family="sans-serif" text-anchor="end">{format(ty, ".4g")}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{SVG_HEIGHT - 12}" font-size="13" '
        f'font-family="sans-serif" text-anchor="middle">cyclotron / confinement frequency ratio</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.2f}" font-size="13" '
        f'font-family="sans-serif" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.2f})">{y_column}</text>'
    )
    for segment in segments:
        pts = " ".join(
            f"{px(row.x):.2f},{py(float(getattr(row, y_column))):.2f}" for row in segment
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#1f4e79" stroke-width="1.5"/>'
        )
    parts.append("</svg>")

    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


def load_config(path) -> tuple[DotConfig, SweepSpec]:
    """Strict JSON config: dot parameters at top level, grid under "sweep".

    Absent keys fall back to defaults; unknown keys are rejected by name.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        # NaN/Infinity/-Infinity stay as their literal text, so the number
        # checks below reject them naming the key
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
    unknown = sorted(set(sweep_data) - set(_SWEEP_SPEC_FIELDS))
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
    return cfg, SweepSpec(**sweep_data)


@dataclass(frozen=True)
class RunManifest:
    """Snapshot of a run: config, grid and sha256 digest per emitted file."""

    config: dict
    grid: dict
    outputs: list[dict]


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_manifest(cfg: DotConfig, spec: SweepSpec, paths: list[Path]) -> RunManifest:
    return RunManifest(
        config=asdict(cfg),
        grid=asdict(spec),
        outputs=[{"path": p.name, "sha256": sha256_of(p)} for p in paths],
    )


def write_manifest(manifest: RunManifest, path) -> Path:
    path = Path(path)
    payload = json.dumps(asdict(manifest), indent=2, sort_keys=True)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(payload + "\n")
    return path

"""CSV and SVG emission from Sweep columns, run manifests, JSON config ingestion.

load_config parses a config file; validate_config and SweepSpec check its values.

All emitted bytes are deterministic: CSV numbers are Python's "%.9g" (9 significant
digits; "%d" for the two label columns) and SVG point coordinates its "%.2f", newlines
are '\\n', and nothing date- or platform-dependent is written, so repeated runs produce
identical digests.  Those numbers are rendered column-wise by ``_numfmt`` with exact
half-even rounding, the same bytes as Python's %; a CSV row holding a cell outside
[1e-14, 1e9) (other than 0) is formatted by Python's % itself.  Non-finite cells are
refused, so no emitted file holds "nan" or "inf".

Every output is written as a new file: whatever is at its path is removed first, so a
rerun does not rewrite the previous run's file in place, and a symlink at an output path
is replaced, not followed.  The writers hash the bytes as they write them, and the
manifest records those digests; no file is read back.  Nothing is synced to disk: after a
system crash soon after a run, an output of that run may be empty or missing, with the
previous run's file already gone; its manifest digest then no longer matches, and
rerunning the sweep rewrites the same bytes.

Two choices are paid for end to end (bench/run.py, alternated 30 s pairs, 2-vCPU VM).
load_config's bytes read and shared decoder: with json.loads(path.read_text(...)),
device-scan work_per_ref read 0.1067 -> 0.1011 (-5.2 %, worse in 5/5 pairs, IQR 0.0010).
write_csv and emit_svg import _numfmt on first use, which transitions, nmr and gate never
make: with one module-level import, device-scan setup_s read 0.1238 -> 0.1299 s (+5.0 %,
worse in 5/5 pairs, parent IQR 0.0048; sweep-dense and spin-gates +4.5 % and +4.2 %).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import CONFIG_FIELDS, DotConfig, validate_config
from .errors import ConfigError
from .sweep import SWEEP_COLUMNS, Sweep, SweepSpec

SVG_WIDTH = 720
SVG_HEIGHT = 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 84, 20, 20, 56

_SWEEP_SPEC_FIELDS = tuple(f.name for f in fields(SweepSpec))
_CONFIG_KEYS = frozenset(CONFIG_FIELDS + ("sweep",))
# NaN/Infinity/-Infinity stay literal text, so the type checks reject them by key
_DECODER = json.JSONDecoder(parse_constant=str)


def _require_finite(sweep: Sweep, columns) -> None:
    """Raise ValueError naming the first column holding nan or inf, at its first such x."""
    for name in columns:
        finite = np.isfinite(getattr(sweep, name))
        if not finite.all():
            raise ValueError(f"{name} is not finite at x = {sweep.x[np.argmin(finite)]}")


class WrittenPath(type(Path())):
    """Path of a file written by this module, with the sha256 hex digest of the bytes written."""

    sha256: str


def _write_new(path, chunks: Iterable[bytes]) -> WrittenPath:
    """Write chunks to path as a new file, removing whatever is there first.

    Each chunk is hashed as it is written, so the manifest needs no second
    pass over the file.  On ext4 (auto_da_alloc), truncating a file and
    rewriting it, or renaming a temporary file over it, flushes the new data
    on close or rename and waits on the old pages' writeback; a new file
    skips both, at the cost of the crash window in the module docstring.  A
    symlink at path is replaced, not followed.  A path that cannot be
    written raises ConfigError naming it.
    """
    path = WrittenPath(path)
    digest = hashlib.sha256()
    try:
        path.unlink(missing_ok=True)
        with open(path, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    path.sha256 = digest.hexdigest()
    return path


def write_csv(sweep: Sweep, path) -> WrittenPath:
    """Write the sweep columns under the 14-column header; byte-identical per rerun.

    Floats get 9 significant digits ("%.9g"), the two label columns "%d".
    """
    # imported here, so the commands that print no sweep skip compiling the renderer
    from ._numfmt import g9_rows

    if len(sweep.x) == 0:
        raise ValueError("cannot write an empty sweep")
    _require_finite(sweep, SWEEP_COLUMNS)
    row_format = ",".join(
        "%d" if c in ("m_abs", "s_total") else "%.9g" for c in SWEEP_COLUMNS
    ) + "\n"
    header = (",".join(SWEEP_COLUMNS) + "\n").encode("ascii")
    return _write_new(path, itertools.chain([header], g9_rows(sweep, row_format)))


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _plot_range(values: np.ndarray, pad: float) -> tuple[float, float]:
    """[min, max] of values widened by pad times its width; a constant spans +-1 first."""
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad *= hi - lo
    lo, hi = lo - pad, hi + pad
    if not 0.0 < hi - lo < math.inf:
        raise ValueError(f"cannot scale a plot axis to [{lo}, {hi}]")
    return lo, hi


def emit_svg(sweep: Sweep, y_column: str, path) -> WrittenPath:
    """Render one sweep column as a static SVG line plot.

    Consecutive points sharing the same |m| (and so the same (|m|, S) label)
    form one polyline; segments are not joined across ground-state changes,
    so the first-order jumps appear as genuine breaks.
    """
    from ._numfmt import f2_point_runs

    if len(sweep.x) == 0:
        raise ValueError("cannot plot an empty sweep")
    if y_column not in SWEEP_COLUMNS:
        raise ValueError(f"unknown column {y_column!r}; choose one of {SWEEP_COLUMNS}")
    _require_finite(sweep, ("x", y_column))

    xs = sweep.x
    ys = getattr(sweep, y_column)
    x_lo, x_hi = _plot_range(xs, 0.0)
    y_lo, y_hi = _plot_range(ys, 0.05)

    plot_w = SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

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
    chunks = [("\n".join(parts) + "\n").encode("ascii")]
    breaks = (np.flatnonzero(np.diff(sweep.m_abs)) + 1).tolist()
    for points in f2_point_runs(px(xs), py(ys), [0] + breaks + [len(xs)]):
        chunks += [b'<polyline points="', points,
                   b'" fill="none" stroke="#1f4e79" stroke-width="1.5"/>\n']
    chunks.append(b"</svg>\n")
    return _write_new(path, chunks)


def load_config(path) -> tuple[DotConfig, SweepSpec]:
    """Strict JSON config: dot parameters at top level, grid under "sweep".

    Absent keys fall back to defaults; unknown keys are rejected by name, and
    validate_config and SweepSpec check the values, a grid error as "sweep.<message>".
    One bytes read and one shared decoder, with json.loads's BOM check and text
    mode's newlines kept so messages match; an unreadable or non-UTF-8 file fails.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # text mode's newlines
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal over Python's int-string digit limit
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(data).__name__}")

    unknown = sorted(data.keys() - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    cfg = validate_config(DotConfig(**{key: data[key] for key in CONFIG_FIELDS if key in data}))

    sweep_data = data.get("sweep", {})
    if not isinstance(sweep_data, dict):
        raise ConfigError("'sweep' must be a JSON object")
    unknown = sorted(sweep_data.keys() - _SWEEP_SPEC_FIELDS)
    if unknown:
        raise ConfigError(f"unknown sweep key(s): {', '.join(unknown)}")
    try:
        return cfg, SweepSpec(**sweep_data)
    except ConfigError as exc:  # name the key as the file spells it
        raise ConfigError(f"sweep.{exc}") from None


@dataclass(frozen=True)
class RunManifest:
    """Snapshot of a run: config, grid and sha256 digest per emitted file."""

    config: dict
    grid: dict
    outputs: list[dict]


def build_manifest(cfg: DotConfig, spec: SweepSpec, paths: list[WrittenPath]) -> RunManifest:
    """Manifest of the outputs at paths, as write_csv and emit_svg return them.

    Each digest is that of the bytes the writer wrote; no file is read back.
    """
    return RunManifest(
        config={name: getattr(cfg, name) for name in CONFIG_FIELDS},
        grid={name: getattr(spec, name) for name in _SWEEP_SPEC_FIELDS},
        outputs=[{"path": p.name, "sha256": p.sha256} for p in paths],
    )


def write_manifest(manifest: RunManifest, path) -> WrittenPath:
    payload = json.dumps(vars(manifest), indent=2, sort_keys=True) + "\n"
    return _write_new(path, [payload.encode("ascii")])

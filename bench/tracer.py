"""In-memory span tracer that wraps dotnmr's public functions from outside.

Every wrapped call records a span (name, start, end, parent span, trace id)
into flat arrays; the benchmark sets one trace id per workload operation.
Self time is a span's duration minus the time its child spans cover, summed
per function while the spans are recorded.  The package is patched at every
binding in the dotnmr.* namespaces, because several modules call each other
through names bound by ``from .x import f``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, function) pairs whose calls become spans.
WRAPPED = (
    ("cli", "main"),
    ("config", "validate_config"),
    ("output", "load_config"), ("output", "write_csv"), ("output", "emit_svg"),
    ("output", "build_manifest"), ("output", "write_manifest"),
    ("sweep", "run_sweep"), ("sweep", "sweep_row"),
    ("spectrum", "ground_state_at"), ("spectrum", "magic_transitions"),
    ("hyperfine", "delta_m"), ("hyperfine", "delta_cm"), ("hyperfine", "coupling_a"),
    ("spin_hamiltonian", "nmr_closed_form"), ("spin_hamiltonian", "nmr_numeric"),
    ("spin_hamiltonian", "build_spin_matrix"), ("spin_hamiltonian", "relative_shift"),
    ("numerics", "hermitian_eig"), ("numerics", "evolve"), ("numerics", "bracket_roots"),
    ("gates", "cnot_conditional"), ("gates", "rwa_pulse"), ("gates", "gate_fidelity"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in WRAPPED)


class Tracer:
    def __init__(self):
        self.trace_id = 0
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("i")
        n = len(NAMES)
        self.calls = [0] * n
        self.errors = [0] * n
        self.self_s = [0.0] * n
        self._stack: list[int] = []
        self._child_s: list[float] = []
        # counters for the layer ratios
        self.transitions_found = 0
        self._in_transitions = 0
        self.labels_in_transitions = 0
        self.root_evals = 0
        self.roots_found = 0
        self.bytes = {"output.write_csv": 0, "output.emit_svg": 0}
        self._originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------
    def _wrap(self, idx: int, fn):
        name = NAMES[idx]
        stack, child_s = self._stack, self._child_s
        perf = time.perf_counter
        in_transitions = name == "spectrum.magic_transitions"
        is_label = name == "spectrum.ground_state_at"
        is_roots = name == "numerics.bracket_roots"
        writes = name in self.bytes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_roots:
                args = (self._counting(args[0]),) + args[1:]
            span = len(self.start)
            self.name.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.trace.append(self.trace_id)
            self.end.append(0.0)
            stack.append(span)
            child_s.append(0.0)
            if in_transitions:
                self._in_transitions += 1
            elif is_label and self._in_transitions:
                self.labels_in_transitions += 1
            t0 = perf()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[idx] += 1
                raise
            finally:
                t1 = perf()
                self.end[span] = t1
                stack.pop()
                dur = t1 - t0
                self.self_s[idx] += dur - child_s.pop()
                if child_s:
                    child_s[-1] += dur
                self.calls[idx] += 1
                if in_transitions:
                    self._in_transitions -= 1
            if in_transitions:
                self.transitions_found += len(result)
            elif is_roots:
                self.roots_found += len(result)
            elif writes:
                self.bytes[name] += Path(result).stat().st_size
            return result

        return wrapper

    def _counting(self, f):
        def counted(x):
            self.root_evals += 1
            return f(x)
        return counted

    # -- patching ---------------------------------------------------------
    def install(self):
        """Replace each wrapped function at every dotnmr.* binding."""
        import dotnmr  # noqa: F401  (makes sure every submodule is loaded)

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "dotnmr" or k.startswith("dotnmr."))]
        for idx, (mod, fn) in enumerate(WRAPPED):
            original = getattr(sys.modules[f"dotnmr.{mod}"], fn)
            self._originals[NAMES[idx]] = original
            wrapper = self._wrap(idx, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def original(self, name: str):
        return self._originals[name]

    # -- results ----------------------------------------------------------
    def top_level_s(self) -> float:
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        top = parent == -1
        return float(np.sum(end[top] - start[top]))

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.self_s"] = (self.self_s[i], "s")
            out[f"{name}.errors"] = (self.errors[i], "count")
        out["spectrum.magic_transitions.labels_per_transition"] = (
            self.labels_in_transitions / max(self.transitions_found, 1), "ratio")
        out["numerics.bracket_roots.evals_per_root"] = (
            self.root_evals / max(self.roots_found, 1), "ratio")
        for name, n in self.bytes.items():
            out[f"{name}.bytes"] = (n, "bytes")
        return out

    def write(self, path: Path):
        """Write every recorded span (compressed numpy archive)."""
        np.savez_compressed(
            path, names=np.array(NAMES), name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trace=np.frombuffer(self.trace, dtype=np.int32))

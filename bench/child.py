"""One workload step in a fresh interpreter; started by run.py, not by hand.

--generate writes the seed's input files; --setup-only times set-up alone;
otherwise the child times set-up, then runs and checks the closed loop.
Set-up time is the program's own start: ``import dotnmr`` (numpy included)
plus dotnmr loading the workload's inputs.  Input generation and the oracle
data are built outside that window.  Prints one JSON object on its last
stdout line.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import warnings
from pathlib import Path


def measure(wl, seconds: float | None, n_ops: int | None = None, tracer=None,
            first: int = 0) -> dict:
    """Closed loop, one client: next operation starts when the last is checked.

    Runs operations first, first+1, ...: n_ops of them, or as many as fit in
    `seconds` (at least one).  Op times exclude the oracle check, which runs
    between operations.
    """
    samples: dict[str, list] = {}
    op_t0, op_s, problems = [], [], []
    work = failed = 0
    start = time.perf_counter()
    i = first
    while ((i - first < n_ops) if n_ops is not None
           else (i == first or time.perf_counter() - start < seconds)):
        if tracer is not None:
            tracer.trace_id = i
        t0 = time.perf_counter()
        op_t0.append(t0)
        try:
            out = wl.run(i, samples)
        except Exception as exc:  # a failed operation is counted, not fatal
            out, bad = None, [f"operation {i} raised {type(exc).__name__}: {exc}"]
        op_s.append(time.perf_counter() - t0)
        if out is not None:
            work += out["work"]
            try:
                bad = wl.check(i, out)
            except Exception as exc:
                bad = [f"check of operation {i} raised {type(exc).__name__}: {exc}"]
        if bad:
            failed += 1
            problems.extend(bad[:3])
        i += 1
    return {"ops": i - first, "failed": failed, "work": work, "op_t0": op_t0, "op_s": op_s,
            "samples": samples, "problems": problems[:20]}


def merged(results: list[dict]) -> dict:
    out = {"ops": 0, "failed": 0, "work": 0, "op_t0": [], "op_s": [], "samples": {},
           "problems": []}
    for r in results:
        for k in ("ops", "failed", "work", "op_t0", "op_s", "problems"):
            out[k] += r[k]
        for kind, values in r["samples"].items():
            out["samples"].setdefault(kind, []).extend(values)
    out["problems"] = out["problems"][:20]
    return out


def load_inputs(workload: str, in_dir: Path) -> list:
    """dotnmr loading the workload's inputs: each device file, or the default config."""
    import dotnmr
    from dotnmr import output

    if workload == "device-scan":
        return [output.load_config(p) for p in sorted(in_dir.glob("device*.json"))]
    return [dotnmr.validate_config(dotnmr.DotConfig())]


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--trace-file", type=Path)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--generate", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    warnings.simplefilter("error")   # any package warning fails the operation

    if args.generate:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, args.work_dir).write_inputs()
        print(json.dumps({}))
        return 0

    t0 = time.perf_counter()
    loaded = load_inputs(args.workload, args.work_dir / "inputs")
    setup_s = time.perf_counter() - t0
    import probe

    setup = {"setup_s": setup_s, "setup_ref": setup_s / probe.loop_time()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    input_problems = wl.check_inputs(loaded)
    if not args.trace:
        with probe.SpeedProbe() as speed:
            result = measure(wl, args.seconds)
        result["op_ref"] = [speed.ref_units(t, d) for t, d in zip(result["op_t0"], result["op_s"])]
        result["probe_ticks"] = len(speed.took)
    else:
        from tracer import Tracer

        # each operation runs untraced and then traced, back to back, so the
        # machine's slow speed drift cancels out of the tracing overhead
        tracer = Tracer()
        plain, result = [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            i = len(plain)
            plain.append(measure(wl, None, n_ops=1, first=i))
            tracer.install()
            try:
                result.append(measure(wl, None, n_ops=1, first=i, tracer=tracer))
            finally:
                tracer.uninstall()
        plain, result = merged(plain), merged(result)
        traced_s, plain_s = sum(result["op_s"]), sum(plain["op_s"])
        layer = {k: list(v) for k, v in tracer.metrics().items()}
        eig, eig_problems = workloads.eig_layer(tracer.original("numerics.hermitian_eig"),
                                                args.seed)
        layer.update({k: [v, "us"] for k, v in eig.items()})
        layer["trace.overhead_s"] = [traced_s - plain_s, "s"]
        layer["trace.overhead_share"] = [(traced_s - plain_s) / plain_s, "ratio"]
        layer["trace.top_span_cover"] = [tracer.top_level_s() / traced_s, "ratio"]
        layer["trace.spans"] = [len(tracer.start), "count"]
        result["layer"] = layer
        result["ops"] += plain["ops"] + 1
        result["failed"] += plain["failed"] + bool(eig_problems)
        result["problems"] = (plain["problems"] + result["problems"] + eig_problems)[:20]
        if args.trace_file is not None:
            tracer.write(args.trace_file)

    if input_problems:   # the program loaded its inputs wrong: one more failed operation
        result["ops"] += 1
        result["failed"] += 1
        result["problems"] = (input_problems + result["problems"])[:20]
    result.update(setup)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["work_unit"] = wl.work_unit
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

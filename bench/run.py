"""dotnmr benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload sweep-dense --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, in sequence

Run from the root of a source checkout; the package is imported from src/.
Each run starts fresh single-threaded interpreters (BLAS/OpenMP thread
variables set to 1): one that writes the seed's input files, several that
only set up (import dotnmr and load those inputs), for the median set-up
time, and one that sets up and then runs a closed loop with one client for
--seconds, checking every output against the oracle in oracle.py.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json: setup_s,
peak_rss_mb and work_per_ref.  The two timings are taken in units of a
fixed reference loop that probe.py times all through the run, so the host's
speed drift cancels out of them: work_per_ref is the work done per loop time,
and setup_s is set-up time in loop units times probe.REF_LOOP_S.  The plain
wall-clock figures and the per-kind metrics follow, not adjusted.  --trace 1
runs the operations once plain and once with every public dotnmr function
wrapped, and prints the per-layer metrics.  Human-readable lines come first;
the last stdout line is one JSON object with keys correct, attempted, failed
and metrics.  Spans go to .bench_out/trace-<workload>.npz and the full result
to .bench_out/result-<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from probe import REF_LOOP_S

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep-dense", "device-scan", "spin-gates")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 10   # set-up-only interpreters per run, plus the measuring one

# Per-operation-kind metrics of each workload: (name, sample kind, statistic).
# A rate of kind None is the workload's work rate; evolve is rated per step.
NAMED = {
    "sweep-dense": [("sweep_rows_per_s", None, "rate")],
    "device-scan": [("device_configs_per_s", None, "rate"),
                    ("transitions_ms_p50", "transitions", 50),
                    ("transitions_ms_p90", "transitions", 90),
                    ("nmr_query_ms_p50", "nmr_query", 50),
                    ("nmr_query_ms_p90", "nmr_query", 90),
                    ("short_sweep_ms_p50", "short_sweep", 50),
                    ("short_sweep_ms_p90", "short_sweep", 90)],
    "spin-gates": [("nmr_numeric_per_s", "nmr_numeric", "rate"),
                   ("evolve_steps_per_s", "evolve", "rate"),
                   ("cnot_ms_p50", "cnot", 50),
                   ("cnot_ms_p90", "cnot", 90)],
}


class BenchError(Exception):
    pass


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def run_child(args: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def named_metrics(workload: str, res: dict) -> list[tuple[str, float, str, int]]:
    """(name, value, unit, sample count) of the workload's per-kind metrics."""
    samples, rows = res["samples"], []
    for name, kind, stat in NAMED[workload]:
        if stat == "rate" and kind is None:
            rows.append((name, res["work"] / sum(res["op_s"]), "1/s", res["ops"]))
        elif stat == "rate":
            n = sum(samples["evolve_steps"]) if kind == "evolve" else len(samples[kind])
            rows.append((name, n / sum(samples[kind]), "1/s", len(samples[kind])))
        else:
            rows.append((name, 1e3 * percentile(samples[kind], stat), "ms", len(samples[kind])))
    return rows


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    run_dir = OUT / f"{workload}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--work-dir", str(run_dir)]
    try:
        run_child(common + ["--generate"], timeout=120)
        setups = [run_child(common + ["--setup-only"], timeout=60)
                  for _ in range(SETUP_REPEATS)]
        res = run_child(common + ["--trace", str(trace),
                                  "--trace-file", str(OUT / f"trace-{workload}.npz")],
                        timeout=3 * seconds + 120)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setups.append({k: res[k] for k in ("setup_s", "setup_ref")})
    setup_wall = statistics.median(s["setup_s"] for s in setups)
    setup_ref = statistics.median(s["setup_ref"] for s in setups)

    print(f"workload={workload} seed={seed} seconds={seconds:g} trace={trace} "
          f"loop=closed clients=1 ops={res['ops']}")
    env = res["env"]
    print(f"  env: python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    failed_ratio = res["failed"] / res["ops"]
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layer"].items()}
        for k, m in metrics.items():
            print(f"  {k:<52} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            "setup_s": {"value": setup_ref * REF_LOOP_S, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "work_per_ref": {"value": res["work"] / sum(res["op_ref"]), "unit": "1/ref"},
        }
        counts = {"setup_s": len(setups), "peak_rss_mb": 1, "work_per_ref": res["ops"]}
        print(f"  work unit: {res['work_unit']} ({res['work']} done); "
              f"ref: reference-loop time, {res['probe_ticks']} probe ticks")
        for k, m in metrics.items():
            print(f"  {k:<24} {m['value']:12.6g} {m['unit']:<5} n={counts[k]}")
        print(f"  {'work_per_s':<24} {res['work'] / sum(res['op_s']):12.6g} 1/s   "
              f"n={res['ops']} (wall clock, not adjusted for host speed)")
        print(f"  {'setup_wall_s':<24} {setup_wall:12.6g} s     "
              f"n={len(setups)} (wall clock, not adjusted for host speed)")
        for name, value, unit, n in named_metrics(workload, res):
            print(f"  {name:<24} {value:12.6g} {unit:<5} n={n}")
    print(f"  {'failed_ops_ratio':<24} {failed_ratio:12.6g}      "
          f"({res['failed']}/{res['ops']})")
    for problem in res["problems"]:
        print(f"  FAILED: {problem}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "setup_samples": setups, "metrics": metrics,
              "failed": res["failed"], "attempted": res["ops"], "problems": res["problems"]}
    (OUT / f"result-{workload}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return {"correct": res["failed"] == 0, "attempted": res["ops"], "failed": res["failed"],
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "dotnmr" / "__init__.py").is_file():
        print(f"no dotnmr sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""otcforecast benchmark: one workload per call, metrics as one JSON line.

    python3 perfbench/run.py --workload c7_pprz --seed 0 --seconds 40 --trace 0

Each workload runs as a closed loop with one client: one Python process
that does its phases one after another.  This script pins the BLAS thread
count in that process's environment, starts it with the checkout's ``src``
on ``PYTHONPATH``, and turns what it wrote into metrics.  ``--workload all``
runs the three workloads one after another.

``--trace 0`` repeats the workload ``--seconds // 5`` times (at least
twice) in one process and prints the end-to-end metrics.  Each is timed
at the machine's nominal speed (see ``speed.py``) and taken as a median
over the repetitions; set-up time is the median of several process starts
that stop once the model is built.  ``--trace 1`` runs one repetition
untraced and one traced, checks that both produced bit-identical outputs,
and prints the per-layer metrics and the tracing overhead.  The last line
of standard output is always the JSON result; results with the
environment they ran in are kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import at_nominal_speed, reference

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("c7_pprz", "desk_lstm", "compare_cluster")
BLAS_THREADS = 1  # measured on desk_lstm: 1 thread trains faster than 2
SETUP_STARTS = 11  # set-up-only starts; setup_s is the median of these
REP_SECONDS = 5  # about one repetition of a workload on a 2-core x86 box
DEADLINE_S = 170.0  # a single-workload run must end within 180 s


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> tuple[dict, int]:
    threads = min(BLAS_THREADS, nproc())
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env, threads


class Failed(Exception):
    """A workload process ended without writing its result."""


def start_child(args, workload: str, trace: int, deadline: float, setup_only: bool = False,
                index: int = 0) -> tuple[float, dict]:
    """Run workload.py once; return the monotonic start time and its result."""
    workdir = ROOT / ".perfbench" / "work" / f"{workload}-trace{trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / (f"setup{index}.json" if setup_only else "result.json")
    out.unlink(missing_ok=True)
    reps = 1 if args.trace else max(2, args.seconds // REP_SECONDS)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(args.seed), "--reps", str(reps), "--trace", str(trace),
           "--workdir", str(workdir), "--out", str(out)]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    env, _ = child_env()
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise Failed(f"{workload} did not finish in time") from exc
    if proc.returncode != 0 or not out.exists():
        raise Failed(f"{workload} exited with code {proc.returncode} and no result")
    result = json.loads(out.read_text())
    package = ROOT / "src" / "otcforecast" / "__init__.py"
    if "package" in result and Path(result["package"]) != package:
        raise Failed(f"{workload} imported {result['package']}, not {package}")
    return started, result


def operations(result: dict) -> tuple[int, int]:
    """(attempted, failed): training units, forecast windows and output checks."""
    probes = [rep["probe"] for rep in result["reps"]]
    checks = result["checks"]
    attempted = sum(p["units"] + p["windows"] for p in probes) + len(checks)
    failed = (sum(p["failed_units"] + p["nonfinite_windows"] for p in probes)
              + sum(not ok for _, ok in checks))
    if result["error"]:
        attempted += 1
        failed += 1
    return attempted, failed


def end_to_end(result: dict, setup_s: float) -> dict[str, tuple[float, str]]:
    probe = result["reps"][0]["probe"]
    nominal = result["nominal"]
    return {
        "setup_s": (setup_s, "s"),
        "train_samples_per_s": (probe["trained_samples"] / nominal["train_s"], "samples/s"),
        "forecast_windows_per_s": (probe["windows"] / nominal["evaluate_s"], "windows/s"),
        "wall_s": (nominal["wall_s"], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def run_workload(args, workload: str, deadline: float) -> dict:
    """Measure one workload; return metrics, operation counts and the record kept."""
    _, plain = start_child(args, workload, 0, deadline)
    attempted, failed = operations(plain)
    record = {"workload": workload, "untraced": plain}
    if args.trace:
        _, traced = start_child(args, workload, 1, deadline)
        more_attempted, more_failed = operations(traced)
        identical = traced["digest"] == plain["digest"]
        if not identical:
            print(f"{workload}: traced outputs differ from untraced outputs", file=sys.stderr)
        attempted += more_attempted + 1
        failed += more_failed + (not identical)
        metrics = {name: tuple(v) for name, v in traced["layers"].items()}
        metrics["tracing_overhead_s"] = (
            traced["reps"][0]["wall_s"] - plain["reps"][0]["wall_s"], "s")
        record["traced"] = traced
    else:
        setups = []  # (seconds, reference seconds around the start)
        for i in range(SETUP_STARTS):
            before = reference()
            began, res = start_child(args, workload, 0, deadline, setup_only=True, index=i)
            setups.append((res["ready"] - began, (before + reference()) / 2))
        metrics = end_to_end(plain, statistics.median(at_nominal_speed(*setup) for setup in setups))
        record["setup_s"] = setups
    record["metrics"] = metrics
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "record": record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="otcforecast benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few seconds (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "otcforecast" / "__init__.py").is_file():
        print(f"run.py: no otcforecast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    _, threads = child_env()
    env = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
           "nproc": nproc(), "blas_threads": threads}
    results = {}
    for name in names:
        try:
            results[name] = res = run_workload(args, name, deadline)
        except Failed as exc:  # the other workloads still run
            print(f"run.py: {exc}", file=sys.stderr)
            continue
        env.update(res["record"]["untraced"]["env"])
        save_record(args, name, env, res)
    if len(results) < len(names):
        return 1

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for name, res in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in res["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for name, res in results.items():
        plain = res["record"]["untraced"]
        first = plain["reps"][0]
        walls = [rep["wall_s"] for rep in plain["reps"]]
        print(f"{name}: digest {plain['digest'][:16]} f1 {first['outputs'].get('f1', '-')} "
              f"final_loss {first['probe']['final_loss']:.6g} "
              f"prep_s {first['phases'].get('prep', float('nan')):.4g} "
              f"reps {len(walls)} median_rep_wall_s {statistics.median(walls):.4g} "
              f"error_rate {res['failed'] / res['attempted']:.4g} "
              f"({res['failed']}/{res['attempted']})")
    for metric, m in metrics.items():
        print(f"  {metric:<52} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def save_record(args, workload: str, env: dict, res: dict) -> None:
    path = ROOT / ".perfbench" / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "attempted": res["attempted"], "failed": res["failed"], **res["record"]}
    path.write_text(json.dumps(record, indent=1))


if __name__ == "__main__":
    raise SystemExit(main())

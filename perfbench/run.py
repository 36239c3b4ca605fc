"""sparsecontrol benchmark: time to a KKT-accurate `solve` or `sweep`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
``--workload all`` runs every workload in turn.

Each workload runs in fresh single-process workers (worker.py) with the BLAS
thread pools pinned to 1: one client, one op at a time.  With ``--trace 0``
three workers each set up once (``setup_s`` is the median of the three) and
the last one times ops for ``--seconds``; the result carries the end-to-end
metrics.  ``op_s`` and ``setup_s`` are wall times scaled by the worker's
reference kernel to a machine of fixed speed (see worker.py); the unscaled
wall times are printed beside them.  With ``--trace 1`` one worker
alternates untraced and traced ops and the result carries the per-layer
metrics of spans.py.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import yaml

from spans import PER_LAYER
from worker import REF_S
from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 3
TIME_LIMIT_S = 170.0
WORKER_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class WorkerError(RuntimeError):
    """A worker process died, timed out or broke the protocol."""


def run_worker(argv: list, deadline: float) -> tuple[float, dict]:
    """Start a worker; return (seconds until it was ready, its result)."""
    env = dict(os.environ, PYTHONHASHSEED="0", **WORKER_ENV)
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode} "
                          f"(first line {first.strip()!r})")
    return ready - start, json.loads(lines[-1])


def run_workload(name: str, command: str, config: dict, seconds: float,
                 trace: bool) -> dict:
    """Run one workload; return the result object run.py prints."""
    workdir = WORK / f"{name}-{os.getpid()}"
    config_path = workdir / "config.yaml"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = perf_counter() + TIME_LIMIT_S
    setups, scaled_setups, results = [], [], []
    try:
        config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        n_workers = 1 if trace else SETUPS
        for k in range(n_workers):
            mode = ("setup" if k < n_workers - 1
                    else "trace" if trace else "measure")
            setup_s, result = run_worker(
                ["--src", str(SRC), "--command", command,
                 "--config", str(config_path), "--out", str(workdir / "out"),
                 "--seconds", str(seconds), "--mode", mode], deadline)
            setups.append(setup_s)
            scaled_setups.append(
                setup_s * REF_S / result["setup_calibration_s"])
            results.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in results for f in r["failures"]]
    for failure in failures:
        print(f"{name}: failed op: {failure}", file=sys.stderr)
    agree = len({r["digest"] for r in results}) == 1
    if not agree:
        print(f"{name}: workers wrote different outputs", file=sys.stderr)
    last = results[-1]
    if trace:
        for absent in last["absent"]:
            print(f"{name}: {absent} is absent; its metrics read 0",
                  file=sys.stderr)
        values = dict(last["layers"])
        values["trace.overhead_frac"] = (
            statistics.median(last["scaled_traced_op_s"])
            / statistics.median(last["scaled_op_s"]) - 1.0)
        units = {metric: unit for metric, unit, _ in PER_LAYER}
    else:
        values = {"op_s": statistics.median(last["scaled_op_s"]),
                  "setup_s": statistics.median(scaled_setups),
                  "peak_rss_mb": last["peak_rss_kb"] / 1024.0}
        units = dict(END_TO_END)
    return {
        "correct": not failures and agree,
        "attempted": sum(r["attempted"] for r in results),
        "failed": len(failures),
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
        "samples": {"op_s": len(last["op_s"]), "setup_s": len(setups),
                    "traced_op_s": len(last["traced_op_s"])},
        "wall": {"op_s": statistics.median(last["op_s"]),
                 "setup_s": statistics.median(setups),
                 "calibration_s": statistics.median(last["calibration_s"])},
    }


def summary_lines(name: str, result: dict) -> list:
    lines = []
    for metric, entry in result["metrics"].items():
        note = ""
        if metric in ("op_s", "setup_s"):
            note = (f" (median of {result['samples'][metric]}; unscaled wall "
                    f"{result['wall'][metric]:.6g} s)")
        elif metric == "trace.overhead_frac":
            note = (f" (traced over untraced ops, "
                    f"{result['samples']['traced_op_s']} vs "
                    f"{result['samples']['op_s']})")
        lines.append(f"{name}  {metric} = {entry['value']:.6g} "
                     f"{entry['unit']}{note}")
    lines.append(f"{name}  reference kernel = "
                 f"{result['wall']['calibration_s']:.6g} s "
                 f"(median; scaled times assume {REF_S:g} s)")
    lines.append(f"{name}  fail_frac = "
                 f"{result['failed'] / result['attempted']:.6g} "
                 f"({result['failed']} of {result['attempted']} ops)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sparsecontrol" / "__init__.py").is_file():
        print(f"error: no sparsecontrol package under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result = run_workload(name, WORKLOADS[name]["command"],
                                  make_config(name, args.seed), args.seconds,
                                  bool(args.trace))
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(summary_lines(name, result)), flush=True)
        results[name] = {k: v for k, v in result.items()
                         if k not in ("samples", "wall")}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

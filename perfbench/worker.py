"""One benchmark worker process.

Sets up (imports sparsecontrol from the given source tree, loads and
validates the config, runs one untimed warm-up op), prints ``ready``, then
runs ops in a closed loop, one at a time, for about ``--seconds``.  An op is
one in-process ``sparsecontrol.cli.main([command, "--config", ..., "--out",
...])`` call, timed from call to return; its outputs are checked after the
clock stops.  The last line on stdout is a JSON result for run.py.

Modes: ``setup`` stops after the warm-up op, ``measure`` times untraced
ops, ``trace`` alternates untraced and traced ops.

The machine is shared, and its speed drifts by 20-40% over minutes, the same
for every program on it.  So each op is bracketed by a fixed reference kernel
(``calibrate``), and every op time is also reported scaled to a machine on
which that kernel takes ``REF_S``: op wall time x REF_S / the mean of the
kernel's times just before and just after the op.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import OP_SPAN, Tracer, layer_metrics
from workloads import GATES

MIN_OPS = {"setup": 0, "measure": 3, "trace": 4}
# the median wall time of calibrate() on the 2-vCPU machine the benchmark
# was tuned on; it only sets the scale of the scaled times
REF_S = 0.145
SETUP_CALIBRATIONS = 3


@functools.cache
def _calibration_inputs():
    # imported here, not at the top, so that set-up time still includes the
    # package's own numpy and scipy imports
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    n = 40
    d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    matrix = (sp.kron(eye, d) + sp.kron(d, eye) + sp.identity(n * n)).tocsc()
    return (np, splu, matrix, np.ones(n * n),
            np.random.default_rng(0).random(400_000))


def calibrate() -> float:
    """Wall seconds of a fixed kernel shaped like the program's work: an
    interpreter loop, sparse LU factorizations and solves, and array sorts."""
    np, splu, matrix, rhs, values = _calibration_inputs()
    start = perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i % 7
    for _ in range(20):
        splu(matrix).solve(rhs)
    for _ in range(3):
        np.sort(values)
    return perf_counter() - start


class OpRunner:
    """Runs one op and checks its outputs against the gate and the first op."""

    def __init__(self, cli_main, command: str, config: Path, out: Path):
        self.cli_main = cli_main
        self.argv = [command, "--config", str(config), "--out", str(out)]
        self.out = out
        self.gate_file, self.gate = GATES[command]
        self.reference = None

    def run(self, tracer: Tracer | None = None) -> tuple[float, object]:
        """(wall seconds, the exit code or the exception the op raised)."""
        for path in self.out.iterdir():
            path.unlink()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                if tracer is None:
                    code = self.cli_main(self.argv)
                else:
                    code = tracer.call(OP_SPAN, self.cli_main, (self.argv,))
        except (Exception, SystemExit) as exc:
            traceback.print_exc()
            return perf_counter() - start, exc
        return perf_counter() - start, code

    def check(self, outcome) -> str | None:
        """None when the last op's outputs pass, else the reason it failed."""
        if isinstance(outcome, BaseException):
            return f"raised {type(outcome).__name__}: {outcome}"
        gate_path = self.out / self.gate_file
        if not gate_path.is_file():
            return f"exit code {outcome}, no {self.gate_file}"
        try:
            reason = self.gate(outcome,
                               json.loads(gate_path.read_text("utf-8")))
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed {self.gate_file}: {exc!r}"
        if reason is not None:
            return reason
        digest = hashlib.sha256()
        for path in sorted(self.out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        if self.reference is None:
            self.reference = digest.hexdigest()
        elif digest.hexdigest() != self.reference:
            return "outputs differ from the first op's"
        return None


def run_ops(runner: OpRunner, mode: str, seconds: float) -> dict:
    """Closed loop: start another op while one more fits in the budget."""
    plain, traced, layers, failures = [], [], [], []
    scaled = {"op_s": [], "traced_op_s": []}
    tracer = Tracer()
    start = perf_counter()
    calibrations = [calibrate()]
    while True:
        done = plain + traced
        if len(done) >= MIN_OPS[mode] and (
                not done
                or perf_counter() - start + statistics.median(done)
                + calibrations[-1] > seconds):
            break
        is_traced = mode == "trace" and len(done) % 2 == 1
        if is_traced:
            tracer.spans = []
            tracer.install()
            try:
                elapsed, outcome = runner.run(tracer)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            layers.append(layer_metrics(tracer.spans))
        else:
            elapsed, outcome = runner.run()
            plain.append(elapsed)
        calibrations.append(calibrate())
        scaled["traced_op_s" if is_traced else "op_s"].append(
            elapsed * REF_S * 2.0 / (calibrations[-2] + calibrations[-1]))
        reason = runner.check(outcome)
        if reason is not None:
            failures.append(reason)
    result = {"op_s": plain, "traced_op_s": traced, "failures": failures,
              "scaled_op_s": scaled["op_s"],
              "scaled_traced_op_s": scaled["traced_op_s"],
              "calibration_s": calibrations,
              "attempted": len(plain) + len(traced),
              "absent": tracer.absent}
    if layers:
        result["layers"] = {
            key: (statistics.median_low if isinstance(value, int)
                  else statistics.median)([m[key] for m in layers])
            for key, value in layers[0].items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--command", required=True, choices=sorted(GATES))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--mode", required=True, choices=sorted(MIN_OPS))
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import sparsecontrol
    from sparsecontrol import cli
    from sparsecontrol.runconfig import load_config
    if src not in Path(sparsecontrol.__file__).resolve().parents:
        print(f"error: imported {sparsecontrol.__file__}, not the package "
              f"under {src}", file=sys.stderr)
        return 1
    load_config(args.config)
    args.out.mkdir(parents=True, exist_ok=True)
    runner = OpRunner(cli.main, args.command, args.config, args.out)
    _, outcome = runner.run()
    print("ready", flush=True)
    warmup_failure = runner.check(outcome)
    setup_calibration = statistics.median(
        calibrate() for _ in range(SETUP_CALIBRATIONS))

    result = run_ops(runner, args.mode, args.seconds)
    if warmup_failure is not None:
        result["failures"].insert(0, "warm-up op: " + warmup_failure)
    result["attempted"] += 1
    result["digest"] = runner.reference
    result["setup_calibration_s"] = setup_calibration
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the radialorbit package; run from the root of a checkout.

    python3 perfbench/run.py --workload dense_orbit --seed 1 --seconds 20 --trace 0

Builds the workload's ops from the seed, runs them once and checks every
output against the mpmath reference (untimed), then repeats whole passes
over the ops until ``--seconds`` have elapsed.  With ``--trace 0`` the
last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced, and the line
holds the per-layer metrics instead.  Everything runs in this one
single-threaded process, apart from the fresh interpreters that time the
package import.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import statistics
import subprocess
import sys
import time

import tracing

SRC = os.path.join(os.getcwd(), "src")
SETUP_RUNS = 15
SETUP_CODE = ("import time; t = time.perf_counter(); import radialorbit, radialorbit.cli; "
              "print(repr(time.perf_counter() - t))")

ERROR_KINDS = ("DegenerateLatticeError", "InfeasibleStateError", "NoPericenterError",
               "PoleProximityError", "WpInverseError", "ConvergenceError",
               "QuadraticDegeneracyError", "OutOfIntervalError", "RadialOrbitError")
WRONG = "WrongAnswer"   # returned normally, but outside the accuracy tolerance
OTHER = "other"


def measure_setup() -> float:
    """Median import time of radialorbit and radialorbit.cli in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# The machine is shared and its speed drifts by up to ~20 % between runs.
# A fixed pure-Python kernel, timed every CAL_EVERY seconds between ops,
# tracks that drift; op latencies are rescaled to the speed at which the
# kernel takes CAL_NOMINAL seconds (the median of the last CAL_WINDOW
# timings stands for the current speed).
CAL_EVERY = 0.05
CAL_WINDOW = 5
CAL_NOMINAL = 1e-3


def calibrate() -> float:
    """Wall time of the calibration kernel (complex arithmetic, calls, math)."""
    t = time.perf_counter()
    z, acc = 0.3 + 0.1j, 0j
    for k in range(2000):
        z = z * (0.999 + 0.001j) + 1e-4
        acc += cmath.exp(-z) / (z + 1.0) + math.sqrt(k + 1.0)
    return time.perf_counter() - t


def failure_kind(name: str) -> str:
    return name if name in ERROR_KINDS else OTHER


def raised_kind(exc: Exception) -> str:
    """Failure kind of an exception; CLI failures carry the error's name."""
    return failure_kind(getattr(exc, "kind", type(exc).__name__))


def layer_unit(name: str) -> str:
    if name.endswith(".self_us"):
        return "us"
    if name.startswith("ops.fails."):
        return "1"
    if name.endswith(".calls") or ".fails." in name:
        return "count/op"
    if name.endswith("_abs_max"):
        return "rad"
    if name.startswith("trace.absent") or name == "check.outputs_checked":
        return "count"
    if name.endswith("_per_inversion") or name.endswith("_per_theta") or name.endswith("_solve"):
        return "count/call"
    return "1"


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Runner:
    """One workload: the untimed checked pass, then timed or traced passes."""

    def __init__(self, workload, accuracy):
        self.wl = workload
        self.ops = workload.ops
        self.acc = accuracy
        self.outputs: list = []
        self.status: list[str | None] = []     # None = ok, else failure kind
        self.problems: list[str] = []           # reasons the run is incorrect
        self.cal = [calibrate() for _ in range(CAL_WINDOW)]
        self.last_cal = time.perf_counter()

    def first_pass(self) -> None:
        for op in self.ops:
            try:
                self.outputs.append(self.wl.run(op))
                self.status.append(None)
            except Exception as exc:            # a failed op is data, not a crash
                self.outputs.append(None)
                self.status.append(raised_kind(exc))
        self.raised = list(self.status)
        for i, op in enumerate(self.ops):
            if self.status[i] is None:
                try:
                    within = self.wl.check(op, self.outputs[i], self.acc)
                except (KeyError, ValueError, TypeError, IndexError) as exc:
                    self.problems.append(f"{op.label}: unreadable output ({exc!r})")
                    continue
                if not within:
                    self.status[i] = WRONG
            if op.anchor and self.status[i] is not None:
                self.problems.append(f"anchor {op.label}: {self.status[i]}")

    def timed_pass(self, latencies: list[list[float]] | None) -> float:
        """Run every op once, adding its rescaled latency to its list; returns the wall time."""
        clock = time.perf_counter
        run = self.wl.run
        t_pass = clock()
        for i, op in enumerate(self.ops):
            if clock() - self.last_cal >= CAL_EVERY:
                self.cal.append(calibrate())
                self.last_cal = clock()
            t0 = clock()
            try:
                out, kind = run(op), None
            except Exception as exc:
                out, kind = None, raised_kind(exc)
            t1 = clock()
            if kind != self.raised[i] or (kind is None and out != self.outputs[i]):
                self.problems.append(f"{op.label}: output changed between passes")
            if latencies is not None:
                speed = CAL_NOMINAL / statistics.median(self.cal[-CAL_WINDOW:])
                latencies[i].append((t1 - t0) * speed)
        return clock() - t_pass

    def histogram(self) -> dict:
        kinds = ERROR_KINDS + (WRONG, OTHER)
        n = len(self.ops)
        return {k: sum(1 for s in self.status if s == k) / n for k in kinds}


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> dict:
    """Whole passes until ``seconds`` elapse; medians make the figures robust.

    An op's latency is the median over its repeats, each rescaled by the
    calibration; p50 and the tail are taken over the successful ops.
    Throughput is successful ops over the sum of all ops' latencies, i.e.
    per pass of median-latency ops.
    """
    latencies: list[list[float]] = [[] for _ in runner.ops]
    pass_times = []
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        pass_times.append(runner.timed_pass(latencies))
    op_median = [statistics.median(times) for times in latencies]
    ok = [i for i, s in enumerate(runner.status) if s is None]
    op_latency = sorted(op_median[i] for i in ok)
    tail = runner.wl.tail_pct
    if len(op_latency) * (100 - tail) / 100 < 10:
        print(f"perfbench: only {len(op_latency)} ok ops, fewer than 10 beyond p{tail}",
              file=sys.stderr)
    acc = runner.acc.anchor
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ok) / sum(op_median), "1/s"),
        "op_p50_ms": (1e3 * percentile(op_latency, 50) if ok else math.inf, "ms"),
        "op_tail_ms": (1e3 * percentile(op_latency, tail) if ok else math.inf, "ms"),
        "ok_share": (len(ok) / len(runner.ops), "1"),
        "err_r_rel_max": (acc["r"], "1"),
        "err_theta_abs_max": (acc["theta"], "rad"),
        "err_time_rel_max": (acc["time"], "1"),
    }
    print(f"perfbench: {len(pass_times)} passes of {len(runner.ops)} ops in "
          f"{sum(pass_times):.2f} s; {len(ok)} ok ops; tail = p{tail}; calibration median "
          f"{statistics.median(runner.cal) * 1e3:.3f} ms over {len(runner.cal)}", file=sys.stderr)
    return metrics


def per_layer(runner: Runner, seconds: float, kernel_errors) -> dict:
    """Alternate untraced and traced passes; per-layer numbers from the traced ones."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.timed_pass(None))
        tracer.install()
        try:
            traced.append(runner.timed_pass(None))
        finally:
            tracer.uninstall()
    n_ops = len(traced) * len(runner.ops)
    values = tracer.summary(n_ops)
    for kind in ERROR_KINDS + (OTHER,):
        count = sum(v for k, v in tracer.fails.items() if failure_kind(k) == kind)
        values[f"{tracing.FAIL_LAYER}.fails.{kind}"] = count / n_ops
    for kind, share in runner.histogram().items():
        values[f"ops.fails.{kind}"] = share
    states = [op.state for op in runner.ops if op.anchor]
    errors, missing = kernel_errors(states)
    for name, value in errors.items():
        values[f"weierstrass.{name}"] = value
    seeded = runner.acc.seeded
    values["check.seeded_err_r_rel_max"] = seeded["r"]
    values["check.seeded_err_theta_abs_max"] = seeded["theta"]
    values["check.seeded_err_time_rel_max"] = seeded["time"]
    values["check.outputs_checked"] = runner.acc.checked
    values["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    values["trace.absent"] = len(tracer.absent) + missing
    if tracer.absent:
        print(f"perfbench: absent layers {tracer.absent}", file=sys.stderr)
    print(f"perfbench: {len(plain)} untraced and {len(traced)} traced passes; "
          f"{len(tracer.start)} spans", file=sys.stderr)
    return {k: (v, layer_unit(k)) for k, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "radialorbit", "__init__.py")):
        print("perfbench: run from a checkout root; src/radialorbit is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    setup_s = measure_setup()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(wl, workloads.Accuracy())
    runner.first_pass()
    hist = {k: v for k, v in runner.histogram().items() if v}
    print(f"perfbench: {len(wl.ops)} ops; failure shares {hist}; "
          f"anchor errors {runner.acc.anchor}; seeded errors {runner.acc.seeded}",
          file=sys.stderr)

    if args.trace:
        metrics = per_layer(runner, args.seconds, workloads.kernel_errors)
    else:
        metrics = end_to_end(runner, args.seconds, setup_s)
    # Counted over the seed's distinct ops, not over the timed repeats: every
    # repeat of an op must fail or succeed as its first run did (timed_pass
    # checks that), so these counts depend on the seed only, not on the speed.
    attempted, failed = len(runner.ops), sum(1 for s in runner.status if s is not None)
    for problem in runner.problems[:20]:
        print(f"perfbench: INCORRECT {problem}", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

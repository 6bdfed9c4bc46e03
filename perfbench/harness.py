"""Workload process: runs one workload closed-loop and prints a JSON result.

Started by ``run.py`` in a fresh interpreter with BLAS threads pinned to 1
and ``src`` on the path; one caller, one operation at a time. Usage::

    python3 perfbench/harness.py <workload> <seed> <seconds> <trace> <size>

Untraced (trace 0): whole passes over the workload's operations until
``seconds`` have passed.
Traced (trace 1): alternates an untraced and a traced pass over all
operations until ``seconds`` have passed; per-layer numbers are medians
over the traced passes, and tracing overhead is the traced pass time
minus the untraced one.

Only the ``run`` call of an operation is timed, and each time is
calibrated by the kernel in ``speed.py`` run beside it. Each output is checked
against the reference and against the operation's first output (so
traced and untraced outputs must be identical); a mismatch or an
exception counts the operation as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import check
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def environment(seed: int) -> dict:
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mmrelay").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Runner:
    def __init__(self, workload: str, seed: int, size: str, refs=None):
        self.exact = workloads.EXACT[workload]
        self.ops = workloads.build(workload, seed, size, ROOT)
        self.refs = (check.load_reference(workload, seed)
                     if refs is None else refs)
        self.workload = workload
        self.raw_times: dict[str, list[float]] = {op.key: [] for op in self.ops}
        self.kernel_times: dict[str, list[float]] = {op.key: [] for op in self.ops}
        self.last_kernel_s = speed.kernel_seconds()
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, op) -> tuple[float, float] | None:
        """Run, time and check one operation.

        The calibration kernel runs after every operation, so each one is
        bracketed by two kernel timings whose mean calibrates it. Returns
        (raw seconds, kernel seconds beside it), or None if the operation
        failed.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # the benchmark counts it and keeps going
            self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        kernel_s = speed.kernel_seconds()
        beside_s = (self.last_kernel_s + kernel_s) / 2.0
        self.last_kernel_s = kernel_s
        record = op.record(out)
        problems = self._problems(op, record)
        if problems:
            self.failures.append(f"{op.key}: " + "; ".join(problems[:3]))
            return None
        self.raw_times[op.key].append(dt)
        self.kernel_times[op.key].append(beside_s)
        return dt, beside_s

    def _problems(self, op, record: dict) -> list[str]:
        ref = self.refs.get(op.key)
        if ref is not None:
            problems = check.diff(record, ref, self.exact)
        elif self.workload == "simulate":
            problems = check.sim_invariants(record, op.n_slots, op.sim_seed,
                                            op.mode)
        else:
            problems = ["no reference output recorded"]
        first = self.first.setdefault(op.key, record)
        if first is not record:
            problems += ["differs from an earlier run: " + p
                         for p in check.diff(record, first, exact=True)]
        return problems

    def run_pass(self) -> tuple[float, float]:
        """One pass over every operation: (calibrated seconds of the
        operations that succeeded, the calibration factor of the pass)."""
        timed = [t for t in map(self.execute, self.ops) if t is not None]
        if not timed:
            return 0.0, 1.0
        kernel_s = statistics.fmean(k for _, k in timed)
        return (sum(speed.calibrated(dt, k) for dt, k in timed),
                speed.NOMINAL_S / kernel_s)

    def timed_loop(self, seconds: float) -> None:
        """Whole passes until ``seconds`` have passed, so every operation
        has the same number of samples."""
        start = time.perf_counter()
        self.run_pass()
        while time.perf_counter() - start < seconds:
            self.run_pass()

    def traced_loop(self, seconds: float, spans_path: Path | None):
        from layertrace import Tracer

        start = time.perf_counter()
        plain, traced, layers = [], [], []
        tracer = Tracer()
        while True:
            plain.append(self.run_pass()[0])
            tracer.reset()
            with tracer:
                pass_s, factor = self.run_pass()
            traced.append(pass_s)
            # layer seconds are calibrated like the operation times
            layers.append({k: v * factor if k.endswith("_s") else v
                           for k, v in tracer.layer_metrics().items()})
            if time.perf_counter() - start >= seconds:
                break
        if spans_path is not None:
            tracer.write(spans_path)
        # low median: counts stay whole, and it matches the per-op statistic
        per_layer = {k: statistics.median_low(m[k] for m in layers)
                     for k in layers[0]}
        per_layer["trace.overhead_s"] = (statistics.median(traced)
                                         - statistics.median(plain))
        return per_layer, tracer.absent, plain, traced

    def _rates(self, times: dict[str, list[float]]) -> tuple[float, float, dict]:
        """(work per second, median op seconds, per-op medians).

        Per operation the low median is taken: with an even count, the
        lower of the middle two. Other tenants only ever slow a run down,
        and ``recipes`` has two samples per operation in a 30 s run.
        """
        medians = {k: statistics.median_low(v) for k, v in times.items() if v}
        units = sum(op.units for op in self.ops if op.key in medians)
        busy = sum(medians.values())
        p50 = statistics.median(medians.values()) if medians else 0.0
        return (units / busy if busy else 0.0), p50, medians

    def summary(self) -> dict:
        calibrated = {k: [speed.calibrated(dt, b) for dt, b in
                          zip(self.raw_times[k], self.kernel_times[k])]
                      for k in self.raw_times}
        work, p50, medians = self._rates(calibrated)
        raw_work, raw_p50, raw_medians = self._rates(self.raw_times)
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "samples": sum(len(v) for v in self.raw_times.values()),
            "work_per_s": work,
            "op_p50_s": p50,
            "op_medians_s": medians,
            "raw_work_per_s": raw_work,
            "raw_op_p50_s": raw_p50,
            "raw_op_medians_s": raw_medians,
            "raw_times_s": self.raw_times,
            "kernel_beside_s": self.kernel_times,
            "units_per_pass": sum(op.units for op in self.ops),
        }


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, size = argv
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    runner = Runner(workload, seed, size)
    result = {"env": environment(seed)}
    if trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload}-seed{seed}.json.gz"
        per_layer, absent, plain, traced = runner.traced_loop(seconds, spans)
        result.update(per_layer=per_layer, absent=absent,
                      plain_pass_s=plain, traced_pass_s=traced,
                      spans_file=str(spans.relative_to(ROOT)))
    else:
        runner.timed_loop(seconds)
    result.update(runner.summary())
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""mmrelay benchmark: one command, every metric with its unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {recipes,large_n,simulate} \\
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

The set-up probe starts fresh interpreters that import ``mmrelay.cli``
and parse ``recipes/fig3.cfg``; ``setup_s`` is the median of their
calibrated wall times (see ``speed.py``). The workload then runs in its own child process (``harness.py``)
with BLAS threads pinned to 1, so ``peak_rss_mb`` is that process's peak.
Human-readable lines come first; the last line of standard output is the
JSON result. A full record, with the environment block, is written to
``perfbench/out/``. Exits with code 2, printing no result, when the
checkout holds no ``src/mmrelay`` or ``recipes``.
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

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 7
SETUP_RECIPE = "recipes/fig3.cfg"
CHILD_TIMEOUT_S = 170

WORK_UNIT = {"recipes": "analytic points", "large_n": "analytic points",
             "simulate": "thousand slots"}
OP_NAME = {"recipes": "recipe file", "large_n": "cold analysis",
           "simulate": "simulator run"}

PROBE = """\
import sys, time
t0 = time.perf_counter()
import mmrelay.cli
t1 = time.perf_counter()
from mmrelay.sweeps import load_config
load_config(sys.argv[1])
print(t1 - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(probes: int, env: dict) -> tuple[list[float], list[float]]:
    """Calibrated wall seconds of each probe, and the import time it reports.

    The calibration kernel runs between probes; each probe is calibrated by
    the mean of the two kernel timings beside it.
    """
    walls, imports = [], []
    before = speed.kernel_seconds()
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE, SETUP_RECIPE],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        wall = time.perf_counter() - t0
        after = speed.kernel_seconds()
        walls.append(speed.calibrated(wall, (before + after) / 2.0))
        before = after
        imports.append(float(proc.stdout.strip()))
    return walls, imports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("recipes", "large_n", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one or two cheap operations, for tests")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/mmrelay/__init__.py", SETUP_RECIPE)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an mmrelay checkout, missing {missing}",
              file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        definition = json.load(fh)
    env = child_env()
    probes = 3 if args.size == "tiny" else SETUP_PROBES
    try:
        walls, imports = measure_setup(probes, env)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "harness.py"), args.workload,
             str(args.seed), str(args.seconds), str(args.trace), args.size],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        if getattr(exc, "stderr", None):
            print(exc.stderr, file=sys.stderr)
        return 2
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"perfbench: workload process exited with {proc.returncode}",
              file=sys.stderr)
        return 2
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = dict(child["per_layer"])
        metrics["cli.import_s"] = statistics.median(imports)
    else:
        metrics = {"setup_s": statistics.median(walls),
                   "work_per_s": child["work_per_s"],
                   "op_p50_s": child["op_p50_s"],
                   "peak_rss_mb": child["peak_rss_mb"]}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "setup_walls_s": walls,
              "setup_imports_s": imports, "metrics": metrics, **child}
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / (f"result-{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"env: {json.dumps(child['env'])}")
    print(f"workload {args.workload}: {child['attempted']} operations "
          f"attempted, {child['failed']} failed "
          f"(failed_ratio {child['failed'] / child['attempted']:.4g}); "
          f"{child['samples']} timed operations, each one {OP_NAME[args.workload]}; "
          f"work unit: {WORK_UNIT[args.workload]}, "
          f"{child['units_per_pass']:g} per pass")
    for msg in child["failures"]:
        print(f"FAILED {msg}")
    if args.trace and child["absent"]:
        print(f"absent from the package: {', '.join(child['absent'])}")
    declared = definition["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if units.keys() != metrics.keys():
        print(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    print("times are calibrated seconds (perfbench/speed.py); raw times are "
          "in the record")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {units[name]}")
    print(f"record: {out_path.relative_to(ROOT)}")

    wrapped = {name: {"value": value, "unit": units[name]}
               for name, value in metrics.items()}
    print(json.dumps({"correct": child["failed"] == 0,
                      "attempted": child["attempted"],
                      "failed": child["failed"],
                      "metrics": wrapped}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads as fixed lists of operations.

Every operation goes through the public ``mmrelay`` API, looked up on its
module at call time so that a traced run sees the wrapped functions.

* ``recipes`` - each shipped ``recipes/*.cfg`` through load_config ->
  run_sweep(jobs=1) -> write_csv into memory: 351 analytic points with
  N <= 15, each building a cold SuccessTable. The figure-regeneration job,
  and the only workload that exercises sweep orchestration.
* ``large_n`` - cold ``aggregate_throughput(cfg)`` at N in {20, 25, 30},
  covering the stable and unstable regimes and a point without BR
  (q_uf = 1). Success-table and simplex costs grow about as N**4 here.
* ``simulate`` - ``simulator.run`` at a light point (N=5, q_u=0.5, where
  the queue scan dominates) and a heavy one (N=30, q_u=0.9, where
  reception dominates in decoupled mode), each in both LOS modes. Only
  this workload uses the seed.

The ``tiny`` lists hold one or two cheap operations per workload for the
benchmark's own tests.
"""

from __future__ import annotations

import dataclasses
import io
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import mmrelay
import mmrelay.simulator
import mmrelay.sweeps
import mmrelay.throughput

WORKLOADS = ("recipes", "large_n", "simulate")
SIZES = ("full", "tiny")

# How outputs are compared with the recorded reference.
EXACT = {"recipes": False, "large_n": False, "simulate": True}


@dataclass(frozen=True)
class Op:
    key: str
    units: float                   # work units: analytic points or kslots
    run: Callable[[], object]
    record: Callable[[object], dict]
    # simulate only: the arguments the invariants are checked against
    n_slots: int = 0
    sim_seed: int = 0
    mode: str = ""


def _plain(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


# -- recipes ------------------------------------------------------------------

def _recipe_op(path: Path) -> Op:
    def run():
        sweeps = mmrelay.sweeps
        spec = sweeps.load_config(str(path))
        rows = sweeps.run_sweep(spec, jobs=1)
        buf = io.StringIO()
        sweeps.write_csv(spec, rows, buf)
        return rows, buf.getvalue()

    def record(out) -> dict:
        rows, text = out
        lines = text.splitlines()
        return {"rows": [{k: _plain(v) for k, v in row.items()} for row in rows],
                "csv_header": lines[0], "csv_lines": len(lines)}

    points = len(mmrelay.sweeps.load_config(str(path)).grid())
    return Op(path.stem, float(points), run, record)


def recipes_ops(root: Path, size: str) -> list[Op]:
    paths = sorted((root / "recipes").glob("*.cfg"))
    if size == "tiny":
        paths = [p for p in paths if p.stem == "fig8_default"]
    return [_recipe_op(p) for p in paths]


# -- large_n ------------------------------------------------------------------

LARGE_N_POINTS = {
    "n20-stable": dict(n_ues=20, q_u=0.1, q_uf=0.5, q_ur=0.5, q_r=1.0),
    "n20-unstable": dict(n_ues=20, q_u=0.1, q_uf=0.5, q_ur=0.5, q_r=0.2),
    "n25-nobr-unstable": dict(n_ues=25, q_u=0.1, q_uf=1.0, q_ur=0.5, q_r=0.2),
    "n25-heavy-stable": dict(n_ues=25, q_u=0.9, q_uf=0.5, q_ur=0.5, q_r=0.52),
    "n30-stable": dict(n_ues=30, q_u=0.1, q_uf=0.5, q_ur=0.5, q_r=1.0),
    "n30-unstable": dict(n_ues=30, q_u=0.05, q_uf=0.3, q_ur=0.5, q_r=0.1),
}
LARGE_N_TINY = ("n25-nobr-unstable",)


def _report_record(report) -> dict:
    out = {f.name: _plain(getattr(report, f.name))
           for f in dataclasses.fields(report) if f.name != "queue"}
    out.update({f"queue.{f.name}": _plain(getattr(report.queue, f.name))
                for f in dataclasses.fields(report.queue)})
    return out


def _large_n_op(key: str) -> Op:
    cfg = mmrelay.ScenarioConfig(**LARGE_N_POINTS[key])
    return Op(key, 1.0, lambda: mmrelay.throughput.aggregate_throughput(cfg),
              _report_record)


def large_n_ops(size: str) -> list[Op]:
    keys = LARGE_N_TINY if size == "tiny" else tuple(LARGE_N_POINTS)
    return [_large_n_op(k) for k in keys]


# -- simulate -----------------------------------------------------------------

LIGHT = dict(n_ues=5, q_u=0.5, q_uf=0.5, q_ur=0.5, q_r=0.9)
HEAVY = dict(n_ues=30, q_u=0.9, q_uf=0.5, q_ur=0.5, q_r=0.9)

# (key, point, slots, mode); on a 2-core 2.1 GHz box each run takes 1-1.5 s.
SIM_POINTS = (
    ("light-decoupled", LIGHT, 1 << 18, "decoupled"),
    ("light-physical", LIGHT, 1 << 18, "physical"),
    ("heavy-decoupled", HEAVY, 1 << 17, "decoupled"),
    ("heavy-physical", HEAVY, 1 << 18, "physical"),
)
SIM_TINY = (
    ("light-decoupled-tiny", LIGHT, 20_000, "decoupled"),
    ("heavy-physical-tiny", HEAVY, 20_000, "physical"),
)


def sim_seed(seed: int, key: str) -> int:
    """Simulator seed of one operation, derived from the workload seed."""
    entropy = [seed, zlib.crc32(key.encode())]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _sim_op(seed: int, key: str, point: dict, n_slots: int, mode: str) -> Op:
    cfg = mmrelay.ScenarioConfig(**point)
    s = sim_seed(seed, key)

    def record(stats) -> dict:
        return {k: _plain(v) for k, v in dataclasses.asdict(stats).items()}

    return Op(key, n_slots / 1000.0,
              lambda: mmrelay.simulator.run(cfg, n_slots, s, mode), record,
              n_slots=n_slots, sim_seed=s, mode=mode)


def simulate_ops(seed: int, size: str) -> list[Op]:
    points = SIM_TINY if size == "tiny" else SIM_POINTS
    return [_sim_op(seed, *p) for p in points]


def build(workload: str, seed: int, size: str, root: Path) -> list[Op]:
    if workload == "recipes":
        return recipes_ops(root, size)
    if workload == "large_n":
        return large_n_ops(size)
    if workload == "simulate":
        return simulate_ops(seed, size)
    raise ValueError(f"unknown workload {workload!r}")

"""Every analytic number pinned bit for bit.

``golden_reports.json`` holds the ``float.hex`` of every
``ThroughputReport`` and ``QueueSolution`` field, evaluated the way
``run_sweep`` does it (one ``SuccessTable`` per radio configuration,
sized at the group's largest N), of every recipe grid point, together
with the SHA-256 of each recipe's CSV. It also holds cold analyses of
the benchmark's six large-N points and of q_u = 0 and q_u = 1 edge
points, and 24 analyses at N = 1..12 on one shared N = 12 table; these
also pin the ``QueueStatistics`` pmfs and rates.

The file was recorded once, before the success table was built eagerly
at its N and the configuration blocks lost their N key. It is never
re-recorded to make a change pass: a mismatch means a number changed.
To see what the current code gives, run this file as a script
(``PYTHONPATH=src python tests/test_golden_reports.py OUT.json``).
"""

import dataclasses
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mmrelay import ScenarioConfig, SuccessTable, aggregate_throughput, \
    queue_statistics
from mmrelay.sweeps import load_config, run_sweep, write_csv

HERE = Path(__file__).resolve().parent
RECIPES = HERE.parent / "recipes"

LARGE_N_POINTS = {
    "n20-stable": dict(n_ues=20, q_u=0.1, q_uf=0.5, q_ur=0.5, q_r=1.0),
    "n20-unstable": dict(n_ues=20, q_u=0.1, q_uf=0.5, q_ur=0.5, q_r=0.2),
    "n25-nobr-unstable": dict(n_ues=25, q_u=0.1, q_uf=1.0, q_ur=0.5, q_r=0.2),
    "n25-heavy-stable": dict(n_ues=25, q_u=0.9, q_uf=0.5, q_ur=0.5, q_r=0.52),
    "n30-stable": dict(n_ues=30, q_u=0.1, q_uf=0.5, q_ur=0.5, q_r=1.0),
    "n30-unstable": dict(n_ues=30, q_u=0.05, q_uf=0.3, q_ur=0.5, q_r=0.1),
}

# q_u = 0 and q_u = 1: the latter puts every configuration on the face
# n_fr + n_fd + n_b = N.
EDGE_POINTS = {
    "silent": dict(n_ues=5, q_u=0.0),
    "busy": dict(n_ues=8, q_u=1.0, q_uf=0.5, q_ur=0.5, q_r=0.9),
    "busy-all-fd-relay": dict(n_ues=10, q_u=1.0, q_uf=1.0, q_ur=1.0, q_r=0.6),
    "busy-all-br": dict(n_ues=6, q_u=1.0, q_uf=0.0, q_r=0.7),
    "busy-no-fd-relay": dict(n_ues=12, q_u=1.0, q_uf=0.3, q_ur=0.0, q_r=0.5),
}

SHARED_N = 12


def _shared_points():
    """Two traffic points at each n = 1..SHARED_N on one radio
    configuration: an interior one and, in turn, a busy, a no-BR and a
    no-FD one."""
    second = ({"q_u": 1.0, "q_uf": 0.5}, {"q_uf": 1.0, "q_ur": 1.0},
              {"q_uf": 0.0, "q_r": 0.6})
    points = []
    for n in range(1, SHARED_N + 1):
        points.append((f"n{n}-interior", dict(n_ues=n, q_u=0.4, q_r=0.9)))
        points.append((f"n{n}-edge", dict(n_ues=n, **second[n % 3])))
    return points


def _enc(value):
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return [_enc(v) for v in value.tolist()]
    if dataclasses.is_dataclass(value):
        return {f.name: _enc(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    raise TypeError(f"cannot encode {value!r}")


def recipe_cases(name: str) -> dict:
    spec = load_config(str(RECIPES / f"{name}.cfg"))
    groups: dict = {}
    for overrides in spec.grid():
        cfg = spec.base.replace(**overrides)
        groups.setdefault(cfg.radio_key(), []).append(cfg)
    reports = {}
    for cfgs in groups.values():
        table = SuccessTable(max(cfgs, key=lambda cfg: cfg.n_ues))
        for cfg in cfgs:
            reports[cfg] = _enc(aggregate_throughput(cfg, table))
    buf = io.StringIO()
    write_csv(spec, run_sweep(spec, jobs=1), buf)
    return {"csv_sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
            "reports": [reports[spec.base.replace(**overrides)]
                        for overrides in spec.grid()]}


def _analysis(cfg: ScenarioConfig, table: SuccessTable | None) -> dict:
    return {"report": _enc(aggregate_throughput(cfg, table)),
            "stats": _enc(queue_statistics(cfg, table))}


def point_cases(group: str) -> dict:
    if group == "large_n":
        return {key: _analysis(ScenarioConfig(**point), None)
                for key, point in LARGE_N_POINTS.items()}
    if group == "edge":
        return {key: _analysis(ScenarioConfig(**point), None)
                for key, point in EDGE_POINTS.items()}
    table = SuccessTable(ScenarioConfig(n_ues=SHARED_N))
    return {key: _analysis(table.cfg.replace(**point), table)
            for key, point in _shared_points()}


RECIPE_NAMES = sorted(p.stem for p in RECIPES.glob("*.cfg"))
POINT_GROUPS = ("large_n", "edge", "shared")


def dump() -> dict:
    return {"recipes": {name: recipe_cases(name) for name in RECIPE_NAMES},
            **{group: point_cases(group) for group in POINT_GROUPS}}


@pytest.fixture(scope="module")
def golden():
    return json.loads((HERE / "golden_reports.json").read_text())


def test_every_recipe_is_pinned(golden):
    assert sorted(golden["recipes"]) == RECIPE_NAMES
    assert sum(len(c["reports"]) for c in golden["recipes"].values()) == 351


@pytest.mark.parametrize("name", RECIPE_NAMES)
def test_recipe_reports_and_csv_unchanged(golden, name):
    assert recipe_cases(name) == golden["recipes"][name]


@pytest.mark.parametrize("group", POINT_GROUPS)
def test_point_analyses_unchanged(golden, group):
    assert point_cases(group) == golden[group]


def _values(node, name):
    """Every value of the field ``name`` in a golden tree."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == name:
                yield value
            else:
                yield from _values(value, name)
    elif isinstance(node, list):
        for value in node:
            yield from _values(value, name)


def test_b_r_exceeds_one_by_at_most_an_ulp(golden):
    # Where every configuration's relay packet decodes, b_r is the exact
    # sum of the rounded multinomial weights: 1 or one ulp above it.
    b_r = [float.fromhex(v) for v in _values(golden, "b_r")]
    assert len(b_r) == 421
    assert all(0.0 <= v <= math.nextafter(1.0, 2.0) for v in b_r)
    assert b_r.count(math.nextafter(1.0, 2.0)) == 39


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(dump(), indent=None) + "\n")

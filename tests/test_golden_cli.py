"""The command-line text pinned byte for byte.

``golden_cli.json`` holds the stdout and exit code of ``mmrelay analyze``
on every recipe and on three edge scenarios, and of ``simulate`` (both
LOS modes) and ``compare`` on the edge scenarios at a fixed slot count
and seed. The edge scenarios are a silent network (all zeros, a NaN
service estimate), an unstable relay queue, and a point where the relay
never decodes a BR copy alone (b_r = 0, so q_r_min is infinite).

The file was recorded once, before the report text was generated from
``ThroughputReport.metrics()``. It is never re-recorded to make a change
pass: a mismatch means the printed output changed. To see what the
current code prints, run this file as a script
(``PYTHONPATH=src python tests/test_golden_cli.py OUT.json``).
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from mmrelay import cli

HERE = Path(__file__).resolve().parent
RECIPES = HERE.parent / "recipes"
RECIPE_NAMES = sorted(p.stem for p in RECIPES.glob("*.cfg"))

EDGE_SCENARIOS = {
    "silent": "n_ues = 2\nq_u = 0\n",
    "unstable": "n_ues = 3\nq_u = 0.5\nq_r = 0.3\n",
    "inf-threshold": ("n_ues = 4\nq_u = 0.5\nd_ur_m = 10\nd_ud_m = 200\n"
                      "theta_rd_deg = 170\np_t_dbm = 0\n"),
}
SIM_FLAGS = ("--slots", "30000", "--seed", "4")


def _keys() -> list[str]:
    keys = [f"analyze {name}" for name in RECIPE_NAMES]
    for name in EDGE_SCENARIOS:
        keys += [f"analyze {name}", f"simulate {name} decoupled",
                 f"simulate {name} physical", f"compare {name}"]
    return keys


KEYS = _keys()


def argv(key: str, edge_dir: Path) -> list[str]:
    """``cli.main`` arguments of a case; an edge scenario's file is
    written into ``edge_dir``."""
    command, name, *mode = key.split()
    if name in EDGE_SCENARIOS:
        path = edge_dir / f"{name}.cfg"
        path.write_text(f"[scenario]\n{EDGE_SCENARIOS[name]}")
    else:
        path = RECIPES / f"{name}.cfg"
    if command == "analyze":
        return [command, str(path)]
    return [command, str(path), *SIM_FLAGS,
            *(["--mode", mode[0]] if mode else [])]


def dump() -> dict:
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key in KEYS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv(key, Path(tmp)))
            result[key] = {"exit": code, "stdout": buf.getvalue()}
    return result


@pytest.fixture(scope="module")
def golden():
    return json.loads((HERE / "golden_cli.json").read_text())


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(KEYS)
    assert len(KEYS) == len(RECIPE_NAMES) + 4 * len(EDGE_SCENARIOS) == 20


@pytest.mark.parametrize("key", KEYS)
def test_cli_text_unchanged(golden, tmp_path, capsys, key):
    code = cli.main(argv(key, tmp_path))
    assert {"exit": code, "stdout": capsys.readouterr().out} == golden[key]


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(dump(), indent=1) + "\n")

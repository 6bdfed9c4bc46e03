import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
# The package is imported from the checkout, here and in every Python
# process a test starts (the CLI, the demos), with or without an install.
sys.path[:0] = [str(ROOT / "tests"), SRC]
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))

from mmrelay import ScenarioConfig, SuccessTable

RECIPES = ROOT / "recipes"


def run_limited(code: str, limit_mb: int) -> subprocess.CompletedProcess:
    """Run ``code`` in one child interpreter whose address space is capped
    at ``limit_mb`` MB (``RLIMIT_AS``), with ``tests`` importable, and
    return the finished process with its text output. An allocation past
    the cap raises ``MemoryError`` in the child, so a memory regression
    fails the calling test instead of exhausting the machine."""
    cap = limit_mb << 20
    setup = ("import resource\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "tests"), os.environ["PYTHONPATH"]])}
    return subprocess.run([sys.executable, "-c", setup + code], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="session")
def default_cfg():
    return ScenarioConfig()


@pytest.fixture(scope="session")
def two_ue_cfg():
    return ScenarioConfig(n_ues=2, q_u=0.6, q_uf=0.5, q_ur=0.5, q_r=0.7)


@pytest.fixture(scope="session")
def two_ue_table(two_ue_cfg):
    return SuccessTable(two_ue_cfg)


def random_two_ue_cfg(rng: random.Random) -> ScenarioConfig:
    """Interior random parameter point with a wide-open BR beam."""
    return ScenarioConfig(
        n_ues=2,
        q_u=rng.uniform(0.05, 1.0),
        q_uf=rng.uniform(0.0, 1.0),
        q_ur=rng.uniform(0.0, 1.0),
        q_r=rng.uniform(0.0, 1.0),
        gamma_db=rng.uniform(-5.0, 25.0),
        alpha=rng.uniform(0.0, 1.0),
        d_ur_m=rng.uniform(10.0, 120.0),
        d_ud_m=rng.uniform(10.0, 220.0),
        theta_rd_deg=rng.uniform(5.0, 170.0),
        theta_bw_br_deg=360.0,
    )

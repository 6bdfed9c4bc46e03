"""Throughput model and simulator for relay-assisted mm-wave random access.

A full-duplex decode-and-forward relay with a queue assists N symmetric
users transmitting to a mm-wave access point under slotted random access.
Users choose between narrow-beam fully directional (FD) transmissions to
one receiver and wider broadcast (BR) transmissions covering relay and
access point at lower beamforming gain. The package computes success
probabilities, relay-queue statistics and stability, and per-user /
aggregate throughput analytically, and cross-checks everything with a
slot-level Monte Carlo simulator.
"""

from .geometry import (
    Link,
    LinkBudget,
    LinkState,
    ScenarioConfig,
    beam_gain,
    los_probability,
    path_loss_db,
    received_power_w,
    relay_mmap_distance,
)
from .queue_model import (
    QueueSolution,
    QueueStatistics,
    queue_statistics,
)
from .simulator import ComparisonResult, MetricComparison, SimStats, compare, run
from .success import SuccessTable
from .sweeps import ConfigError, SweepSpec, load_config, run_sweep
from .throughput import ThroughputReport, aggregate_throughput

__all__ = [
    "Link",
    "LinkBudget",
    "LinkState",
    "ScenarioConfig",
    "beam_gain",
    "los_probability",
    "path_loss_db",
    "received_power_w",
    "relay_mmap_distance",
    "QueueSolution",
    "QueueStatistics",
    "queue_statistics",
    "ComparisonResult",
    "MetricComparison",
    "SimStats",
    "compare",
    "run",
    "SuccessTable",
    "ConfigError",
    "SweepSpec",
    "load_config",
    "run_sweep",
    "ThroughputReport",
    "aggregate_throughput",
]

__version__ = "0.1.0"

"""Output checks against the reference recorded from the seed commit.

* ``recipes`` rows and ``large_n`` reports: strings, booleans and integers
  must match exactly, floats to a relative 1e-12 (an exact zero must stay
  zero, infinities and NaNs must match in kind).
* ``simulate`` statistics: bit-identical, because the random draw order
  is part of the simulator's contract. References exist for the seeds in
  ``reference/simulate.json``; for any other seed the exact invariants in
  ``sim_invariants`` are checked instead.

Every run also requires repeated executions of one operation, traced or
not, to give bit-identical outputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(workload: str, seed: int) -> dict[str, dict]:
    """Reference records by operation key: seed-independent ones under "*"."""
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    refs = dict(doc.get("*", {}))
    refs.update(doc.get(str(seed), {}))
    return refs


def _same_float(a: float, b: float, exact: bool) -> bool:
    if exact:
        return a.hex() == b.hex()
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def diff(got, ref, exact: bool, path: str = "") -> list[str]:
    """Human-readable mismatches between an output record and a reference."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or got.keys() != ref.keys():
            return [f"{path or '.'}: keys differ"]
        out: list[str] = []
        for k in ref:
            out += diff(got[k], ref[k], exact, f"{path}.{k}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += diff(g, r, exact, f"{path}[{i}]")
        return out
    if (isinstance(ref, float) or isinstance(got, float)) \
            and not isinstance(ref, bool) and not isinstance(got, bool):
        if not isinstance(got, (int, float)) or not isinstance(ref, (int, float)):
            return [f"{path}: {got!r} != {ref!r}"]
        if not _same_float(float(got), float(ref), exact):
            return [f"{path}: {got!r} != {ref!r}"]
        return []
    if type(got) is not type(ref) or got != ref:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def sim_invariants(stats: dict, n_slots: int, seed: int, mode: str) -> list[str]:
    """Identities every SimStats satisfies exactly, whatever the seed."""
    warm = min(n_slots // 10, 100_000)
    measured = n_slots - warm
    nb = min(50, measured)
    checks = {
        "slots": stats["slots"] == n_slots,
        "warmup_slots": stats["warmup_slots"] == warm,
        "n_batches": stats["n_batches"] == nb,
        "measured_slots": stats["measured_slots"] == nb * (measured // nb),
        "seed": stats["seed"] == seed,
        "mode": stats["mode"] == mode,
        "queue balance": (stats["enqueued_total"] - stats["departed_total"]
                          == stats["queue_final"]),
        "departures": 0 <= stats["delivered_relay"] <= stats["departed_total"],
        "t_sim": stats["t_sim"] == ((stats["delivered_direct"]
                                     + stats["delivered_relay"])
                                    / stats["measured_slots"]),
        "drift_sim": stats["drift_sim"] == stats["queue_final"] / n_slots,
        "p_empty_sim": 0.0 <= stats["p_empty_sim"] <= 1.0,
    }
    return [f"invariant {name} fails" for name, ok in checks.items() if not ok]

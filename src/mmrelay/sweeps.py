"""Scenario files, sweep grids and CSV emission.

Configuration files are plain text with ``key = value`` lines, ``#``
comments and three optional sections::

    [scenario]    # ScenarioConfig fields; omitted fields keep defaults
    n_ues = 10
    q_u = 0.5

    [sweep]       # up to two swept ScenarioConfig fields
    n_ues = 1:15             # inclusive range, optional :step
    q_u = 0.1, 0.5, 0.9      # explicit list
    outputs = t_total, q_r_min   # optional subset of metric columns

    [simulation]  # checked by simulator.check_argument
    simulate = true
    n_slots = 1000000
    seed = 1
    mode = decoupled

The metric columns are named as in ``ThroughputReport.metrics()``; a
spec's ``outputs`` names each at most once, from ``STANDARD_METRICS``.

``run_sweep`` evaluates the analytical model at every grid point (axis 1
outer, axis 2 inner), optionally simulates each point, and never aborts
the grid: per-point failures land in the ``error`` column (a point whose
configuration cannot be built is not evaluated). The others are evaluated
one radio configuration at a time (``ScenarioConfig.radio_key``: every
field but n_ues, q_u, q_uf, q_ur and q_r). Each group shares one
``SuccessTable``, built at its largest N and dropped when the call ends,
and with it the traffic-free configuration blocks of ``queue_model``, one
per zero pattern, so a traffic point costs its weighted sums. The points
of the group's widest pattern (the OR of its points') go first: the first
builds that block (a failure is its row's error), and every other
pattern's block is a row selection of it. The numbers are those of a
fresh per-point analysis, bit for bit. With n_ues <= MAX_N_UES, a
group's table fails only where its radio has no link budget; each point
is then evaluated alone, the shortest way to give each row that error.
With ``jobs > 1`` each worker task is a contiguous run of one group's
points; a group is split only when there are fewer groups than jobs.
Cells are printed by ``format_value`` (floats with 9 significant digits)
and identical spec + seed reruns are byte-identical, whatever ``jobs``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import queue_model, simulator
from .geometry import ScenarioConfig
from .success import SuccessTable
from .throughput import aggregate_throughput

_SCENARIO_FIELDS = {f.name for f in fields(ScenarioConfig)}
_INT_FIELDS = {"n_ues", "n_slots", "seed", "jobs"}

# Most points a sweep grid may have, the product of its axes' lengths. A
# file's range or list is counted before any value is built, so a range
# such as 0:1e6:1e-6 (10**12 values) is an error, not an allocation.
MAX_GRID_POINTS = 100_000

STANDARD_METRICS = ("regime", "q_r_min", "lambda0", "lambda1", "mu_r",
                    "p_empty", "t_ud", "t_ur", "t_total")
SIM_METRICS = ("t_sim", "t_sim_se", "t_sim_z")


class ConfigError(ValueError):
    """Configuration file problem, with the offending line number."""


def _check_outputs(outputs: tuple[str, ...]) -> None:
    """Reject an unknown metric or one named twice in ``outputs``."""
    bad = [m for m in outputs if m not in STANDARD_METRICS]
    if bad:
        raise ValueError(f"unknown metric(s) {bad} in outputs")
    repeated = [m for i, m in enumerate(outputs) if m in outputs[:i]]
    if repeated:  # it would be two identical columns
        raise ValueError(f"outputs names {repeated[0]!r} twice")


def _check_grid_size(points: int, what: str) -> None:
    """Reject a grid of more than ``MAX_GRID_POINTS`` points."""
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{what} would make a grid of {points} points, more "
                         f"than the limit of {MAX_GRID_POINTS}")


def _check_axis(name: str, values=()) -> None:
    """Reject a swept name that is no ``ScenarioConfig`` field, or a value
    the axis repeats (one point would be evaluated twice); with no
    values, only the name is checked."""
    if name not in _SCENARIO_FIELDS:
        raise ValueError(f"unknown sweep parameter {name!r}")
    seen = set()
    for v in values:
        if v in seen:
            raise ValueError(f"{name} repeats the value {v!r}")
        seen.add(v)


@dataclass(frozen=True)
class SweepSpec:
    """A base scenario plus swept parameters (a file gives at most two)
    and sim options.

    Made here or by ``load_config``, a spec is checked in one place: the
    base's type, the outputs, each axis's name and values
    (``_check_axis``), an axis named twice, the grid's size
    (``MAX_GRID_POINTS``), ``simulate`` (a bool, numpy's included) and
    the other simulation arguments by ``simulator.check_argument``.
    A value outside its field's domain, or a point whose fields conflict,
    is an error in that point's row only.
    """

    base: ScenarioConfig
    axes: tuple[tuple[str, tuple], ...] = ()
    outputs: tuple[str, ...] = STANDARD_METRICS
    simulate: bool = False
    n_slots: int = 1_000_000
    seed: int = 0
    mode: str = "decoupled"

    def __post_init__(self) -> None:
        if not isinstance(self.base, ScenarioConfig):
            raise ValueError(f"base must be a ScenarioConfig, got "
                             f"{type(self.base).__name__}")
        _check_outputs(self.outputs)
        names = [name for name, _ in self.axes]
        for i, (name, values) in enumerate(self.axes):
            _check_axis(name, values)
            if name in names[:i]:
                raise ValueError(f"the sweep names {name!r} twice")
        _check_grid_size(math.prod(len(v) for _, v in self.axes), "the sweep")
        if not isinstance(self.simulate, (bool, np.bool_)):
            raise ValueError(f"simulate must be a bool, got {self.simulate!r}")
        for name in ("n_slots", "seed", "mode"):
            simulator.check_argument(name, getattr(self, name))

    def grid(self) -> list[dict]:
        """Field overrides per grid point, axis 1 outermost."""
        names = [name for name, _ in self.axes]
        return [dict(zip(names, point))
                for point in itertools.product(*(v for _, v in self.axes))]


def _parse_scalar(field: str, text: str):
    """The number ``text`` states, in the one syntax of files and flags:
    that of ``int`` (``_INT_FIELDS``) or ``float``, but ASCII only and
    with no digit underscores (1_000)."""
    try:
        if not text.isascii() or "_" in text:
            raise ValueError
        if field in _INT_FIELDS:
            return int(text)
        return float(text)
    except ValueError:
        kind = "an integer" if field in _INT_FIELDS else "numeric"
        raise ValueError(f"value {text!r} for {field!r} is not {kind}") from None


def _parse_values(field: str, text: str, points: int) -> tuple:
    """A comma list or an inclusive start:stop[:step] range, on a grid
    whose other axes make ``points`` points: their product with the count
    is checked before any value is built."""
    what = f"{field} = {text}"
    if "," in text:
        parts = text.split(",")
        _check_grid_size(points * len(parts), what)
        return tuple(_parse_scalar(field, part.strip()) for part in parts)
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {text!r}, expected start:stop[:step]")
        # an omitted step is 1
        start, stop, step = (_parse_scalar(field, part.strip())
                             for part in (parts + ["1"])[:3])
        # Checked before any value is built: a non-finite bound, step or
        # count (inf, nan, or a quotient or an integer beyond float range)
        # has no values.
        try:
            steps = (stop - start) / step if step > 0 and stop >= start else math.nan
            finite = all(map(math.isfinite, (start, stop, step, steps)))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"bad range {text!r}")
        count = int(math.floor(steps + 1e-9)) + 1
        _check_grid_size(points * count, what)
        vals = tuple(start + i * step for i in range(count))
        if field in _INT_FIELDS:
            return vals
        # round away accumulated step noise (0.1 * 6 -> 0.6000000000000001)
        # relative to each value's magnitude
        return tuple(float(f"{v:.15g}") for v in vals)
    return (_parse_scalar(field, text),)


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def read_argument(name: str, text: str):
    """A ``simulator.check_argument`` argument given as text, checked by
    that rule: the number ``_parse_scalar`` reads, else (and for
    ``mode``) the text, which the rule's message then quotes."""
    value = text
    if name != "mode":
        with contextlib.suppress(ValueError):
            value = _parse_scalar(name, text)
    simulator.check_argument(name, value)
    return value


@contextlib.contextmanager
def _line(lineno: int | None):
    """Report a ``ValueError`` raised while reading file line ``lineno``
    as a ``ConfigError`` that names the line."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from None


def load_config(path: str) -> SweepSpec:
    """Parse a scenario/sweep file; every problem names its line number."""
    scenario: dict = {}
    axes: list[tuple[str, tuple]] = []
    outputs: tuple[str, ...] = STANDARD_METRICS
    sim: dict = {}
    key_lines: dict[tuple[str, str], int] = {}   # (section, key) -> line
    section = "scenario"
    with open(path, "rb") as fh:
        try:  # a leading BOM is not text; lines end as in a text-mode file
            lines = io.StringIO(fh.read().decode("utf-8-sig"), newline=None)
        except UnicodeDecodeError as exc:  # name the bad byte's line
            data, at = exc.object, exc.start
            with _line(len((data[:at] + b"?").splitlines())):
                raise ValueError(f"byte {data[at]:#04x} is not UTF-8")
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            with _line(lineno):
                if line.startswith("[") and line.endswith("]"):
                    section = line[1:-1].strip().lower()
                    if section not in ("scenario", "sweep", "simulation"):
                        raise ValueError(f"unknown section [{section}]")
                    continue
                if "=" not in line:
                    raise ValueError(f"malformed line {raw.strip()!r}, "
                                     "expected key = value")
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if not value:
                    raise ValueError(f"missing value for {key!r}")
                first = key_lines.setdefault((section, key), lineno)
                if first != lineno:  # the last one would silently win
                    raise ValueError(f"{key!r} is already set on line "
                                     f"{first} in [{section}]")
                if section == "scenario":
                    if key not in _SCENARIO_FIELDS:
                        raise ValueError(f"unknown key {key!r} in [scenario]")
                    scenario[key] = _parse_scalar(key, value)
                    ScenarioConfig.check_field(key, scenario[key])
                elif section == "sweep":
                    if key == "outputs":
                        outputs = tuple(p.strip() for p in value.split(","))
                        _check_outputs(outputs)
                        continue
                    _check_axis(key)
                    if len(axes) == 2:
                        raise ValueError("at most two sweep axes are supported")
                    vals = _parse_values(
                        key, value, math.prod(len(v) for _, v in axes))
                    # Constraints that couple several fields are checked per
                    # grid point and recorded in the `error` column instead.
                    for v in vals:
                        ScenarioConfig.check_field(key, v)
                    _check_axis(key, vals)
                    axes.append((key, vals))
                elif key == "simulate":  # [simulation] from here on
                    if value.lower() not in _BOOLS:
                        raise ValueError(f"expected a boolean, got {value!r}")
                    sim[key] = _BOOLS[value.lower()]
                elif key in ("n_slots", "seed", "mode"):
                    sim[key] = read_argument(key, value)
                else:
                    raise ValueError(f"unknown key {key!r} in [simulation]")
    # Every field was checked on its line; what is left is the BR beamwidth
    # check, which fires only when theta_bw_br_deg is set.
    with _line(key_lines.get(("scenario", "theta_bw_br_deg"))):
        base = ScenarioConfig(**scenario)
    return SweepSpec(base=base, axes=tuple(axes), outputs=outputs, **sim)


def format_value(value) -> str:
    """A CSV cell or report value: text as is, integers exactly, floats
    with 9 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def evaluate_point(cfg: ScenarioConfig,
                   table: SuccessTable | None = None) -> dict:
    """The ``STANDARD_METRICS`` of one scenario point; ``table`` may be
    shared by points with the same ``radio_key``."""
    metrics = aggregate_throughput(cfg, table).metrics()
    return {name: metrics[name] for name in STANDARD_METRICS}


def _point_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _error(exc: Exception) -> str:
    """A row's ``error`` cell: a ``ValueError``'s message, or any other
    exception's type and message."""
    kind = "" if isinstance(exc, ValueError) else f"{type(exc).__name__}: "
    return f"{kind}{exc}"


def _run_point(spec: SweepSpec, index: int, cfg: ScenarioConfig,
               table: SuccessTable | None) -> dict:
    # the axis values as the config holds them (n_ues an int)
    row = {name: getattr(cfg, name) for name, _ in spec.axes}
    row["error"] = ""
    try:
        row.update(evaluate_point(cfg, table))
        if spec.simulate:
            stats = simulator.run(cfg, spec.n_slots,
                                  _point_seed(spec.seed, index), spec.mode)
            row["t_sim"] = stats.t_sim
            row["t_sim_se"] = stats.t_sim_se
            row["t_sim_z"] = simulator._z(stats.t_sim - row["t_total"],
                                          stats.t_sim_se)
    except Exception as exc:  # any model fault stays in its own row
        row["error"] = _error(exc)
    return row


def _run_task(args) -> list[tuple[int, dict]]:
    """Rows of a run of points that share one radio configuration, all
    evaluated with one ``SuccessTable`` built at their largest N.

    The points of their widest zero pattern go first: the first one's
    analysis builds that block (a failure is its row's error), and the
    other patterns' blocks are row selections of it. Rows keep their
    grid index, and seeds derive from it."""
    spec, points = args
    try:
        table = SuccessTable(max((cfg for _, cfg in points),
                                 key=lambda cfg: cfg.n_ues))
    except Exception:  # a link-budget error, which each point then raises
        table = None
    patterns = [queue_model._active(*queue_model._ue_activity_probs(cfg))
                for _, cfg in points]
    widest = tuple(map(any, zip(*patterns)))
    points = [point for _, point in sorted(
        zip(patterns, points), key=lambda pair: pair[0] != widest)]
    return [(index, _run_point(spec, index, cfg, table))
            for index, cfg in points]


def sweep_columns(spec: SweepSpec) -> list[str]:
    cols = [name for name, _ in spec.axes]
    cols.extend(spec.outputs)
    if spec.simulate:
        cols.extend(SIM_METRICS)
    cols.append("error")
    return cols


def _tasks(groups: list[list], jobs: int) -> list[list]:
    """Contiguous runs of the groups' points; a group is split, into
    near-equal runs, only when there are fewer groups than jobs."""
    parts = -(-jobs // max(len(groups), 1))
    tasks = []
    for points in groups:
        size = -(-len(points) // min(parts, len(points)))
        tasks.extend(points[i:i + size] for i in range(0, len(points), size))
    return tasks


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[dict]:
    """Evaluate the whole grid; rows come back in grid order.

    Points are grouped by ``ScenarioConfig.radio_key``, in order of first
    appearance, and each group is evaluated with one success table; a
    point whose configuration cannot be built (once, here) joins no group
    and gets its row's ``error`` only.
    """
    simulator.check_argument("jobs", jobs)
    grid = spec.grid()
    rows: list[dict | None] = [None] * len(grid)
    groups: dict[tuple, list] = {}
    for index, overrides in enumerate(grid):
        try:
            cfg = spec.base.replace(**overrides)
        except Exception as exc:
            rows[index] = {**overrides, "error": _error(exc)}
            continue
        groups.setdefault(cfg.radio_key(), []).append((index, cfg))
    tasks = [(spec, points) for points in _tasks(list(groups.values()), jobs)]
    if len(tasks) > 1 and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            done = list(pool.map(_run_task, tasks))
    else:
        done = [_run_task(task) for task in tasks]
    for task_rows in done:
        for index, row in task_rows:
            rows[index] = row
    return rows


def write_csv(spec: SweepSpec, rows: list[dict], stream: io.TextIOBase) -> None:
    cols = sweep_columns(spec)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow([format_value(row.get(c, "")) for c in cols])

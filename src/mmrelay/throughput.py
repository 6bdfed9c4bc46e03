"""Per-user and aggregate throughput for N users, both queue regimes.

A tagged user's direct throughput sums its FD-to-mmAP deliveries and the
BR copies the mmAP decodes; its relayed throughput counts packets the
relay accepts into its queue (FD aimed at the relay plus BR copies the
relay decodes while the mmAP does not). Both come with the queue
statistics from one queue walk of ``queue_model``, which evaluates the
nonempty net-change pmf only when the queue is stable. With a
stable queue every accepted packet eventually reaches the mmAP, so
acceptance is credited directly; with an unstable queue only the relay's
service rate reaches the mmAP and the relay interferes in every slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import ScenarioConfig
from .queue_model import QueueSolution, _solve, _Walk
from .success import SuccessTable

STABLE = "stable"
UNSTABLE = "unstable"


@dataclass(frozen=True)
class ThroughputReport:
    """Analytical throughput decomposition for one scenario point.

    ``t_ud0``/``t_ud1`` are a user's direct deliveries per slot and
    ``t_ur0``/``t_ur1`` its BR-acceptance components, each without/with
    the relay transmitting; the queue-state-independent FD-to-relay
    acceptance appears only inside ``t_ur``. In the unstable regime
    ``t_ur`` is the delivered relayed share mu_r / N rather than the
    acceptance rate.
    """

    t_ud0: float
    t_ud1: float
    t_ur0: float
    t_ur1: float
    t_ud: float
    t_ur: float
    t_aggregate: float
    regime: str
    queue: QueueSolution

    def metrics(self) -> dict:
        """Every reported number by its output name, in ``analyze`` order;
        ``run_sweep``'s columns are a subset of these names."""
        q = self.queue
        return {"regime": self.regime, "q_r_min": q.q_r_min,
                "lambda0": q.lambda0, "lambda1": q.lambda1, "a_r": q.a_r,
                "b_r": q.b_r, "mu_r": q.mu_r, "p_empty": q.p_empty_prob,
                "t_ud0": self.t_ud0, "t_ud1": self.t_ud1, "t_ur0": self.t_ur0,
                "t_ur1": self.t_ur1, "t_ud": self.t_ud, "t_ur": self.t_ur,
                "t_total": self.t_aggregate}


def aggregate_throughput(cfg: ScenarioConfig,
                         table: SuccessTable | None = None) -> ThroughputReport:
    """Network throughput report at the configured operating point."""
    walk = _Walk(cfg, table)
    queue = _solve(walk)
    n = cfg.n_ues
    # The relay transmits with probability w1: q_r while its queue is
    # nonempty, which is almost surely when unstable (p_empty_prob is 0.0).
    w1 = cfg.q_r * (1.0 - queue.p_empty_prob)
    t_ud = (1.0 - w1) * walk.t_ud0 + w1 * walk.t_ud1
    if queue.stable:
        t_ur = walk.t_fr + (1.0 - w1) * walk.t_ur0 + w1 * walk.t_ur1
        total = n * (t_ud + t_ur)
        regime = STABLE
    else:
        # Only the relay's service rate mu_r reaches the mmAP.
        t_ur = queue.mu_r / n
        total = n * t_ud + queue.mu_r
        regime = UNSTABLE
    return ThroughputReport(walk.t_ud0, walk.t_ud1, walk.t_ur0, walk.t_ur1,
                            t_ud, t_ur, total, regime, queue)

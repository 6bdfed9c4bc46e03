"""Relay-queue arrival/service statistics, DTMC transitions and stability.

The relay stores two kinds of packets: FD transmissions aimed at it that
it decodes, and BR packets it decodes while the mmAP does not (otherwise
the copy at the relay is discarded). Per slot the queue evolves as a
discrete-time Markov chain whose net-change distribution depends on
whether the queue is empty (relay silent) or not (relay transmits with
probability q_r and its beam interferes at the mmAP).

All quantities for arbitrary N are produced by exact enumeration over the
multinomial UE transmission configurations; success events at a receiver
are treated as independent given the configuration (the decoupling
convention, matched by the simulator's ``decoupled`` mode). Two walks
cover the (n_fr, n_fd, n_b) configuration simplex, each once, indexing
the success arrays of ``SuccessTable.grid`` directly:

* ``_queue_walk`` over the N UEs collects the terms of both arrival pmfs,
  of B_r and of the nonempty net-change pmf. ``_solve`` decides Loynes
  stability from them in one place (stable iff q_r > q_r_min) and
  evaluates P(Q = 0) only on the stable side.
* ``_tagged_walk`` over the other N - 1 UEs collects the terms of a
  tagged user's direct deliveries and relay acceptances, relay silent
  and transmitting.

The public quantities here and in ``throughput`` are views over them.
Each pmf cell or rate is one exactly rounded ``math.fsum`` over terms kept
in a flat float64 buffer, so no result depends on the walk order.

Two-UE closed forms are carried both verbatim (``literal=True``) and in
engine-matching form, with every verbatim term that disagrees catalogued
in ``TWO_UE_LITERAL_DISCREPANCIES``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .geometry import ScenarioConfig
from .success import SuccessTable, _binom_pmf


class UnstableQueueError(ValueError):
    """Raised when a stable-regime quantity is requested for an unstable queue."""


@dataclass(frozen=True)
class SlotConfiguration:
    """One joint UE transmission outcome: counts per activity and its weight."""

    n_fr: int      # UEs sending FD to the relay
    n_fd: int      # UEs sending FD to the mmAP
    n_b: int       # UEs broadcasting
    n_idle: int
    relay_tx: bool
    weight: float


@dataclass(frozen=True)
class NetChangeDistribution:
    """Per-slot queue net-change pmfs.

    ``p_empty[k]`` is P(net change = k | queue empty) for k in 0..N;
    ``p_nonempty[i]`` is P(net change = i - 1 | queue nonempty), so index 0
    holds the departure-only event k = -1.
    """

    p_empty: np.ndarray
    p_nonempty: np.ndarray

    def mean_empty(self) -> float:
        return math.fsum(k * v for k, v in enumerate(self.p_empty))

    def mean_nonempty(self) -> float:
        return math.fsum((i - 1) * v for i, v in enumerate(self.p_nonempty))


@dataclass(frozen=True)
class QueueSolution:
    """Arrival/service rates, stability verdict and empty-queue probability."""

    lambda0: float    # mean arrivals per slot, queue empty
    lambda1: float    # mean arrivals per slot, queue nonempty
    a_r: float        # mean arrivals per slot while the relay transmits
    b_r: float        # relay->mmAP success probability averaged over UE activity
    mu_r: float       # service rate q_r * b_r
    q_r_min: float    # stability threshold; may exceed 1 or be inf
    p_empty_prob: float   # P(Q = 0); 0.0 when unstable
    stable: bool


def _ue_activity_probs(cfg: ScenarioConfig) -> tuple[float, float, float]:
    p_fr = cfg.q_u * cfg.q_uf * cfg.q_ur
    p_fd = cfg.q_u * cfg.q_uf * cfg.q_ud
    p_b = cfg.q_u * cfg.q_ub
    return p_fr, p_fd, p_b


def _iter_configs(n: int, p_fr: float, p_fd: float, p_b: float):
    """Yield (weight, n_fr, n_fd, n_b) over all multinomial outcomes of n UEs."""
    p_idle = 1.0 - (p_fr + p_fd + p_b)
    try:
        for n_fr in range(n + 1):
            c1 = math.comb(n, n_fr) * p_fr**n_fr
            if c1 == 0.0:
                continue
            for n_fd in range(n - n_fr + 1):
                c2 = c1 * math.comb(n - n_fr, n_fd) * p_fd**n_fd
                if c2 == 0.0:
                    continue
                for n_b in range(n - n_fr - n_fd + 1):
                    n_idle = n - n_fr - n_fd - n_b
                    w = c2 * math.comb(n - n_fr - n_fd, n_b) * p_b**n_b * \
                        max(p_idle, 0.0) ** n_idle
                    if w == 0.0:
                        continue
                    yield w, n_fr, n_fd, n_b
    except OverflowError:
        raise ValueError(
            f"multinomial weights of {n} UEs overflow a float") from None


def enumerate_configurations(cfg: ScenarioConfig,
                             relay_tx: bool) -> list[SlotConfiguration]:
    """All nonzero-probability transmission configurations of the N UEs."""
    p_fr, p_fd, p_b = _ue_activity_probs(cfg)
    return [
        SlotConfiguration(n_fr, n_fd, n_b, cfg.n_ues - n_fr - n_fd - n_b,
                          relay_tx, w)
        for w, n_fr, n_fd, n_b in _iter_configs(cfg.n_ues, p_fr, p_fd, p_b)
    ]


def _convolve(a: list[float], b: list[float]) -> list[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    cells: list[list[float]] = [[] for _ in out]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            cells[i + j].append(ai * bj)
    for k, terms in enumerate(cells):
        out[k] = math.fsum(terms)
    return out


def _config_arrival_pmf(p_f: float, n_fr: int, p_store: float,
                        n_b: int) -> list[float]:
    """Pmf of packets accepted by the relay queue within one configuration.

    FD->relay packets are stored when decoded (probability ``p_f`` each);
    BR packets are stored when decoded at the relay and lost at the mmAP
    (``p_store``). Within a configuration the per-packet events are
    independent, so the count is a convolution of two binomials.
    """
    pmf_f = _binom_pmf(n_fr, p_f) if n_fr > 0 else [1.0]
    pmf_b = _binom_pmf(n_b, p_store) if n_b > 0 else [1.0]
    return _convolve(pmf_f, pmf_b)


def _buffers(count: int) -> list[array]:
    return [array("d") for _ in range(count)]


def _fsum_cells(cells: list[array]) -> np.ndarray:
    return np.array([math.fsum(t) for t in cells])


def _queue_walk(cfg: ScenarioConfig, table: SuccessTable):
    """(net-change pmfs, arrival pmf with the relay transmitting, B_r).

    The empty-state net-change pmf is the arrival pmf with the relay
    silent. In the nonempty state the relay transmits with probability
    q_r; the departure indicator and the arrival count are conditionally
    independent given the UE configuration, and the mixture is taken per
    configuration (arrivals and the mmAP-side failure of BR packets both
    depend on whether the relay's beam is up).
    """
    n = cfg.n_ues
    q_r = cfg.q_r
    ur_fd = table.grid("ur", "fd", False, n)
    ur_br = table.grid("ur", "br", False, n)
    ud_br0 = table.grid("ud", "br", False, n)
    ud_br1 = table.grid("ud", "br", True, n)
    rd_fd = table.grid("rd", "fd", False, n)
    arr0, arr1, nonempty = _buffers(n + 1), _buffers(n + 1), _buffers(n + 2)
    b_r = array("d")
    for w, n_fr, n_fd, n_b in _iter_configs(n, *_ue_activity_probs(cfg)):
        p_f = ur_fd[n_fr - 1][n_b] if n_fr > 0 else 0.0
        if n_b > 0:
            at_relay = ur_br[n_fr][n_b - 1]
            store0 = at_relay * (1.0 - ud_br0[n_fd][n_b - 1])
            store1 = at_relay * (1.0 - ud_br1[n_fd][n_b - 1])
        else:
            store0 = store1 = 0.0
        pmf0 = _config_arrival_pmf(p_f, n_fr, store0, n_b)
        pmf1 = _config_arrival_pmf(p_f, n_fr, store1, n_b)
        p_dep = rd_fd[n_fd][n_b]
        b_r.append(w * p_dep)
        for k, v in enumerate(pmf0):
            arr0[k].append(w * v)
            if q_r < 1.0:
                nonempty[k + 1].append(w * (1.0 - q_r) * v)
        for k, v in enumerate(pmf1):
            arr1[k].append(w * v)
            if q_r > 0.0:
                # net = arrivals - 1{departure}
                nonempty[k].append(w * q_r * v * p_dep)
                nonempty[k + 1].append(w * q_r * v * (1.0 - p_dep))
    net = NetChangeDistribution(_fsum_cells(arr0), _fsum_cells(nonempty))
    return net, _fsum_cells(arr1), math.fsum(b_r)


def _solve(cfg: ScenarioConfig, table: SuccessTable | None,
           form: str = "transition") -> QueueSolution:
    """The Loynes verdict and, on the stable side only, P(Q = 0) in ``form``."""
    net, arr1, b_r = _queue_walk(cfg, SuccessTable(cfg) if table is None else table)
    q_r = cfg.q_r
    lambda0 = net.mean_empty()
    a_r = math.fsum(k * v for k, v in enumerate(arr1))
    mu_r = q_r * b_r
    lambda1 = (1.0 - q_r) * lambda0 + q_r * a_r
    if lambda0 == 0.0:
        # Queue can never leave the empty state: trivially stable.
        return QueueSolution(lambda0, lambda1, a_r, b_r, mu_r,
                             q_r_min=0.0, p_empty_prob=1.0, stable=True)
    denom = lambda0 + b_r - a_r
    q_r_min = math.inf if denom <= 0.0 else lambda0 / denom
    if not q_r > q_r_min:  # strict: a tie sits on the Loynes boundary
        return QueueSolution(lambda0, lambda1, a_r, b_r, mu_r, q_r_min,
                             p_empty_prob=0.0, stable=False)
    if form == "drift":
        num = mu_r - lambda1
    else:
        pn = net.p_nonempty
        num = math.fsum([pn[0]] + [-k * pn[k + 1] for k in range(1, cfg.n_ues + 1)])
    # A few ulps above q_r_min the numerator rounds to <= 0; its exact
    # limit at the boundary is 0, the unstable-side value.
    p0 = num / (num + lambda0) if num > 0.0 else 0.0
    return QueueSolution(lambda0, lambda1, a_r, b_r, mu_r, q_r_min, p0, True)


def arrival_distribution(cfg: ScenarioConfig, table: SuccessTable,
                         relay_tx: bool) -> np.ndarray:
    """Distribution of the number of packets entering the queue in a slot."""
    net, arr1, _ = _queue_walk(cfg, table)
    return arr1 if relay_tx else net.p_empty


def service_success_probability(cfg: ScenarioConfig, table: SuccessTable) -> float:
    """B_r: relay->mmAP success probability averaged over UE configurations."""
    return _queue_walk(cfg, table)[2]


def net_change_distribution(cfg: ScenarioConfig,
                            table: SuccessTable) -> NetChangeDistribution:
    """Queue net-change pmfs for the empty and nonempty states."""
    return _queue_walk(cfg, table)[0]


def stability_threshold(cfg: ScenarioConfig, table: SuccessTable) -> float:
    """Smallest relay transmit probability that keeps the queue stable.

    Returns 0 when the queue never receives anything, and inf when no
    q_r <= 1 can stabilize it (service never outpaces arrivals). A value
    above 1 likewise means the queue is unstable for every admissible q_r.
    """
    return solve_queue(cfg, table).q_r_min


def solve_queue(cfg: ScenarioConfig, table: SuccessTable | None = None) -> QueueSolution:
    """Full queue characterization at the configured q_r."""
    return _solve(cfg, table)


def empty_probability(cfg: ScenarioConfig, table: SuccessTable | None = None,
                      form: str = "transition") -> float:
    """P(Q = 0) for a stable queue.

    ``form='transition'`` evaluates the steady-state expression built from
    the nonempty net-change probabilities; ``form='drift'`` evaluates the
    flow-balance identity (mu_r - lambda1) / (mu_r - lambda1 + lambda0).
    Both agree to numerical precision whenever the queue is stable. Raises
    ``UnstableQueueError`` exactly when ``solve_queue`` reports the queue
    unstable.
    """
    if form not in ("transition", "drift"):
        raise ValueError(f"unknown form {form!r}")
    sol = _solve(cfg, table, form)
    if not sol.stable:
        raise UnstableQueueError(
            "empty probability undefined; use unstable-regime throughput")
    return sol.p_empty_prob


def _tagged_walk(cfg: ScenarioConfig, table: SuccessTable):
    """A tagged user's (t_ud0, t_ud1, t_fr, t_ur0, t_ur1) from one walk.

    The walk goes over the other N - 1 UEs. Suffix 0/1 is the relay silent
    or transmitting. t_ud: delivered at the mmAP, FD to the mmAP plus BR
    copies; t_fr: FD packets decoded at the relay; t_ur: BR copies decoded
    at the relay and lost at the mmAP.
    """
    n = cfg.n_ues
    p_fr, p_fd, p_b = _ue_activity_probs(cfg)
    ur_fd = table.grid("ur", "fd", False, n)
    ur_br = table.grid("ur", "br", False, n)
    fd0, fd1, br0, br1, fr, st0, st1 = _buffers(7)
    sides = ((table.grid("ud", "fd", False, n), table.grid("ud", "br", False, n),
              fd0, br0, st0),
             (table.grid("ud", "fd", True, n), table.grid("ud", "br", True, n),
              fd1, br1, st1))
    for w, n_fr, n_fd, n_b in _iter_configs(n - 1, p_fr, p_fd, p_b):
        fr.append(w * ur_fd[n_fr][n_b])
        at_relay = ur_br[n_fr][n_b]
        for ud_fd, ud_br, fd_t, br_t, st_t in sides:
            fd_t.append(w * ud_fd[n_fd][n_b])
            at_mmap = ud_br[n_fd][n_b]
            br_t.append(w * at_mmap)
            st_t.append(w * at_relay * (1.0 - at_mmap))
    fsum = math.fsum
    return (p_fd * fsum(fd0) + p_b * fsum(br0), p_fd * fsum(fd1) + p_b * fsum(br1),
            p_fr * fsum(fr), p_b * fsum(st0), p_b * fsum(st1))


# ---------------------------------------------------------------------------
# Two-UE closed forms, used purely as cross-validation vectors.
# ---------------------------------------------------------------------------

#: Verbatim two-UE terms that disagree with the enumeration engine, keyed by
#: (quantity, term), with the reading the engine supports. The engine is
#: authoritative; the verbatim side is kept evaluable so the disagreement
#: stays visible in the test suite.
TWO_UE_LITERAL_DISCREPANCIES: dict[tuple[str, str], str] = {
    ("lambda0", "fr_fr"):
        "weight carries a duplicated q_ur^2 (reads q_u^2 q_uf^2 q_ur^4); "
        "the configuration weight is q_u^2 q_uf^2 q_ur^2",
    ("lambda0", "fr_br"):
        "double-arrival term is 2*(BR store prob)^2; both-packets-stored "
        "probability is 2 * P[fd accept] * P[br store]",
    ("lambda0", "br_br"):
        "single-arrival mmAP-failure profile {2}^b; a tagged BR packet at "
        "the mmAP sees one BR interferer, {1}^b",
    ("a_r", "br_idle"):
        "mmAP failure omits the transmitting relay; should carry the {r} flag",
    ("a_r", "fr_fr"):
        "same duplicated q_ur^2 weight as in lambda0",
    ("a_r", "fr_br"):
        "same 2*(store prob)^2 double-arrival term as in lambda0 "
        "(relay-flagged store probability)",
    ("b_r", "no_ue_interferers"):
        "both-FD-to-relay weight has an extra FD factor (q_uf^2 q_2f q_ur^2); "
        "the weight is q_u^2 q_uf^2 q_ur^2",
    ("b_r", "fd_and_br"):
        "weight 2 q_u q_uf q_ub q_ud misses a q_u factor; "
        "two active UEs give 2 q_u^2 q_uf q_ub q_ud",
    ("p2_0", "br_br"):
        "mmAP failure carries a spurious relay flag; the queue is empty so "
        "the relay is silent: {r}^f,{1}^b should be {1}^b",
    ("p_m1_1", "two_fd"):
        "term sits outside the q_r bracket; a departure requires the relay "
        "to transmit, so it must be scaled by q_r",
    ("p1_1", "fr_fr"):
        "single-arrival-no-departure part misses the factor 2 "
        "(either UE can be the lone arrival)",
    ("p1_1", "fr_br"):
        "double-arrival part uses BR-at-relay profile {2}^f; only one FD "
        "interferer exists at the relay, {1}^f",
    ("p2_1", "silent"):
        "inherits the p2_0 br_br correction through the (1 - q_r) p2_0 term",
    ("p2_1", "fr_br"):
        "mmAP failure omits the transmitting relay; should carry the {r} flag",
}


def two_ue_terms(cfg: ScenarioConfig, table: SuccessTable | None = None,
                 literal: bool = False) -> dict[str, dict[str, float]]:
    """Per-term two-UE closed forms.

    With ``literal=True`` the published expressions are evaluated verbatim
    (modulo the symmetric-UE symbol renames q_1 -> q_u, q_1f/q_2f -> q_uf
    and completion of missing scheme superscripts); otherwise the
    engine-matching reading is used. Term keys name the UE configuration
    (e.g. ``fr_br`` = one FD-to-relay UE plus one broadcasting UE) or the
    relay-side interferer group for b_r and p_m1_1.
    """
    if cfg.n_ues != 2:
        raise ValueError(f"two-UE closed forms require n_ues=2, got {cfg.n_ues}")
    if table is None:
        table = SuccessTable(cfg)
    qu, quf, qub = cfg.q_u, cfg.q_uf, cfg.q_ub
    qur, qud, qr = cfg.q_ur, cfg.q_ud, cfg.q_r
    qun = 1.0 - qu

    p = table.p
    pf_ur_0 = p("ur", "fd", 0, 0)
    pf_ur_1f = p("ur", "fd", 1, 0)
    pf_ur_1b = p("ur", "fd", 0, 1)
    pb_ur_0 = p("ur", "br", 0, 0)
    pb_ur_1f = p("ur", "br", 1, 0)
    pb_ur_2f = p("ur", "br", 2, 0)   # appears only in a verbatim typo
    pb_ur_1b = p("ur", "br", 0, 1)
    pb_ud_0 = p("ud", "br", 0, 0)
    pb_ud_1f = p("ud", "br", 1, 0)
    pb_ud_1b = p("ud", "br", 0, 1)
    pb_ud_2b = p("ud", "br", 0, 2)   # appears only in a verbatim typo
    pb_ud_0r = p("ud", "br", 0, 0, relay=True)
    pb_ud_1fr = p("ud", "br", 1, 0, relay=True)
    pb_ud_1br = p("ud", "br", 0, 1, relay=True)
    prd_0 = p("rd", "fd", 0, 0)
    prd_1f = p("rd", "fd", 1, 0)
    prd_1b = p("rd", "fd", 0, 1)
    prd_2f = p("rd", "fd", 2, 0)
    prd_2b = p("rd", "fd", 0, 2)
    prd_1f1b = p("rd", "fd", 1, 1)

    # Configuration weights for two UEs.
    w_idle2 = qun * qun
    w_fr_idle = 2.0 * qu * qun * quf * qur
    w_fd_idle = 2.0 * qu * qun * quf * qud
    w_br_idle = 2.0 * qu * qun * qub
    w_fr_fr = (qu * quf * qur) ** 2
    w_fd_fd = (qu * quf * qud) ** 2
    w_br_br = (qu * qub) ** 2
    w_fr_fd = 2.0 * qu**2 * quf**2 * qur * qud
    w_fr_br = 2.0 * qu**2 * quf * qub * qur
    w_fd_br = 2.0 * qu**2 * quf * qub * qud

    # BR queue-acceptance probabilities per configuration (decoded at the
    # relay AND lost at the mmAP), without/with the relay transmitting.
    br_lone = pb_ur_0 * (1.0 - pb_ud_0)
    br_lone_r = pb_ur_0 * (1.0 - pb_ud_0r)
    br_beside_fr = pb_ur_1f * (1.0 - pb_ud_0)
    br_beside_fr_r = pb_ur_1f * (1.0 - pb_ud_0r)
    br_beside_fd = pb_ur_0 * (1.0 - pb_ud_1f)
    br_beside_fd_r = pb_ur_0 * (1.0 - pb_ud_1fr)
    br_pair = pb_ur_1b * (1.0 - pb_ud_1b)
    br_pair_r = pb_ur_1b * (1.0 - pb_ud_1br)

    lambda0 = {
        "fr_idle": w_fr_idle * pf_ur_0,
        "br_idle": w_br_idle * br_lone,
        "fr_fr": (qu**2 * quf**2 * qur**4
                  * (2.0 * pf_ur_1f * (1.0 - pf_ur_1f) + 2.0 * pf_ur_1f**2)
                  if literal else w_fr_fr * 2.0 * pf_ur_1f),
        "fr_fd": w_fr_fd * pf_ur_0,
        "fr_br": (w_fr_br * (pf_ur_1b * (1.0 - br_beside_fr)
                             + (1.0 - pf_ur_1b) * br_beside_fr
                             + 2.0 * br_beside_fr**2)
                  if literal else w_fr_br * (pf_ur_1b + br_beside_fr)),
        "fd_br": w_fd_br * br_beside_fd,
        "br_br": (w_br_br * (2.0 * pb_ur_1b * (1.0 - pb_ud_2b) * (1.0 - br_pair)
                             + 2.0 * br_pair**2)
                  if literal else w_br_br * 2.0 * br_pair),
    }

    a_r = {
        "fr_idle": w_fr_idle * pf_ur_0,
        "br_idle": (w_br_idle * br_lone if literal else w_br_idle * br_lone_r),
        "fr_fr": (qu**2 * quf**2 * qur**4
                  * (2.0 * pf_ur_1f * (1.0 - pf_ur_1f) + 2.0 * pf_ur_1f**2)
                  if literal else w_fr_fr * 2.0 * pf_ur_1f),
        "fr_fd": w_fr_fd * pf_ur_0,
        "fr_br": (w_fr_br * (pf_ur_1b * (1.0 - br_beside_fr_r)
                             + (1.0 - pf_ur_1b) * br_beside_fr_r
                             + 2.0 * br_beside_fr_r**2)
                  if literal else w_fr_br * (pf_ur_1b + br_beside_fr_r)),
        "fd_br": w_fd_br * br_beside_fd_r,
        "br_br": w_br_br * 2.0 * br_pair_r,
    }

    b_r = {
        "no_ue_interferers": prd_0 * (
            w_idle2 + w_fr_idle
            + (qu**2 * quf**3 * qur**2 if literal else w_fr_fr)),
        "one_fd": prd_1f * (w_fd_idle + w_fr_fd),
        "one_br": prd_1b * (w_br_idle + w_fr_br),
        "two_fd": prd_2f * w_fd_fd,
        "fd_and_br": prd_1f1b * (2.0 * qu * quf * qub * qud if literal
                                 else w_fd_br),
        "two_br": prd_2b * w_br_br,
    }

    p1_0 = {
        "fr_idle": w_fr_idle * pf_ur_0,
        "br_idle": w_br_idle * br_lone,
        "fr_fr": w_fr_fr * 2.0 * pf_ur_1f * (1.0 - pf_ur_1f),
        "fr_fd": w_fr_fd * pf_ur_0,
        "fr_br": w_fr_br * (pf_ur_1b * (1.0 - br_beside_fr)
                            + (1.0 - pf_ur_1b) * br_beside_fr),
        "fd_br": w_fd_br * br_beside_fd,
        "br_br": w_br_br * 2.0 * br_pair * (1.0 - br_pair),
    }

    p2_0 = {
        "fr_fr": w_fr_fr * pf_ur_1f**2,
        "br_br": w_br_br * (br_pair_r**2 if literal else br_pair**2),
        "fr_br": w_fr_br * pf_ur_1b * br_beside_fr,
    }

    p_m1_1 = {
        "no_ue_interferers": qr * prd_0 * (
            w_idle2 + w_fr_idle * (1.0 - pf_ur_0)
            + w_fr_fr * (1.0 - pf_ur_1f) ** 2),
        "one_fd": qr * prd_1f * (w_fd_idle + w_fr_fd * (1.0 - pf_ur_0)),
        "one_br": qr * prd_1b * (
            w_br_idle * (1.0 - br_lone_r)
            + w_fr_br * (1.0 - br_beside_fr_r) * (1.0 - pf_ur_1b)),
        "fd_and_br": qr * prd_1f1b * w_fd_br * (1.0 - br_beside_fd_r),
        "two_br": qr * prd_2b * w_br_br * (1.0 - br_pair_r) ** 2,
        "two_fd": (prd_2f * w_fd_fd if literal else qr * prd_2f * w_fd_fd),
    }

    # One verbatim p1_1 factor conditions a relay-side reception on the relay
    # itself interfering ({r}^f at the UE->relay link); the relay cannot
    # interfere with its own receptions, so the only evaluable reading is the
    # profile without it, which coincides with the engine.
    p1_1 = {
        "silent": (1.0 - qr) * math.fsum(p1_0.values()),
        "fr_idle": qr * w_fr_idle * pf_ur_0 * (1.0 - prd_0),
        "br_idle": qr * w_br_idle * br_lone_r * (1.0 - prd_1b),
        "fr_fd": qr * w_fr_fd * pf_ur_0 * (1.0 - prd_1f),
        "fd_br": qr * w_fd_br * br_beside_fd_r * (1.0 - prd_1f1b),
        "fr_fr": qr * w_fr_fr * (
            (pf_ur_1f * (1.0 - pf_ur_1f) * (1.0 - prd_0) + pf_ur_1f**2 * prd_0)
            if literal else
            (2.0 * pf_ur_1f * (1.0 - pf_ur_1f) * (1.0 - prd_0)
             + pf_ur_1f**2 * prd_0)),
        "br_br": qr * w_br_br * (
            2.0 * br_pair_r * (1.0 - br_pair_r) * (1.0 - prd_2b)
            + br_pair_r**2 * prd_2b),
        "fr_br": qr * w_fr_br * (
            (br_beside_fr_r * (1.0 - pf_ur_1b) * (1.0 - prd_1b)
             + (1.0 - br_beside_fr_r) * pf_ur_1b * (1.0 - prd_1b)
             + pb_ur_2f * (1.0 - pb_ud_0r) * pf_ur_1b * prd_1b)
            if literal else
            (br_beside_fr_r * (1.0 - pf_ur_1b) * (1.0 - prd_1b)
             + (1.0 - br_beside_fr_r) * pf_ur_1b * (1.0 - prd_1b)
             + br_beside_fr_r * pf_ur_1b * prd_1b)),
    }

    p2_1 = {
        "silent": (1.0 - qr) * math.fsum(p2_0.values()),
        "fr_fr": qr * w_fr_fr * pf_ur_1f**2 * (1.0 - prd_0),
        "br_br": qr * w_br_br * br_pair_r**2 * (1.0 - prd_2b),
        "fr_br": qr * w_fr_br * pf_ur_1b * (1.0 - prd_1b) * (
            pb_ur_1f * (1.0 - pb_ud_0) if literal else br_beside_fr_r),
    }

    return {
        "lambda0": lambda0,
        "a_r": a_r,
        "b_r": b_r,
        "p1_0": p1_0,
        "p2_0": p2_0,
        "p_m1_1": p_m1_1,
        "p1_1": p1_1,
        "p2_1": p2_1,
    }


def two_ue_closed_forms(cfg: ScenarioConfig,
                        table: SuccessTable | None = None) -> dict[str, float]:
    """Engine-matching two-UE closed forms, exposed solely for validation."""
    terms = two_ue_terms(cfg, table, literal=False)
    return {name: math.fsum(parts.values()) for name, parts in terms.items()}

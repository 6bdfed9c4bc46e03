"""Independent brute-force oracles used to validate the analytical paths.

These deliberately avoid the production shortcuts: the success-probability
oracle enumerates every joint LOS/NLOS assignment one interferer at a
time (no binomial partition counting), and the arrival oracle enumerates
per-user decision tuples and acceptance subsets (no pmf convolution).
Both share only the link-budget power primitives with the code under test.
The stored-count oracle is the queue walk's convolution of two binomial
pmfs, one configuration at a time, with the library's numpy powers and
term order, so the block built over all rows must reproduce it exactly.
``sinr_linear`` is the decode rule in its division form,
s / (noise + alpha * I) >= gamma, which the library replaces by
comparing I with ``LinkBudget.thresholds``; the success oracles decide by
the division. The success-table oracle is a scalar loop over the binomial
LOS partitions; the array table must reproduce its floats exactly. The
queue-scan oracle is the simulator's slot-by-slot queue update, which the
vectorized scan must reproduce exactly. The binomial oracle is numpy's
scalar binomial draw, which the simulator's tabulated sampler must
reproduce draw for draw. The two-UE closed forms are
carried both verbatim (``literal=True``) and in engine-matching form, with
every verbatim term that disagrees catalogued in
``TWO_UE_LITERAL_DISCREPANCIES``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from mmrelay.geometry import LinkBudget, LinkState, ScenarioConfig
from mmrelay.success import SuccessTable


def interferer_link(link: str) -> str:
    """Link traversed by an interfering UE toward this link's receiver:
    "ur" toward the relay, "ud" toward the mmAP (for "ud" and "rd")."""
    return "ur" if link == "ur" else "ud"


def sinr(budget: LinkBudget, signal: float, interference: float) -> float:
    """signal / (noise + alpha * interference): the division form."""
    return signal / (budget.noise_w + budget.alpha * interference)


def sinr_linear(budget: LinkBudget, link: str, desired_state: LinkState,
                scheme: str, k_f_los: int, k_f_nlos: int, k_b_los: int,
                k_b_nlos: int, relay_interfering: bool = False) -> float:
    """SINR for one reception given a fixed LOS partition of interferers."""
    b = budget
    if relay_interfering and link == "ur":
        raise ValueError("the relay can interfere only at the mmAP")
    if relay_interfering and link == "rd":
        raise ValueError("the relay does not interfere with its own packet")
    los, nlos = b.powers(link, scheme)
    signal = los if desired_state is LinkState.LOS else nlos
    ilink = interferer_link(link)
    (p_fl, p_fn), (p_bl, p_bn) = b.powers(ilink, "fd"), b.powers(ilink, "br")
    interference = (k_f_los * p_fl + k_f_nlos * p_fn
                    + k_b_los * p_bl + k_b_nlos * p_bn)
    if relay_interfering:
        interference += b.relay_interference_w
    return sinr(b, signal, interference)


def cell(table, link: str, scheme: str, n_f: int, n_b: int,
         relay: bool = False) -> float:
    """S[n_f, n_b] of one key of ``table``, for counts n_f, n_b >= 0 with
    n_f + n_b <= N; other counts are refused, so that a negative one
    cannot wrap around the array."""
    if not (n_f >= 0 and n_b >= 0 and n_f + n_b <= table.cfg.n_ues):
        raise ValueError(f"interferer counts ({n_f}, {n_b}) must be >= 0 "
                         f"with a sum of at most N = {table.cfg.n_ues}")
    return float(table.grid(link, scheme, relay)[n_f, n_b])


def success_probability_bruteforce(cfg: ScenarioConfig, link: str, scheme: str,
                                   n_f: int, n_b: int,
                                   relay_active: bool = False) -> float:
    """Average the SINR indicator over all 2^(1 + n_f + n_b) LOS states.

    Each state is weighed one interferer at a time; its SINR is
    ``sinr_linear`` of the state's LOS counts.
    """
    b = LinkBudget(cfg)
    p_des = b.p_los(link)
    p_int = b.p_los(interferer_link(link))
    total = 0.0
    states = (LinkState.LOS, LinkState.NLOS)
    for des_state in states:
        w_des = p_des if des_state is LinkState.LOS else 1.0 - p_des
        if w_des == 0.0:
            continue
        for combo in itertools.product(states, repeat=n_f + n_b):
            w = w_des
            for st in combo:
                w *= p_int if st is LinkState.LOS else 1.0 - p_int
            k_f = combo[:n_f].count(LinkState.LOS)
            k_b = combo[n_f:].count(LinkState.LOS)
            value = sinr_linear(b, link, des_state, scheme, k_f, n_f - k_f,
                                k_b, n_b - k_b, relay_active)
            if value >= b.gamma_linear:
                total += w
    return total


def success_table_oracle(table, link: str, scheme: str, n_f: int, n_b: int,
                         relay_active: bool = False) -> float:
    """One success-table cell by a scalar loop over the LOS partitions.

    Calls ``sinr_linear`` once per partition and sums the
    weights (w_state * w_f[k]) * w_b[h] of the partitions that clear gamma
    with one ``math.fsum``, the float expressions the table must reproduce
    bit for bit.
    """
    b = table.budget
    gamma = b.gamma_linear
    p_des = b.p_los(link)
    p_int = b.p_los(interferer_link(link))

    def pmf(n):
        return [math.comb(n, k) * p_int**k * (1.0 - p_int) ** (n - k)
                for k in range(n + 1)]

    w_f, w_b = pmf(n_f), pmf(n_b)
    terms = []
    for state, w_state in ((LinkState.LOS, p_des), (LinkState.NLOS, 1.0 - p_des)):
        if w_state == 0.0:
            continue
        for k in range(n_f + 1):
            for h in range(n_b + 1):
                value = sinr_linear(b, link, state, scheme,
                                    k, n_f - k, h, n_b - h, relay_active)
                if value >= gamma:
                    terms.append(w_state * w_f[k] * w_b[h])
    return math.fsum(terms)


def _decision_probs(cfg: ScenarioConfig) -> dict[str, float]:
    return {
        "idle": 1.0 - cfg.q_u,
        "fr": cfg.q_u * cfg.q_uf * cfg.q_ur,
        "fd": cfg.q_u * cfg.q_uf * cfg.q_ud,
        "br": cfg.q_u * cfg.q_ub,
    }


def arrival_pmf_bruteforce(cfg: ScenarioConfig, table, relay_tx: bool) -> list[float]:
    """Queue-arrival pmf by enumerating decision tuples and acceptance subsets.

    Uses the same per-reception success probabilities as the engine but
    assembles the count distribution by explicit subset enumeration, so a
    bug in the binomial/convolution path cannot hide. Exponential in N:
    about 0.1 s at N = 6.
    """
    n = cfg.n_ues
    probs = _decision_probs(cfg)
    pmf = [0.0] * (n + 1)
    for decisions in itertools.product(("idle", "fr", "fd", "br"), repeat=n):
        w = math.prod(probs[d] for d in decisions)
        if w == 0.0:
            continue
        n_fr = decisions.count("fr")
        n_fd = decisions.count("fd")
        n_b = decisions.count("br")
        accept = []
        for d in decisions:
            if d == "fr":
                accept.append(cell(table, "ur", "fd", n_fr - 1, n_b))
            elif d == "br":
                p_r = cell(table, "ur", "br", n_fr, n_b - 1)
                p_d = cell(table, "ud", "br", n_fd, n_b - 1, relay_tx)
                accept.append(p_r * (1.0 - p_d))
        for outcome in itertools.product((0, 1), repeat=len(accept)):
            wo = w
            for p_acc, got in zip(accept, outcome):
                wo *= p_acc if got else 1.0 - p_acc
            pmf[sum(outcome)] += wo
    return pmf


def stored_pmf_oracle(n: int, n_fr: int, n_b: int, p_f: float,
                      store: float) -> list[float]:
    """P(k stored | configuration) for k = 0..n: Binomial(n_fr, p_f)
    convolved with Binomial(n_b, store).

    Each pmf term is comb * p**k * (1 - p)**(m - k) with numpy ``**`` (the
    library's powers; Python ``**`` differs in the last bit for some
    pairs), and each cell adds its products in increasing i, the
    FD->relay count.
    """
    def pmf(m, p):
        k = np.arange(m + 1)
        comb = np.array([float(math.comb(m, j)) for j in k])
        p = np.float64(p)
        return (comb * p**k * (1.0 - p) ** (m - k)).tolist()

    pmf_f, pmf_b = pmf(n_fr, p_f), pmf(n_b, store)
    out = [0.0] * (n + 1)
    for i, a in enumerate(pmf_f):
        for j, b in enumerate(pmf_b):
            out[i + j] += a * b
    return out


def per_user_throughput_bruteforce(cfg: ScenarioConfig, table,
                                   relay_interfering: bool) -> tuple[float, float]:
    """(direct, accepted-at-relay) rates for a tagged user by enumeration.

    Enumerates the tagged user's decision jointly with every other user's
    decision tuple; usable for N <= 4.
    """
    n = cfg.n_ues
    probs = _decision_probs(cfg)
    direct = 0.0
    relayed = 0.0
    for others in itertools.product(("idle", "fr", "fd", "br"), repeat=n - 1):
        w = math.prod(probs[d] for d in others)
        if w == 0.0:
            continue
        n_fr = others.count("fr")
        n_fd = others.count("fd")
        n_b = others.count("br")
        # tagged user FD to the mmAP
        direct += w * probs["fd"] * cell(table, "ud", "fd", n_fd, n_b, relay_interfering)
        # tagged user FD to the relay
        relayed += w * probs["fr"] * cell(table, "ur", "fd", n_fr, n_b)
        # tagged user BR: mmAP copy counts as direct, relay copy stored on
        # mmAP failure
        p_d = cell(table, "ud", "br", n_fd, n_b, relay_interfering)
        p_r = cell(table, "ur", "br", n_fr, n_b)
        direct += w * probs["br"] * p_d
        relayed += w * probs["br"] * p_r * (1.0 - p_d)
    return direct, relayed


def scan_chunk_oracle(q, t0, arr_s, arr_t, dir_s, dir_t, rd_ok, coin,
                      warm, blen, nb, early_end, late_start, bat, qacc):
    """Sequential queue update over one precomputed chunk.

    bat rows accumulate per-batch [direct, relay_dep, enqueued, nonempty,
    empty]; qacc accumulates [sum_q_measured, max_q, sum_q_early,
    sum_q_late, enqueued_total, departed_total] (the last two over the
    whole run, warm-up included).
    """
    n = arr_s.shape[0]
    for i in range(n):
        t = t0 + i
        nonempty = q > 0
        if nonempty and coin[i]:
            dep = 1 if rd_ok[i] else 0
            a = arr_t[i]
            d = dir_t[i]
        else:
            dep = 0
            a = arr_s[i]
            d = dir_s[i]
        q += a - dep
        qacc[4] += a
        qacc[5] += dep
        if t < early_end:
            qacc[2] += q
        if t >= late_start:
            qacc[3] += q
        if t >= warm:
            b = (t - warm) // blen
            if b < nb:
                bat[b, 0] += d
                bat[b, 1] += dep
                bat[b, 2] += a
                if nonempty:
                    bat[b, 3] += 1.0
                else:
                    bat[b, 4] += 1.0
                qacc[0] += q
                if q > qacc[1]:
                    qacc[1] = q
    return q


def binomial_oracle(next_double, n: int, p: float) -> int:
    """numpy's ``Generator.binomial`` for one (n, p), drawing from ``next_double``.

    A line-by-line port of ``random_binomial`` and
    ``random_binomial_inversion`` in numpy 2.x's
    ``random/src/distributions/distributions.c``: no draw for n = 0 or
    p = 0, p > 0.5 mapped to n - X(1 - p), and sequential inversion of one
    double, drawn again whenever X passes the cut-off. The BTPE branch,
    taken when n * min(p, 1 - p) > 30, is not ported.
    """
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        if p * n <= 30.0:
            return _binomial_inversion(next_double, n, p)
    else:
        q = 1.0 - p
        if q * n <= 30.0:
            return n - _binomial_inversion(next_double, n, q)
    raise NotImplementedError("numpy uses BTPE for n * min(p, 1 - p) > 30")


def _binomial_inversion(next_double, n: int, p: float) -> int:
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x = 0
    px = qn
    u = next_double()
    while u > px:
        x += 1
        if x > bound:
            x = 0
            px = qn
            u = next_double()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


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

    def p(link, scheme, n_f, n_b, relay=False):
        return cell(table, link, scheme, n_f, n_b, relay)

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

"""Independent brute-force oracles used to validate the analytical paths.

These deliberately avoid the production shortcuts: the success-probability
oracle enumerates every joint LOS/NLOS assignment one interferer at a
time (no binomial partition counting), and the arrival oracle enumerates
per-user decision tuples and acceptance subsets (no pmf convolution).
Both share only the link-budget power primitives with the code under test.
The success-table oracle is a scalar loop over the binomial LOS
partitions; the array table must reproduce its floats exactly. The
queue-scan oracle is the simulator's slot-by-slot queue update, which the
vectorized scan must reproduce exactly.
"""

from __future__ import annotations

import itertools
import math

from mmrelay.geometry import LinkBudget, LinkState, ScenarioConfig


def success_probability_bruteforce(cfg: ScenarioConfig, link: str, scheme: str,
                                   n_f: int, n_b: int,
                                   relay_active: bool = False) -> float:
    """Average the SINR indicator over all 2^(1 + n_f + n_b) LOS states."""
    b = LinkBudget(cfg)
    ilink = b.interferer_link(link)
    p_des = b.p_los(link)
    p_int = b.p_los(ilink)
    gamma = b.gamma_linear
    total = 0.0
    states = (LinkState.LOS, LinkState.NLOS)
    for des_state in states:
        w_des = p_des if des_state is LinkState.LOS else 1.0 - p_des
        if w_des == 0.0:
            continue
        signal = b.power(link, scheme, des_state)
        for combo in itertools.product(states, repeat=n_f + n_b):
            w = w_des
            interference = 0.0
            for idx, st in enumerate(combo):
                w *= p_int if st is LinkState.LOS else 1.0 - p_int
                kind = "fd" if idx < n_f else "br"
                interference += b.power(ilink, kind, st)
            if relay_active:
                interference += b.power("rd", "fd", LinkState.LOS)
            if signal / (b.noise_w + b.alpha * interference) >= gamma:
                total += w
    return total


def success_table_oracle(table, link: str, scheme: str, n_f: int, n_b: int,
                         relay_active: bool = False) -> float:
    """One success-table cell by a scalar loop over the LOS partitions.

    Calls the public ``sinr_linear`` once per partition and sums the
    weights (w_state * w_f[k]) * w_b[h] of the partitions that clear gamma
    with one ``math.fsum``, the float expressions the table must reproduce
    bit for bit.
    """
    b = table.budget
    gamma = b.gamma_linear
    p_des = b.p_los(link)
    p_int = b.p_los(b.interferer_link(link))

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
                sinr = table.sinr_linear(link, state, scheme,
                                         k, n_f - k, h, n_b - h, relay_active)
                if sinr >= gamma:
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
    bug in the binomial/convolution path cannot hide. Exponential in N;
    keep N <= 4.
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
                accept.append(table.p("ur", "fd", n_fr - 1, n_b))
            elif d == "br":
                p_r = table.p("ur", "br", n_fr, n_b - 1)
                p_d = table.p("ud", "br", n_fd, n_b - 1, relay_tx)
                accept.append(p_r * (1.0 - p_d))
        for outcome in itertools.product((0, 1), repeat=len(accept)):
            wo = w
            for p_acc, got in zip(accept, outcome):
                wo *= p_acc if got else 1.0 - p_acc
            pmf[sum(outcome)] += wo
    return pmf


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
        direct += w * probs["fd"] * table.p("ud", "fd", n_fd, n_b, relay_interfering)
        # tagged user FD to the relay
        relayed += w * probs["fr"] * table.p("ur", "fd", n_fr, n_b)
        # tagged user BR: mmAP copy counts as direct, relay copy stored on
        # mmAP failure
        p_d = table.p("ud", "br", n_fd, n_b, relay_interfering)
        p_r = table.p("ur", "br", n_fr, n_b)
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

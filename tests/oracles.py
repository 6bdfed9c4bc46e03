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
reproduce draw for draw. The reference simulator is the simulator's
whole contract in plain loops, with ``Generator.binomial`` draws, per-slot
interference sums and the queue-scan oracle; ``simulator.run`` must
reproduce its statistics bit for bit. The two-UE closed forms are
carried both verbatim (``literal=True``) and in engine-matching form, with
every verbatim term that disagrees catalogued in
``TWO_UE_LITERAL_DISCREPANCIES``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from mmrelay.geometry import LinkBudget, LinkState, ScenarioConfig
from mmrelay.simulator import (_CHUNK, _TARGET_BATCHES, _WARMUP_CAP, SimStats,
                               _se)
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

    Each per-slot value is read as a Python int: with numpy scalars of a
    narrow type, ``q`` would take that type and wrap.
    """
    n = arr_s.shape[0]
    for i in range(n):
        t = t0 + i
        nonempty = q > 0
        if nonempty and coin[i]:
            dep = 1 if rd_ok[i] else 0
            a = int(arr_t[i])
            d = int(dir_t[i])
        else:
            dep = 0
            a = int(arr_s[i])
            d = int(dir_s[i])
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
# Reference simulator: the simulator's contract, written plainly.
# ---------------------------------------------------------------------------

# The five receptions of a slot, in the simulator's order, as the (link,
# scheme) of their signal: FD and BR at the relay, BR and FD at the mmAP,
# and the relay's packet at the mmAP.
_REF_RECEPTIONS = (("ur", "fd"), ("ur", "br"), ("ud", "br"), ("ud", "fd"),
                   ("rd", "fd"))


def _ref_interferers(fr: int, fd: int, b: int):
    """Per reception kind of a slot with fr FD->relay, fd FD->mmAP and b
    BR transmissions: (receptions, FD interferers, BR interferers) of
    each reception. An FD packet aimed at the other receiver does not
    interfere; the relay sends one packet per slot."""
    return ((fr, fr - 1, b), (b, fr, b - 1), (b, fd, b - 1),
            (fd, fd - 1, b), (1, fd, b))


def _ref_decoupled(gen, budget: LinkBudget, n_fr, n_fd, n_b):
    """Per reception kind, each reception's (desired LOS state,
    interference), in slot order, with fresh LOS draws per reception.

    Kind after kind, over the whole chunk: the desired states (the
    relay's is always LOS and draws none), then the LOS counts among the
    FD interferers, then among the BR ones, at the interferers' link's
    p_los. The interference adds LOS and NLOS powers left to right."""
    out = []
    for kind in range(len(_REF_RECEPTIONS)):
        link = "ur" if kind < 2 else "ud"
        kf, kb = [], []
        for slot in zip(n_fr, n_fd, n_b):
            m, f, b = _ref_interferers(*slot)[kind]
            kf += [f] * m
            kb += [b] * m
        p = budget.p_los(link)
        los = ((gen.random(len(kf)) < p).tolist() if kind < 4
               else [True] * len(kf))
        k_f = gen.binomial(np.array(kf, dtype=np.int64), p).tolist()
        k_b = gen.binomial(np.array(kb, dtype=np.int64), p).tolist()
        fd, br = budget.powers(link, "fd"), budget.powers(link, "br")
        out.append([(d, x * fd[0] + (f - x) * fd[1] + y * br[0]
                     + (b - y) * br[1])
                    for d, x, f, y, b in zip(los, k_f, kf, k_b, kb)])
    return out


def _ref_total(received) -> float:
    """The received powers of a slot's transmissions added in order."""
    total = 0.0
    for _, power in received:
        total += power
    return total


def _ref_physical(gen, budget: LinkBudget, n_fr, n_fd, n_b):
    """Per reception kind, each reception's (desired LOS state,
    interference), in slot order, with one LOS draw per link per slot.

    The draws come first, over the whole chunk: the LOS states of the
    FD->relay, then the BR transmissions toward the relay, then of the
    FD->mmAP, then the BR transmissions toward the mmAP. A reception's
    interference is its slot's total at the receiver, FD then BR, less
    its own power."""
    sent = (("ur", "fd", n_fr), ("ur", "br", n_b), ("ud", "fd", n_fd),
            ("ud", "br", n_b))
    states = [iter((gen.random(sum(n)) < budget.p_los(link)).tolist())
              for link, _, n in sent]
    out = [[] for _ in _REF_RECEPTIONS]
    for slot in zip(n_fr, n_b, n_fd, n_b):
        fr_r, b_r, fd_d, b_d = (
            [(los, budget.powers(link, scheme)[0 if los else 1])
             for los in itertools.islice(state, m)]
            for (link, scheme, _), state, m in zip(sent, states, slot))
        at_r = _ref_total(fr_r) + _ref_total(b_r)
        at_d = _ref_total(fd_d) + _ref_total(b_d)
        for kind, (received, total) in enumerate(
                ((fr_r, at_r), (b_r, at_r), (b_d, at_d), (fd_d, at_d))):
            out[kind] += [(los, total - power) for los, power in received]
        out[4].append((True, at_d))
    return out


def _ref_decoded(los: bool, interference: float, thresholds) -> bool:
    return interference <= thresholds[0 if los else 1]


def _ref_outcomes(budget: LinkBudget, n_fr, n_fd, n_b, receptions):
    """(arr_s, arr_t, dir_s, dir_t, rd_ok) of each slot, slot by slot.

    The queue stores the decoded FD->relay packets and the BR packets
    decoded at the relay and lost at the mmAP; the FD and BR packets
    decoded at the mmAP are delivered. With the relay transmitting
    (suffix t), its power adds to the interference at the mmAP."""
    thr = [budget.thresholds(*r) for r in _REF_RECEPTIONS]
    p_relay = budget.relay_interference_w
    fd_r, br_r, br_d, fd_d, rd = map(iter, receptions)
    out = []
    for fr, fd, b in zip(n_fr, n_fd, n_b):
        stored_fr = sum(_ref_decoded(*next(fd_r), thr[0]) for _ in range(fr))
        at_relay = [_ref_decoded(*next(br_r), thr[1]) for _ in range(b)]
        silent = [next(br_d) for _ in range(b)], [next(fd_d) for _ in range(fd)]
        transmitting = tuple([(los, i + p_relay) for los, i in kind]
                             for kind in silent)
        arrivals, direct = [], []
        for at_mmap_b, at_mmap_fd in (silent, transmitting):
            ok_b = [_ref_decoded(*r, thr[2]) for r in at_mmap_b]
            arrivals.append(stored_fr + sum(
                r and not d for r, d in zip(at_relay, ok_b)))
            direct.append(sum(_ref_decoded(*r, thr[3]) for r in at_mmap_fd)
                          + sum(ok_b))
        out.append((*arrivals, *direct, _ref_decoded(*next(rd), thr[4])))
    return out


def simulate_reference(cfg: ScenarioConfig, n_slots: int, seed: int,
                       mode: str = "decoupled") -> SimStats:
    """``simulator.run``'s statistics, bit for bit, from plain code.

    The contract: ``SeedSequence(seed).spawn(3)`` gives the transmission
    stream and the physical and decoupled LOS streams. Slots go in chunks
    of ``_CHUNK``. Per chunk, the transmission stream draws the per-slot
    counts (Binomial(N, q_u) transmitters, Binomial(of those, q_uf) FD,
    Binomial(of those, q_ur) aimed at the relay, the rest BR), then the
    relay's q_r coins; the mode's stream then draws the chunk's LOS
    values. Each binomial is ``Generator.binomial`` and each LOS state
    ``random() < p_los``. Every reception is decided by the budget's
    thresholds, the queue is updated slot by slot
    (``scan_chunk_oracle``), and the statistics are assembled as ``run``
    assembles them.
    """
    budget = LinkBudget(cfg)
    child = np.random.SeedSequence(seed).spawn(3)
    choices = np.random.Generator(np.random.PCG64(child[0]))
    decoupled = mode == "decoupled"
    gen = np.random.Generator(np.random.PCG64(child[2 if decoupled else 1]))
    receptions = _ref_decoupled if decoupled else _ref_physical

    warm = min(n_slots // 10, _WARMUP_CAP)
    measured = n_slots - warm
    nb = min(_TARGET_BATCHES, measured)
    blen = measured // nb
    early_end = n_slots // 4
    late_start = n_slots - n_slots // 4
    bat, qacc, q = np.zeros((nb, 5)), np.zeros(6), 0
    for t0 in range(0, n_slots, _CHUNK):
        c = min(_CHUNK, n_slots - t0)
        n_tx = choices.binomial(np.full(c, cfg.n_ues), cfg.q_u)
        n_f = choices.binomial(n_tx, cfg.q_uf)
        n_fr = choices.binomial(n_f, cfg.q_ur)
        coin = choices.random(c) < cfg.q_r
        counts = n_fr.tolist(), (n_f - n_fr).tolist(), (n_tx - n_f).tolist()
        slots = _ref_outcomes(budget, *counts,
                              receptions(gen, budget, *counts))
        q = int(scan_chunk_oracle(q, t0, *map(np.array, zip(*slots)), coin,
                                  warm, blen, nb, early_end, late_start,
                                  bat, qacc))

    in_batches = nb * blen
    direct, relayed, enqueued, nonempty, empties = bat.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_b = np.where(bat[:, 3] > 0, bat[:, 1] / bat[:, 3], math.nan)
    return SimStats(
        slots=n_slots,
        warmup_slots=warm,
        measured_slots=in_batches,
        n_batches=nb,
        delivered_direct=int(direct),
        delivered_relay=int(relayed),
        t_sim=(direct + relayed) / in_batches,
        t_sim_se=_se((bat[:, 0] + bat[:, 1]) / blen),
        lambda_sim=enqueued / in_batches,
        lambda_sim_se=_se(bat[:, 2] / blen),
        mu_sim=relayed / nonempty if nonempty > 0 else math.nan,
        mu_sim_se=_se(mu_b),
        p_empty_sim=empties / in_batches,
        p_empty_se=_se(bat[:, 4] / blen),
        mean_queue=qacc[0] / in_batches,
        max_queue=int(qacc[1]),
        queue_final=q,
        enqueued_total=int(qacc[4]),
        departed_total=int(qacc[5]),
        mean_queue_first_quarter=(qacc[2] / early_end if early_end
                                  else math.nan),
        mean_queue_last_quarter=(qacc[3] / (n_slots - late_start)
                                 if n_slots - late_start else math.nan),
        drift_sim=q / n_slots,
        seed=seed,
        mode=mode,
    )


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

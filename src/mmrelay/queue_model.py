"""Relay-queue arrival/service statistics, DTMC transitions and stability.

The relay stores two kinds of packets: FD transmissions aimed at it that
it decodes, and BR packets it decodes while the mmAP does not (otherwise
the copy at the relay is discarded). Per slot the queue evolves as a
discrete-time Markov chain whose net-change distribution depends on
whether the queue is empty (relay silent) or not (relay transmits with
probability q_r and its beam interferes at the mmAP).

All quantities for arbitrary N are exact sums over the multinomial UE
transmission configurations (n_fr, n_fd, n_b); success events at a
receiver are treated as independent given the configuration (the
decoupling convention, matched by the simulator's ``decoupled`` mode).
``queue_statistics`` works in two steps:

* a traffic-free block, built on first use and kept on the
  ``SuccessTable`` per zero pattern (which of p_fr, p_fd and p_b are
  zero; that decides which configurations can carry weight). It holds
  the configurations of the table's N UEs (the only copy of them), the
  binomial coefficients, every success probability gathered from the
  2-D arrays of ``SuccessTable.grid`` by fancy indexing, the stored and
  departure probabilities, and each configuration's binomial pmfs of
  stored FD->relay and BR packets and their convolution, relay silent
  and transmitting. The rows run n_fr-major, so the rows with n_fr >= i
  are a suffix, and the convolution is one numpy pass per i over that
  suffix of all rows at once (in runs of ``_BLOCK_ROWS`` rows, which
  bounds the temporaries). The success probabilities read only the
  radio fields, so neither does the block: every traffic point
  (n <= N, q_u, q_uf, q_ur, q_r) of a sweep group that shares a table
  and a zero pattern reuses it;
* the traffic point's weighted sums: the multinomial weights of its n
  UEs, computed on the block's own rows by ``_weights``, times the
  block's columns, each output one ``math.fsum``. A row with
  n_fr + n_fd + n_b > n weighs exactly 0.0.

So a traffic point on a warm block enumerates nothing. The one
result, ``QueueStatistics``, also holds a tagged user's rates as moments
of the same walk: for a scheme x with per-UE probability p_x and any f of
the other UEs' counts, E_N[n_x * f(n_x - 1, ...)] = N * p_x * E_{N-1}[f],
since n_x * W_N(n_x, ...) = N * p_x * W_{N-1}(n_x - 1, ...) for the
multinomial weight W (one tagged UE in scheme x, N - 1 others).
``solve_queue`` decides Loynes stability in one place (stable iff
q_r > q_r_min) and evaluates P(Q = 0) only on the stable side;
``throughput`` mixes the tagged rates by queue regime.

Each output pmf cell or rate is one exactly rounded ``math.fsum`` over its
weighted per-configuration terms, so no result depends on the walk order
or on whether the block was built for this point or an earlier one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ScenarioConfig
from .success import SuccessTable

# Rows per run of the stored-count convolution. A block of N <= 15 is one
# run; a cold N = 30 analysis peaks near 5 MB (10 MB in one run).
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class QueueStatistics:
    """The queue walk's result.

    ``p_empty[k]`` is P(net change = k | queue empty), the arrival pmf with
    the relay silent, for k in 0..N; ``p_nonempty[i]`` is
    P(net change = i - 1 | queue nonempty), so index 0 holds the
    departure-only event k = -1; ``p_arrival_tx[k]`` is the arrival pmf
    while the relay transmits; ``b_r`` is the relay->mmAP success
    probability averaged over UE configurations.

    The ``t_*`` fields are a tagged user's rates per slot, suffix 0/1 with
    the relay silent or transmitting: ``t_ud`` its deliveries at the mmAP
    (FD to the mmAP plus BR copies), ``t_fr`` its FD packets decoded at the
    relay, ``t_ur`` its BR copies decoded at the relay and lost at the
    mmAP. So lambda0 = N * (t_fr + t_ur0) and a_r = N * (t_fr + t_ur1).
    """

    p_empty: np.ndarray
    p_nonempty: np.ndarray
    p_arrival_tx: np.ndarray
    b_r: float
    t_ud0: float
    t_ud1: float
    t_fr: float
    t_ur0: float
    t_ur1: float

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


def _active(p_fr: float, p_fd: float, p_b: float) -> tuple[bool, ...]:
    """Which of p_fr, p_fd and p_b are nonzero."""
    return p_fr > 0.0, p_fd > 0.0, p_b > 0.0


def _rows(n: int, active: tuple[bool, ...]) -> np.ndarray:
    """(n_fr, n_fd, n_b) of every configuration of n UEs whose weight a
    zero probability does not rule out, n_fr-major, as a (3, R) array."""
    idx = np.indices([n + 1 if a else 1 for a in active]).reshape(3, -1)
    return idx[:, idx.sum(axis=0) <= n]


def _comb_table(n: int) -> np.ndarray:
    # C(i, j) for i, j <= n, then n zero rows: row indices -n..-1 read zeros
    return np.array([[math.comb(i, j) if i <= n else 0 for j in range(n + 1)]
                     for i in range(2 * n + 1)], dtype=float)


def _binom_rows(comb: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Column c: comb(n_c, k) * p_c**k * (1 - p_c)**(n_c - k) for k <= n_c,
    zero past n_c, as a (N + 1, C) array for the N of ``comb``.

    Only the support is evaluated, then scattered into zeros. The powers
    are numpy ``**``, which gives the same float for a (p, k) pair
    whatever the array layout.
    """
    c = np.repeat(np.arange(n.size), n + 1)
    k = np.arange(c.size) - np.repeat(np.cumsum(n + 1) - (n + 1), n + 1)
    m, q = n[c], p[c]
    out = np.zeros((comb.shape[1], n.size))
    out[k, c] = comb[m, k] * q**k * (1.0 - q) ** (m - k)
    return out


def _fsum(terms: np.ndarray) -> float:
    # The terms are >= 0 and zeros do not change an exact sum.
    return math.fsum(terms[terms != 0.0].tolist())


@dataclass(frozen=True)
class _ConfigBlock:
    """The traffic-free part of the queue walk over one set of rows.

    The rows are the configurations' counts ``n_fr``, ``n_fd``, ``n_b``;
    ``_weights`` weighs them with the binomial table ``comb``. Per
    configuration c: the gathered success probabilities, ``stores[s]``
    (a BR packet is stored: decoded at the relay, lost at the mmAP, relay
    silent s = 0 or transmitting s = 1), ``p_dep`` (the relay's packet
    reaches the mmAP) and ``v[s][k + 1, c]`` = P(k stored | c); a zero row
    on each side of v serves the k - 1 and k + 1 shifts.

    v is the convolution of each row's Binomial(n_fr, p_f) and
    Binomial(n_b, stores[s]) pmfs, built one run of ``_BLOCK_ROWS`` rows
    at a time. The rows are n_fr-major, so in a run the rows with
    n_fr >= i are a suffix, and the term of i FD->relay packets is one
    slice update over that suffix for every k at once. The passes go in
    increasing i, so each cell adds its products in the order of a
    per-configuration loop; the terms past a row's n_b are exact zeros.
    """

    comb: np.ndarray      # comb[i, j] = C(i, j) for i, j <= N, then zeros
    n_fr: np.ndarray
    n_fd: np.ndarray
    n_b: np.ndarray
    p_f: np.ndarray       # a tagged FD->relay packet is decoded
    p_dep: np.ndarray
    q_dep: np.ndarray     # 1 - p_dep
    at_mmap: tuple        # a tagged BR packet is decoded at the mmAP, by s
    stores: tuple
    ud_fd: tuple          # a tagged FD->mmAP packet is decoded, by s
    v: np.ndarray


def _config_block(table: SuccessTable,
                  active: tuple[bool, ...]) -> _ConfigBlock:
    """The block of the table's N UEs' configurations allowed by
    ``active``, built on first use and kept on the table."""
    block = table.blocks.get(active)
    if block is not None:
        return block
    n = table.cfg.n_ues
    n_fr, n_fd, n_b = _rows(n, active)
    # Counts with one UE of the scheme removed; where that count is 0 the
    # gathered value is unused: it enters a binomial of 0 trials or is
    # multiplied by n_x = 0.
    b = np.maximum(n_b - 1, 0)
    fd = np.maximum(n_fd - 1, 0)
    at_relay = table.grid("ur", "br", False)[n_fr, b]
    at_mmap = tuple(table.grid("ud", "br", relay)[n_fd, b]
                    for relay in (False, True))
    stores = tuple(at_relay * (1.0 - m) for m in at_mmap)
    p_f = table.grid("ur", "fd", False)[np.maximum(n_fr - 1, 0), n_b]
    p_dep = table.grid("rd", "fd", False)[n_fd, n_b]
    ud_fd = tuple(table.grid("ud", "fd", relay)[fd, n_b]
                  for relay in (False, True))
    comb = _comb_table(n)
    # v[s][k + 1, c] sums pmf_f[i, c] * pmf_b[k - i, c] over increasing i.
    # Within a run of rows those with n_fr >= i are a suffix, from e[i];
    # the terms with k - i > n_b[c] are exact zeros, so each pass may run
    # to k = n.
    v = np.zeros((2, n + 3, n_fr.size))
    for lo in range(0, n_fr.size, _BLOCK_ROWS):
        run = slice(lo, lo + _BLOCK_ROWS)
        f = n_fr[run]
        e = np.searchsorted(f, np.arange(f[-1] + 1))
        pmf_f = _binom_rows(comb, f, p_f[run])
        for v_s, store in zip(v[:, :, run], stores):
            pmf_b = _binom_rows(comb, n_b[run], store[run])
            for i, e_i in enumerate(e):
                v_s[i + 1:n + 2, e_i:] += (pmf_f[i, e_i:]
                                           * pmf_b[:n + 1 - i, e_i:])
    block = _ConfigBlock(comb, n_fr, n_fd, n_b, p_f, p_dep, 1.0 - p_dep,
                         at_mmap, stores, ud_fd, v)
    table.blocks[active] = block
    return block


def _weights(blk: _ConfigBlock, n: int, p_fr: float, p_fd: float,
             p_b: float) -> np.ndarray:
    """The multinomial weight of each of the block's rows for n UEs.

    A weight is comb(n, n_fr) * p_fr**n_fr, times comb(n - n_fr, n_fd) *
    p_fd**n_fd, and so on for n_b and the idle UEs, multiplied left to
    right; the powers are Python ``**`` (numpy's ``power`` may differ in
    the last bit), so a weight is the same float as the scalar product. A
    weight that underflows is 0 and drops out of every sum. So does a row
    of more than n UEs (the block's N may exceed n): it reads a zero of
    ``comb`` or of the power tables, which are zero past p**n.
    """
    p_idle = max(1.0 - (p_fr + p_fd + p_b), 0.0)
    pad = [0.0] * (len(blk.comb[0]) - 1 - n)
    pw_fr, pw_fd, pw_b, pw_idle = (np.array([p**k for k in range(n + 1)] + pad)
                                   for p in (p_fr, p_fd, p_b, p_idle))
    comb, n_fr, n_fd, n_b = blk.comb, blk.n_fr, blk.n_fd, blk.n_b
    c1 = comb[n, n_fr] * pw_fr[n_fr]
    c2 = (c1 * comb[n - n_fr, n_fd]) * pw_fd[n_fd]
    return (((c2 * comb[n - n_fr - n_fd, n_b]) * pw_b[n_b])
            * pw_idle[n - n_fr - n_fd - n_b])


def queue_statistics(cfg: ScenarioConfig,
                     table: SuccessTable | None = None) -> QueueStatistics:
    """Both net-change pmfs, the arrival pmf while transmitting, B_r and
    a tagged user's rates.

    Within a configuration the FD->relay packets are stored when decoded
    and BR packets when decoded at the relay and lost at the mmAP; the
    per-packet events are independent, so the stored count is the
    convolution of two binomials. The empty-state net-change pmf is the
    arrival pmf with the relay silent. In the nonempty state the relay
    transmits with probability q_r; the departure indicator and the
    arrival count are conditionally independent given the configuration,
    and the mixture is taken per configuration (arrivals and the mmAP-side
    failure of BR packets both depend on whether the relay's beam is up).
    The tagged user's rates are the moments in the module docstring.

    ``table`` must belong to a configuration with the same ``radio_key``
    and at least ``cfg.n_ues`` UEs; it keeps the configuration blocks for
    later calls.
    """
    if table is None:
        table = SuccessTable(cfg)
    elif table.cfg.radio_key() != cfg.radio_key():
        raise ValueError("the success table belongs to another radio "
                         "configuration")
    elif table.cfg.n_ues < cfg.n_ues:
        raise ValueError(f"the success table covers N = {table.cfg.n_ues} "
                         f"UEs, fewer than the {cfg.n_ues} analysed")
    n = cfg.n_ues
    q_r = cfg.q_r
    probs = _ue_activity_probs(cfg)
    blk = _config_block(table, _active(*probs))
    w = _weights(blk, n, *probs)
    v0, v1 = blk.v
    w_s, w_t = w * (1.0 - q_r), w * q_r
    arrivals = [np.array([_fsum(w * v_s[k + 1]) for k in range(n + 1)])
                for v_s in blk.v]
    # net = arrivals - 1{departure}; p_nonempty[k + 1] is net change k.
    nonempty = np.array([
        _fsum(np.concatenate([w_s * v0[k], (w_t * v1[k + 1]) * blk.p_dep,
                              (w_t * v1[k]) * blk.q_dep]))
        for k in range(n + 2)])
    t_ud = [(_fsum(w * blk.n_fd * g) + _fsum(w * blk.n_b * m)) / n
            for g, m in zip(blk.ud_fd, blk.at_mmap)]
    t_ur = [_fsum(w * blk.n_b * store) / n for store in blk.stores]
    return QueueStatistics(arrivals[0], nonempty, arrivals[1],
                           _fsum(w * blk.p_dep), t_ud[0], t_ud[1],
                           _fsum(w * blk.n_fr * blk.p_f) / n, t_ur[0], t_ur[1])


def solve_queue(cfg: ScenarioConfig, table: SuccessTable | None = None) -> QueueSolution:
    """Full queue characterization at the configured q_r.

    The Loynes verdict is stable iff q_r > q_r_min; q_r_min is 0 when the
    queue never receives anything and inf when no q_r can stabilize it.
    P(Q = 0) is evaluated on the stable side only, from the nonempty
    net-change probabilities; it is 0.0 when unstable.
    """
    return _solve(cfg, queue_statistics(cfg, table))


def _solve(cfg: ScenarioConfig, stats: QueueStatistics) -> QueueSolution:
    """``solve_queue``'s result from a finished queue walk."""
    q_r = cfg.q_r
    lambda0 = stats.mean_empty()
    a_r = math.fsum(k * v for k, v in enumerate(stats.p_arrival_tx))
    b_r = stats.b_r
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
    pn = stats.p_nonempty
    num = math.fsum([pn[0]] + [-k * pn[k + 1] for k in range(1, cfg.n_ues + 1)])
    # A few ulps above q_r_min the numerator rounds to <= 0; its exact
    # limit at the boundary is 0, the unstable-side value.
    p0 = num / (num + lambda0) if num > 0.0 else 0.0
    return QueueSolution(lambda0, lambda1, a_r, b_r, mu_r, q_r_min, p0, True)


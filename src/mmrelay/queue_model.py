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
  the configurations of the table's N UEs (the only copy of them),
  ordered by their number of active UEs n_fr + n_fd + n_b, the binomial
  coefficients, every success probability gathered from the 2-D arrays
  of ``SuccessTable.grid`` by fancy indexing, the stored and departure
  probabilities, and each configuration's pmf of stored packets, relay
  silent and transmitting: the convolution of its Binomial(n_fr, p_f)
  FD->relay and Binomial(n_b, store) BR pmfs. That pmf depends only on
  (n_fr, p_f, n_b, stores), which many configurations share (at N = 30
  on the default radio, 854 distinct inputs for 5,456 rows), so it is
  built and kept once per distinct input, sorted n_fr-major: the
  inputs with n_fr >= i are a suffix, and the convolution is one numpy
  pass per i over that suffix (in runs of ``_BLOCK_ROWS`` inputs, which
  bounds the temporaries). Each row holds the index of its input, and
  the walk gathers a pmf cell for the rows only as it sums that cell,
  so the block's memory follows its distinct inputs, not its rows
  (2 * (N + 3) doubles per input). The success probabilities read only
  the radio fields, so neither does the block: every traffic point
  (n <= N, q_u, q_uf, q_ur, q_r) of a sweep group that shares a table
  and a zero pattern reuses it. A row's values depend only on its
  counts and the table, so a pattern's block is the rows of any wider
  pattern's block whose ruled-out counts are 0, in the same order:
  where the table keeps a block of a covering pattern, the narrower one
  is that row selection, its per-row arrays copied and its pmfs shared,
  and nothing is computed again. A sweep evaluates a point of its
  widest pattern first (``sweeps._run_task``), so that point's walk
  builds the one block;
* the traffic point's weighted sums over the block's first rows, those
  of at most n UEs: their multinomial weights, computed by ``_weights``,
  times the block's columns, each output one ``math.fsum``.

So a traffic point on a warm block enumerates nothing, and one at n < N
weighs only its own rows. The one result, ``QueueStatistics``, also
holds a tagged user's rates as moments of the same walk: for a scheme x
with per-UE probability p_x and any f of the other UEs' counts,
E_N[n_x * f(n_x - 1, ...)] = N * p_x * E_{N-1}[f],
since n_x * W_N(n_x, ...) = N * p_x * W_{N-1}(n_x - 1, ...) for the
multinomial weight W (one tagged UE in scheme x, N - 1 others).
``_solve`` decides Loynes stability in one place (stable iff
q_r > q_r_min) from the arrival pmfs and B_r, and evaluates the nonempty
pmf and P(Q = 0) only on the stable side; ``throughput`` mixes the
tagged rates by queue regime and reports the solution as
``ThroughputReport.queue``.

Each output pmf cell or rate is one exactly rounded sum of its weighted
per-configuration terms, so no result depends on the row order or on
whether the block was built for this point or an earlier one. Each sum
is one row of terms, and ``_row_sums`` adds a walk's rows.
``math.fsum`` gets the nonzero terms in descending order, through a
``memoryview`` rather than a list. Being correctly rounded, ``fsum``
gives the same float in any order; largest first keeps its list of
partials short when the terms span 150-odd bits, as they do at
N = 20-30 (ascending order takes twice as long). Rows shorter than
``_BRACKET_TERMS`` (with every activity probability nonzero, every sum
at N <= 10, and all but the nonempty pmf's at N <= 16) are built,
sorted and filtered in one batch, which saves about seven numpy calls
per sum. Wider rows go one at a time through ``_fsum``, for two
reasons. Most of their terms cannot change the float: at N = 30 a sum's
terms span binary exponents -732 to -184, and about 85% lie more than
2**-80 below the largest, so ``_fsum`` adds a long sum's head and bounds
the rest, and adds every term only where that bound leaves the rounding
in doubt or a term is negative. And one row at a time keeps the walk's
memory at one row of terms: batching each family's rows at N = 30 took
a cold analysis's peak from 5.2 to 13.3 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import ScenarioConfig
from .success import SuccessTable

# Distinct inputs per run of the stored-count convolution. The default
# radio's N = 30 block is one run (854 inputs) and a cold analysis there
# peaks near 2.7 MB; a block whose 5,456 inputs are all distinct (N = 30
# at gamma = 0 dB) is six runs and peaks near 5.9 MB (tracemalloc).
_BLOCK_ROWS = 1024

# Nonzero terms from which ``_fsum`` may bracket a sum's tail. Below it,
# or with more than half the terms in the head, the extra pass and the
# second fsum cost about what the shorter sort and sum save; a walk at
# N <= 15 has at most 816 rows, and few of its sums reach this size.
_BRACKET_TERMS = 1 << 10


@dataclass(frozen=True)
class QueueStatistics:
    """The queue walk's result.

    ``p_empty[k]`` is P(net change = k | queue empty), the arrival pmf with
    the relay silent, for k in 0..N; ``p_nonempty[i]`` is
    P(net change = i - 1 | queue nonempty), so index 0 holds the
    departure-only event k = -1; ``p_arrival_tx[k]`` is the arrival pmf
    while the relay transmits; ``b_r`` is the relay->mmAP success
    probability averaged over UE configurations. Where every
    configuration's relay packet decodes, ``b_r`` is the exactly rounded
    sum of the rounded multinomial weights, which can exceed 1 by one ulp
    (1.0000000000000002, for example at N = 3, q_u = 0.1 on the default
    radio). It is not clamped: it is the sum as computed.

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


@dataclass(frozen=True)
class QueueSolution:
    """Arrival/service rates, stability verdict and empty-queue probability,
    as ``aggregate_throughput(...).queue``.

    The Loynes verdict is stable iff q_r > q_r_min; q_r_min is 0 when the
    queue never receives anything and inf when no q_r can stabilize it.
    P(Q = 0) is evaluated on the stable side only, from the nonempty
    net-change probabilities; it is 0.0 when unstable.

    ``b_r`` is ``QueueStatistics.b_r`` and can exceed 1 by one ulp where
    every configuration's relay packet decodes; ``mu_r`` = q_r * b_r then
    exceeds q_r by up to an ulp (1.0000000000000002 at q_r = 1).
    """

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
    zero probability does not rule out, as a (3, R) array ordered by the
    number of active UEs n_fr + n_fd + n_b (n_fr-major within a count).

    Listed directly: each total t = 0..n is a row whose UEs are yet to
    be placed; every scheme but the last allowed one splits a row into
    one per count it can take, in increasing order, and the last takes
    what is left.
    """
    schemes = [s for s, a in enumerate(active) if a]
    left = np.arange(n + 1 if schemes else 1)
    rows = np.zeros((3, left.size), dtype=left.dtype)
    for s in schemes[:-1]:
        split = np.repeat(np.arange(left.size), left + 1)
        x = np.arange(split.size) - (np.cumsum(left + 1) - (left + 1))[split]
        rows = rows[:, split]
        rows[s] = x
        left = left[split] - x
    if schemes:
        rows[schemes[-1]] = left
    return rows


def _comb_table(n: int) -> np.ndarray:
    # C(i, j) for i, j <= n
    return np.array([[math.comb(i, j) for j in range(n + 1)]
                     for i in range(n + 1)], dtype=float)


def _binom_rows(comb: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Column c: comb(n_c, k) * p_c**k * (1 - p_c)**(n_c - k) for k <= n_c,
    zero past n_c, as a (N + 1, C) array for the N of ``comb``; a p of
    shape (S, C) gives S such arrays, (S, N + 1, C).

    Only the support is evaluated, then scattered into zeros. The powers
    are numpy ``**``, which gives the same float for a (p, k) pair
    whatever the array layout.
    """
    c = np.repeat(np.arange(n.size), n + 1)
    k = np.arange(c.size) - np.repeat(np.cumsum(n + 1) - (n + 1), n + 1)
    m, q = n[c], p[..., c]
    out = np.zeros((*p.shape[:-1], comb.shape[1], n.size))
    out[..., k, c] = comb[m, k] * q**k * (1.0 - q) ** (m - k)
    return out


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of ``keys`` that start a distinct value, sorted by its
    last row, then the one before, and so on; and each column's index
    among them."""
    order = np.lexsort(keys)
    sorted_keys = keys[:, order]
    new = np.empty(order.size, dtype=bool)
    new[0] = True
    new[1:] = (sorted_keys[:, 1:] != sorted_keys[:, :-1]).any(axis=0)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _stored_pmfs(comb: np.ndarray, n_fr: np.ndarray, p_f: np.ndarray,
                 n_b: np.ndarray, stores: np.ndarray) -> np.ndarray:
    """v[s][1:N + 2, c]: the pmf of Binomial(n_fr[c], p_f[c]) +
    Binomial(n_b[c], stores[s][c]), with a zero row on each side, for
    columns whose n_fr does not decrease.

    The columns go in runs of ``_BLOCK_ROWS``. In a run the columns with
    n_fr >= i are a suffix, and the term of i FD->relay packets is one
    slice update over that suffix for every count and both s at once.
    The passes go in increasing i, so each cell adds its products in the
    order of a per-column loop; the terms past a column's n_b are exact
    zeros.
    """
    n = comb.shape[0] - 1
    v = np.zeros((len(stores), n + 3, n_fr.size))
    for lo in range(0, n_fr.size, _BLOCK_ROWS):
        run = slice(lo, lo + _BLOCK_ROWS)
        f, v_run = n_fr[run], v[:, :, run]
        e = np.searchsorted(f, np.arange(f[-1] + 1))
        pmf_f = _binom_rows(comb, f, p_f[run])
        pmf_b = _binom_rows(comb, n_b[run], stores[:, run])
        for i, e_i in enumerate(e):
            v_run[:, i + 1:n + 2, e_i:] += (pmf_f[i, e_i:]
                                            * pmf_b[:, :n + 1 - i, e_i:])
    return v


def _fsum(terms: np.ndarray) -> float:
    """The exactly rounded sum of ``terms``.

    Zeros do not change an exact sum, and fsum is correctly rounded, so
    the order cannot change the float; largest first keeps its partials
    list short (ascending takes about 2x as long as descending). fsum
    reads the sorted terms through a ``memoryview``, which yields each
    float without building a list. A long sum whose terms mostly lie
    more than 2**-80 below the largest is bracketed instead: with
    cut = max * 2**-80, the m terms under the cut add less than m * cut,
    and correct rounding is monotone, so
    fl(head) <= fl(all) <= fl(head + nextafter(m * cut)). Where the two
    bounds agree, that is the sum; otherwise (the head's sum sits on or
    near a rounding boundary) every term is summed. The lower bound needs
    every term positive, so a sum with a negative term is never
    bracketed: the nonempty pmf's q_dep = 1 - p_dep is about -2**-52
    where p_dep rounds one ulp past 1, and its terms then lie below 0.
    """
    kept = terms[terms != 0.0]
    if kept.size >= _BRACKET_TERMS:
        cut = kept.max() * 2.0**-80
        in_head = kept >= cut
        if 2 * np.count_nonzero(in_head) <= kept.size and kept.min() > 0.0:
            head = kept[in_head]
            head.sort()
            head = head[::-1]
            low = math.fsum(memoryview(head))
            tail = math.nextafter((kept.size - head.size) * cut, math.inf)
            if math.fsum(memoryview(np.append(head, tail))) == low:
                return low
    kept.sort()
    return math.fsum(memoryview(kept[::-1]))


def _row_sums(families, width: int) -> list[float]:
    """``_fsum`` of every row of ``width`` terms, family by
    family; a family is a pair (rows, count), and ``rows(a, b)`` returns
    its rows a..b - 1 as a 2-D array, all ``width`` terms for a = 0 and
    for a > 0 maybe without leading terms that are zeros.

    Rows shorter than ``_BRACKET_TERMS`` cannot be bracketed, so their
    sums need only a sort and an fsum: they are built at once, sorted
    with one 2-D sort, and their nonzero terms taken out with one mask,
    in descending order row by row; fsum reads each row's slice of one
    ``memoryview``. Wider rows go one at a time through ``_fsum``, so the
    walk holds one row of terms at a time, not all of them.
    """
    if width >= _BRACKET_TERMS:
        return [_fsum(rows(i, i + 1)[0])
                for rows, count in families for i in range(count)]
    terms = np.concatenate([rows(0, count) for rows, count in families])
    terms.sort(axis=1)
    terms = terms[:, ::-1]
    keep = terms != 0.0
    values = memoryview(terms[keep])
    stops = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    fsum = math.fsum
    return [fsum(values[a:z]) for a, z in zip([0, *stops], stops)]


@dataclass(frozen=True)
class _ConfigBlock:
    """The traffic-free part of the queue walk over one set of rows.

    The rows are the configurations' counts ``n_fr``, ``n_fd``, ``n_b``,
    ordered by their number of active UEs, so the ``ends[n]`` rows of at
    most n UEs come first (``head(n)``); ``_weights`` weighs them with the
    binomial table ``comb``. Per configuration c:
    ``v[s][k + 1, inverse[c]]`` = P(k stored | c), relay silent s = 0 or
    transmitting s = 1, with a zero row on each side of v for the k - 1
    and k + 1 shifts, and the walk's b_r and rate sums as ``counts`` and
    ``factors``: each term is (w * count) * factor. The factors are the
    gathered success probabilities: row 0 is p_dep (the relay's packet
    reaches the mmAP), rows 5-7 ``p_f`` (a tagged FD->relay packet is
    decoded) and ``stores[s]`` (a BR packet is decoded at the relay, lost
    at the mmAP).

    v[s] is the convolution of Binomial(n_fr, p_f) and
    Binomial(n_b, stores[s]), which depends on those four inputs only. It
    is built and kept once per distinct input, one column each, sorted
    n_fr-major for the suffix passes of ``_stored_pmfs``; ``inverse``
    names each row's column, and the walk gathers ``v_s[k][inverse]``
    only for the cells it is summing.

    Every per-row value depends only on the row's counts and the table,
    so the block of a narrower zero pattern is a row selection
    (``select``) of this one; a selection or a ``head`` shares ``v``.
    """

    comb: np.ndarray      # comb[i, j] = C(i, j) for i, j <= N
    ends: tuple           # ends[n]: the number of rows of at most n UEs
    v: np.ndarray         # (2, N + 3, U), per distinct input
    n_fr: np.ndarray
    n_fd: np.ndarray
    n_b: np.ndarray
    counts: np.ndarray    # (8, R), a count per b_r or rate sum
    factors: np.ndarray   # (8, R), the success probability it multiplies
    inverse: np.ndarray   # (R,), each row's column of v

    def _take(self, ends: tuple, index) -> _ConfigBlock:
        """The rows ``index`` of every per-row array, which hold ``ends``;
        ``v`` is shared, not copied."""
        return _ConfigBlock(self.comb, ends, self.v, *(
            getattr(self, f.name)[..., index] for f in fields(self)[3:]))

    def head(self, n: int) -> _ConfigBlock:
        """The block's rows of at most n UEs, as views."""
        m = self.ends[n]
        if m == self.n_fr.size:
            return self
        return self._take(self.ends[:n + 1], slice(m))

    def select(self, active: tuple[bool, ...]) -> _ConfigBlock:
        """The block of the narrower zero pattern ``active``: the rows
        whose counts of the schemes it rules out are 0, in the same order,
        copied (``v`` is shared)."""
        n_x = np.array([self.n_fr, self.n_fd, self.n_b])
        keep = np.flatnonzero(~n_x[np.logical_not(active)].any(axis=0))
        return self._take(tuple(np.searchsorted(keep, self.ends).tolist()),
                          keep)


def _config_block(table: SuccessTable,
                  active: tuple[bool, ...]) -> _ConfigBlock:
    """The block of the table's N UEs' configurations allowed by
    ``active``, kept on the table: a selection of a kept block whose
    pattern covers ``active`` (the one of fewest rows), or else built."""
    block = table.blocks.get(active)
    if block is not None:
        return block
    wider = [blk for key, blk in table.blocks.items()
             if all(k or not a for k, a in zip(key, active))]
    if wider:
        block = min(wider, key=lambda blk: blk.n_fr.size).select(active)
    else:
        block = _build_block(table, active)
    table.blocks[active] = block
    return block


def _build_block(table: SuccessTable,
                 active: tuple[bool, ...]) -> _ConfigBlock:
    """The block of ``active``, computed from the table's arrays."""
    n = table.cfg.n_ues
    n_fr, n_fd, n_b = _rows(n, active)
    # Counts with one UE of the scheme removed; where that count is 0 the
    # gathered value is unused: it enters a binomial of 0 trials or is
    # multiplied by n_x = 0.
    b = np.maximum(n_b - 1, 0)
    fd = np.maximum(n_fd - 1, 0)
    at_relay = table.grid("ur", "br", False)[n_fr, b]
    at_mmap = np.array([table.grid("ud", "br", relay)[n_fd, b]
                        for relay in (False, True)])
    stores = at_relay * (1.0 - at_mmap)
    p_f = table.grid("ur", "fd", False)[np.maximum(n_fr - 1, 0), n_b]
    p_dep = table.grid("rd", "fd", False)[n_fd, n_b]
    ud_fd = np.array([table.grid("ud", "fd", relay)[fd, n_b]
                      for relay in (False, True)])
    comb = _comb_table(n)
    # p_f is a function of (n_fr, n_b), so a column of v is one of
    # (n_fr, n_b, stores[0], stores[1]); the pair id sorts n_fr-major.
    pair = n_fr * (n + 1) + n_b
    first, inverse = _distinct(np.vstack([stores[::-1], pair]))
    v = _stored_pmfs(comb, n_fr[first], p_f[first], n_b[first],
                     stores[:, first])
    # The walk's b_r and rate sums, in the order _Walk unpacks them;
    # made after v, so they are not held through its build. A count
    # converts to the same float from any integer type.
    counts = np.array([np.ones_like(n_b), n_fd, n_b, n_fd, n_b, n_fr,
                       n_b, n_b], dtype=np.min_scalar_type(n))
    factors = np.array([p_dep, ud_fd[0], at_mmap[0], ud_fd[1], at_mmap[1],
                        p_f, *stores])
    ends = tuple(np.cumsum(np.bincount(n_fr + n_fd + n_b,
                                       minlength=n + 1)).tolist())
    return _ConfigBlock(comb, ends, v, n_fr, n_fd, n_b, counts, factors,
                        inverse)


def _weights(blk: _ConfigBlock, n: int, p_fr: float, p_fd: float,
             p_b: float) -> np.ndarray:
    """The multinomial weight of each row of ``blk``, which has at most n
    UEs, for n UEs.

    A weight is comb(n, n_fr) * p_fr**n_fr, times comb(n - n_fr, n_fd) *
    p_fd**n_fd, and so on for n_b and the idle UEs, multiplied left to
    right; the powers are Python ``**`` (numpy's ``power`` may differ in
    the last bit), so a weight is the same float as the scalar product. A
    weight that underflows is 0 and drops out of every sum.
    """
    p_idle = max(1.0 - (p_fr + p_fd + p_b), 0.0)
    pw_fr, pw_fd, pw_b, pw_idle = (np.array([p**k for k in range(n + 1)])
                                   for p in (p_fr, p_fd, p_b, p_idle))
    comb, n_fr, n_fd, n_b = blk.comb, blk.n_fr, blk.n_fd, blk.n_b
    c1 = comb[n, n_fr] * pw_fr[n_fr]
    c2 = (c1 * comb[n - n_fr, n_fd]) * pw_fd[n_fd]
    return (((c2 * comb[n - n_fr - n_fd, n_b]) * pw_b[n_b])
            * pw_idle[n - n_fr - n_fd - n_b])


class _Walk:
    """One traffic point's queue walk: its weights ``w`` on the block rows
    ``blk`` of at most n UEs, and every ``QueueStatistics`` field by name.
    The nonempty pmf is computed each time it is read, so ``_solve``, which
    reads it on the stable side only, skips it on the unstable side."""

    def __init__(self, cfg: ScenarioConfig, table: SuccessTable | None):
        if table is None:
            table = SuccessTable(cfg)
        elif table.cfg.radio_key() != cfg.radio_key():
            raise ValueError("the success table belongs to another radio "
                             "configuration")
        elif table.cfg.n_ues < cfg.n_ues:
            raise ValueError(f"the success table covers N = "
                             f"{table.cfg.n_ues} UEs, fewer than the "
                             f"{cfg.n_ues} analysed")
        n = cfg.n_ues
        probs = _ue_activity_probs(cfg)
        blk = _config_block(table, _active(*probs)).head(n)
        w = _weights(blk, n, *probs)
        self.cfg, self.blk, self.w = cfg, blk, w
        # One row of terms per sum: P(k arrivals | c), k = 0..n, with the
        # relay silent and transmitting, gathered from v only for the
        # rows of at least k UEs (``_first``); then (w * count) * factor
        # for b_r (count 1) and the rates
        counts, factors, inverse = blk.counts, blk.factors, blk.inverse

        def stored(v_s):
            def rows(a, b):
                lo = self._first(a)
                return w[lo:] * v_s[a + 1:b + 1].take(inverse[lo:], 1)
            return rows

        sums = _row_sums([
            *((stored(v_s), n + 1) for v_s in blk.v),
            (lambda a, b: (w * counts[a:b]) * factors[a:b], len(factors))],
            w.size)
        top = 2 * (n + 1)
        self.p_empty = np.array(sums[:n + 1])
        self.p_arrival_tx = np.array(sums[n + 1:top])
        self.b_r, ud0_fd, ud0_b, ud1_fd, ud1_b, fr, ur0, ur1 = sums[top:]
        self.t_ud0, self.t_ud1 = (ud0_fd + ud0_b) / n, (ud1_fd + ud1_b) / n
        self.t_fr, self.t_ur0, self.t_ur1 = fr / n, ur0 / n, ur1 / n

    def _first(self, k: int) -> int:
        """The first row that can store k packets. The rows of fewer than
        k UEs, which store fewer, come first, and their terms in a sum
        over k or more stored packets are zeros, which the sums drop."""
        return self.blk.ends[k - 1] if k > 0 else 0

    @property
    def p_nonempty(self) -> np.ndarray:
        """P(net change = i - 1 | queue nonempty) by i."""
        blk, w, q_r = self.blk, self.w, self.cfg.q_r
        (v0, v1), inverse = blk.v, blk.inverse
        # net = arrivals - 1{departure}, relay silent or transmitting; at
        # q_r = 0 or 1 a family's terms are +-0.0, which the sums drop
        w_s, w_t = w * (1.0 - q_r), w * q_r
        p_dep, q_dep = blk.factors[0], 1.0 - blk.factors[0]

        def rows(a, b):
            # at least a - 1 stored; k + 1 and k stored while
            # transmitting, from one gather
            lo = self._first(a - 1)
            t = w_t[lo:] * v1[a:b + 1].take(inverse[lo:], 1)
            return np.concatenate([w_s[lo:] * v0[a:b].take(inverse[lo:], 1),
                                   t[1:] * p_dep[lo:], t[:-1] * q_dep[lo:]],
                                  axis=1)

        return np.array(_row_sums([(rows, self.cfg.n_ues + 2)], 3 * w.size))


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
    walk = _Walk(cfg, table)
    return QueueStatistics(*(getattr(walk, f.name)
                             for f in fields(QueueStatistics)))


def _mean(pmf: np.ndarray) -> float:
    return math.fsum(k * v for k, v in enumerate(pmf))


def _solve(walk: _Walk) -> QueueSolution:
    """The ``QueueSolution`` of a queue walk; the nonempty pmf is read on
    the stable side only."""
    q_r, n = walk.cfg.q_r, walk.cfg.n_ues
    lambda0 = _mean(walk.p_empty)
    a_r = _mean(walk.p_arrival_tx)
    b_r = walk.b_r
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
    pn = walk.p_nonempty
    num = math.fsum([pn[0]] + [-k * pn[k + 1] for k in range(1, n + 1)])
    # A few ulps above q_r_min the numerator rounds to <= 0; its exact
    # limit at the boundary is 0, the unstable-side value.
    p0 = num / (num + lambda0) if num > 0.0 else 0.0
    return QueueSolution(lambda0, lambda1, a_r, b_r, mu_r, q_r_min, p0, True)

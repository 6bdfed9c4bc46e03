"""Slot-level Monte Carlo simulation of the whole system.

Every slot: each UE transmits with probability q_u, chooses BR with
probability q_ub (otherwise FD), and an FD transmission aims at the relay
with probability q_ur; the relay transmits its head-of-queue packet with
probability q_r if the queue is nonempty. LOS states are redrawn every
slot (memoryless blockage) and every intended reception is thresholded
against gamma with the standard interference accounting: FD transmissions
aimed at the other receiver contribute nothing, BR transmissions
interfere at both receivers, the relay interferes only at the mmAP and is
immune to its own transmission.

Two LOS-sampling modes expose the analysis's decoupling convention:

* ``decoupled`` - each intended reception draws its own independent LOS
  realizations for its desired and interferer links, which reproduces the
  product-form independence of the analytical model exactly in
  expectation;
* ``physical`` - one LOS draw per directed link per slot, shared by all
  receptions, which quantifies the correlation the analysis ignores.

The modes differ only in LOS sampling: each forms the same five kinds of
(desired LOS state, interference) pairs, and both decide them by one set
of outcome rules (``_decide``: the decode tests, the relay's beam at the
mmAP and the per-slot tallies). The simulator adds up each reception's
interference itself, from the link budget's (LOS, NLOS) received powers
and its ``relay_interference_w``, and decides it by the budget's decode
rule: interference at most the threshold of the signal's state, which is
SINR >= gamma in float64.

Random-number streams are split per purpose (transmission choices,
per-link LOS draws, per-reception draws) so switching modes never
perturbs the transmission pattern. Identical (cfg, n_slots, seed, mode)
arguments yield bit-identical statistics. ``tests/oracles.py``'s
``simulate_reference`` states the whole contract in plain loops: the
streams, the chunks and the draw order within one, the decode rule, the
queue rule and the statistics; the tests hold ``run`` to it bit for bit.

Slots are processed in chunks. Every count, and every per-slot outcome,
is held in the narrowest signed integer type that holds -1..N
(``_count_dtype``: int8 up to N = 127), and a decoupled reception's slot
in uint16; a chunk's outcomes live only until its queue scan. A decoupled
chunk decides each reception as soon as its draws are made: kind after
kind of reception, in the contract's order, it draws the desired-state
mask and the FD LOS counts over the whole chunk, then the BR LOS counts
in pieces of ``_SAMPLE_BLOCK`` receptions, and forms, decides and
tallies each piece at once. Between pieces it keeps 4 bytes per
reception of the current kind (its uint16 slot, mask byte and FD count)
and 1 byte per BR transmission (decoded at the relay, until BR at the
mmAP is decided). A physical chunk draws its four LOS masks first and then
decodes in blocks of whole slots holding at most ``_SAMPLE_BLOCK``
transmissions, so that a block's arrays stay in cache. The relay-queue
scan over the chunk (``_scan_chunk``) does not step slot by slot
either: only a slot with arrivals while the queue is empty starts a busy
period, so one sort and one search find where each such period would
end, and a walk over the busy periods actually reached, one step each
and at most n / 2 for n slots, marks the empty-queue slots. Each slot's
interference is summed in transmission order whatever the block or piece
size, the rest is elementwise or an integer count, and the scan's
statistics are integer sums, taken in int64, so every statistic equals
that of a slot-by-slot update bit for bit: the reference's.

Every binomial count (transmitters, FD choices, relay aims and, in
decoupled mode, LOS interferers) comes from ``_Binomial``, an exact
tabulated stand-in for ``Generator.binomial``. For n * min(p, 1 - p) <= 30
numpy draws a binomial by sequential inversion of one ``random()`` double
(Kachitvichyanukul & Schmeiser 1988), mapping p > 0.5 to n - X(1 - p) and
drawing again when X exceeds a cut-off. Each step of that inversion is
monotone in the double, so X is a step function of it whose thresholds lie
on the 2**53 grid of ``random()`` values. ``_Binomial`` finds them by
bisection, replaying numpy's floating-point steps, and looks a draw up in
a guide table (Chen & Asau 1974): one uniform, one bucket, one compare.
The draw-order contract is thereby pinned to numpy's binomial algorithm;
``tests/oracles.binomial_oracle`` ports it, and the tests check the
sampler against it and against ``Generator.binomial`` draw for draw, so a
numpy that changes the algorithm fails them. Beyond n * min(p, 1 - p) = 30
numpy switches to BTPE, whose draw count varies, and there the sampler
calls ``Generator.binomial`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import LinkBudget, ScenarioConfig, check_integer
from .throughput import ThroughputReport

MODES = ("decoupled", "physical")
# Least valid value of each integer argument of ``run`` and of
# ``sweeps.run_sweep`` (jobs).
_LOWEST = {"n_slots": 1, "seed": 0, "jobs": 1}

# Slots processed per vectorized block. Part of the deterministic draw
# order: changing it changes the random streams.
_CHUNK = 1 << 16

_WARMUP_CAP = 100_000
_TARGET_BATCHES = 50

# Guide-table buckets per n: 2**10 while n_max < 32, fewer above, so that
# a table never has more than 2**15 cells. With 2**12 the tables took 4x
# the memory and sampled no faster.
_GUIDE_BITS = 10
_GUIDE_CELL_BITS = 15
# Binomial draws per sampler block, doubles per piece of a LOS mask,
# receptions per decided piece of a decoupled chunk and transmissions per
# block of whole slots of a physical one (a heavier slot is a block of its
# own): the arrays stay in cache. Not part of the draw order: any size
# gives the same statistics.
_SAMPLE_BLOCK = 1 << 15


def _next_empty(q, busy, arr_s, arr_t, rd_ok, coin):
    """(first, after): the chunk's first empty slot with ``q`` packets
    carried in, and the next empty slot after each ``busy`` slot taken as
    empty; n stands for "none in this chunk".

    While the queue is nonempty a slot's net change x is at least -1, so
    from an empty slot tau with Y = arr_s[tau] > 0 arrivals the queue next
    empties at the first s >= tau + 2 where the prefix sum P of x is
    P[tau + 1] - Y, and a carried-in queue at the first s >= 1 where P is
    -q. The keys (P_s - min P + 1) << bits | s, s = 0..n, are sorted once,
    and each query packs its level and start slot the same way (level 0,
    below every key's, for a level under min P). The sorted queries find
    their keys in one ``searchsorted``, and a query's start slot is its low
    bits, so no ``argsort`` maps them back. A key stays below 2**63 while
    (max P - min P + 2) << bits does; with at most N arrivals per slot that
    is N * n < 2**(63 - bits) - 2, so N < 2**30 at ``_CHUNK`` slots
    (bits = 17).
    """
    n = arr_s.shape[0]
    p = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.where(coin, arr_t - rd_ok, arr_s), dtype=np.int64, out=p[1:])
    base = p.min() - 1
    bits = (n + 2).bit_length()
    low = (1 << bits) - 1
    keys = p - base
    keys <<= bits
    keys |= np.arange(n + 1)
    keys.sort()

    level = p[busy + 1] - arr_s[busy]
    start = busy + 2
    if q:
        level = np.append(level, -q)
        start = np.append(start, 1)
    query = np.maximum(level - base, 0)
    query <<= bits
    query |= start
    query.sort()
    found = keys[np.minimum(keys.searchsorted(query), n)]
    hit = (found >= query) & (found >> bits == query >> bits)
    # indexed by start slot: 1 for the carried-in queue, tau + 2 for tau
    table = np.empty(n + 2, dtype=np.int64)
    table[query & low] = np.where(hit, found & low, n)
    return (int(table[1]) if q else 0), table[busy + 2]


def _empty_slots(n, is_busy, busy, first, after):
    """Mask of the chunk's empty slots, walked from the first one.

    An empty slot without arrivals is followed by another empty slot, so
    the empty slots are runs, each from ``first`` or from the ``after`` of
    a busy slot reached to the first busy slot at or after it (through the
    chunk's end if there is none). ``rank`` numbers each slot's first busy
    slot at or after it among ``busy``; the walk takes one step per busy
    period reached, at most n / 2, since each takes two slots or more.
    Every step must advance: ``after[j]`` is at least busy[j] + 2, or n,
    so rank[after[j]] > j. A step that does not is a fault in
    ``_next_empty`` and raises here, where the walk would loop forever.
    """
    m = busy.size
    rank = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(is_busy, out=rank[1:])
    step = rank[after]
    if (step <= np.arange(m)).any():
        raise RuntimeError("a busy period ends at or before the slot that "
                           "starts it")
    # rank[n] == m ends the walk; a memoryview reads Python ints without
    # converting the whole array as ``tolist`` would
    step = memoryview(step)
    j, reached = int(rank[first]), []
    while j < m:
        reached.append(j)
        j = step[j]
    reached = np.array(reached, dtype=np.intp)
    # run k is [starts[k], ends[k]); a start of n marks nothing
    starts = np.append(first, after[reached])
    ends = np.append(busy[reached] + 1, n)
    diff = np.zeros(n + 1, dtype=np.int8)
    diff[starts] = 1
    diff[ends] -= 1
    return np.cumsum(diff[:n], dtype=np.int8) > 0


def _scan_chunk(q, t0, arr_s, arr_t, dir_s, dir_t, rd_ok, coin,
                warm, blen, nb, early_end, late_start, bat, qacc):
    """Exact queue update over one precomputed chunk; returns the final q.

    bat rows accumulate per-batch [direct, relay_dep, enqueued, nonempty,
    empty]; qacc accumulates [sum_q_measured, max_q, sum_q_early,
    sum_q_late, enqueued_total, departed_total] (the last two over the
    whole run, warm-up included).

    The regime changes only at empty slots. A busy slot, one with
    arr_s > 0, starts a busy period when it finds the queue empty, and no
    other slot does. ``_next_empty`` finds where each possible busy period
    would end, and ``_empty_slots`` walks the periods reached from the
    chunk start. Every accumulated value is an integer sum, taken in int64
    whatever the per-slot values' type, so the floats equal those of a
    slot-by-slot update while the sums stay below 2**53.
    """
    n = arr_s.shape[0]
    is_busy = arr_s > 0
    busy = np.flatnonzero(is_busy)
    first, after = _next_empty(q, busy, arr_s, arr_t, rd_ok, coin)
    empty = _empty_slots(n, is_busy, busy, first, after)

    serve = coin & ~empty
    dep = serve & rd_ok
    a = np.where(serve, arr_t, arr_s)
    d = np.where(serve, dir_t, dir_s)
    qpath = q + np.cumsum(a - dep, dtype=np.int64)
    qacc[4] += a.sum(dtype=np.int64)
    qacc[5] += dep.sum(dtype=np.int64)
    qacc[2] += qpath[:max(early_end - t0, 0)].sum()
    qacc[3] += qpath[max(late_start - t0, 0):].sum()

    lo = min(max(warm - t0, 0), n)
    hi = min(max(warm + nb * blen - t0, 0), n)
    if lo < hi:
        # the batches [b0, b0 + edges.size) meet the chunk; edges are
        # their first slots in [lo, hi), counted from lo
        b0 = (lo + t0 - warm) // blen
        edges = np.arange(b0, (hi - 1 + t0 - warm) // blen + 1) * blen
        edges += warm - t0 - lo
        edges[0] = 0
        for col, v in enumerate((d, dep, a, ~empty, empty)):
            bat[b0:b0 + edges.size, col] += np.add.reduceat(v[lo:hi], edges,
                                                            dtype=np.int64)
        measured = qpath[lo:hi]
        qacc[0] += measured.sum()
        qacc[1] = max(qacc[1], measured.max())
    return int(qpath[-1])


@dataclass(frozen=True)
class SimStats:
    """Empirical counterpart of the analytical quantities for one run.

    Rates and their batch-means standard errors are measured after the
    warm-up window; queue trajectory fields (first/last quarter means,
    final length, drift) cover the full run so stability behaviour stays
    visible. ``mu_sim`` is NaN when the queue was never nonempty in the
    measured window.
    """

    slots: int
    warmup_slots: int
    measured_slots: int
    n_batches: int
    delivered_direct: int
    delivered_relay: int
    t_sim: float
    t_sim_se: float
    lambda_sim: float
    lambda_sim_se: float
    mu_sim: float
    mu_sim_se: float
    p_empty_sim: float
    p_empty_se: float
    mean_queue: float
    max_queue: int
    queue_final: int
    enqueued_total: int    # whole run, warm-up included
    departed_total: int    # whole run, warm-up included
    mean_queue_first_quarter: float
    mean_queue_last_quarter: float
    drift_sim: float
    seed: int
    mode: str


def _se(values: np.ndarray) -> float:
    values = values[np.isfinite(values)]
    if values.size < 2:
        return math.nan
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def _invert(px, u):
    """numpy's binomial inversion count for each row of ``px`` and double u.

    A row holds one n's terms px_0, px_1, ... padded with inf past numpy's
    cut-off, so a draw that runs past the cut-off returns cut-off + 1: the
    restart. ``np.subtract.accumulate`` repeats numpy's sequential
    ``U -= px`` bit for bit, and the count is the first j with U <= px_j.
    """
    rem = np.subtract.accumulate(np.column_stack((u, px[:, :-1])), axis=1)
    return (rem > px).argmin(axis=1)


class _Binomial:
    """``gen.binomial(n, p)`` for integer arrays with 0 <= n <= n_max, exactly.

    Same values, same ``random()`` draws, same generator state after the
    call; the counts come in ``n``'s dtype. ``px[n]`` is numpy's inversion row for n and ``bound[n]`` its
    cut-off. X(u) >= k exactly when u >= T[n, k], and u >= T[n, bound + 1]
    is the restart region. Bucket b of row n covers u in [b, b + 1) / nb;
    ``base`` is X at its start and ``thr`` the one threshold inside it (2.0
    for none). A bucket with two or more thresholds, or reaching the
    restart region, has base -2 and its draws are inverted directly.
    """

    def __init__(self, n_max: int, p: float):
        self.p = p
        self.flip = p > 0.5
        pi = 1.0 - p if self.flip else p
        # p = 0 draws nothing; past n * pi = 30 numpy uses BTPE
        self.native = p == 0.0 or pi * n_max > 30.0
        if self.native:
            return
        q = 1.0 - pi
        bound, qn = [], []
        for n in range(n_max + 1):
            mean = n * pi
            bound.append(int(min(n, mean + 10.0 * math.sqrt(mean * q + 1))))
            qn.append(math.exp(n * math.log(q)))  # libm, as numpy's C
        self.bound = np.array(bound)
        w = int(self.bound.max()) + 2
        nf = np.arange(n_max + 1, dtype=float)
        px = np.empty((n_max + 1, w))
        px[:, 0] = qn
        for j in range(1, w):
            px[:, j] = (nf - j + 1) * pi * px[:, j - 1] / (j * q)
        px[np.arange(w) > self.bound[:, None]] = np.inf
        self.px = px

        # T[n, k] for k = 1..bound[n] + 1: the least m with
        # X(m / 2**53) >= k (2**53 for none), by binary lifting over m;
        # the repeated last step lifts t from 2**53 - 1 to 2**53.
        cnt = self.bound + 1
        rows = np.repeat(np.arange(n_max + 1), cnt)
        k = np.arange(rows.size) - np.repeat(np.cumsum(cnt) - cnt, cnt) + 1
        prow = px[rows]
        t = np.zeros(rows.size, dtype=np.int64)
        for b in (*range(52, -1, -1), 0):
            step = 1 << b
            t += step * (_invert(prow, (t + (step - 1)) * 2.0**-53) < k)

        bits = max(0, min(_GUIDE_BITS, _GUIDE_CELL_BITS - n_max.bit_length()))
        self.nb = nb = 1 << bits
        shift = 53 - bits
        # a threshold at a bucket's start counts in that bucket's base
        first = (t + (1 << shift) - 1) >> shift
        base = np.bincount(rows * (nb + 1) + first,
                           minlength=(n_max + 1) * (nb + 1))
        base = base.reshape(n_max + 1, nb + 1).cumsum(axis=1)[:, :nb]
        inside = (t & ((1 << shift) - 1)) != 0
        cell = (rows * nb + (t >> shift))[inside]
        self.thr = np.full(base.size, 2.0)
        self.thr[cell] = t[inside] * 2.0**-53
        restart = t[np.cumsum(cnt) - 1] >> shift
        base[(np.bincount(cell, minlength=base.size) > 1).reshape(base.shape)
             | (np.arange(nb) >= restart[:, None])] = -2
        self.base = base.ravel().astype(np.int8)  # X <= cut-off + 1 <= 86

    def _lookup(self, n, u):
        """(X per (n, u) pair, indices of the pairs inverted directly)."""
        idx = (u * self.nb).astype(np.intp)
        # in intp: n may be too narrow for n * nb
        idx += np.multiply(n, self.nb, dtype=np.intp)
        x = self.base[idx]
        x += u >= self.thr[idx]
        slow = np.flatnonzero(x < 0)
        if slow.size:
            x[slow] = _invert(self.px[n[slow]], u[slow])
        return x, slow

    def __call__(self, gen: np.random.Generator, n):
        """The counts, in ``n``'s dtype."""
        if self.native:
            return gen.binomial(n, self.p).astype(n.dtype, copy=False)
        # Cache-sized blocks; drawing block after block keeps the stream.
        out = np.empty(n.size, dtype=n.dtype)
        for lo in range(0, n.size, _SAMPLE_BLOCK):
            part = n[lo:lo + _SAMPLE_BLOCK]
            x = self._draw(gen, part)
            out[lo:lo + _SAMPLE_BLOCK] = part - x if self.flip else x
        return out

    def _draw(self, gen, n):
        """numpy's inversion counts X for one block, restarts included."""
        # n = 0 draws nothing, and row 0 gives 0 for any u
        live = n != 0
        k = np.count_nonzero(live)
        if k == n.size:
            u = gen.random(k)
        else:
            u = np.zeros(n.size)
            u[live] = gen.random(k)
        x, slow = self._lookup(n, u)
        while slow.size:
            redo = slow[x[slow] > self.bound[n[slow]]]
            if not redo.size:
                break
            # numpy draws again at once, so the first restarted draw and
            # every later live one take the next double
            tail = redo[0] + np.flatnonzero(live[redo[0]:])
            u[tail[:-1]] = u[tail[1:]]
            u[tail[-1]] = gen.random()
            x[tail], s = self._lookup(n[tail], u[tail])
            slow = tail[s]
        return x


class _Powers:
    """Per-run constants: the link budget and the binomial samplers.

    The budget gives the LOS probabilities, the received powers, which the
    simulator adds up into interference itself, and the decode thresholds
    that judge each reception. The samplers, each covering n <= N, draw
    the transmission counts (``tx``, ``fd``, ``fr`` for q_u, q_uf, q_ur)
    and, in decoupled mode only, the LOS interferer counts (``los``, by
    link "ur" and "ud"). Equal probabilities share one table, so a run
    builds at most five.
    """

    def __init__(self, cfg: ScenarioConfig, mode: str):
        self.budget = b = LinkBudget(cfg)
        probs = (cfg.q_u, cfg.q_uf, cfg.q_ur)
        if mode == "decoupled":
            probs += (b.p_los("ur"), b.p_los("ud"))
        tables = {p: _Binomial(cfg.n_ues, p) for p in dict.fromkeys(probs)}
        self.tx, self.fd, self.fr, *los = (tables[p] for p in probs)
        self.los = dict(zip(("ur", "ud"), los))


def _count_dtype(n_ues: int) -> np.dtype:
    """The narrowest signed integer type holding -1..``n_ues``: int8 up to
    N = 127. Every count of a chunk fits, a count less one included."""
    return np.min_scalar_type(-n_ues - 1)


def _draw_counts(gen: np.random.Generator, cfg: ScenarioConfig, pw: _Powers,
                 c: int):
    """Per-slot transmission counts following the per-UE decision tree.

    The counts are in ``_count_dtype``, and so are the per-reception
    counts gathered from them and the LOS counts drawn over those, which
    keeps a chunk's live arrays small.
    """
    n_tx = pw.tx(gen, np.full(c, cfg.n_ues, dtype=_count_dtype(cfg.n_ues)))
    n_f = pw.fd(gen, n_tx)
    n_fr = pw.fr(gen, n_f)
    coin = gen.random(c) < cfg.q_r
    return n_fr, n_f - n_fr, n_tx - n_f, coin


def _los_mask(gen: np.random.Generator, size: int, p: float):
    """``gen.random(size) < p``, drawn in pieces of ``_SAMPLE_BLOCK``
    doubles: consecutive draws continue one stream, so this is the same
    mask without a chunk-sized array of doubles."""
    mask = np.empty(size, dtype=bool)
    u = np.empty(min(size, _SAMPLE_BLOCK))
    for lo in range(0, size, _SAMPLE_BLOCK):
        part = u[:min(_SAMPLE_BLOCK, size - lo)]
        gen.random(out=part)
        np.less(part, p, out=mask[lo:lo + part.size])
    return mask


def _blocks(n_tx):
    """A physical chunk's reception blocks, in slot order, as slot slices:
    runs of whole slots holding at most ``_SAMPLE_BLOCK`` of the
    ``n_tx`` transmissions per slot, or one heavier slot."""
    c = n_tx.size
    ends = np.zeros(c + 1, dtype=np.int64)
    np.cumsum(n_tx, dtype=np.int64, out=ends[1:])
    s0 = 0
    while s0 < c:
        s1 = int(ends.searchsorted(int(ends[s0]) + _SAMPLE_BLOCK, "right"))
        s1 = max(s1 - 1, s0 + 1)
        yield slice(s0, s1)
        s0 = s1


# A slot's index within a chunk: the narrowest type holding _CHUNK - 1,
# uint16.
_SLOT_DTYPE = np.min_scalar_type(_CHUNK - 1)


# The five receptions of a slot, in the order they are drawn and decided,
# by the (link, scheme) of their signal: FD and BR at the relay, BR and
# FD at the mmAP, then the relay's packet at the mmAP.
_RECEPTIONS = (("ur", "fd"), ("ur", "br"), ("ud", "br"), ("ud", "fd"),
               ("rd", "fd"))


def _reception_slots(n_fr, n_fd, n_b):
    """Per reception, in the order of ``_RECEPTIONS``: the slot of each, in
    slot order, as ``_SLOT_DTYPE`` (half the bytes of int32; a piece
    converts only its own slice to intp). Built one kind at a time, and
    once for the BR transmissions, which both receivers hear."""
    idx = np.arange(n_fr.size, dtype=_SLOT_DTYPE)
    yield idx.repeat(n_fr)
    br = idx.repeat(n_b)
    yield br
    yield br
    del br
    yield idx.repeat(n_fd)
    yield idx


def _tallies(n_fr):
    """A chunk's per-slot outcomes (arr_s, arr_t, dir_s, dir_t, rd_ok),
    before any reception is decided: counts in ``n_fr``'s dtype, the
    count dtype, which holds any number of a slot's packets."""
    return (*(np.zeros(n_fr.size, dtype=n_fr.dtype) for _ in range(4)),
            np.empty(n_fr.size, dtype=bool))


def _interferers(n_fr, n_fd, n_b):
    """Per reception, in the order of ``_RECEPTIONS``: its (FD, BR) interferer
    counts, per slot. An FD packet aimed at the other receiver does not
    interfere, and no packet interferes with itself; the relay sends one
    packet per slot."""
    kb = n_b - 1
    return ((n_fr - 1, n_b), (n_fr, kb), (n_fd, kb), (n_fd - 1, n_b),
            (n_fd, n_b))


def _interference(k_f, kf_n, k_b, kb_n, fd: tuple[float, float],
                  br: tuple[float, float]):
    """LOS count * LOS power + NLOS count * NLOS power of the FD, then the
    BR interferers, added left to right; ``fd`` and ``br`` are the
    interferers' (LOS, NLOS) powers."""
    interf = k_f * fd[0]
    interf += (kf_n - k_f) * fd[1]
    interf += k_b * br[0]
    interf += (kb_n - k_b) * br[1]
    return interf


def _chunk_decoupled(gen: np.random.Generator, pw: _Powers, n_fr, n_fd, n_b):
    """Per-slot outcomes of a chunk, fresh LOS draws per reception.

    Reception after reception, over the whole chunk: its desired-state
    mask (none for the relay's, always in LOS), then its LOS counts among
    the FD interferers, then, in pieces of ``_SAMPLE_BLOCK`` receptions,
    those among the BR interferers. Each piece is decided (``_decide``) as
    soon as its draws are made, so between pieces a chunk keeps only the
    reception's slots, mask and FD LOS counts, and the BR-at-relay decode
    mask.
    """
    b = pw.budget
    out = _tallies(n_fr)
    at_relay = np.empty(int(n_b.sum(dtype=np.int64)), dtype=bool)
    for kind, (slots, (per_f, per_b)) in enumerate(
            zip(_reception_slots(n_fr, n_fd, n_b),
                _interferers(n_fr, n_fd, n_b))):
        # interferers reach the relay over "ur" and the mmAP over "ud"
        link = "ur" if _RECEPTIONS[kind][0] == "ur" else "ud"
        los = pw.los[link]
        desired = _los_mask(gen, slots.size, los.p) if kind < 4 else None
        pieces = [slice(lo, lo + _SAMPLE_BLOCK)
                  for lo in range(0, slots.size, _SAMPLE_BLOCK)]
        k_f = np.empty(slots.size, dtype=per_f.dtype)
        for piece in pieces:
            k_f[piece] = los(gen, per_f.take(slots[piece]))
        powers = b.powers(link, "fd"), b.powers(link, "br")
        for piece in pieces:
            s = slots[piece]
            first, stop = int(s[0]), int(s[-1]) + 1
            # intp: take and bincount convert any other index dtype
            local = np.subtract(s, first, dtype=np.intp)
            kf_n, kb_n = (n[first:stop].take(local) for n in (per_f, per_b))
            interference = _interference(k_f[piece], kf_n,
                                         los(gen, kb_n), kb_n, *powers)
            _decide(pw, kind, [o[first:stop] for o in out], local,
                    True if desired is None else desired[piece],
                    interference, at_relay[piece] if kind in (1, 2) else None)
        del desired, k_f  # before the next reception's are drawn
    return out


def _chunk_physical(gen: np.random.Generator, pw: _Powers, n_fr, n_fd, n_b):
    """Per-slot outcomes of a chunk, one LOS draw per link per slot.

    Draws first: the LOS masks of the links toward the relay (FD-to-relay,
    then BR transmitters) and toward the mmAP (FD-to-mmAP, then BR). Then
    the chunk is decided block by block (``_blocks``): each
    transmission's received power is the 2-entry gather of its link's
    (NLOS, LOS) pair by its mask, and a reception's interference is its
    slot's total at the receiver less its own power. A block numbers its
    transmissions' slots from its own counts, and its spans among the
    chunk's transmissions (its slices of the masks) follow from each
    kind's running count, so no chunk-wide slot array is built.
    """
    b = pw.budget
    links = (("ur", "fd"), ("ur", "br"), ("ud", "fd"), ("ud", "br"))
    masks = [_los_mask(gen, int(n.sum(dtype=np.int64)), b.p_los(link))
             for n, (link, _) in zip((n_fr, n_b, n_fd, n_b), links)]
    pairs = [np.array(b.powers(*link)[::-1]) for link in links]
    out = _tallies(n_fr)
    stops = [0, 0, 0]
    for block in _blocks(n_fr + n_fd + n_b):
        cb = block.stop - block.start
        # the block's FD->relay, BR and FD->mmAP transmissions' slots,
        # numbered from its first
        slots_fr, slots_b, slots_fd = local = [
            np.arange(cb).repeat(n[block]) for n in (n_fr, n_b, n_fd)]
        starts, stops = stops, [a + s.size for a, s in zip(stops, local)]
        spans = [slice(a, z) for a, z in zip(starts, stops)]
        los = [m[span] for m, span in zip(masks, (*spans, spans[1]))]
        p_fr_r, p_b_r, p_fd_d, p_b_d = (pair.take(m.view(np.uint8))
                                        for pair, m in zip(pairs, los))
        total_r = (np.bincount(slots_fr, weights=p_fr_r, minlength=cb)
                   + np.bincount(slots_b, weights=p_b_r, minlength=cb))
        total_d = (np.bincount(slots_fd, weights=p_fd_d, minlength=cb)
                   + np.bincount(slots_b, weights=p_b_d, minlength=cb))
        los_fr_r, los_b_r, los_fd_d, los_b_d = los
        view = [o[block] for o in out]
        at_relay = np.empty(slots_b.size, dtype=bool)
        for kind, reception in enumerate((
                (slots_fr, los_fr_r, total_r[slots_fr] - p_fr_r),
                (slots_b, los_b_r, total_r[slots_b] - p_b_r),
                (slots_b, los_b_d, total_d[slots_b] - p_b_d),
                (slots_fd, los_fd_d, total_d[slots_fd] - p_fd_d),
                (None, True, total_d))):
            _decide(pw, kind, view, *reception, at_relay)
    return out


def _decide(pw: _Powers, kind: int, out, slots, los, interference,
            at_relay):
    """Decide receptions of one kind (an index into ``_RECEPTIONS``) and add
    them to the per-slot outcomes: the outcome rules of both modes.

    ``out`` is (arr_s, arr_t, dir_s, dir_t, rd_ok) over a run of slots,
    ``slots`` the receptions' slots numbered from its first (the relay's
    reception has one per slot of ``out``), and ``los`` and
    ``interference`` their desired LOS states and interference. The queue
    stores decoded FD->relay packets and BR packets decoded at the relay
    and lost at the mmAP; direct deliveries are the FD and BR packets
    decoded at the mmAP. ``at_relay`` is the BR-at-relay decode mask of
    these BR transmissions: BR at the relay fills it and BR at the mmAP
    reads it. With the relay transmitting (suffix t) the budget's
    ``relay_interference_w`` adds to the interference at the mmAP, in
    place.
    """
    thresholds = pw.budget.thresholds(*_RECEPTIONS[kind])
    ok = _decoded(los, interference, thresholds)
    arr_s, arr_t, dir_s, dir_t, rd_ok = out
    c = arr_s.size
    if kind == 0:
        stored = np.bincount(slots[ok], minlength=c)
        arr_s += stored
        arr_t += stored
    elif kind == 1:
        at_relay[:] = ok
    elif kind == 4:
        rd_ok[:] = ok
    else:
        for relay_on, (arr, direct) in enumerate(((arr_s, dir_s),
                                                  (arr_t, dir_t))):
            if relay_on:
                interference += pw.budget.relay_interference_w
                ok = _decoded(los, interference, thresholds)
            direct += np.bincount(slots[ok], minlength=c)
            if kind == 2:
                arr += np.bincount(slots[at_relay & ~ok], minlength=c)


def _decoded(los, interference, thresholds: tuple[float, float]):
    """Decode indicator of receptions: interference at most the
    threshold.

    ``thresholds`` are the signal's (LOS, NLOS) ``LinkBudget.thresholds``;
    ``los`` picks one per reception (True: all in LOS). Bitwise, since
    ``np.where`` over a random mask is several times slower.
    """
    ok = interference <= thresholds[0]
    if los is not True:
        ok &= los
        ok |= (interference <= thresholds[1]) & ~los
    return ok


def check_argument(name: str, value) -> None:
    """Reject, naming the argument, a bad argument of ``run`` or of
    ``sweeps.run_sweep``: ``n_slots`` and ``jobs`` are integers >= 1,
    ``seed`` an integer >= 0 (``check_integer``) and ``mode`` one of
    ``MODES``."""
    if name == "mode":
        if value not in MODES:
            raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}, "
                             f"got {value!r}")
        return
    check_integer(name, value, _LOWEST[name])


def run(cfg: ScenarioConfig, n_slots: int, seed: int,
        mode: str = "decoupled") -> SimStats:
    """Simulate ``n_slots`` slots and return the measured statistics."""
    for name, value in (("n_slots", n_slots), ("seed", seed), ("mode", mode)):
        check_argument(name, value)
    pw = _Powers(cfg, mode)
    child = np.random.SeedSequence(seed).spawn(3)
    gen_choices = np.random.Generator(np.random.PCG64(child[0]))
    # physical mode draws from the second stream, decoupled from the third
    chunk, stream = ((_chunk_decoupled, child[2]) if mode == "decoupled"
                     else (_chunk_physical, child[1]))
    gen = np.random.Generator(np.random.PCG64(stream))

    warm = min(n_slots // 10, _WARMUP_CAP)
    measured = n_slots - warm
    nb = min(_TARGET_BATCHES, measured)
    blen = measured // nb
    early_end = n_slots // 4
    late_start = n_slots - n_slots // 4

    bat = np.zeros((nb, 5))
    qacc = np.zeros(6)
    q = 0
    t0 = 0
    while t0 < n_slots:
        c = min(_CHUNK, n_slots - t0)
        n_fr, n_fd, n_b, coin = _draw_counts(gen_choices, cfg, pw, c)
        # the outcomes live only for the scan, not into the next draws
        q = _scan_chunk(q, t0, *chunk(gen, pw, n_fr, n_fd, n_b), coin,
                        warm, blen, nb, early_end, late_start, bat, qacc)
        t0 += c

    in_batches = nb * blen
    direct = bat[:, 0].sum()
    relayed = bat[:, 1].sum()
    enqueued = bat[:, 2].sum()
    nonempty = bat[:, 3].sum()
    empties = bat[:, 4].sum()

    t_b = (bat[:, 0] + bat[:, 1]) / blen
    lam_b = bat[:, 2] / blen
    p0_b = bat[:, 4] / blen
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
        t_sim_se=_se(t_b),
        lambda_sim=enqueued / in_batches,
        lambda_sim_se=_se(lam_b),
        mu_sim=relayed / nonempty if nonempty > 0 else math.nan,
        mu_sim_se=_se(mu_b),
        p_empty_sim=empties / in_batches,
        p_empty_se=_se(p0_b),
        mean_queue=qacc[0] / in_batches,
        max_queue=int(qacc[1]),
        queue_final=int(q),
        enqueued_total=int(qacc[4]),
        departed_total=int(qacc[5]),
        mean_queue_first_quarter=(qacc[2] / early_end if early_end else math.nan),
        mean_queue_last_quarter=(qacc[3] / (n_slots - late_start)
                                 if n_slots - late_start else math.nan),
        drift_sim=q / n_slots,
        seed=seed,
        mode=mode,
    )


@dataclass(frozen=True)
class MetricComparison:
    name: str
    analytic: float
    empirical: float
    se: float
    z: float
    passed: bool | None   # None: not measurable on this run
    note: str = ""


@dataclass(frozen=True)
class ComparisonResult:
    rows: tuple[MetricComparison, ...]
    regime_note: str = ""

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows if r.passed is not None)


_Z_LIMIT = 3.0  # a compared row passes when its |z| is at most this


def _z(diff: float, se: float) -> float:
    """z-score of an empirical-minus-analytic ``diff``; without a positive
    standard error it is 0.0 within 1e-9 and inf beyond."""
    if not math.isnan(se) and se > 0.0:
        return diff / se
    return 0.0 if abs(diff) <= 1e-9 else math.inf


def compare(report: ThroughputReport, stats: SimStats) -> ComparisonResult:
    """Analytic-vs-empirical z-score table for one scenario point; a row
    passes when |z| <= 3 (``_Z_LIMIT``)."""
    queue = report.queue
    p0 = queue.p_empty_prob  # 0.0 when unstable, so lam is lambda1
    lam = p0 * queue.lambda0 + (1.0 - p0) * queue.lambda1
    targets = [
        ("t_total", report.t_aggregate, stats.t_sim, stats.t_sim_se),
        ("lambda", lam, stats.lambda_sim, stats.lambda_sim_se),
        ("mu_r", queue.mu_r, stats.mu_sim, stats.mu_sim_se),
        ("p_empty", p0, stats.p_empty_sim, stats.p_empty_se),
    ]
    rows = []
    for name, ana, emp, se in targets:
        if math.isnan(emp):
            rows.append(MetricComparison(name, ana, emp, se, math.nan, None,
                                         "no samples (queue never nonempty)"))
            continue
        z = _z(emp - ana, se)
        rows.append(MetricComparison(name, ana, emp, se, z,
                                     abs(z) <= _Z_LIMIT))
    note = ""
    if not queue.stable and stats.queue_final < 10 and stats.drift_sim <= 0:
        note = ("analytic regime is unstable but the simulated queue stayed "
                "bounded; treat comparison as regime-sensitive")
    return ComparisonResult(tuple(rows), note)

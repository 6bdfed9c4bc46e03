import dataclasses
import json
import math
import signal
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmrelay import ScenarioConfig, SuccessTable, aggregate_throughput, compare, run
from mmrelay import simulator
from mmrelay.geometry import LinkBudget
import oracles
from oracles import binomial_oracle, scan_chunk_oracle, simulate_reference


_LIGHT = ScenarioConfig(n_ues=5, q_u=0.5, q_r=0.9)
_HEAVY = ScenarioConfig(n_ues=30, q_u=0.9, q_r=0.9)


class TestDeterminism:
    def test_identical_args_identical_stats(self):
        cfg = ScenarioConfig(n_ues=3, q_u=0.5)
        a = run(cfg, 30_000, seed=123, mode="decoupled")
        b = run(cfg, 30_000, seed=123, mode="decoupled")
        assert a == b

    def test_seed_changes_stats(self):
        cfg = ScenarioConfig(n_ues=3, q_u=0.5)
        a = run(cfg, 30_000, seed=1)
        b = run(cfg, 30_000, seed=2)
        assert a != b

    def test_modes_share_transmission_stream(self):
        # switching LOS-sampling mode must not perturb transmission choices:
        # with alpha=0 and a tiny threshold every transmission succeeds, so
        # both modes count exactly the same packets
        cfg = ScenarioConfig(n_ues=4, q_u=0.6, alpha=0.0, gamma_db=-60.0)
        a = run(cfg, 20_000, seed=9, mode="decoupled")
        b = run(cfg, 20_000, seed=9, mode="physical")
        assert a.delivered_direct == b.delivered_direct
        assert a.enqueued_total == b.enqueued_total


class TestTrivialScenarios:
    def test_silent_network(self):
        cfg = ScenarioConfig(n_ues=5, q_u=0.0, q_r=1.0)
        stats = run(cfg, 50_000, seed=0)
        assert stats.t_sim == 0.0
        assert stats.p_empty_sim == 1.0
        assert math.isnan(stats.mu_sim)

    def test_single_fd_user_matches_analytics(self):
        cfg = ScenarioConfig(n_ues=1, q_u=0.3, q_uf=1.0, q_ur=0.0)
        t = SuccessTable(cfg)
        stats = run(cfg, 1_000_000, seed=4)
        expected = 0.3 * t.grid("ud", "fd")[0, 0]
        assert abs(stats.t_sim - expected) <= 3 * stats.t_sim_se

    def test_low_threshold_ceiling(self):
        # alpha = 0 and a threshold below every link's SNR: every intended
        # reception succeeds, so throughput equals the analytic ceiling
        cfg = ScenarioConfig(n_ues=4, q_u=0.5, alpha=0.0, gamma_db=-60.0)
        rep = aggregate_throughput(cfg)
        stats = run(cfg, 400_000, seed=5)
        assert abs(stats.t_sim - rep.t_aggregate) <= \
            max(3 * stats.t_sim_se, 1e-9)


class TestConservation:
    @pytest.mark.parametrize("mode", ["decoupled", "physical"])
    def test_packet_conservation(self, mode):
        cfg = ScenarioConfig(n_ues=4, q_u=0.7, q_uf=0.5, q_ur=0.5, q_r=0.6)
        stats = run(cfg, 120_000, seed=21, mode=mode)
        assert stats.queue_final == stats.enqueued_total - stats.departed_total
        assert stats.queue_final >= 0
        assert stats.departed_total <= stats.enqueued_total

    def test_counts_consistent(self):
        cfg = ScenarioConfig(n_ues=3, q_u=0.8)
        stats = run(cfg, 80_000, seed=3)
        assert stats.delivered_direct + stats.delivered_relay <= \
            stats.measured_slots * (cfg.n_ues + 1)
        assert stats.n_batches >= 30


class TestAgainstAnalytics:
    def test_two_ue_default_point(self, two_ue_cfg):
        rep = aggregate_throughput(two_ue_cfg)
        stats = run(two_ue_cfg, 1_000_000, seed=17)
        result = compare(rep, stats)
        assert result.all_passed, [
            (r.name, r.z) for r in result.rows if r.passed is False]

    def test_drift_sign_matches_loynes(self):
        base = ScenarioConfig(n_ues=5, q_u=0.4, q_uf=0.5, q_ur=0.5)
        thr = aggregate_throughput(base, SuccessTable(base)).queue.q_r_min
        for factor, should_grow in ((0.8, True), (1.25, False)):
            cfg = base.replace(q_r=min(thr * factor, 1.0))
            sol = aggregate_throughput(cfg, SuccessTable(cfg)).queue
            stats = run(cfg, 300_000, seed=33)
            if should_grow:
                assert not sol.stable
                assert stats.drift_sim > 0.5 * (sol.lambda1 - sol.mu_r)
            else:
                assert sol.stable
                assert stats.mean_queue_last_quarter < \
                    10 * max(stats.mean_queue_first_quarter, 1.0)


class TestCompare:
    def test_identical_inputs_zero_z(self, two_ue_cfg):
        rep = aggregate_throughput(two_ue_cfg)
        stats = run(two_ue_cfg, 200_000, seed=2)
        # synthetic: compare the analytic report against itself via a stats
        # object rewritten to the analytic values
        from dataclasses import replace
        q = rep.queue
        lam = q.p_empty_prob * q.lambda0 + (1 - q.p_empty_prob) * q.lambda1
        synthetic = replace(stats, t_sim=rep.t_aggregate, lambda_sim=lam,
                            mu_sim=q.mu_r, p_empty_sim=q.p_empty_prob)
        result = compare(rep, synthetic)
        assert all(r.z == 0.0 for r in result.rows)
        assert result.all_passed

    @pytest.mark.parametrize("t_sim, passed", [
        (1.25, True), (math.nextafter(1.25, 2.0), False)])
    def test_bound_is_z_three_inclusive(self, two_ue_cfg, t_sim, passed):
        # (1.25 - 0.5) / 0.25 is exactly 3.0; one ulp more fails.
        rep = aggregate_throughput(two_ue_cfg)
        stats = run(two_ue_cfg, 200_000, seed=2)
        q = rep.queue
        lam = q.p_empty_prob * q.lambda0 + (1 - q.p_empty_prob) * q.lambda1
        result = compare(
            dataclasses.replace(rep, t_aggregate=0.5),
            dataclasses.replace(stats, t_sim=t_sim, t_sim_se=0.25,
                                lambda_sim=lam, mu_sim=q.mu_r,
                                p_empty_sim=q.p_empty_prob))
        row = next(r for r in result.rows if r.name == "t_total")
        assert (row.z == 3.0) is passed
        assert row.passed is passed
        assert result.all_passed is passed

    @pytest.mark.parametrize("queue_final, drift_sim, noted", [
        (9, 0.0, True), (10, 0.0, False), (0, 1e-9, False)])
    def test_unstable_analysis_with_bounded_queue_is_noted(
            self, queue_final, drift_sim, noted):
        cfg = ScenarioConfig(n_ues=5, q_u=0.4, q_r=0.1)
        rep = aggregate_throughput(cfg)
        assert not rep.queue.stable
        stats = dataclasses.replace(run(cfg, 20_000, seed=3),
                                    queue_final=queue_final,
                                    drift_sim=drift_sim)
        assert compare(rep, stats).regime_note == (
            "analytic regime is unstable but the simulated queue stayed "
            "bounded; treat comparison as regime-sensitive" if noted else "")

    def test_silent_network_trivially_passes(self):
        cfg = ScenarioConfig(n_ues=2, q_u=0.0)
        rep = aggregate_throughput(cfg)
        stats = run(cfg, 50_000, seed=11)
        result = compare(rep, stats)
        assert result.all_passed
        mu_row = next(r for r in result.rows if r.name == "mu_r")
        assert mu_row.passed is None  # never nonempty: not measurable

    def test_rejects_bad_mode(self, two_ue_cfg):
        with pytest.raises(ValueError):
            run(two_ue_cfg, 100, seed=0, mode="telepathic")
        with pytest.raises(ValueError):
            run(two_ue_cfg, 0, seed=0)

    @pytest.mark.parametrize("n_slots, seed, name", [
        (True, 0, "n_slots"), (100.0, 0, "n_slots"), (0, 0, "n_slots"),
        (100, True, "seed"), (100, 1.5, "seed"), (100, -1, "seed"),
    ])
    def test_rejects_bad_counts_naming_the_argument(self, two_ue_cfg,
                                                    n_slots, seed, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            run(two_ue_cfg, n_slots, seed)


@st.composite
def _chunks(draw):
    """A random chunk and accumulator layout for ``_scan_chunk``.

    Arrivals are non-negative, so a busy slot steps the queue by at least
    -1; the warm-up end, the quarter edges and the batch edges land inside
    the chunk, before it or after it, and slots past nb * blen occur.
    """
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rate_s = draw(st.floats(0.0, 1.5))
    rate_t = draw(st.floats(0.0, 1.5))
    arr_s = rng.poisson(rate_s, n)
    arr_t = rng.poisson(rate_t, n)
    dir_s = rng.integers(0, 4, n)
    dir_t = rng.integers(0, 4, n)
    rd_ok = rng.random(n) < draw(st.floats(0.0, 1.0))
    coin = rng.random(n) < draw(st.floats(0.0, 1.0))
    q = draw(st.one_of(st.just(0), st.integers(1, 3), st.integers(4, 50)))
    t0 = draw(st.integers(0, 10**6))
    warm = t0 + draw(st.integers(-n, n))
    blen = draw(st.integers(1, n))
    nb = draw(st.integers(1, 60))
    early_end = t0 + draw(st.integers(-n, 2 * n))
    late_start = t0 + draw(st.integers(-n, 2 * n))
    return (q, t0, arr_s, arr_t, dir_s, dir_t, rd_ok, coin,
            warm, blen, nb, early_end, late_start)


def _scan_against_oracle(chunk, prior=0):
    """The oracle's (q, bat, qacc) on one chunk, after checking that
    ``_scan_chunk`` gives the same; the accumulators start at ``prior``,
    as if holding counts from earlier chunks."""
    nb = chunk[10]
    results = []
    for scan in (scan_chunk_oracle, simulator._scan_chunk):
        bat = np.full((nb, 5), float(prior))
        qacc = np.full(6, float(prior))
        q = scan(*chunk, bat, qacc)
        results.append((q, bat, qacc))
    (q_o, bat_o, qacc_o), (q_v, bat_v, qacc_v) = results
    assert q_v == q_o
    assert np.array_equal(bat_v, bat_o)
    assert np.array_equal(qacc_v, qacc_o)
    return results[0]


def _full_chunk(kind):
    """A ``_CHUNK``-slot chunk of one kind, as the second chunk of a run
    whose batches cover it, with batch and quarter edges inside it."""
    n = simulator._CHUNK
    rng = np.random.default_rng(23)
    arr_s = rng.poisson(0.4, n)
    arr_t = rng.poisson(0.3, n)
    dir_s = rng.integers(0, 4, n)
    dir_t = rng.integers(0, 4, n)
    rd_ok = rng.random(n) < 0.8
    coin = rng.random(n) < 0.9
    q = 0
    if kind in ("idle", "idle-carried"):
        arr_s[:] = 0
        q = 40 if kind == "idle-carried" else 0
    elif kind == "never-empties":
        arr_t = rng.poisson(1.0, n)  # the queue drifts up from 1,000
        q = 1000
    elif kind in ("empties-at-end", "last-slot-empty"):
        # one departure per slot, and no arrival while the queue is nonempty
        coin[:] = True
        rd_ok[:] = True
        arr_t[:] = 0
        arr_s[-1] = 2
        q = n if kind == "empties-at-end" else n - 1
    elif kind == "all-busy":
        arr_s += 1
    t0 = n
    return (q, t0, arr_s, arr_t, dir_s, dir_t, rd_ok, coin,
            6000, 2502, 50, t0 + 20_000, t0 + 40_000)


def _run_chunks(cfg, n_slots, mode, monkeypatch):
    """The chunk arguments of every ``_scan_chunk`` call of one run."""
    calls = []
    scan = simulator._scan_chunk

    def record(*args):
        calls.append(args[:13])
        return scan(*args)

    monkeypatch.setattr(simulator, "_scan_chunk", record)
    run(cfg, n_slots, seed=8, mode=mode)
    monkeypatch.undo()
    return calls


class TestScanChunk:
    @settings(max_examples=300, deadline=None)
    @given(_chunks(), st.integers(0, 5))
    def test_equals_slot_by_slot_oracle(self, chunk, prior):
        _scan_against_oracle(chunk, prior)

    # the empty slots each kind must give, and its final queue (None: any)
    @pytest.mark.parametrize("kind, empties, q_end", [
        ("idle", simulator._CHUNK, 0),            # no search at all
        ("idle-carried", None, 0),                # the carried query only
        ("never-empties", 0, None),
        ("empties-at-end", 0, 0),
        ("last-slot-empty", 1, 2),
        ("all-busy", None, None),
    ])
    def test_full_chunk_equals_oracle(self, kind, empties, q_end):
        chunk = _full_chunk(kind)
        q, bat, _ = _scan_against_oracle(chunk, prior=3)
        n_empty = bat[:, 4].sum() - 3 * bat.shape[0]
        if empties is not None:
            assert n_empty == empties
        else:
            assert 0 < n_empty < simulator._CHUNK
        assert q_end is None or q == q_end
        if kind == "never-empties":
            assert q > 1000

    @pytest.mark.parametrize("cfg, mode", [(_LIGHT, "decoupled"),
                                           (_HEAVY, "physical")],
                             ids=["light", "heavy"])
    def test_run_chunks_equal_oracle(self, cfg, mode, monkeypatch):
        # the second chunk of a run, with the queue it carries in
        chunk = _run_chunks(cfg, 2 * simulator._CHUNK, mode, monkeypatch)[1]
        assert chunk[2].size == simulator._CHUNK
        _scan_against_oracle(chunk)

    def test_busy_period_that_does_not_end_after_its_slot_raises(
            self, monkeypatch):
        # A fault in _next_empty that ends slot 0's busy period at slot 0
        # must fail the scan at once; the walk would otherwise loop
        # forever, so an alarm turns a hang into a failure.
        find = simulator._next_empty

        def faulty(q, busy, *args):
            first, after = find(q, busy, *args)
            after = after.copy()
            after[0] = busy[0]
            return first, after

        def hang(signum, frame):
            raise TimeoutError("the busy-period walk did not stop")

        monkeypatch.setattr(simulator, "_next_empty", faulty)
        n = 8
        ones, zeros = np.ones(n, dtype=bool), np.zeros(n, dtype=np.int64)
        chunk = (0, 0, zeros + 1, zeros, zeros, zeros, ones, ones,
                 0, n, 1, 0, n)
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(1)
        try:
            with pytest.raises(RuntimeError, match="at or before"):
                simulator._scan_chunk(*chunk, np.zeros((1, 5)), np.zeros(6))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def _bits(stats) -> dict:
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in dataclasses.asdict(stats).items()}


class TestScanEndToEnd:
    """``run`` with the vectorized scan equals ``run`` with the oracle."""

    @pytest.mark.parametrize("cfg, n_slots, mode", [
        # unstable: the queue is carried into later chunks; short last chunk
        (ScenarioConfig(n_ues=5, q_u=0.6, q_r=0.1), 2 * simulator._CHUNK + 3,
         "decoupled"),
        (ScenarioConfig(n_ues=5, q_u=0.5, q_r=0.9), 100_000, "decoupled"),
        (ScenarioConfig(n_ues=5, q_u=0.5, q_r=0.9), 100_000, "physical"),
        (ScenarioConfig(n_ues=3, q_u=0.5), 1, "decoupled"),
        (ScenarioConfig(n_ues=5, q_u=0.0, q_r=1.0), 20_000, "decoupled"),
        # a handful of busy slots per chunk
        (_HEAVY, simulator._CHUNK + 5_000, "physical"),
        # about 1,700 busy periods per chunk
        (ScenarioConfig(n_ues=1, q_u=0.1), 2 * simulator._CHUNK, "decoupled"),
    ], ids=["unstable-3-chunks", "light-decoupled", "light-physical",
            "one-slot", "silent", "heavy", "sparse"])
    def test_stats_bit_identical(self, cfg, n_slots, mode, monkeypatch):
        fast = run(cfg, n_slots, seed=8, mode=mode)
        monkeypatch.setattr(simulator, "_scan_chunk", scan_chunk_oracle)
        slow = run(cfg, n_slots, seed=8, mode=mode)
        assert _bits(fast) == _bits(slow)
        if n_slots > 2 * simulator._CHUNK:
            assert fast.queue_final > 1000


# p values where numpy's binomial branches (p = 0, p <= 0.5 against
# p > 0.5, p = 1) or is plain.
_EDGE_P = (0.0, 0.05, 0.5, math.nextafter(0.5, 1.0), 0.9, 1.0)


@st.composite
def _binomial_calls(draw):
    """(n_max, p, n, seed): a sampler, an n array with zeros, a stream.

    n_max above 31 gets fewer guide buckets per n and, with p near 0.5,
    crosses numpy's BTPE boundary. n comes in any signed integer type
    wide enough, as the simulator's counts do.
    """
    n_max = draw(st.one_of(st.integers(0, 30), st.integers(31, 80)))
    p = draw(st.one_of(st.sampled_from(_EDGE_P), st.floats(0.0, 1.0)))
    n = draw(st.lists(st.one_of(st.just(0), st.integers(0, n_max)),
                      max_size=300))
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64]))
    return n_max, p, np.array(n, dtype=dtype), draw(st.integers(0, 2**32 - 1))


class _Doubles:
    """A generator stand-in that hands out the given doubles in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = 0

    def random(self, size=None):
        start = self.used
        self.used += 1 if size is None else size
        assert self.used <= self.values.size, "stream exhausted"
        if size is None:
            return float(self.values[start])
        return self.values[start:self.used].copy()


def _oracle_draws(values, n, p):
    """binomial_oracle over ``n`` from ``values``: (counts, doubles used)."""
    stream = _Doubles(values)
    return [binomial_oracle(stream.random, int(k), p) for k in n], stream.used


class TestBinomialSampler:
    """``_Binomial`` is numpy's binomial draw for draw; so is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(_binomial_calls())
    def test_equals_generator_binomial(self, call):
        n_max, p, n, seed = call
        sampler = simulator._Binomial(n_max, p)
        ref, gen = (np.random.Generator(np.random.PCG64(seed)) for _ in "ab")
        for _ in range(2):  # the second call starts from the state left
            want = ref.binomial(n, p)
            got = sampler(gen, n)
            assert got.dtype == n.dtype
            assert np.array_equal(got, want)
            assert gen.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(_binomial_calls())
    def test_oracle_equals_generator_binomial(self, call):
        n_max, p, n, seed = call
        n = n[n * min(p, 1.0 - p) <= 30.0]  # the oracle has no BTPE branch
        ref, gen = (np.random.Generator(np.random.PCG64(seed)) for _ in "ab")
        want = ref.binomial(n, p)
        got = [binomial_oracle(gen.random, int(k), p) for k in n]
        assert got == want.tolist()
        assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_restarts_and_crowded_buckets_equal_oracle(self, p, block,
                                                       monkeypatch):
        if block is not None:  # restarts that cross a block boundary
            monkeypatch.setattr(simulator, "_SAMPLE_BLOCK", block)
        top = 1.0 - 2.0**-53  # the largest random() double
        restarting = [k for k in range(31)
                      if _oracle_draws([top, 0.5], [k], p)[1] == 2]
        assert restarting, "no n <= 30 reaches numpy's restart here"
        sampler = simulator._Binomial(30, p)
        rng = np.random.default_rng(1)
        # the last bucket holds the tail thresholds, several per bucket
        crowded = 1.0 - np.geomspace(1.0 / sampler.nb, 2.0**-53, 400)
        single = sampler.thr[sampler.thr < 1.0][::29]
        pool = np.concatenate([np.full(3 * len(restarting), top), crowded,
                               single, single - 2.0**-53, rng.random(300)])
        rng.shuffle(pool)
        n = np.concatenate([np.repeat(restarting, 3),
                            rng.integers(0, 31, pool.size - 3 * len(restarting))])
        n[rng.random(n.size) < 0.1] = 0
        values = np.concatenate([pool, rng.random(200)])

        want, used = _oracle_draws(values, n, p)
        stream = _Doubles(values)
        got = sampler(stream, n)
        assert got.tolist() == want
        assert stream.used == used
        assert used > np.count_nonzero(n)  # restarts happened
        idx = n * sampler.nb + (pool * sampler.nb).astype(int)
        assert (sampler.base[idx] < 0).sum() > 10  # crowded buckets visited


class TestReceptionEndToEnd:
    """``run`` with the tabulated sampler equals ``run`` with numpy's."""

    @pytest.mark.parametrize("cfg, n_slots, mode", [
        (ScenarioConfig(n_ues=5, q_u=0.5, q_r=0.9), 50_000, "decoupled"),
        (ScenarioConfig(n_ues=5, q_u=0.5, q_r=0.9), 50_000, "physical"),
        (ScenarioConfig(n_ues=30, q_u=0.9, q_r=0.9), 20_000, "decoupled"),
        (ScenarioConfig(n_ues=30, q_u=0.9, q_r=0.9), 20_000, "physical"),
        (ScenarioConfig(n_ues=5, q_u=0.6, q_r=0.1), 2 * simulator._CHUNK + 3,
         "decoupled"),
        (ScenarioConfig(n_ues=6, q_u=0.5, d_ur_m=15.0), 30_000, "decoupled"),
        (ScenarioConfig(n_ues=5, q_u=0.0, q_r=1.0), 20_000, "decoupled"),
        (ScenarioConfig(n_ues=6, q_u=0.7, q_uf=0.0), 30_000, "decoupled"),
        (ScenarioConfig(n_ues=6, q_u=0.7, q_uf=1.0), 30_000, "decoupled"),
        (ScenarioConfig(n_ues=70, q_u=0.5), 5_000, "decoupled"),
    ], ids=["light-decoupled", "light-physical", "heavy-decoupled",
            "heavy-physical", "unstable-3-chunks", "ur-always-los", "silent",
            "no-fd", "no-br", "btpe"])
    def test_stats_bit_identical(self, cfg, n_slots, mode, monkeypatch):
        fast = run(cfg, n_slots, seed=8, mode=mode)
        monkeypatch.setattr(simulator._Binomial, "__call__",
                            lambda self, gen, n: gen.binomial(n, self.p))
        slow = run(cfg, n_slots, seed=8, mode=mode)
        assert _bits(fast) == _bits(slow)

    def test_edge_points_reach_the_edge(self):
        assert simulator._Powers(ScenarioConfig(n_ues=6, d_ur_m=15.0),
                                 "decoupled").budget.p_los("ur") == 1.0
        assert simulator._Powers(
            ScenarioConfig(n_ues=70, q_u=0.5), "decoupled").tx.native


class TestReceptionBlocks:
    """A physical chunk is decoded in blocks of whole slots and a decoupled
    one in pieces of receptions, both of ``_SAMPLE_BLOCK``, and LOS masks
    are drawn in pieces of that size rounded up to whole bytes; the size is
    not part of the draw order. A size that is not a multiple of 8 makes
    blocks and pieces start and end within a byte of the packed masks."""

    @pytest.mark.parametrize("mode", simulator.MODES)
    @pytest.mark.parametrize("cfg, n_slots", [(_LIGHT, 3_000), (_HEAVY, 1_500)],
                             ids=["light", "heavy"])
    def test_stats_independent_of_block_size(self, cfg, n_slots, mode,
                                             monkeypatch):
        default = run(cfg, n_slots, seed=8, mode=mode)
        # one block and one piece per chunk, then blocks of at most 4 or 13
        # transmissions (a heavy slot, about 27, is a block of its own) and
        # pieces of 4 or 13 receptions, which split slots
        for block in (cfg.n_ues * simulator._CHUNK, 4, 13):
            monkeypatch.setattr(simulator, "_SAMPLE_BLOCK", block)
            assert _bits(run(cfg, n_slots, seed=8, mode=mode)) == \
                _bits(default)

    def test_blocks_are_runs_of_whole_slots(self, monkeypatch):
        monkeypatch.setattr(simulator, "_SAMPLE_BLOCK", 4)
        n_tx = np.array([5, 0, 1, 2, 1, 7, 0, 0], dtype=np.int32)
        assert [(b.start, b.stop) for b in simulator._blocks(n_tx)] == \
            [(0, 1), (1, 5), (5, 6), (6, 8)]


class TestNarrowCounts:
    """A chunk's counts come in the narrowest type holding -1..N; they
    give the statistics int32 counts give, at the edge of each type."""

    @pytest.mark.parametrize("mode", simulator.MODES)
    @pytest.mark.parametrize("n_ues, dtype", [(127, np.int8), (128, np.int16)])
    @pytest.mark.parametrize("point", [
        # every count at N: N FD transmissions to the relay per slot
        dict(q_u=1.0, q_uf=1.0, q_ur=1.0),
        dict(q_u=0.9, q_r=0.9),
    ], ids=["all-at-relay", "mixed"])
    def test_stats_equal_int32_counts(self, n_ues, dtype, point, mode,
                                      monkeypatch):
        assert simulator._count_dtype(n_ues) == dtype
        cfg = ScenarioConfig(n_ues=n_ues, **point)
        narrow = run(cfg, 1_500, seed=8, mode=mode)
        monkeypatch.setattr(simulator, "_count_dtype",
                            lambda n_ues: np.dtype(np.int32))
        assert _bits(run(cfg, 1_500, seed=8, mode=mode)) == _bits(narrow)


def _heavy_peak(n_slots, mode):
    """tracemalloc's peak over one heavy run, after a warm-up run."""
    run(_HEAVY, 100, seed=1, mode=mode)
    tracemalloc.start()
    try:
        run(_HEAVY, n_slots, seed=1, mode=mode)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkMemory:
    @pytest.mark.parametrize("mode, limit_mb", [("physical", 3.5),
                                                ("decoupled", 6.5)],
                             ids=["physical", "decoupled"])
    def test_heavy_chunk_peak(self, mode, limit_mb):
        # Measured at 3.28 MB (physical) and 6.23 MB (decoupled), with LOS
        # and relay-decode masks held as bits and each decoupled kind freed
        # once decided. With bool masks, and a decoupled kind's slots kept
        # into the next kind: 5.40 and 8.52 MB. With chunk-wide slot arrays
        # in both modes, int64 per-slot outcomes, and a decoupled chunk that
        # kept its LOS masks and int8 counts, 3 bytes per reception, until
        # its blocks were decoded: 10.5 and 17.0 MB. With int32 counts and
        # slot indices, 14.6 and 35.8 MB.
        assert _heavy_peak(simulator._CHUNK, mode) <= limit_mb * 1024 * 1024

    @pytest.mark.parametrize("mode", simulator.MODES)
    def test_three_chunks_peak_as_one(self, mode):
        # A chunk's outcomes are freed before the next chunk's draws, so
        # three chunks peak where one does. Keeping them through the next
        # draws read 0.31 MB more, and 2.1 MB more with int64 outcomes.
        one = _heavy_peak(simulator._CHUNK, mode)
        assert _heavy_peak(3 * simulator._CHUNK, mode) <= one + 64 * 1024

    def test_decided_kinds_are_freed(self, monkeypatch):
        # A decoupled kind's slot array is dead by the next kind's first
        # draw. The BR array serves BR at the relay and at the mmAP (kinds
        # 1 and 2), so it is dead from kind 3 on.
        refs = []
        slots = simulator._reception_slots

        def tracked(*counts):
            for array in slots(*counts):
                refs.append(weakref.ref(array))
                yield array

        mask = simulator._los_mask
        checked = []

        def check(gen, size, p):
            kind = len(refs) - 1
            decided = {0: [], 1: [0], 2: [0], 3: [0, 1, 2]}[kind]
            assert [refs[k]() for k in decided] == [None] * len(decided)
            checked.append(kind)
            return mask(gen, size, p)

        monkeypatch.setattr(simulator, "_reception_slots", tracked)
        monkeypatch.setattr(simulator, "_los_mask", check)
        run(_HEAVY, 2_000, seed=1, mode="decoupled")
        assert checked == [0, 1, 2, 3]


class TestPackedMasks:
    """LOS masks are drawn as packed bits; unpacked they are the bool
    masks ``gen.random(size) < p`` gives, from the same doubles."""

    @pytest.mark.parametrize("block", [4, 13, 1 << 15])
    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, (1 << 15) + 3])
    def test_equals_bool_mask(self, size, block, monkeypatch):
        monkeypatch.setattr(simulator, "_SAMPLE_BLOCK", block)
        ref, gen = (np.random.Generator(np.random.PCG64(5)) for _ in "ab")
        want = ref.random(size) < 0.3
        bits = simulator._los_mask(gen, size, 0.3)
        assert bits.dtype == np.uint8 and bits.size == -(-size // 8)
        assert np.array_equal(simulator._unpack(bits, 0, size), want)
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_span_at_unaligned_ends(self):
        mask = np.random.default_rng(2).random(61) < 0.5
        bits = np.packbits(mask, bitorder="little")
        for lo, hi in [(0, 61), (3, 5), (7, 9), (8, 16), (9, 60), (13, 13),
                       (60, 61), (5, 8)]:
            got = simulator._unpack(bits, lo, hi)
            assert got.dtype == bool
            assert got.tolist() == mask[lo:hi].tolist()


# Recorded once from the simulator as it stood before the two LOS modes
# shared one reception-outcome path. The draw order is part of the
# contract, so this file is never re-recorded to make a change pass: a
# mismatch means the change altered the random streams or the outcome
# rules.
_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_simstats.json").read_text())


class TestGoldenStats:
    @pytest.mark.parametrize("case", _GOLDEN, ids=[
        f"{'light' if g['point']['n_ues'] == 5 else 'heavy'}-{g['mode']}"
        for g in _GOLDEN])
    def test_fixed_seed_stats_unchanged(self, case):
        stats = run(ScenarioConfig(**case["point"]), case["n_slots"],
                    case["seed"], case["mode"])
        assert _bits(stats) == case["stats"]


class TestReferenceSimulator:
    """``run`` equals ``oracles.simulate_reference``, the whole contract
    (streams, draw order, decode rule, queue rule, statistics) written
    plainly, ``float.hex`` for ``float.hex``."""

    @pytest.mark.parametrize("mode", simulator.MODES)
    @pytest.mark.parametrize("cfg, n_slots", [
        (_LIGHT, 10_000),
        (_HEAVY, 1_500),
        # unstable: the queue is carried into a second, short chunk
        (ScenarioConfig(n_ues=5, q_u=0.6, q_r=0.1), simulator._CHUNK + 3_000),
        (ScenarioConfig(n_ues=5, q_u=0.0), 5_000),
        (ScenarioConfig(n_ues=6, q_u=0.7, q_uf=0.0), 5_000),
        (ScenarioConfig(n_ues=6, q_u=0.7, q_uf=1.0), 5_000),
        # n * min(p, 1 - p) > 30: the sampler's BTPE side
        (ScenarioConfig(n_ues=70, q_u=0.5), 300),
        (_LIGHT, 10),
    ], ids=["light", "heavy", "unstable-2-chunks", "silent", "no-fd", "no-br",
            "btpe", "ten-slots"])
    def test_run_equals_reference(self, cfg, n_slots, mode):
        stats = run(cfg, n_slots, seed=8, mode=mode)
        assert _bits(stats) == _bits(simulate_reference(cfg, n_slots, 8, mode))
        if n_slots > simulator._CHUNK:
            assert stats.queue_final > 1000

    @settings(max_examples=25, deadline=None)
    @given(n_ues=st.integers(1, 8),
           q=st.tuples(*[st.floats(0.0, 1.0)] * 4),
           gamma_db=st.floats(-5.0, 25.0),
           d_ur_m=st.floats(10.0, 120.0),
           n_slots=st.integers(1, 2_000),
           seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(simulator.MODES))
    def test_random_scenarios(self, n_ues, q, gamma_db, d_ur_m, n_slots, seed,
                              mode):
        cfg = ScenarioConfig(n_ues=n_ues, q_u=q[0], q_uf=q[1], q_ur=q[2],
                             q_r=q[3], gamma_db=gamma_db, d_ur_m=d_ur_m)
        assert _bits(run(cfg, n_slots, seed, mode)) == \
            _bits(simulate_reference(cfg, n_slots, seed, mode))


class TestReferenceInterference:
    """Every reception's desired state and interference equal the
    reference's, ``float.hex`` for ``float.hex``. The statistics cannot
    show how a sum is associated: at these points no reception sits
    within the rounding of its threshold."""

    @pytest.mark.parametrize("mode", simulator.MODES)
    @pytest.mark.parametrize("cfg, n_slots", [
        (_LIGHT, 5_000),
        # more than _SAMPLE_BLOCK BR transmissions in the chunk
        (_HEAVY, 3_000),
        # two chunks
        (ScenarioConfig(n_ues=2, q_u=0.5), simulator._CHUNK + 500),
    ], ids=["light", "heavy", "two-chunks"])
    def test_each_reception_equals_reference(self, cfg, n_slots, mode,
                                             monkeypatch):
        budget = LinkBudget(cfg)
        # a reception's kind is told by its signal's thresholds
        keys = [budget.thresholds(*r) for r in oracles._REF_RECEPTIONS]
        assert len(set(keys)) == len(keys)
        got = {key: [] for key in keys}
        decoded = simulator._decoded

        def record(los, interference, thresholds):
            # copies: the interference at the mmAP gains the relay's term
            # in place
            got[thresholds].append(
                (np.broadcast_to(los, interference.shape).copy(),
                 interference.copy()))
            return decoded(los, interference, thresholds)

        monkeypatch.setattr(simulator, "_decoded", record)
        run(cfg, n_slots, seed=8, mode=mode)

        want = [[] for _ in keys]
        outcomes = oracles._ref_outcomes

        def capture(budget, n_fr, n_fd, n_b, receptions):
            for kind, chunk in zip(want, receptions):
                kind += chunk
            return outcomes(budget, n_fr, n_fd, n_b, receptions)

        monkeypatch.setattr(oracles, "_ref_outcomes", capture)
        simulate_reference(cfg, n_slots, 8, mode)

        p_relay = budget.relay_interference_w
        for kind, key in enumerate(keys):
            calls = got[key]
            # BR and FD at the mmAP: each set of receptions is decided with
            # the relay silent, then transmitting
            sides = (calls[0::2], calls[1::2]) if kind in (2, 3) else (calls,)
            for relay_on, side in enumerate(sides):
                los = np.concatenate([s for s, _ in side])
                interference = np.concatenate([i for _, i in side])
                assert los.tolist() == [s for s, _ in want[kind]]
                assert [x.hex() for x in interference.tolist()] == \
                    [(i + p_relay if relay_on else i).hex()
                     for _, i in want[kind]]

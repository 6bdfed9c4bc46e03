import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mmrelay import LinkBudget, ScenarioConfig, SuccessTable, load_config
from mmrelay import success
from mmrelay.geometry import LinkState

from conftest import RECIPES, random_two_ue_cfg
from oracles import (cell, sinr, sinr_linear, success_probability_bruteforce,
                     success_table_oracle)

# Every (link, scheme, relay flag) the analysis reads.
KEYS = [("ur", "fd", False), ("ur", "br", False), ("ud", "fd", False),
        ("ud", "fd", True), ("ud", "br", False), ("ud", "br", True),
        ("rd", "fd", False)]


def _list_every_row(row_fd, *_):
    """``success._rows_that_can_decode`` with no row dropped."""
    return np.ones(row_fd.size, bool)


class TestSinrLinear:
    def test_no_interferers_is_snr(self, default_cfg):
        t = SuccessTable(default_cfg)
        value = sinr_linear(t.budget, "ud", LinkState.LOS, "fd", 0, 0, 0, 0)
        expected = t.budget.powers("ud", "fd")[0] / t.budget.noise_w
        assert value == pytest.approx(expected, rel=1e-15)

    def test_alpha_zero_cancels_everything(self):
        cfg = ScenarioConfig(alpha=0.0)
        t = SuccessTable(cfg)
        clean = sinr_linear(t.budget, "ud", LinkState.LOS, "fd", 0, 0, 0, 0)
        loaded = sinr_linear(t.budget, "ud", LinkState.LOS, "fd", 3, 2, 4, 1,
                             True)
        assert loaded == clean

    def test_single_br_interferer_at_mmap(self, default_cfg):
        t = SuccessTable(default_cfg)
        b = t.budget
        value = sinr_linear(b, "ud", LinkState.LOS, "fd", 0, 0, 1, 0)
        expected = b.powers("ud", "fd")[0] / (
            b.noise_w + 0.1 * b.powers("ud", "br")[0])
        assert value == pytest.approx(expected, rel=1e-15)

    def test_relay_cannot_interfere_at_relay(self, default_cfg):
        t = SuccessTable(default_cfg)
        with pytest.raises(ValueError):
            sinr_linear(t.budget, "ur", LinkState.LOS, "fd", 0, 0, 0, 0,
                        relay_interfering=True)
        with pytest.raises(ValueError):
            sinr_linear(t.budget, "rd", LinkState.LOS, "fd", 0, 0, 0, 0,
                        relay_interfering=True)


def _recipe_budgets():
    """One LinkBudget per radio configuration of the shipped recipes."""
    cfgs = {}
    for path in sorted(RECIPES.glob("*.cfg")):
        spec = load_config(str(path))
        for overrides in spec.grid():
            cfg = spec.base.replace(**overrides)
            cfgs.setdefault(cfg.radio_key(), cfg)
    return [LinkBudget(cfg) for cfg in cfgs.values()]


def _signals(b):
    """(key, signal, threshold) of every (link, scheme, state) of ``b``."""
    return [((link, scheme, state), signal, thr)
            for link in ("ur", "ud", "rd") for scheme in ("fd", "br")
            for state, signal, thr in zip(LinkState, b.powers(link, scheme),
                                          b.thresholds(link, scheme))]


def _decodes(b, signal, interference):
    return sinr(b, signal, interference) >= b.gamma_linear


class TestDecodeThresholds:
    def test_threshold_is_the_last_passing_float_of_every_recipe_budget(self):
        budgets = _recipe_budgets()
        assert len(budgets) > 20   # 29 in the shipped recipes
        rng = random.Random(7)
        for b in budgets:
            for key, signal, thr in _signals(b):
                assert thr == -1.0 or thr >= 0.0, key
                if thr == -1.0:
                    assert not _decodes(b, signal, 0.0), key
                    continue
                if thr == math.inf:     # alpha = 0
                    assert _decodes(b, signal, sys.float_info.max), key
                    continue
                assert _decodes(b, signal, thr), key
                assert not _decodes(b, signal, math.nextafter(thr, math.inf))
                # random interference, near the threshold and over decades
                for _ in range(60):
                    x = rng.choice((
                        thr * rng.uniform(0.0, 2.0),
                        math.ldexp(rng.random(), rng.randrange(-1074, 1024)),
                        thr + rng.randrange(-40, 40) * math.ulp(thr)))
                    if x >= 0.0:
                        assert (x <= thr) == _decodes(b, signal, x), (key, x)

    def test_alpha_zero_gives_inf(self):
        b = LinkBudget(ScenarioConfig(alpha=0.0))
        signal = b.powers("ud", "fd")[0]
        assert _decodes(b, signal, 0.0)
        assert b.thresholds("ud", "fd")[0] == math.inf
        assert _decodes(b, signal, sys.float_info.max)

    def test_signal_failing_without_interference_gives_minus_one(self):
        # gamma is 5 ulps above this signal's SNR; 1 ulp lower it passes.
        b = LinkBudget(ScenarioConfig(gamma_db=43.39593648733957))
        signal = b.powers("ud", "fd")[0]
        assert not _decodes(b, signal, 0.0)
        assert b.thresholds("ud", "fd")[0] == -1.0
        b = LinkBudget(ScenarioConfig(gamma_db=43.39593648733956))
        thr = b.thresholds("ud", "fd")[0]
        assert 0.0 <= thr < 1e-24
        assert _decodes(b, signal, thr)
        assert not _decodes(b, signal, math.nextafter(thr, math.inf))

    @pytest.mark.parametrize("alpha", [5e-324, 1e-300])
    def test_tiny_alpha(self, alpha):
        # At 5e-324 the seed (s / gamma - noise) / alpha overflows to inf,
        # so the search runs over the whole float range.
        b = LinkBudget(ScenarioConfig(alpha=alpha))
        for key, signal, thr in _signals(b):
            seed = (signal / b.gamma_linear - b.noise_w) / alpha
            assert (seed == math.inf) == (alpha == 5e-324)
            assert _decodes(b, signal, thr), key
            assert not _decodes(b, signal, math.nextafter(thr, math.inf))

    def test_search_is_bounded_and_runs_once_per_budget(self, monkeypatch):
        calls = []
        decodes = LinkBudget._decodes

        def counted(self, signal, interference):
            calls.append(signal)
            return decodes(self, signal, interference)

        monkeypatch.setattr(LinkBudget, "_decodes", counted)
        for cfg in (ScenarioConfig(), ScenarioConfig(alpha=5e-324)):
            # per signal at most the test at 0, two seed checks and 63
            # halvings, all while the budget is made
            calls.clear()
            t = SuccessTable(cfg.replace(n_ues=4))
            assert 0 < len(calls) <= 12 * 66
            assert max(calls.count(s) for _, s, _ in _signals(t.budget)) <= 66
            made = len(calls)
            for key in KEYS:
                t.grid(*key)
            _signals(t.budget)   # reads every power and threshold
            assert len(calls) == made


class TestSuccessProbability:
    def test_relay_link_degenerate(self, default_cfg):
        # relay->mmAP has p_los = 1: the result is a pure indicator
        t = SuccessTable(default_cfg)
        assert t.grid("rd", "fd")[0, 0] in (0.0, 1.0)

    def test_tiny_threshold_always_succeeds(self):
        cfg = ScenarioConfig(gamma_db=-100.0)
        t = SuccessTable(cfg)
        assert t.grid("ud", "fd", True)[4, 3] == 1.0

    def test_reference_single_fd_interferer(self, default_cfg):
        # frozen from the 2^2-state enumeration oracle at the default point
        t = SuccessTable(default_cfg)
        oracle = success_probability_bruteforce(default_cfg, "ud", "fd", 1, 0)
        assert t.grid("ud", "fd")[1, 0] == pytest.approx(oracle, abs=1e-15)
        assert t.grid("ud", "fd")[1, 0] == pytest.approx(0.24961641157343264,
                                                      abs=1e-12)

    @pytest.mark.parametrize("link,scheme,relay", [
        ("ur", "fd", False), ("ur", "br", False),
        ("ud", "fd", False), ("ud", "br", True), ("rd", "fd", False),
    ])
    def test_matches_bruteforce_enumeration(self, link, scheme, relay):
        rng = random.Random(11)
        for _ in range(6):
            cfg = ScenarioConfig(
                q_u=0.5,
                gamma_db=rng.uniform(-5, 25), alpha=rng.uniform(0, 1),
                d_ur_m=rng.uniform(10, 120), d_ud_m=rng.uniform(10, 220),
                theta_rd_deg=rng.uniform(5, 170))
            t = SuccessTable(cfg)
            for n_f, n_b in ((0, 0), (1, 0), (0, 1), (2, 1), (1, 3)):
                expected = success_probability_bruteforce(
                    cfg, link, scheme, n_f, n_b, relay)
                got = t.grid(link, scheme, relay)[n_f, n_b]
                assert got == pytest.approx(expected, abs=1e-12)

    def test_more_interferers_never_help(self, default_cfg):
        t = SuccessTable(default_cfg)
        for link, scheme in (("ur", "fd"), ("ud", "br")):
            for n_f in range(4):
                for n_b in range(4):
                    base = t.grid(link, scheme)[n_f, n_b]
                    assert t.grid(link, scheme)[n_f + 1, n_b] <= base + 1e-15
                    assert t.grid(link, scheme)[n_f, n_b + 1] <= base + 1e-15

    def test_non_increasing_in_threshold_and_alpha(self):
        profiles = [("ud", "fd", 2, 1), ("ur", "br", 1, 2)]
        last = {p: 1.0 for p in profiles}
        for gamma in (-5.0, 5.0, 15.0, 25.0, 35.0):
            t = SuccessTable(ScenarioConfig(gamma_db=gamma))
            for p in profiles:
                v = cell(t, *p)
                assert v <= last[p] + 1e-15
                last[p] = v
        last = {p: 1.0 for p in profiles}
        for alpha in (0.0, 0.1, 0.3, 0.6, 1.0):
            t = SuccessTable(ScenarioConfig(alpha=alpha))
            for p in profiles:
                v = cell(t, *p)
                assert v <= last[p] + 1e-15
                last[p] = v

    def test_relay_interference_never_helps(self, default_cfg):
        t = SuccessTable(default_cfg)
        for scheme in ("fd", "br"):
            for n_f, n_b in ((0, 0), (1, 1), (3, 2)):
                assert t.grid("ud", scheme, True)[n_f, n_b] <= \
                    t.grid("ud", scheme, False)[n_f, n_b] + 1e-15


class TestCache:
    def test_cached_equals_fresh_bitwise(self, default_cfg):
        warmed = SuccessTable(default_cfg)
        keys = [("ud", "fd", 2, 1, False), ("ur", "br", 1, 2, False),
                ("ud", "br", 0, 3, True)]
        first = [warmed.grid(l, s, r)[f, b] for l, s, f, b, r in keys]
        again = [warmed.grid(l, s, r)[f, b] for l, s, f, b, r in keys]
        fresh = SuccessTable(default_cfg)
        assert first == again
        assert first == [fresh.grid(l, s, r)[f, b] for l, s, f, b, r in keys]

    def test_concurrent_readers_agree(self, default_cfg):
        table = SuccessTable(default_cfg)
        results = [[] for _ in range(8)]
        cells = [(n_f, n_b) for n_f in range(5) for n_b in range(5)]

        def worker(out):
            for n_f, n_b in cells:
                out.append(table.grid("ud", "fd", False)[n_f, n_b])

        threads = [threading.Thread(target=worker, args=(r,)) for r in results]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for r in results[1:]:
            assert r == results[0]


class TestArrayTable:
    @pytest.mark.parametrize("point", [
        {},                                  # gamma = 10 dB knife edge
        {"gamma_db": 9.99},
        {"gamma_db": -100.0},
        {"d_ur_m": 10.0, "d_ud_m": 15.0},    # p_los = 1 on every link
        {"alpha": 0.0},
        {"alpha": 5e-324},                   # the threshold seed overflows
        {"gamma_db": 43.39593648733956},     # 7 ulps under the ud/fd LOS
        {"gamma_db": 43.39593648733957},     # SNR, and 5 ulps over it
        {"d_ur_m": 12.0},                    # p_los = 1 at the relay only
    ])
    def test_cells_equal_scalar_oracle_exactly(self, point):
        n = 12
        t = SuccessTable(ScenarioConfig(n_ues=n, **point))
        for link, scheme, relay in KEYS:
            for n_f in range(n + 1):
                for n_b in range(n + 1 - n_f):
                    want = success_table_oracle(t, link, scheme, n_f, n_b, relay)
                    assert t.grid(link, scheme, relay)[n_f, n_b] == want, \
                        (link, scheme, relay, n_f, n_b)

    def test_counts_beyond_n_rejected(self):
        t = SuccessTable(ScenarioConfig(n_ues=3))
        assert len(t.grid("ud", "br", True)) == 4
        assert t.grid("ud", "br", True)[2, 1] == \
            success_table_oracle(t, "ud", "br", 2, 1, True)
        with pytest.raises(ValueError, match="N = 3"):
            cell(t, "ud", "br", 2, 2, True)
        with pytest.raises(ValueError, match="N = 3"):
            cell(t, "rd", "fd", 4, 0)

    def test_invalid_requests_rejected(self, default_cfg):
        t = SuccessTable(default_cfg)
        with pytest.raises(ValueError):
            cell(t, "ud", "fd", -1, 0)
        with pytest.raises(ValueError):
            t.grid("ur", "fd", True)
        with pytest.raises(ValueError):
            t.grid("rd", "fd", True)

    @pytest.mark.parametrize("point", [
        {"gamma_db": 9.99},
        {"alpha": 0.0},                      # every threshold +inf
        {"alpha": 5e-324},
        {"d_ur_m": 10.0, "d_ud_m": 15.0},    # one state per link
        {"gamma_db": -100.0},                # every row listed
        {"gamma_db": 60.0},                  # every threshold -1.0
    ])
    @pytest.mark.parametrize("n", [1, 2, 7, 15, 30])
    @pytest.mark.parametrize("run", [1, 7])
    def test_runs_of_few_cells_same_floats(self, monkeypatch, run, n, point):
        # A run of 1 partition is one cell; runs of 7 hold one or a few
        # cells, and a cell of more partitions is a run of its own. The
        # row floor changes no float either: the reference lists every
        # row, in runs of the default size.
        cfg = ScenarioConfig(n_ues=n, **point)
        with monkeypatch.context() as every_row:
            every_row.setattr(success, "_rows_that_can_decode",
                              _list_every_row)
            whole = SuccessTable(cfg)
        monkeypatch.setattr(success, "_RUN_PARTITIONS", run)
        cut = SuccessTable(cfg)
        for key in KEYS:
            assert cut.grid(*key).tobytes() == whole.grid(*key).tobytes(), key

    @pytest.mark.parametrize("n, point, relay, mmap", [
        # the floor's gain at N = 30 must not vanish silently
        (30, {}, (0.0, 0.15), (0.0, 0.40)),
        (10, {"alpha": 0.0}, (1.0, 1.0), (1.0, 1.0)),
        (10, {"gamma_db": -100.0}, (1.0, 1.0), (1.0, 1.0)),
        (10, {"gamma_db": 60.0}, (0.0, 0.0), (0.0, 0.0)),
    ])
    def test_share_of_rows_listed(self, monkeypatch, n, point, relay, mmap):
        shares = []
        floor = success._rows_that_can_decode

        def counted(*args):
            listed = floor(*args)
            shares.append(listed.mean())
            return listed

        monkeypatch.setattr(success, "_rows_that_can_decode", counted)
        SuccessTable(ScenarioConfig(n_ues=n, **point))
        assert list(success._KEYS) == ["ur", "ud"]    # the build order
        for share, (low, high) in zip(shares, (relay, mmap), strict=True):
            assert low <= share <= high

    def test_threshold_on_a_row_floor_keeps_that_row(self, monkeypatch):
        # A row's floor is the interference of its partition with every BR
        # interferer at the lower power, so a threshold of exactly that
        # float decodes the partition, and its row must stay listed.
        cfg = ScenarioConfig(n_ues=7)
        can_decode, floors = success._rows_that_can_decode, []

        def record(row_fd, row_b, p_b_min, thresholds):
            floors.extend((row_fd + row_b * p_b_min).tolist())
            return can_decode(row_fd, row_b, p_b_min, thresholds)

        monkeypatch.setattr(success, "_rows_that_can_decode", record)
        SuccessTable(cfg)
        for t in sorted(set(floors))[1::5]:
            monkeypatch.setattr(LinkBudget, "thresholds",
                                lambda self, *key, t=t: (t, t))
            monkeypatch.setattr(success, "_rows_that_can_decode",
                                can_decode)
            floor = SuccessTable(cfg)
            monkeypatch.setattr(success, "_rows_that_can_decode",
                                _list_every_row)
            every = SuccessTable(cfg)
            for key in KEYS:
                assert floor.grid(*key).tobytes() == \
                    every.grid(*key).tobytes(), (t, key)

    def test_random_radios_equal_scalar_oracle_exactly(self):
        rng = random.Random(19)
        for _ in range(20):
            cfg = random_two_ue_cfg(rng).replace(n_ues=6)
            t = SuccessTable(cfg)
            for link, scheme, relay in KEYS:
                for n_f in range(7):
                    for n_b in range(7 - n_f):
                        want = success_table_oracle(t, link, scheme, n_f,
                                                    n_b, relay)
                        assert t.grid(link, scheme, relay)[n_f, n_b] == want, \
                            (cfg, link, scheme, relay, n_f, n_b)

    @staticmethod
    def _build_peak(n):
        tracemalloc.start()
        try:
            SuccessTable(ScenarioConfig(n_ues=n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_build_peak_memory(self):
        # The temporaries are those of one run of at most _RUN_PARTITIONS
        # partitions: about 0.6 MB here.
        assert self._build_peak(20) < 2 * 1024 * 1024

    def test_build_peak_memory_n30(self):
        # About 0.7 MB; all 46,376 partitions listed in one run read
        # about 4.2 MB.
        assert self._build_peak(30) <= 3 * 1024 * 1024

import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmrelay import (
    ScenarioConfig,
    SuccessTable,
    aggregate_throughput,
    queue_statistics,
)

import mmrelay.queue_model as queue_model
from conftest import random_two_ue_cfg
from oracles import (arrival_pmf_bruteforce, stored_pmf_oracle,
                     two_ue_closed_forms)


def _configs(cfg):
    """(weight, n_fr, n_fd, n_b) of every nonzero configuration of cfg's UEs."""
    probs = queue_model._ue_activity_probs(cfg)
    blk = queue_model._config_block(SuccessTable(cfg),
                                    queue_model._active(*probs))
    w = queue_model._weights(blk, cfg.n_ues, *probs)
    return list(np.column_stack([w, blk.n_fr, blk.n_fd, blk.n_b])[w != 0.0])


def _arrivals(cfg, table, relay_tx):
    stats = queue_statistics(cfg, table)
    return stats.p_arrival_tx if relay_tx else stats.p_empty


class TestEnumerateConfigurations:
    def test_single_deterministic_ue(self):
        cfg = ScenarioConfig(n_ues=1, q_u=1.0, q_uf=1.0, q_ur=1.0)
        configs = _configs(cfg)
        assert len(configs) == 1
        w, n_fr, _, _ = configs[0]
        assert n_fr == 1 and w == 1.0

    def test_two_ue_fd_only_has_six_configs(self):
        cfg = ScenarioConfig(n_ues=2, q_u=0.5, q_uf=1.0, q_ur=0.5)
        configs = _configs(cfg)
        assert len(configs) == 6
        assert all(n_b == 0 for _, _, _, n_b in configs)
        assert math.fsum(w for w, *_ in configs) == pytest.approx(1.0, abs=1e-15)

    def test_weights_normalize(self):
        rng = random.Random(5)
        for _ in range(5):
            cfg = ScenarioConfig(n_ues=rng.randint(1, 12), q_u=rng.random(),
                                 q_uf=rng.random(), q_ur=rng.random())
            configs = _configs(cfg)
            assert math.fsum(w for w, *_ in configs) == pytest.approx(1.0,
                                                                     abs=1e-12)
            assert all(min(counts) >= 0 and sum(counts) <= cfg.n_ues
                       for _, *counts in configs)

    def test_weight_matches_multinomial(self):
        cfg = ScenarioConfig(n_ues=3, q_u=0.6, q_uf=0.5, q_ur=0.4)
        p_fr = 0.6 * 0.5 * 0.4
        p_fd = 0.6 * 0.5 * 0.6
        p_b = 0.6 * 0.5
        by_counts = {(n_fr, n_fd, n_b): w for w, n_fr, n_fd, n_b in _configs(cfg)}
        w = by_counts[(1, 1, 1)]
        assert w == pytest.approx(6 * p_fr * p_fd * p_b, rel=1e-12)


class TestArrivalDistribution:
    def test_silent_network(self):
        cfg = ScenarioConfig(n_ues=4, q_u=0.0)
        t = SuccessTable(cfg)
        pmf = _arrivals(cfg, t, relay_tx=False)
        assert pmf[0] == 1.0 and np.all(pmf[1:] == 0.0)

    @pytest.mark.parametrize("relay_tx", [False, True])
    def test_matches_bruteforce_for_small_n(self, relay_tx):
        rng = random.Random(13)
        cases = [ScenarioConfig(
            n_ues=rng.randint(2, 4), q_u=rng.uniform(0.2, 1.0),
            q_uf=rng.random(), q_ur=rng.random(),
            gamma_db=rng.uniform(0, 20), alpha=rng.uniform(0, 0.8),
            theta_bw_br_deg=360.0, theta_rd_deg=rng.uniform(10, 170))
            for _ in range(4)]
        # A stored-count cell sums three or more FD x BR products only when
        # n_fr, n_b >= 2, and the random draws above never weigh such a
        # term. These fixed points do: a long mmAP link makes the relay
        # store BR packets.
        cases += [ScenarioConfig(n_ues=5, q_u=0.8, q_uf=0.5, q_ur=0.6,
                                 gamma_db=0.0, alpha=0.2, d_ur_m=60.0,
                                 d_ud_m=240.0, theta_bw_br_deg=360.0,
                                 theta_rd_deg=40.0),
                  ScenarioConfig(n_ues=6, q_u=0.9, q_uf=0.5, q_ur=0.5,
                                 gamma_db=5.0, alpha=0.05, d_ur_m=60.0,
                                 d_ud_m=240.0, theta_bw_br_deg=360.0,
                                 theta_rd_deg=120.0)]
        for cfg in cases:
            t = SuccessTable(cfg)
            pmf = _arrivals(cfg, t, relay_tx)
            oracle = arrival_pmf_bruteforce(cfg, t, relay_tx)
            assert pmf == pytest.approx(oracle, abs=1e-12)

    def test_normalized_and_bounded(self, default_cfg):
        t = SuccessTable(default_cfg)
        for relay_tx in (False, True):
            pmf = _arrivals(default_cfg, t, relay_tx)
            assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12)
            assert np.all(pmf >= 0.0) and np.all(pmf <= 1.0)


class TestServiceSuccess:
    def test_silent_network_gives_clean_channel(self, default_cfg):
        cfg = default_cfg.replace(q_u=0.0)
        t = SuccessTable(cfg)
        assert queue_statistics(cfg, t).b_r == t.grid("rd", "fd")[0, 0]

    def test_alpha_zero_independent_of_traffic(self):
        quiet = ScenarioConfig(n_ues=8, q_u=0.1, alpha=0.0)
        busy = ScenarioConfig(n_ues=8, q_u=0.9, alpha=0.0)
        assert queue_statistics(quiet).b_r == \
            pytest.approx(queue_statistics(busy).b_r, abs=1e-12)


class TestNetChangeDistribution:
    def test_rows_sum_to_one(self):
        rng = random.Random(17)
        for _ in range(5):
            cfg = ScenarioConfig(n_ues=rng.randint(1, 8), q_u=rng.random(),
                                 q_uf=rng.random(), q_ur=rng.random(),
                                 q_r=rng.random())
            net = queue_statistics(cfg)
            assert math.fsum(net.p_empty) == pytest.approx(1.0, abs=1e-12)
            assert math.fsum(net.p_nonempty) == pytest.approx(1.0, abs=1e-12)
            assert np.all(net.p_empty >= 0) and np.all(net.p_nonempty >= 0)
            assert np.all(net.p_empty <= 1) and np.all(net.p_nonempty <= 1)

    def test_pure_service_case(self):
        # no UE traffic, always-transmitting relay: the queue can only drain
        cfg = ScenarioConfig(n_ues=3, q_u=0.0, q_r=1.0)
        t = SuccessTable(cfg)
        net = queue_statistics(cfg, t)
        p_dep = t.grid("rd", "fd")[0, 0]
        assert net.p_nonempty[0] == pytest.approx(p_dep, abs=1e-15)
        assert net.p_nonempty[1] == pytest.approx(1.0 - p_dep, abs=1e-15)

    def test_mean_identities(self, default_cfg):
        t = SuccessTable(default_cfg)
        net = queue_statistics(default_cfg, t)
        sol = aggregate_throughput(default_cfg, t).queue
        mean_empty = math.fsum(k * v for k, v in enumerate(net.p_empty))
        mean_nonempty = math.fsum((i - 1) * v
                                  for i, v in enumerate(net.p_nonempty))
        assert mean_empty == pytest.approx(sol.lambda0, abs=1e-12)
        assert mean_nonempty == pytest.approx(sol.lambda1 - sol.mu_r,
                                              abs=1e-12)


class TestStability:
    def test_no_arrivals_threshold_zero(self):
        cfg = ScenarioConfig(n_ues=4, q_u=0.0)
        assert aggregate_throughput(cfg).queue.q_r_min == 0.0

    def test_monotone_in_traffic_when_alpha_zero(self):
        last = 0.0
        for q_u in (0.1, 0.3, 0.5, 0.7, 0.9):
            cfg = ScenarioConfig(n_ues=6, q_u=q_u, alpha=0.0)
            thr = aggregate_throughput(cfg).queue.q_r_min
            assert thr >= last - 1e-15
            last = thr

    def test_boundary_tie_reported_unstable(self, two_ue_cfg, two_ue_table):
        thr = aggregate_throughput(two_ue_cfg, two_ue_table).queue.q_r_min
        at_tie = two_ue_cfg.replace(q_r=thr)
        assert not aggregate_throughput(at_tie,
                                        SuccessTable(at_tie)).queue.stable
        above = two_ue_cfg.replace(q_r=min(thr * 1.01, 1.0))
        assert aggregate_throughput(above, SuccessTable(above)).queue.stable

    def test_lambda1_identity(self):
        rng = random.Random(23)
        for _ in range(5):
            cfg = random_two_ue_cfg(rng)
            sol = aggregate_throughput(cfg, SuccessTable(cfg)).queue
            assert sol.lambda1 == pytest.approx(
                (1 - cfg.q_r) * sol.lambda0 + cfg.q_r * sol.a_r, abs=1e-15)
            assert sol.mu_r == pytest.approx(cfg.q_r * sol.b_r, abs=1e-15)


class TestEmptyProbability:
    def test_no_arrivals(self):
        cfg = ScenarioConfig(n_ues=3, q_u=0.0, q_r=0.5)
        assert aggregate_throughput(cfg).queue.p_empty_prob == 1.0

    def test_unstable_reports_zero(self):
        cfg = ScenarioConfig(n_ues=10, q_u=0.5, q_uf=0.5, q_ur=0.5, q_r=0.3)
        rep = aggregate_throughput(cfg)
        assert not rep.queue.stable
        assert rep.queue.p_empty_prob == 0.0
        assert rep.t_ur == rep.queue.mu_r / cfg.n_ues

    def test_forms_agree(self):
        rng = random.Random(29)
        checked = 0
        while checked < 12:
            cfg = random_two_ue_cfg(rng)
            t = SuccessTable(cfg)
            sol = aggregate_throughput(cfg, t).queue
            if not sol.stable:
                continue
            drift = sol.mu_r - sol.lambda1
            b = drift / (drift + sol.lambda0)
            assert abs(sol.p_empty_prob - b) <= 1e-12
            checked += 1

    def test_two_ue_closed_form_pipeline(self):
        # Eq-style evaluation from the two-UE closed forms against the
        # engine's empty probability at q_r = 0.9
        cfg = ScenarioConfig(n_ues=2, q_r=0.9)
        t = SuccessTable(cfg)
        forms = two_ue_closed_forms(cfg, t)
        num = forms["p_m1_1"] - forms["p1_1"] - 2 * forms["p2_1"]
        expected = num / (num + forms["lambda0"])
        assert aggregate_throughput(cfg, t).queue.p_empty_prob == \
            pytest.approx(expected, abs=1e-12)

    def test_service_dominant_limit(self):
        # vanishing arrivals with a always-on relay: queue is almost surely empty
        cfg = ScenarioConfig(n_ues=2, q_u=1e-4, q_r=1.0)
        assert aggregate_throughput(cfg).queue.p_empty_prob > 0.999


class TestTwoUeClosedForms:
    def test_requires_two_ues(self, default_cfg):
        with pytest.raises(ValueError, match="n_ues=2"):
            two_ue_closed_forms(default_cfg)

    def test_expectation_identity(self):
        # mean arrivals while empty decompose over the one- and two-arrival
        # events
        rng = random.Random(53)
        for _ in range(6):
            cfg = random_two_ue_cfg(rng)
            forms = two_ue_closed_forms(cfg, SuccessTable(cfg))
            assert forms["lambda0"] == pytest.approx(
                forms["p1_0"] + 2 * forms["p2_0"], abs=1e-12)

    def test_silent_users(self):
        cfg = ScenarioConfig(n_ues=2, q_u=0.0, q_r=0.8)
        t = SuccessTable(cfg)
        forms = two_ue_closed_forms(cfg, t)
        for name in ("lambda0", "a_r", "p1_0", "p2_0", "p1_1", "p2_1"):
            assert forms[name] == 0.0
        assert forms["b_r"] == t.grid("rd", "fd")[0, 0]
        assert forms["p_m1_1"] == pytest.approx(0.8 * t.grid("rd", "fd")[0, 0],
                                                abs=1e-15)


class TestQueueSolutionSweep:
    def test_solution_consistency_random_grid(self):
        rng = random.Random(31)
        for _ in range(8):
            cfg = random_two_ue_cfg(rng)
            sol = aggregate_throughput(cfg, SuccessTable(cfg)).queue
            assert 0.0 <= sol.b_r <= 1.0
            assert 0.0 <= sol.lambda0 <= cfg.n_ues
            assert 0.0 <= sol.a_r <= cfg.n_ues
            if sol.stable:
                assert 0.0 <= sol.p_empty_prob <= 1.0
                if sol.lambda0 > 0.0:
                    assert sol.lambda1 < sol.mu_r


class TestLoynesBoundary:
    # One ulp or so above q_r_min: _solve calls these stable, and the
    # P(Q = 0) numerator rounds to <= 0 there.
    @pytest.mark.parametrize("n_ues, q_u, q_r", [
        (2, 0.3, 0.20498204675807422),
        (2, 0.4, 0.29346224383766895),
        (2, 0.6, 0.47385939640903474),
        (3, 0.3, 0.3191726219086349),
        (3, 0.5, 0.519473633701712),
        (4, 0.4, 0.5146775910185417),
        (5, 0.6, 0.5850050520688928),
        (8, 0.4, 0.563340169837875),
    ])
    def test_just_above_threshold_is_stable(self, n_ues, q_u, q_r):
        cfg = ScenarioConfig(n_ues=n_ues, q_u=q_u, q_r=q_r)
        rep = aggregate_throughput(cfg)
        assert rep.regime == "stable"
        assert 0.0 <= rep.queue.p_empty_prob <= 1.0

    @pytest.mark.parametrize("q_r, regime", [(1.0, "stable"), (0.3, "unstable")])
    def test_aggregate_walks_simplex_once(self, monkeypatch, q_r, regime):
        calls = []
        walk = queue_model._weights

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(queue_model, "_weights", counted)
        cfg = ScenarioConfig(n_ues=10, q_u=0.5, q_r=q_r)
        assert aggregate_throughput(cfg).regime == regime
        assert len(calls) == 1


class TestSuccessArrayUse:
    @pytest.mark.parametrize("q_r, regime", [(1.0, "stable"), (0.3, "unstable")])
    def test_cold_analysis_builds_seven_arrays(self, monkeypatch, q_r, regime):
        # Each of the two receivers is built once, and the two builds
        # together return the seven arrays.
        built, arrays = [], []
        build = SuccessTable._build

        def counted(self, ilink):
            built.append(ilink)
            out = build(self, ilink)
            arrays.extend(out)
            return out

        monkeypatch.setattr(SuccessTable, "_build", counted)
        cfg = ScenarioConfig(n_ues=10, q_u=0.5, q_r=q_r)
        assert aggregate_throughput(cfg).regime == regime
        assert sorted(built) == ["ud", "ur"]
        assert sorted(arrays) == sorted([
            ("ur", "fd", False), ("ur", "br", False),
            ("ud", "fd", False), ("ud", "fd", True),
            ("ud", "br", False), ("ud", "br", True), ("rd", "fd", False)])

    def test_traffic_points_share_one_block(self):
        # The block depends only on which activity probabilities are zero,
        # not on their values, on q_r or on N up to the table's.
        cfg = ScenarioConfig(n_ues=6, q_u=0.3)
        table = SuccessTable(cfg)
        for change in ({}, {"q_u": 0.8, "q_r": 0.4}, {"q_ur": 0.9}):
            queue_statistics(cfg.replace(**change), table)
        assert list(table.blocks) == [(True, True, True)]
        queue_statistics(cfg.replace(q_uf=1.0), table)
        queue_statistics(cfg.replace(n_ues=4), table)
        queue_statistics(cfg.replace(n_ues=1, q_u=1.0), table)
        assert list(table.blocks) == [(True, True, True), (True, True, False)]

    def test_warm_point_enumerates_nothing(self, monkeypatch):
        # A second traffic point on a warm block weighs the block's own
        # rows; it never enumerates the configurations again.
        cfg = ScenarioConfig(n_ues=6, q_u=0.3)
        table = SuccessTable(cfg)
        queue_statistics(cfg, table)
        calls = []
        rows = queue_model._rows

        def counted(*args):
            calls.append(args)
            return rows(*args)

        monkeypatch.setattr(queue_model, "_rows", counted)
        queue_statistics(cfg.replace(q_u=0.8, q_r=0.4), table)
        assert calls == []

    def test_table_of_another_radio_configuration_rejected(self):
        cfg = ScenarioConfig(n_ues=3)
        with pytest.raises(ValueError, match="radio configuration"):
            queue_statistics(cfg, SuccessTable(cfg.replace(alpha=0.2)))

    def test_table_smaller_than_n_rejected(self):
        cfg = ScenarioConfig(n_ues=4)
        with pytest.raises(ValueError, match="N = 3 UEs"):
            queue_statistics(cfg, SuccessTable(cfg.replace(n_ues=3)))

    def test_n_beyond_the_bound_refused_before_any_table(self):
        # N = 1030, where the binomial weights would overflow a float, is
        # refused when its configuration is built.
        with pytest.raises(ValueError,
                           match="^n_ues must be at most 128, got 1030: "):
            queue_statistics(ScenarioConfig(n_ues=1030, q_u=0.0))


def _stored_inputs(blk):
    """(p_f, stores) of a block: rows 5 and 6-7 of its ``factors``."""
    return blk.factors[5], blk.factors[6:]


class TestConfigBlock:
    @pytest.mark.parametrize("block_rows", [None, 7])
    @pytest.mark.parametrize("n", [1, 2, 7, 15, 30])
    def test_stored_pmfs_match_oracle(self, monkeypatch, n, block_rows):
        # Runs of 7 rows split the n_fr slabs, so a run starts inside one.
        if block_rows is not None:
            monkeypatch.setattr(queue_model, "_BLOCK_ROWS", block_rows)
        table = SuccessTable(ScenarioConfig(n_ues=n))
        for active in itertools.product((False, True), repeat=3):
            blk = queue_model._config_block(table, active)
            p_f, stores = _stored_inputs(blk)
            for v_s, store in zip(blk.v[..., blk.inverse], stores):
                assert not v_s[0].any() and not v_s[n + 2].any()
                for c, (f, b) in enumerate(zip(blk.n_fr.tolist(),
                                               blk.n_b.tolist())):
                    assert v_s[1:n + 2, c].tolist() == stored_pmf_oracle(
                        n, f, b, p_f[c], store[c])

    @pytest.mark.parametrize("radio, state", [
        # the relay-transmitting stores repeat where the silent ones differ
        ({}, 1),
        # and the other way round
        ({"gamma_db": -10.0, "alpha": 0.01, "d_ud_m": 50.0,
          "theta_rd_deg": 40.0}, 0),
    ])
    def test_inputs_are_distinct_in_both_relay_states(self, radio, state):
        n = 7
        table = SuccessTable(ScenarioConfig(n_ues=n, **radio))
        for active in itertools.product((False, True), repeat=3):
            blk = queue_model._config_block(table, active)
            p_f, stores = _stored_inputs(blk)
            for v_s, store in zip(blk.v[..., blk.inverse], stores):
                for c, (f, b) in enumerate(zip(blk.n_fr.tolist(),
                                               blk.n_b.tolist())):
                    assert v_s[1:n + 2, c].tolist() == stored_pmf_oracle(
                        n, f, b, p_f[c], store[c])

        def inputs(*stores):
            return len(set(zip(blk.n_fr.tolist(), blk.n_b.tolist(),
                               *(s.tolist() for s in stores))))

        assert inputs(*stores) > inputs(stores[state])

    @pytest.mark.parametrize("n, row_runs", [(10, 1), (30, 6)])
    def test_cold_analysis_binomial_passes(self, monkeypatch, n, row_runs):
        # Two pmf builds per run of _BLOCK_ROWS distinct inputs (n_fr, p_f,
        # n_b, stores): FD->relay, and stored BR with the relay silent and
        # transmitting in one call. Each covers those inputs only: at
        # N = 30, 854 inputs for 5,456 rows, so one run where the rows
        # would take six.
        calls = []
        binom_rows = queue_model._binom_rows

        def counted(comb, trials, p):
            calls.append(p.size)
            return binom_rows(comb, trials, p)

        monkeypatch.setattr(queue_model, "_binom_rows", counted)
        cfg = ScenarioConfig(n_ues=n, q_u=0.5)
        table = SuccessTable(cfg)
        aggregate_throughput(cfg, table)
        (blk,) = table.blocks.values()
        assert -(-blk.n_fr.size // queue_model._BLOCK_ROWS) == row_runs
        p_f, stores = _stored_inputs(blk)
        inputs = len(set(zip(blk.n_fr.tolist(), p_f.tolist(),
                             blk.n_b.tolist(), *stores.tolist())))
        assert inputs < blk.n_fr.size
        assert len(calls) == 2 * -(-inputs // queue_model._BLOCK_ROWS)
        assert sum(calls) == 3 * inputs

    # 455 rows at N = 12; at gamma = 0 dB every input is distinct
    @pytest.mark.parametrize("radio, distinct", [({}, 299),
                                                 ({"gamma_db": 0.0}, 455)])
    def test_one_v_column_per_distinct_input_shared(self, radio, distinct):
        # v has one column per distinct (n_fr, p_f, n_b, stores) input,
        # every column some row's; a head, a selection and a narrower
        # pattern's block index that one array instead of copying it.
        n = 12
        table = SuccessTable(ScenarioConfig(n_ues=n, **radio))
        blk = queue_model._config_block(table, (True, True, True))
        p_f, stores = _stored_inputs(blk)
        inputs = len(set(zip(blk.n_fr.tolist(), p_f.tolist(),
                             blk.n_b.tolist(), *stores.tolist())))
        assert inputs == distinct
        assert blk.v.shape == (2, n + 3, inputs)
        assert np.array_equal(np.unique(blk.inverse), np.arange(inputs))
        narrower = queue_model._config_block(table, (False, True, True))
        for part in (blk.head(5), blk.select((True, False, True)),
                     narrower, narrower.head(3)):
            assert part.v is blk.v
            assert part.inverse.size == part.n_fr.size

    def test_rows_of_at_most_n_ues_come_first(self):
        # A point at n < N weighs a prefix of the block: exactly the rows,
        # in order, and the stored-count pmfs of a block built at n.
        big = SuccessTable(ScenarioConfig(n_ues=12))
        for active in itertools.product((False, True), repeat=3):
            blk = queue_model._config_block(big, active)
            for n in range(1, 13):
                head = blk.head(n)
                own = queue_model._config_block(
                    SuccessTable(ScenarioConfig(n_ues=n)), active)
                for name in ("n_fr", "n_fd", "n_b"):
                    assert np.array_equal(getattr(head, name),
                                          getattr(own, name))
                head_v = head.v[..., head.inverse]
                own_v = own.v[..., own.inverse]
                assert head_v[:, :n + 2].tolist() == own_v[:, :n + 2].tolist()
                assert not head_v[:, n + 2:].any()

    @pytest.mark.parametrize("radio", [
        {}, {"alpha": 0.0},
        # every stored-pmf input distinct (5,456 at N = 30)
        {"gamma_db": 0.0},
        {"gamma_db": -10.0, "alpha": 0.01, "d_ud_m": 50.0,
         "theta_rd_deg": 40.0}])
    @pytest.mark.parametrize("n", [1, 2, 7, 12, 30])
    def test_selection_equals_direct_build(self, radio, n):
        # A pattern's block is the rows of any covering pattern's block
        # whose ruled-out counts are 0: every array and ``ends`` equal,
        # and the same head at every n.
        table = SuccessTable(ScenarioConfig(n_ues=n, **radio))
        patterns = list(itertools.product((False, True), repeat=3))
        direct = {p: queue_model._build_block(table, p) for p in patterns}
        for p, w in itertools.product(patterns, repeat=2):
            if not all(b or not a for a, b in zip(p, w)):
                continue
            got = direct[w].select(p)
            for m in range(n + 1):
                head, want = got.head(m), direct[p].head(m)
                for f in dataclasses.fields(want):
                    if f.name in ("v", "inverse"):
                        continue
                    assert np.array_equal(getattr(head, f.name),
                                          getattr(want, f.name)), \
                        (p, w, m, f.name)
                assert np.array_equal(head.v[..., head.inverse],
                                      want.v[..., want.inverse]), (p, w, m)


class TestDeferredNonemptyPmf:
    @pytest.mark.parametrize("q_r, regime, reads", [(1.0, "stable", 1),
                                                    (0.3, "unstable", 0)])
    def test_read_on_the_stable_side_only(self, monkeypatch, q_r, regime,
                                          reads):
        calls = []
        pmf = queue_model._Walk.p_nonempty

        def counted(walk):
            calls.append(walk)
            return pmf.fget(walk)

        monkeypatch.setattr(queue_model._Walk, "p_nonempty",
                            property(counted))
        cfg = ScenarioConfig(n_ues=10, q_u=0.5, q_r=q_r)
        table = SuccessTable(cfg)
        rep = aggregate_throughput(cfg, table)
        assert rep.regime == regime and len(calls) == reads
        # The same numbers as the full queue_statistics, which always
        # evaluates the pmf.
        stats = queue_statistics(cfg, table)
        assert len(calls) == reads + 1
        assert rep.queue.b_r == stats.b_r
        assert [rep.t_ud0, rep.t_ud1, rep.t_ur0, rep.t_ur1] == \
            [stats.t_ud0, stats.t_ud1, stats.t_ur0, stats.t_ur1]


def _cold_peak(cfg):
    """tracemalloc's peak, in bytes, over a cold analysis of ``cfg``."""
    tracemalloc.start()
    try:
        aggregate_throughput(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWalkMemory:
    def test_cold_n30_analysis_peak(self):
        # The stored-count pmfs are kept per distinct input (854 here, for
        # 5,456 rows: 0.45 MB) and gathered one summed row at a time; the
        # binomial pmfs and their products are built once per distinct
        # input, one run of _BLOCK_ROWS inputs at a time.
        cfg = ScenarioConfig(n_ues=30, q_u=0.5, q_r=0.5)
        assert _cold_peak(cfg) <= 3.5 * 1024 * 1024

    @pytest.mark.parametrize("n, radio, limit_mb", [
        # 2,249 distinct inputs for 39,711 rows
        (60, {}, 16),
        # every one of the 5,456 inputs distinct, so v is as wide as the
        # rows, but no copy of it is gathered back to them
        (30, {"gamma_db": 0.0}, 6.5)])
    def test_cold_analysis_peak(self, n, radio, limit_mb):
        cfg = ScenarioConfig(n_ues=n, q_u=0.5, q_r=0.5, **radio)
        assert _cold_peak(cfg) <= limit_mb * 1024 * 1024


@st.composite
def _sums(draw, width=None):
    """1 to 6,000 nonnegative terms with exponents from lo to 0
    (lo >= -1074), some of them zero; planted, a head [1, 2**-53 + d]
    whose sum sits on (d = 0) or just off a rounding midpoint, over terms
    below 2**-81. Given ``width``, exactly that many terms (a planted
    head needs 3)."""
    n = width or draw(st.integers(1, 6000)
                      | st.integers(1024, 6000))  # half long
    lo = draw(st.integers(-1074, 0))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.9]))
    plant = draw(st.sampled_from([None, 0.0, 2.0**-105, -2.0**-105]))
    if width is not None and width < 3:
        plant = None
    if width is not None and plant is not None:
        n -= 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = np.ldexp(1.0 + rng.random(n), rng.integers(lo, 1, n))
    terms[rng.random(n) < zeros] = 0.0
    if plant is not None:
        terms = np.concatenate([[1.0, 2.0**-53 + plant],
                                np.ldexp(terms, -82)])
    return rng.permutation(terms)


@st.composite
def _sum_rows(draw):
    """A matrix of 2 to 8 rows of one width, below or at least
    ``_BRACKET_TERMS``: an all-zero row, a one-term row, and rows of
    ``_sums`` (planted heads among them), in any order."""
    width = draw(st.integers(1, queue_model._BRACKET_TERMS - 1)
                 | st.integers(queue_model._BRACKET_TERMS, 3000))
    one = np.zeros(width)
    one[draw(st.integers(0, width - 1))] = draw(
        st.floats(2.0**-1074, 1.0, allow_subnormal=True))
    rows = [np.zeros(width), one, *(draw(_sums(width))
                                     for _ in range(draw(st.integers(0, 6))))]
    return np.array(draw(st.permutations(rows)))


def _plain_row_sums(families, width):
    """``_row_sums`` as one plain ``math.fsum`` per row of terms."""
    return [math.fsum(row.tolist())
            for rows, count in families for row in rows(0, count)]


class TestSumRule:
    def test_same_float_as_fsum_of_the_terms_as_given(self):
        # Nonnegative terms from 2**-1074 to 1, a quarter of them zero.
        rng = np.random.default_rng(3)
        terms = np.ldexp(1.0 + rng.random(4000), rng.integers(-1075, 0, 4000))
        terms[rng.random(4000) < 0.25] = 0.0
        terms = np.concatenate([terms, [2.0**-1074, 1.0]])
        # Signed: a negative term far above the cut, and the walk's kind,
        # positive terms scaled by -2**-52 (a q_dep one ulp below 0).
        signed = [np.concatenate([[1.0, -0.25], np.full(2000, 2.0**-200)]),
                  rng.permutation(np.concatenate([terms,
                                                  -terms[::3] * 2.0**-52]))]
        cases = [terms, rng.permutation(terms), *signed, np.zeros(9),
                 np.array([0.3])]
        for case in cases:
            expect = math.fsum(case.tolist())
            assert queue_model._fsum(case).hex() == expect.hex()
        assert queue_model._fsum(np.zeros(9)) == 0.0

    # perfbench's large_n points, where the walk's sums are long enough
    # for the bracket
    LARGE_N = [
        dict(n_ues=20, q_u=0.1, q_uf=0.5, q_ur=0.5, q_r=1.0),
        dict(n_ues=20, q_u=0.1, q_uf=0.5, q_ur=0.5, q_r=0.2),
        dict(n_ues=25, q_u=0.1, q_uf=1.0, q_ur=0.5, q_r=0.2),
        dict(n_ues=25, q_u=0.9, q_uf=0.5, q_ur=0.5, q_r=0.52),
        dict(n_ues=30, q_u=0.1, q_uf=0.5, q_ur=0.5, q_r=1.0),
        dict(n_ues=30, q_u=0.05, q_uf=0.3, q_ur=0.5, q_r=0.1),
    ]

    def test_cold_n30_walk_same_floats_as_plain_fsum(self, monkeypatch):
        # The descending order and the bracket change no field of a cold
        # N = 30 walk, nor of the large_n walks.
        cfgs = [ScenarioConfig(n_ues=30, q_u=0.5, q_r=0.5),
                *(ScenarioConfig(**point) for point in self.LARGE_N)]

        def hexes(cfg):
            walk = queue_model._Walk(cfg, None)
            return [float(x).hex()
                    for f in dataclasses.fields(queue_model.QueueStatistics)
                    for x in np.atleast_1d(getattr(walk, f.name))]

        ordered = [hexes(cfg) for cfg in cfgs]
        monkeypatch.setattr(queue_model, "_fsum",
                            lambda t: math.fsum(t[t != 0.0].tolist()))
        monkeypatch.setattr(queue_model, "_row_sums", _plain_row_sums)
        assert [hexes(cfg) for cfg in cfgs] == ordered

    def test_negative_terms_same_floats_as_plain_fsum(self, monkeypatch):
        # Here p_dep rounds one ulp past 1 in 318 of the block's 2,925
        # configurations, so q_dep = 1 - p_dep < 0 there, and the nonempty
        # pmf's rows, long enough for the bracket, hold negative terms.
        cfg = ScenarioConfig(n_ues=24, q_u=0.05, q_uf=0.8, q_ur=0.7, q_r=1.0,
                             d_ur_m=60.0, d_ud_m=120.0, theta_rd_deg=10.0)
        walk = queue_model._Walk(cfg, None)
        assert (1.0 - walk.blk.factors[0] < 0.0).any()
        assert 3 * walk.w.size >= queue_model._BRACKET_TERMS
        got = [x.hex() for x in queue_statistics(cfg).p_nonempty]
        monkeypatch.setattr(queue_model, "_row_sums", _plain_row_sums)
        assert got == [x.hex() for x in queue_statistics(cfg).p_nonempty]

    @pytest.mark.parametrize("point", [
        {},
        # the negative-q_dep point above, relay never transmitting
        dict(n_ues=24, q_u=0.05, q_uf=0.8, q_ur=0.7, d_ur_m=60.0,
             d_ud_m=120.0, theta_rd_deg=10.0),
    ])
    def test_never_transmitting_relay_shifts_the_empty_pmf(self, point):
        # At q_r = 0 the transmitting families weigh 0 and add only +-0.0,
        # so the nonempty pmf is the empty one shifted by the departure
        # slot that never comes: [0.0, *p_empty], byte for byte.
        stats = queue_statistics(ScenarioConfig(**point).replace(q_r=0.0))
        assert stats.p_nonempty.tobytes() == \
            np.array([0.0, *stats.p_empty]).tobytes()

    @pytest.mark.parametrize("second, tail, want, calls", [
        # fl(1 + 2**-53) is 1.0 (a tie, to even), but 3,000 terms under
        # the cut 2**-80 push the exact sum past the midpoint
        (2.0**-53, 2.0**-200, 1.0 + 2.0**-52, [2, 3, 3002]),
        # further under the midpoint than the tail can reach: the bracket
        # decides
        (2.0**-54, 2.0**-200, 1.0, [2, 3]),
        # 2**-70 under it, and no term of the tail reaches 2**-80, but
        # together they add about 2**-69.4
        (2.0**-53 - 2.0**-70, 2.0**-81, 1.0 + 2.0**-52, [2, 3, 3002]),
    ])
    def test_bracket_and_its_fallback(self, monkeypatch, second, tail, want,
                                      calls):
        terms = np.array([1.0, second] + [tail] * 3000)
        fsum, seen = math.fsum, []
        monkeypatch.setattr(math, "fsum",
                            lambda xs: (seen.append(len(xs)), fsum(xs))[1])
        assert queue_model._fsum(terms) == want == fsum(terms.tolist())
        assert seen == calls    # head, head + bound, then every term

    @settings(max_examples=300, deadline=None)
    @given(_sums())
    def test_same_float_as_fsum_of_any_terms(self, terms):
        assert queue_model._fsum(terms).hex() == \
            math.fsum(terms.tolist()).hex()

    @settings(max_examples=150, deadline=None)
    @given(_sum_rows(), st.integers(0, 8))
    def test_row_sums_same_floats_as_fsum_of_each_row(self, terms, split):
        # the rows as one family and as two, split at any row
        want = [math.fsum(row.tolist()).hex() for row in terms]
        for families in ([terms], [terms[:split], terms[split:]]):
            sums = queue_model._row_sums(
                [(lambda a, b, f=f: f[a:b], len(f)) for f in families],
                terms.shape[1])
            assert [x.hex() for x in sums] == want

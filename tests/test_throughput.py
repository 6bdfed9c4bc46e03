import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmrelay import (
    ScenarioConfig,
    SuccessTable,
    aggregate_throughput,
    queue_statistics,
)

from conftest import random_two_ue_cfg
from oracles import per_user_throughput_bruteforce


class TestPerUserDirect:
    def test_silent_user_contributes_nothing(self):
        cfg = ScenarioConfig(n_ues=5, q_u=0.0)
        t = SuccessTable(cfg)
        assert aggregate_throughput(cfg, t).t_ud0 == 0.0

    def test_single_fd_user_collapses(self):
        cfg = ScenarioConfig(n_ues=1, q_u=0.7, q_uf=1.0, q_ur=0.0)
        t = SuccessTable(cfg)
        expected = 0.7 * t.grid("ud", "fd")[0, 0]
        assert aggregate_throughput(cfg, t).t_ud0 == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("relay", [False, True])
    def test_matches_bruteforce_small_n(self, relay):
        rng = random.Random(37)
        for _ in range(4):
            cfg = ScenarioConfig(
                n_ues=rng.randint(2, 4), q_u=rng.uniform(0.2, 1.0),
                q_uf=rng.random(), q_ur=rng.random(),
                gamma_db=rng.uniform(0, 20), alpha=rng.uniform(0, 0.8),
                theta_bw_br_deg=360.0)
            t = SuccessTable(cfg)
            direct, _ = per_user_throughput_bruteforce(cfg, t, relay)
            rep = aggregate_throughput(cfg, t)
            assert (rep.t_ud1 if relay else rep.t_ud0) == \
                pytest.approx(direct, abs=1e-12)


class TestPerUserDirectVsSimulation:
    def test_default_point_matches_monte_carlo(self):
        # per-user direct-delivery rate against independent simulator runs
        from mmrelay import run
        cfg = ScenarioConfig()  # N = 10 defaults (q_r = 1)
        rep = aggregate_throughput(cfg)
        analytic_direct = cfg.n_ues * rep.t_ud
        rates = []
        for seed in range(8):
            st = run(cfg, 125_000, seed=900 + seed)
            rates.append(st.delivered_direct / st.measured_slots)
        mean = sum(rates) / len(rates)
        se = (sum((r - mean) ** 2 for r in rates)
              / (len(rates) - 1)) ** 0.5 / len(rates) ** 0.5
        assert abs(mean - analytic_direct) <= 3 * se


class TestPerUserRelayed:
    def test_no_relay_traffic(self):
        cfg = ScenarioConfig(n_ues=3, q_uf=1.0, q_ur=0.0)
        assert aggregate_throughput(cfg).t_ur == 0.0

    def test_components_match_bruteforce(self):
        rng = random.Random(59)
        for _ in range(3):
            cfg = ScenarioConfig(
                n_ues=rng.randint(2, 4), q_u=rng.uniform(0.2, 1.0),
                q_uf=rng.random(), q_ur=rng.random(),
                gamma_db=rng.uniform(0, 20), alpha=rng.uniform(0, 0.8),
                theta_bw_br_deg=360.0)
            t = SuccessTable(cfg)
            stats = queue_statistics(cfg, t)
            fd, br0, br1 = stats.t_fr, stats.t_ur0, stats.t_ur1
            _, rel0 = per_user_throughput_bruteforce(cfg, t, False)
            _, rel1 = per_user_throughput_bruteforce(cfg, t, True)
            assert fd + br0 == pytest.approx(rel0, abs=1e-12)
            assert fd + br1 == pytest.approx(rel1, abs=1e-12)

    def test_unstable_not_credited(self):
        cfg = ScenarioConfig(n_ues=10, q_u=0.5, q_uf=0.5, q_ur=0.5, q_r=0.3)
        rep = aggregate_throughput(cfg)
        assert not rep.queue.stable
        assert rep.queue.p_empty_prob == 0.0
        assert rep.t_ur == rep.queue.mu_r / cfg.n_ues

    def test_flow_conservation(self):
        # accepted traffic equals the queue's average arrival rate
        rng = random.Random(41)
        checked = 0
        while checked < 10:
            cfg = random_two_ue_cfg(rng)
            t = SuccessTable(cfg)
            sol = aggregate_throughput(cfg, t).queue
            if not sol.stable:
                continue
            lam = (sol.p_empty_prob * sol.lambda0
                   + (1 - sol.p_empty_prob) * sol.lambda1)
            assert cfg.n_ues * aggregate_throughput(cfg, t).t_ur == \
                pytest.approx(lam, abs=1e-9)
            checked += 1

    def test_relay_flow_conservation_large_n(self):
        # The relay's mean arrivals, relay silent and transmitting, are the
        # N users' accepted rates: the tagged-user moments of the queue
        # walk against the arrival pmfs' means.
        rng = random.Random(61)
        points = [dict(n_ues=rng.randint(1, 30), q_u=rng.random(),
                       q_uf=rng.random(), q_ur=rng.random(),
                       q_r=rng.random(), gamma_db=rng.uniform(-5.0, 25.0),
                       alpha=rng.random(), theta_bw_br_deg=360.0)
                  for _ in range(12)]
        points += [dict(n_ues=n, q_u=0.0) for n in (1, 17)]
        points += [dict(n_ues=n, q_u=0.7, q_uf=q_uf)
                   for n in (1, 23) for q_uf in (0.0, 1.0)]
        for point in points:
            cfg = ScenarioConfig(**point)
            t = SuccessTable(cfg)
            stats = queue_statistics(cfg, t)
            sol = aggregate_throughput(cfg, t).queue
            n = cfg.n_ues
            assert n * (stats.t_fr + stats.t_ur0) == \
                pytest.approx(sol.lambda0, rel=1e-12, abs=0.0)
            assert n * (stats.t_fr + stats.t_ur1) == \
                pytest.approx(sol.a_r, rel=1e-12, abs=0.0)


class TestAggregateThroughput:
    def test_silent_network(self):
        cfg = ScenarioConfig(n_ues=6, q_u=0.0)
        rep = aggregate_throughput(cfg)
        assert rep.t_aggregate == 0.0
        assert rep.regime == "stable"

    def test_single_fd_user_no_relay(self):
        cfg = ScenarioConfig(n_ues=1, q_u=0.4, q_uf=1.0, q_ur=0.0)
        t = SuccessTable(cfg)
        rep = aggregate_throughput(cfg, t)
        assert rep.t_aggregate == pytest.approx(0.4 * t.grid("ud", "fd")[0, 0],
                                                abs=1e-12)
        assert rep.queue.p_empty_prob == 1.0

    def test_mixing_identity(self):
        rng = random.Random(43)
        for _ in range(6):
            cfg = random_two_ue_cfg(rng)
            rep = aggregate_throughput(cfg)
            w1 = cfg.q_r * ((1 - rep.queue.p_empty_prob)
                            if rep.regime == "stable" else 1.0)
            assert rep.t_ud == pytest.approx(
                (1 - w1) * rep.t_ud0 + w1 * rep.t_ud1, abs=1e-12)

    def test_bounds(self):
        rng = random.Random(47)
        for _ in range(8):
            cfg = random_two_ue_cfg(rng)
            rep = aggregate_throughput(cfg)
            assert 0.0 <= rep.t_aggregate <= cfg.n_ues * cfg.q_u + cfg.q_r + 1e-12
            assert rep.t_aggregate <= cfg.n_ues + 1e-12

    def test_recomputation_is_bit_identical(self, default_cfg):
        # symmetric users are structural; recomputing the same point must
        # reproduce the exact same floats
        a = aggregate_throughput(default_cfg)
        b = aggregate_throughput(default_cfg)
        assert a.t_aggregate == b.t_aggregate
        assert a.t_ud == b.t_ud and a.t_ur == b.t_ur

    def test_unstable_regime_uses_service_rate(self):
        cfg = ScenarioConfig(n_ues=10, q_u=0.5, q_uf=0.5, q_ur=0.5, q_r=0.3)
        rep = aggregate_throughput(cfg)
        assert rep.regime == "unstable"
        assert rep.t_aggregate == pytest.approx(
            cfg.n_ues * rep.t_ud + rep.queue.mu_r, abs=1e-12)
        assert rep.queue.p_empty_prob == 0.0

    def test_continuity_at_stability_boundary(self):
        # Approaching q_r_min from above, the stable-regime total converges
        # to the unstable-regime expression evaluated at the same point.
        cfg0 = ScenarioConfig(n_ues=5, q_u=0.4, q_uf=0.5, q_ur=0.5, q_r=1.0)
        t = SuccessTable(cfg0)
        thr = aggregate_throughput(cfg0, t).queue.q_r_min
        cfg = cfg0.replace(q_r=thr * (1 + 1e-9))
        rep = aggregate_throughput(cfg, SuccessTable(cfg))
        assert rep.regime == "stable"
        unstable_total = (cfg.n_ues * ((1 - cfg.q_r) * rep.t_ud0
                                       + cfg.q_r * rep.t_ud1)
                          + rep.queue.mu_r)
        assert rep.t_aggregate == pytest.approx(unstable_total, abs=1e-6)


# Any real-looking value, valid or not: non-finite floats, huge and
# negative numbers, and bools (an int subclass).
_ANY_NUMBER = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                        st.integers(-10**12, 10**12), st.booleans())


def _mostly(valid):
    return st.one_of(valid, valid, _ANY_NUMBER)


_UNIT = _mostly(st.floats(0.0, 1.0))
# Every ScenarioConfig field, with small N so that each point is quick.
_FIELD_VALUES = {
    "n_ues": st.one_of(st.integers(1, 4), st.integers(-2, 0), st.booleans(),
                       st.floats(-1.0, 4.0)),
    "q_u": _UNIT, "q_uf": _UNIT, "q_ur": _UNIT, "q_r": _UNIT, "alpha": _UNIT,
    "gamma_db": _mostly(st.floats(-400.0, 400.0)),
    "p_t_dbm": _mostly(st.floats(-400.0, 400.0)),
    "p_n_dbm": _mostly(st.floats(-400.0, 400.0)),
    "f_c_ghz": _mostly(st.floats(0.0, 1e3)),
    "h_ap_m": _mostly(st.floats(0.0, 100.0)),
    "h_ue_m": _mostly(st.floats(0.0, 100.0)),
    "d_ur_m": _mostly(st.floats(0.0, 1e4)),
    "d_ud_m": _mostly(st.floats(0.0, 1e4)),
    "theta_rd_deg": _mostly(st.floats(0.0, 180.0)),
    "theta_bw_fd_deg": _mostly(st.floats(0.0, 360.0)),
    "theta_bw_br_deg": st.one_of(st.none(), _mostly(st.floats(0.0, 360.0))),
}


class TestEveryFieldProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.fixed_dictionaries({}, optional=_FIELD_VALUES))
    def test_rejected_or_finite_and_bounded(self, fields):
        # ConfigError, the file-level rejection, is a ValueError too.
        try:
            cfg = ScenarioConfig(**fields)
            rep = aggregate_throughput(cfg)
        except ValueError:
            return
        q = rep.queue
        for value in (rep.t_aggregate, rep.t_ud, rep.t_ur, rep.t_ud0,
                      rep.t_ud1, rep.t_ur0, rep.t_ur1, q.lambda0, q.lambda1,
                      q.a_r, q.b_r, q.mu_r, q.p_empty_prob):
            assert math.isfinite(value), rep
        # q_r_min is documented as possibly infinite, never NaN or negative
        assert q.q_r_min >= 0.0, rep
        assert 0.0 <= rep.t_aggregate <= cfg.n_ues, rep
        assert 0.0 <= q.p_empty_prob <= 1.0, rep

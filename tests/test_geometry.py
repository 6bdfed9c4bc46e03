import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmrelay import (
    Link,
    LinkBudget,
    LinkState,
    ScenarioConfig,
    SuccessTable,
    beam_gain,
    los_probability,
    path_loss_db,
    received_power_w,
    relay_mmap_distance,
)
from mmrelay.sweeps import ConfigError, SweepSpec, load_config, run_sweep

distances = st.floats(min_value=1.0, max_value=500.0,
                      allow_nan=False, allow_infinity=False)
angles_open = st.floats(min_value=0.5, max_value=179.5,
                        allow_nan=False, allow_infinity=False)


class TestRelayMmapDistance:
    def test_collinear_same_side(self):
        assert relay_mmap_distance(30, 50, 0.0) == pytest.approx(20.0, abs=1e-12)

    def test_collinear_opposite(self):
        assert relay_mmap_distance(30, 50, 180.0) == pytest.approx(80.0, abs=1e-12)

    def test_thirty_degrees(self):
        # law of cosines evaluated independently
        expected = math.sqrt(30**2 + 50**2 - 2 * 30 * 50 * math.cos(math.radians(30)))
        got = relay_mmap_distance(30, 50, 30.0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(28.318, abs=1e-3)
        assert got == pytest.approx(28.31825892682465, abs=1e-12)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            relay_mmap_distance(0.0, 50, 30)
        with pytest.raises(ValueError):
            relay_mmap_distance(30, -1.0, 30)

    @given(d1=distances, d2=distances, theta=angles_open)
    @settings(max_examples=200, deadline=None)
    def test_symmetric_in_distances(self, d1, d2, theta):
        assert relay_mmap_distance(d1, d2, theta) == relay_mmap_distance(d2, d1, theta)

    @given(d1=distances, d2=distances,
           theta=st.floats(min_value=1.0, max_value=178.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_in_angle(self, d1, d2, theta):
        assert relay_mmap_distance(d1, d2, theta + 1.0) > \
            relay_mmap_distance(d1, d2, theta)


class TestLosProbability:
    def test_colocated(self):
        assert los_probability(0.0) == 1.0

    def test_short_range_branch(self):
        assert los_probability(10.0) == 1.0
        assert los_probability(18.0) == 1.0

    def test_hundred_meters_reference(self):
        expected = 18 / 100 + math.exp(-100 / 36) * (1 - 18 / 100)
        assert los_probability(100.0) == pytest.approx(expected, abs=1e-15)
        assert los_probability(100.0) == pytest.approx(0.23098474969813537,
                                                       abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            los_probability(-1.0)

    @given(st.floats(min_value=0.0, max_value=2000.0))
    @settings(max_examples=300, deadline=None)
    def test_bounded(self, d):
        assert 0.0 <= los_probability(d) <= 1.0

    def test_non_increasing_on_dense_grid(self):
        grid = [los_probability(0.5 * k) for k in range(4000)]
        assert all(a >= b - 1e-15 for a, b in zip(grid, grid[1:]))


class TestPathLoss:
    def test_los_reference_value(self):
        # UMi street-canyon PL1 evaluated by hand: 32.4 + 21 log10(d) + 20 log10(f)
        expected = 32.4 + 21 * math.log10(50) + 20 * math.log10(30)
        got = path_loss_db(50.0, 30.0, LinkState.LOS, 10.0, 1.5)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(97.62079518544965, abs=1e-12)

    def test_nlos_reference_value(self):
        expected = 35.3 * math.log10(50) + 22.4 + 21.3 * math.log10(30)
        got = path_loss_db(50.0, 30.0, LinkState.NLOS, 10.0, 1.5)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(113.83632387859026, abs=1e-12)

    def test_rejects_below_floor(self):
        with pytest.raises(ValueError):
            path_loss_db(0.5, 30.0, LinkState.LOS, 10.0, 1.5)

    @given(d=st.floats(min_value=8.6, max_value=3000.0))
    @settings(max_examples=300, deadline=None)
    def test_nlos_never_below_los(self, d):
        los = path_loss_db(d, 30.0, LinkState.LOS, 10.0, 1.5)
        nlos = path_loss_db(d, 30.0, LinkState.NLOS, 10.0, 1.5)
        assert nlos >= los

    @given(d=st.floats(min_value=8.6, max_value=2000.0),
           state=st.sampled_from(list(LinkState)))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_distance(self, d, state):
        assert path_loss_db(d * 1.1, 30.0, state, 10.0, 1.5) >= \
            path_loss_db(d, 30.0, state, 10.0, 1.5)


class TestBeamGain:
    def test_isotropic(self):
        assert beam_gain(360.0) == 1.0

    def test_paper_beamwidths(self):
        assert beam_gain(5.0) == 72.0
        assert beam_gain(30.0) == 12.0

    def test_energy_conservation_exact_on_sector_divisors(self):
        # gain * beamwidth in radians recovers the full circle bit-exactly
        # for every beamwidth that tiles 360 degrees
        for d in range(1, 361):
            if 360 % d == 0:
                assert beam_gain(d) * math.radians(d) == math.tau

    @given(st.floats(min_value=0.01, max_value=360.0))
    @settings(max_examples=500, deadline=None)
    def test_energy_conservation_within_ulp(self, theta):
        prod = beam_gain(theta) * math.radians(theta)
        assert abs(prod - math.tau) <= math.ulp(math.tau)

    def test_rejects_out_of_range(self):
        for bad in (0.0, -5.0, 361.0):
            with pytest.raises(ValueError):
                beam_gain(bad)


class TestReceivedPower:
    LINK = Link(50.0, 1.5, 10.0, 0.5)

    def test_zero_gain_outside_lobe(self):
        assert received_power_w(self.LINK, LinkState.LOS, 0.0, 72.0, 24.0, 30.0) == 0.0

    def test_gain_linearity(self):
        base = received_power_w(self.LINK, LinkState.LOS, 72.0, 72.0, 24.0, 30.0)
        quad = received_power_w(self.LINK, LinkState.LOS, 144.0, 144.0, 24.0, 30.0)
        assert quad == pytest.approx(4.0 * base, rel=1e-12)

    def test_composition_from_path_loss(self):
        pl = path_loss_db(self.LINK.d_3d_m, 30.0, LinkState.LOS, 10.0, 1.5)
        expected = 10 ** ((24.0 - 30.0) / 10.0) * 72.0 * 72.0 * 10 ** (-pl / 10.0)
        got = received_power_w(self.LINK, LinkState.LOS, 72.0, 72.0, 24.0, 30.0)
        assert got == pytest.approx(expected, rel=1e-12)

    @given(d=st.floats(min_value=12.0, max_value=500.0))
    @settings(max_examples=200, deadline=None)
    def test_los_at_least_nlos(self, d):
        link = Link(d, 1.5, 10.0, 0.5)
        p_los = received_power_w(link, LinkState.LOS, 72.0, 72.0, 24.0, 30.0)
        p_nlos = received_power_w(link, LinkState.NLOS, 72.0, 72.0, 24.0, 30.0)
        assert p_los >= p_nlos


class TestRejections:
    @pytest.mark.parametrize("call, message", [
        (lambda: relay_mmap_distance(30, 50, 180.5),
         "theta_rd_deg must lie in [0, 180], got 180.5"),
        (lambda: relay_mmap_distance(30, 50, -1.0),
         "theta_rd_deg must lie in [0, 180], got -1.0"),
        (lambda: Link(0.0, 1.5, 10.0, 0.5),
         "link distance must be positive, got 0.0"),
        (lambda: Link(50.0, 1.5, 10.0, 1.5),
         "p_los must lie in [0, 1], got 1.5"),
        (lambda: received_power_w(Link(50.0, 1.5, 10.0, 0.5), LinkState.LOS,
                                  -1.0, 72.0, 24.0, 30.0),
         "antenna gains must be non-negative"),
    ], ids=["angle-above", "angle-below", "distance", "p_los", "gain"])
    def test_rejection_names_its_rule(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


class TestScenarioConfig:
    def test_defaults_are_valid(self):
        cfg = ScenarioConfig()
        assert cfg.q_ub == 0.5
        assert cfg.q_ud == 0.5
        assert cfg.theta_bw_br == cfg.theta_rd_deg

    def test_probability_domain(self):
        with pytest.raises(ValueError, match="q_u"):
            ScenarioConfig(q_u=1.5)
        with pytest.raises(ValueError, match="alpha"):
            ScenarioConfig(alpha=-0.1)

    def test_br_beam_must_cover_both_receivers(self):
        with pytest.raises(ValueError, match="theta_bw_br"):
            ScenarioConfig(q_uf=0.5, theta_rd_deg=60.0, theta_bw_br_deg=30.0)
        # pure FD: a narrow BR beam setting is irrelevant and allowed
        ScenarioConfig(q_uf=1.0, theta_rd_deg=60.0, theta_bw_br_deg=30.0)

    def test_angle_domain(self):
        with pytest.raises(ValueError, match="theta_rd"):
            ScenarioConfig(theta_rd_deg=0.0)
        with pytest.raises(ValueError, match="theta_rd"):
            ScenarioConfig(theta_rd_deg=180.0)

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ScenarioConfig)])
    def test_field_rejects_non_finite_and_bool(self, name, tmp_path):
        for bad in (math.nan, math.inf, -math.inf, True):
            with pytest.raises(ValueError, match=name):
                ScenarioConfig(**{name: bad})
        for bad in ("nan", "inf", "-inf"):
            path = tmp_path / "sweep.cfg"
            path.write_text(f"[sweep]\n{name} = {bad}\n")
            with pytest.raises(ConfigError, match=name):
                load_config(str(path))
        # One bad point in a programmatic grid is recorded, not raised.
        spec = SweepSpec(ScenarioConfig(), axes=((name, (-math.inf,)),))
        assert name in run_sweep(spec)[0]["error"]


class TestLinkBudget:
    def test_relay_link_always_los(self, default_cfg):
        b = LinkBudget(default_cfg)
        assert b.links["rd"].p_los == 1.0

    def test_relay_sits_at_ap_height(self, default_cfg):
        b = LinkBudget(default_cfg)
        assert b.links["rd"].d_3d_m == b.links["rd"].d_2d_m
        assert b.links["ur"].h_rx_m == default_cfg.h_ap_m

    def test_receivers_use_fd_beamwidth(self, default_cfg):
        b = LinkBudget(default_cfg)
        assert b.gain_rx == b.gain_fd

    @pytest.mark.parametrize("field, value", [
        ("p_t_dbm", 3113.0),         # 10**(p/10) overflows
        ("p_n_dbm", 3113.0),
        ("gamma_db", 3083.0),
        ("p_n_dbm", -4000.0),        # noise floor underflows to 0 W
        ("f_c_ghz", 1e-240),         # 10**(-PL/10) overflows
        ("theta_bw_fd_deg", 5e-324), # beam gain divides by 0
        ("theta_bw_fd_deg", 1e-160), # beam gain squared overflows
    ])
    def test_out_of_float_range_rejected(self, field, value):
        cfg = ScenarioConfig(**{field: value})
        with pytest.raises(ValueError, match="float range|underflows"):
            LinkBudget(cfg)

    def test_power_ordering(self, default_cfg):
        b = LinkBudget(default_cfg)
        for link in ("ur", "ud", "rd"):
            for scheme in ("fd", "br"):
                los, nlos = b.powers(link, scheme)
                assert los >= nlos

    def test_relay_term_is_its_los_fd_beam(self, default_cfg):
        b = LinkBudget(default_cfg)
        assert b.relay_interference_w == b.powers("rd", "fd")[0]


# Valid values other than the defaults, for every ScenarioConfig field.
# theta_bw_br_deg = 30 equals the default theta_rd_deg, which the default
# None resolves to, so it must share the default's key and arrays.
_PERTURBED = {
    "n_ues": (4,), "q_u": (0.7,), "q_uf": (0.2,), "q_ur": (0.9,),
    "q_r": (0.3,), "gamma_db": (12.0,), "alpha": (0.3,), "p_t_dbm": (20.0,),
    "p_n_dbm": (-70.0,), "f_c_ghz": (28.0,), "h_ap_m": (12.0,),
    "h_ue_m": (2.0,), "d_ur_m": (40.0,), "d_ud_m": (60.0,),
    "theta_rd_deg": (45.0,), "theta_bw_fd_deg": (8.0,),
    "theta_bw_br_deg": (30.0, 90.0),
}
_SEVEN_ARRAYS = (("ur", "fd", False), ("ur", "br", False),
                 ("ud", "fd", False), ("ud", "fd", True),
                 ("ud", "br", False), ("ud", "br", True), ("rd", "fd", False))


class TestRadioKey:
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ScenarioConfig)])
    def test_key_covers_every_field_the_table_reads(self, name):
        # A field left out of radio_key() must not change any success
        # array, or sweep points would share a wrong table. Tables of
        # different N are compared on the cells n_f + n_b <= N both hold.
        base = ScenarioConfig(n_ues=5, q_u=0.5)
        for value in _PERTURBED[name]:
            other = base.replace(**{name: value})
            if other.radio_key() != base.radio_key():
                continue
            a, b = SuccessTable(base), SuccessTable(other)
            m = min(base.n_ues, other.n_ues) + 1
            shared = np.add.outer(np.arange(m), np.arange(m)) < m
            for key in _SEVEN_ARRAYS:
                assert np.array_equal(a.grid(*key)[:m, :m][shared],
                                      b.grid(*key)[:m, :m][shared]), \
                    (name, value, key)

    def test_traffic_fields_share_a_key(self):
        base = ScenarioConfig()
        other = base.replace(n_ues=3, q_u=0.9, q_uf=1.0, q_ur=0.0, q_r=0.5,
                             theta_bw_br_deg=base.theta_rd_deg)
        assert other.radio_key() == base.radio_key()
        assert base.replace(alpha=0.2).radio_key() != base.radio_key()

"""Per-slot outcome distributions of the simulator against the queue walk.

In decoupled mode every slot's arrivals with the relay silent (``arr_s``)
or transmitting (``arr_t``), its direct deliveries and the relay's
decode indicator ``rd_ok`` are drawn whatever the queue holds, and they
are i.i.d. across slots. So their histograms must follow the walk's
pmfs exactly: ``arr_s`` follows ``p_empty``, ``arr_t`` follows
``p_arrival_tx``, and the net change while the queue is nonempty
(``arr_t - rd_ok`` on the q_r coin, else ``arr_s``) follows
``p_nonempty``. Each histogram gets a multinomial G-test, with no batch
means. This catches model errors that keep every mean, which the
simulation-agreement criterion (four batch-means averages) cannot.
"""

import math

import numpy as np
import pytest

import mmrelay.queue_model as queue_model
import mmrelay.simulator as simulator
from mmrelay import ScenarioConfig

SLOTS = 200_000
# Every test passes when its p-value is above this level.
LEVEL = 1e-6
# A radio where the pmfs have five or more cells, the BR store
# probability differs between the relay states (by up to 0.18) and the
# relay's packet is lost in about one slot of seven.
WIDE = dict(gamma_db=5.0, alpha=0.2, d_ur_m=60.0, d_ud_m=120.0,
            theta_bw_br_deg=360.0, theta_rd_deg=150.0)
# (seed, scenario): the zero patterns q_uf in {0, 1}, q_ur in {0, 1} and
# q_u = 1, plus an interior point on the wide and the default radio.
POINTS = [
    (101, dict(n_ues=6, q_u=0.6, q_r=0.7, **WIDE)),
    (102, dict(n_ues=6, q_u=0.5, q_uf=0.0, q_r=0.6, **WIDE)),
    (103, dict(n_ues=6, q_u=0.5, q_uf=1.0, q_r=0.6, **WIDE)),
    (104, dict(n_ues=6, q_u=0.6, q_ur=0.0, q_r=0.6, **WIDE)),
    (105, dict(n_ues=6, q_u=0.6, q_ur=1.0, q_r=0.6, **WIDE)),
    (106, dict(n_ues=6, q_u=1.0, q_r=0.6, **WIDE)),
    (107, dict(n_ues=6, q_u=0.6, q_r=0.7)),
]
IDS = ["interior", "q_uf=0", "q_uf=1", "q_ur=0", "q_ur=1", "q_u=1",
       "default-radio"]


def _slot_outcomes(cfg, n_slots, seed):
    """(coin, arr_s, arr_t, dir_s, dir_t, rd_ok) of ``n_slots`` decoupled
    slots, drawn in the simulator's chunks without the queue scan."""
    pw = simulator._Powers(cfg, "decoupled")
    gen_choices, gen = (np.random.Generator(np.random.PCG64(s))
                        for s in np.random.SeedSequence(seed).spawn(2))
    parts = []
    for lo in range(0, n_slots, simulator._CHUNK):
        c = min(simulator._CHUNK, n_slots - lo)
        n_fr, n_fd, n_b, coin = simulator._draw_counts(gen_choices, cfg, pw, c)
        parts.append((coin,
                      *simulator._chunk_decoupled(gen, pw, n_fr, n_fd, n_b)))
    return [np.concatenate(column) for column in zip(*parts)]


def _chi2_sf(x, df):
    """P(X > x) for X chi-square with df degrees of freedom, in closed
    form: a finite Poisson-type sum, plus erfc for odd df."""
    h, k = x / 2.0, (df % 2) / 2.0
    total = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    term = math.exp(-h) * h**k / math.gamma(k + 1.0)
    for _ in range(df // 2):
        total += term
        k += 1.0
        term *= h / k
    return total


def _g_test(observed, pmf):
    """(G, df, p-value) of a histogram against a pmf.

    The cells whose expected count is under 5 are pooled into one; if
    that pool still expects under 5, it joins the smallest other cell. A
    count in a cell of probability 0 fails outright.
    """
    expected = observed.sum() * pmf
    assert not observed[expected == 0.0].any(), (observed, pmf)
    small = expected < 5.0
    obs = np.append(observed[~small], observed[small].sum()).astype(float)
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] < 5.0 and exp.size > 1:
        j = np.argmin(exp[:-1])
        obs[j] += obs[-1]
        exp[j] += exp[-1]
        obs, exp = obs[:-1], exp[:-1]
    hit = obs > 0.0
    g = 2.0 * float(np.sum(obs[hit] * np.log(obs[hit] / exp[hit])))
    df = exp.size - 1
    return g, df, _chi2_sf(g, df) if df else 1.0


def _z_p_value(z):
    return math.erfc(abs(z) / math.sqrt(2.0))


@pytest.fixture(scope="module", params=POINTS, ids=IDS)
def point(request):
    """A point's configuration, queue statistics and slot outcomes."""
    seed, scenario = request.param
    cfg = ScenarioConfig(**scenario)
    return (cfg, queue_model.queue_statistics(cfg),
            _slot_outcomes(cfg, SLOTS, seed))


def test_slot_histograms_follow_the_walk(point):
    cfg, stats, (coin, arr_s, arr_t, _, _, rd_ok) = point
    n = cfg.n_ues
    net = np.where(coin, arr_t - rd_ok, arr_s)
    for name, counts, pmf in (
            ("p_empty", np.bincount(arr_s, minlength=n + 1), stats.p_empty),
            ("p_arrival_tx", np.bincount(arr_t, minlength=n + 1),
             stats.p_arrival_tx),
            ("p_nonempty", np.bincount(net + 1, minlength=n + 2),
             stats.p_nonempty)):
        g, df, p = _g_test(counts, pmf)
        assert p > LEVEL, f"{name}: G = {g:.1f} on {df} df, p = {p:.2g}"


def test_slot_means_follow_the_walk(point):
    # rd_ok is one Bernoulli(b_r) per slot, so its count is exactly
    # binomial. A slot's direct deliveries have mean N * t_ud; the slots
    # are i.i.d., so their sample variance gives the z-score.
    cfg, stats, (_, _, _, dir_s, dir_t, rd_ok) = point
    b = stats.b_r
    if abs(b - round(b)) <= 1e-12:
        # The relay always or never decodes; b_r, a weighted sum of 0s or
        # 1s, sits within rounding of it.
        assert rd_ok.sum() == SLOTS * round(b)
    else:
        z = (rd_ok.sum() - SLOTS * b) / math.sqrt(SLOTS * b * (1.0 - b))
        assert _z_p_value(z) > LEVEL, f"rd_ok: z = {z:.2f}"
    for name, direct, rate in (("t_ud0", dir_s, stats.t_ud0),
                               ("t_ud1", dir_t, stats.t_ud1)):
        diff = direct.mean() - cfg.n_ues * rate
        sd = direct.std(ddof=1)
        if sd == 0.0:
            assert abs(diff) <= 1e-12, name
            continue
        z = diff / (sd / math.sqrt(SLOTS))
        assert _z_p_value(z) > LEVEL, f"N * {name}: z = {z:.2f}"


def test_chi2_tail():
    # Fixed quantiles at 1e-6: 23.93 on 1 df, 27.63 on 2 and 35.89 on 5.
    for x, df in ((23.928, 1), (27.631, 2), (35.888, 5)):
        assert _chi2_sf(x, df) == pytest.approx(1e-6, rel=1e-3)
    assert _chi2_sf(0.0, 4) == 1.0

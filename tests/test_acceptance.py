"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criteria 3 and 4 simulate millions of slots and
dominate the runtime (several minutes on two cores).
"""

import math
import os
import random
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
import numpy as np
import pytest

from mmrelay import (
    ScenarioConfig,
    SuccessTable,
    aggregate_throughput,
    beam_gain,
    compare,
    load_config,
    queue_statistics,
    run,
    run_sweep,
)

from conftest import RECIPES, random_two_ue_cfg
from oracles import (
    TWO_UE_LITERAL_DISCREPANCIES,
    success_probability_bruteforce,
    two_ue_closed_forms,
    two_ue_terms,
)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print("\n" + line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 1: success probabilities equal brute-force LOS-state enumeration
# ---------------------------------------------------------------------------

def test_criterion_1_appendix_equivalence():
    start = time.time()
    rng = random.Random(101)
    cases = [ScenarioConfig()]
    while len(cases) < 50:
        cases.append(ScenarioConfig(
            gamma_db=rng.uniform(-10, 30), alpha=rng.uniform(0, 1),
            d_ur_m=rng.uniform(10, 150), d_ud_m=rng.uniform(10, 250),
            theta_rd_deg=rng.uniform(5, 175),
            theta_bw_fd_deg=rng.uniform(2, 20), theta_bw_br_deg=360.0))
    combos = [("ur", "fd", False), ("ur", "br", False), ("rd", "fd", False),
              ("ud", "fd", False), ("ud", "fd", True),
              ("ud", "br", False), ("ud", "br", True)]
    worst = 0.0
    checked = 0
    for cfg in cases:
        table = SuccessTable(cfg)
        for n_f in range(7):
            for n_b in range(7 - n_f):
                for link, scheme, relay in combos:
                    got = table.grid(link, scheme, relay)[n_f, n_b]
                    want = success_probability_bruteforce(
                        cfg, link, scheme, n_f, n_b, relay)
                    worst = max(worst, abs(got - want))
                    checked += 1
    elapsed = time.time() - start
    _report("1", worst <= 1e-12 and elapsed < 60.0,
            f"{checked} profile evaluations, max |diff| = {worst:.2e}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: two-UE closed forms match the enumeration engine; verbatim
# typos are catalogued
# ---------------------------------------------------------------------------

def _engine_two_ue(cfg, table):
    net = queue_statistics(cfg, table)
    return {
        "lambda0": math.fsum(k * net.p_empty[k] for k in range(3)),
        "a_r": math.fsum(k * net.p_arrival_tx[k] for k in range(3)),
        "b_r": net.b_r,
        "p1_0": net.p_empty[1],
        "p2_0": net.p_empty[2],
        "p_m1_1": net.p_nonempty[0],
        "p1_1": net.p_nonempty[2],
        "p2_1": net.p_nonempty[3],
    }


def test_criterion_2_two_ue_closed_forms():
    start = time.time()
    rng = random.Random(202)
    worst = 0.0
    cases = [ScenarioConfig(n_ues=2), ScenarioConfig(n_ues=2, q_r=0.9)]
    cases += [random_two_ue_cfg(rng) for _ in range(100)]
    for cfg in cases:
        table = SuccessTable(cfg)
        closed = two_ue_closed_forms(cfg, table)
        engine = _engine_two_ue(cfg, table)
        for name in closed:
            worst = max(worst, abs(closed[name] - engine[name]))
    # Catalogue the verbatim-vs-engine disagreements on points chosen to
    # activate every typo (relay-link failures need long links or high
    # thresholds).
    expose = [
        ScenarioConfig(n_ues=2, q_u=0.6, q_uf=0.5, q_ur=0.5, q_r=0.7),
        ScenarioConfig(n_ues=2, q_u=0.6, q_uf=0.5, q_ur=0.5, q_r=0.7,
                       gamma_db=29.5, alpha=0.09, d_ur_m=122.0, d_ud_m=233.0,
                       theta_rd_deg=130.0),
        ScenarioConfig(n_ues=2, q_u=0.6, q_uf=0.5, q_ur=0.5, q_r=0.7,
                       gamma_db=16.0, alpha=0.42, d_ur_m=68.0, d_ud_m=245.0,
                       theta_rd_deg=16.0),
    ]
    observed = set()
    for cfg in expose:
        table = SuccessTable(cfg)
        lit = two_ue_terms(cfg, table, literal=True)
        rec = two_ue_terms(cfg, table, literal=False)
        for quantity in lit:
            for term in lit[quantity]:
                if abs(lit[quantity][term] - rec[quantity][term]) > 1e-12:
                    observed.add((quantity, term))
    print("\nverbatim two-UE terms that disagree with the engine "
          "(reconciled reading applied):")
    for key in sorted(TWO_UE_LITERAL_DISCREPANCIES):
        print(f"  {key[0]}.{key[1]}: {TWO_UE_LITERAL_DISCREPANCIES[key]}")
    elapsed = time.time() - start
    _report("2", worst <= 1e-12
            and observed == set(TWO_UE_LITERAL_DISCREPANCIES)
            and elapsed < 60.0,
            f"max |closed-form - engine| = {worst:.2e}; "
            f"{len(observed)} verbatim discrepancies catalogued, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: decoupled-mode simulation agrees with the analytics over the
# full parameter grid
# ---------------------------------------------------------------------------

def _criterion3_point(args):
    n, q_u, q_uf, q_ur, seed = args
    cfg = ScenarioConfig(n_ues=n, q_u=q_u, q_uf=q_uf, q_ur=q_ur, q_r=1.0)
    report = aggregate_throughput(cfg)
    stats = run(cfg, 1_000_000, seed=seed, mode="decoupled")
    result = compare(report, stats)
    return [(r.name, r.z, r.passed) for r in result.rows]


def test_criterion_3_simulation_agreement():
    start = time.time()
    grid = [(n, q_u, q_uf, q_ur)
            for n in (1, 2, 5, 10)
            for q_u in (0.1, 0.5, 0.9)
            for q_uf in (0.0, 0.5, 1.0)
            for q_ur in (0.0, 0.5, 1.0)]
    points = [(n, q_u, q_uf, q_ur,
               int(np.random.SeedSequence([303, i]).generate_state(1)[0]))
              for i, (n, q_u, q_uf, q_ur) in enumerate(grid)]
    workers = min(os.cpu_count() or 1, 4)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_criterion3_point, points))
    else:
        outcomes = [_criterion3_point(p) for p in points]
    applicable = 0
    passed = 0
    failures = []
    for point, rows in zip(grid, outcomes):
        for name, z, ok in rows:
            if ok is None:
                continue
            applicable += 1
            if ok:
                passed += 1
            else:
                failures.append((point, name, round(z, 2)))
    rate = passed / applicable
    elapsed = time.time() - start
    if failures:
        print(f"\npairs beyond 3 SE: {failures}")
    _report("3", rate >= 0.95 and elapsed < 900.0,
            f"{passed}/{applicable} (point, metric) pairs within 3 SE "
            f"({rate:.1%}), {elapsed:.0f}s, {workers} workers")


# ---------------------------------------------------------------------------
# Criterion 4: simulated queue behaviour flips across the stability boundary
# ---------------------------------------------------------------------------

def _boundary_scenarios(count=20):
    rng = random.Random(404)
    out = []
    while len(out) < count:
        cfg = ScenarioConfig(
            n_ues=rng.randint(2, 5),
            q_u=rng.uniform(0.2, 0.9), q_uf=rng.uniform(0.1, 0.9),
            q_ur=rng.uniform(0.1, 0.9), q_r=1.0,
            gamma_db=rng.uniform(5, 15), alpha=rng.uniform(0.05, 0.5),
            d_ur_m=rng.uniform(15, 80), d_ud_m=rng.uniform(20, 120),
            theta_rd_deg=rng.uniform(10, 150))
        sol = aggregate_throughput(cfg, SuccessTable(cfg)).queue
        thr = sol.q_r_min
        if not (0.05 < thr < 0.9) or sol.lambda0 < 0.02:
            continue
        below = cfg.replace(q_r=0.95 * thr)
        drift = (lambda s: s.lambda1 - s.mu_r)(
            aggregate_throughput(below, SuccessTable(below)).queue)
        if drift < 5e-4:  # growth must be resolvable within 1e6 slots
            continue
        out.append((cfg, thr))
    return out


def _criterion4_scenario(args):
    cfg, thr, seed = args
    n_slots = 1_000_000
    above = cfg.replace(q_r=min(1.05 * thr, 1.0))
    stats_up = run(above, n_slots, seed=seed)
    bounded = (stats_up.mean_queue_last_quarter
               < 10.0 * max(stats_up.mean_queue_first_quarter, 1e-12))
    below = cfg.replace(q_r=0.95 * thr)
    sol = aggregate_throughput(below, SuccessTable(below)).queue
    stats_down = run(below, n_slots, seed=seed + 1)
    growing = (stats_down.queue_final
               > 0.5 * (sol.lambda1 - sol.mu_r) * n_slots)
    return bounded, growing


def test_criterion_4_stability_boundary():
    start = time.time()
    scenarios = _boundary_scenarios(20)
    args = [(cfg, thr, 5000 + i) for i, (cfg, thr) in enumerate(scenarios)]
    workers = min(os.cpu_count() or 1, 4)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_criterion4_scenario, args))
    else:
        results = [_criterion4_scenario(a) for a in args]
    bad = [i for i, (bounded, growing) in enumerate(results)
           if not (bounded and growing)]
    elapsed = time.time() - start
    _report("4", not bad and elapsed < 300.0,
            f"20 scenarios x (1.05, 0.95) q_r_min, failures at {bad or 'none'}, "
            f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 5: figure-shape reproduction from the shipped recipes
# ---------------------------------------------------------------------------

def _fig3_transitions():
    spec = load_config(str(RECIPES / "fig3.cfg"))
    rows = run_sweep(spec)
    by_qu = {}
    for row in rows:
        by_qu.setdefault(row["q_u"], []).append((row["n_ues"], row["regime"]))
    trans = {}
    for q_u, seq in by_qu.items():
        seq.sort()
        onset = next((n for n, r in seq if r == "unstable"), None)
        back = None
        if onset is not None:
            back = next((n for n, r in seq if n > onset and r == "stable"), None)
        trans[q_u] = (onset, back)
    return trans


def test_criterion_5a_fig3_regime_sequence():
    trans = _fig3_transitions()
    ok = all(None not in trans[q_u] for q_u in (0.5, 0.9)) \
        and trans[0.1] == (None, None)
    _report("5a", ok,
            f"q_u=0.5 transitions {trans.get(0.5)}, q_u=0.9 {trans.get(0.9)}, "
            f"q_u=0.1 always stable: {trans.get(0.1) == (None, None)}")


def test_criterion_5b_fig3_transition_points():
    # Reported transitions: unstable at N=7 then stable at N=10 (q_u=0.5);
    # unstable at N=3 then stable at N=6 (q_u=0.9); tolerance +/-2.
    trans = _fig3_transitions()
    checks = {
        "q_u=0.5 onset": (trans[0.5][0], 7),
        "q_u=0.5 return": (trans[0.5][1], 10),
        "q_u=0.9 onset": (trans[0.9][0], 3),
        "q_u=0.9 return": (trans[0.9][1], 6),
    }
    misses = {k: (got, want) for k, (got, want) in checks.items()
              if got is None or abs(got - want) > 2}
    _report("5b", not misses,
            f"transitions {dict((k, v[0]) for k, v in checks.items())}; "
            + (f"outside +/-2: {misses} (channel-model sensitive, "
               f"see docs/DECISIONS.md)" if misses else "all within +/-2"))


def _argmax_by_theta(recipe):
    spec = load_config(str(RECIPES / recipe))
    rows = run_sweep(spec)
    best = {}
    for row in rows:
        theta = row["theta_rd_deg"]
        cur = best.get(theta)
        if cur is None or row["t_total"] > cur[1]:
            best[theta] = (row["q_uf"], row["t_total"])
    return {theta: q_uf for theta, (q_uf, _) in best.items()}


def test_criterion_5c_fig6_fd_always_best():
    argmax = _argmax_by_theta("fig6.cfg")
    bad = {th: q for th, q in argmax.items() if q != 1.0}
    _report("5c", not bad,
            f"argmax q_uf at gamma=20dB: {argmax}"
            + ("; non-FD optima are channel-model sensitive, see "
               "docs/DECISIONS.md" if bad else ""))


def test_criterion_5d_fig4_small_angle_prefers_br():
    argmax = _argmax_by_theta("fig4.cfg")
    smallest, largest = min(argmax), max(argmax)
    ok_small = argmax[smallest] < 1.0
    ok_large = argmax[largest] == 1.0
    _report("5d", ok_small and ok_large,
            f"argmax q_uf: theta={smallest} -> {argmax[smallest]} (want < 1), "
            f"theta={largest} -> {argmax[largest]} (want = 1)"
            + ("" if ok_small and ok_large else
               "; see docs/DECISIONS.md on channel-model sensitivity"))


# ---------------------------------------------------------------------------
# Criterion 6: identity suite
# ---------------------------------------------------------------------------

def test_criterion_6_identities():
    rng = random.Random(606)
    worst_forms = worst_flow = worst_sum = worst_cont = 0.0
    stable_checked = 0
    while stable_checked < 15:
        cfg = random_two_ue_cfg(rng)
        table = SuccessTable(cfg)
        net = queue_statistics(cfg, table)
        worst_sum = max(worst_sum,
                        abs(math.fsum(net.p_empty) - 1.0),
                        abs(math.fsum(net.p_nonempty) - 1.0))
        sol = aggregate_throughput(cfg, table).queue
        if not sol.stable or sol.lambda0 == 0.0:
            continue
        stable_checked += 1
        drift = sol.mu_r - sol.lambda1
        worst_forms = max(worst_forms, abs(sol.p_empty_prob
                                           - drift / (drift + sol.lambda0)))
        rep = aggregate_throughput(cfg, table)
        lam = sol.p_empty_prob * sol.lambda0 + (1 - sol.p_empty_prob) * sol.lambda1
        worst_flow = max(worst_flow, abs(cfg.n_ues * rep.t_ur - lam))
    # beam energy identity, exact for every sector-tiling beamwidth
    gain_exact = all(beam_gain(d) * math.radians(d) == math.tau
                     for d in range(1, 361) if 360 % d == 0)
    # throughput continuity across the stability boundary
    for n, q_u in ((3, 0.5), (5, 0.4), (8, 0.3)):
        cfg0 = ScenarioConfig(n_ues=n, q_u=q_u, q_uf=0.5, q_ur=0.5, q_r=1.0)
        thr = aggregate_throughput(cfg0, SuccessTable(cfg0)).queue.q_r_min
        if not (0 < thr < 1):
            continue
        cfg = cfg0.replace(q_r=thr * (1 + 1e-9))
        rep = aggregate_throughput(cfg, SuccessTable(cfg))
        eq7 = (cfg.n_ues * ((1 - cfg.q_r) * rep.t_ud0 + cfg.q_r * rep.t_ud1)
               + rep.queue.mu_r)
        worst_cont = max(worst_cont, abs(rep.t_aggregate - eq7))
    ok = (worst_forms <= 1e-12 and worst_flow <= 1e-9
          and worst_sum <= 1e-12 and gain_exact and worst_cont <= 1e-6)
    _report("6", ok,
            f"P(Q=0) forms {worst_forms:.1e} (<=1e-12), "
            f"flow conservation {worst_flow:.1e} (<=1e-9), "
            f"pmf sums {worst_sum:.1e} (<=1e-12), "
            f"beam identity exact: {gain_exact}, "
            f"boundary continuity {worst_cont:.1e} (<=1e-6)")


# ---------------------------------------------------------------------------
# Criterion 7: byte-identical reruns
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    cfg_file = tmp_path / "det.cfg"
    cfg_file.write_text(
        "[scenario]\nn_ues = 3\nq_u = 0.6\n"
        "[sweep]\nn_ues = 1:3\n"
        "[simulation]\nsimulate = true\nn_slots = 20000\nseed = 12\n")

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "mmrelay.cli", *args],
                              capture_output=True)

    sim1 = cli("simulate", str(cfg_file), "--slots", "50000", "--seed", "9")
    sim2 = cli("simulate", str(cfg_file), "--slots", "50000", "--seed", "9")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    sw1 = cli("sweep", str(cfg_file), "-o", str(out_a))
    sw2 = cli("sweep", str(cfg_file), "-o", str(out_b), "--jobs", "2")
    ok = (sim1.returncode == sim2.returncode == 0
          and sim1.stdout == sim2.stdout
          and sw1.returncode == sw2.returncode == 0
          and out_a.read_bytes() == out_b.read_bytes())
    _report("7", ok, "simulate and sweep reruns byte-identical "
                     "(sweep also across --jobs 1 vs 2)")

"""Aggregate throughput across the stability boundary and scheme choices.

Stable queues credit packets when the relay accepts them (each will
eventually reach the mmAP); unstable queues deliver only the relay's
service rate on top of the direct traffic.
"""

import numpy as np

from mmrelay import ScenarioConfig, aggregate_throughput

base = ScenarioConfig(n_ues=5, q_u=0.5, q_uf=0.5, q_ur=0.5, q_r=1.0)
thr = aggregate_throughput(base).queue.q_r_min
print(f"scenario: N = 5, q_u = 0.5, defaults; stability threshold "
      f"q_r_min = {thr:.4f}")
print(f"\n{'q_r':>6} {'regime':>9} {'T_direct':>9} {'T_relayed':>10} {'T':>8}")
for q_r in np.linspace(max(thr - 0.15, 0.05), min(thr + 0.25, 1.0), 9):
    rep = aggregate_throughput(base.replace(q_r=float(q_r)))
    print(f"{q_r:6.3f} {rep.regime:>9} {5 * rep.t_ud:9.4f} "
          f"{5 * rep.t_ur:10.4f} {rep.t_aggregate:8.4f}")
print("(the two regime formulas meet continuously at the boundary)")

print("\nscheme choice vs relay/mmAP separation (N = 10, q_u = 0.1)")
print("T as a function of q_uf, one row per theta_rd:")
q_ufs = [round(x, 1) for x in np.arange(0, 1.01, 0.2)]
print("theta  " + "".join(f"q_uf={q:<6}" for q in q_ufs))
for theta in (10, 30, 60, 90, 150):
    row = []
    for q_uf in q_ufs:
        cfg = ScenarioConfig(n_ues=10, q_u=0.1, q_uf=q_uf, q_ur=0.5,
                             q_r=1.0, theta_rd_deg=float(theta))
        row.append(aggregate_throughput(cfg).t_aggregate)
    best = q_ufs[int(np.argmax(row))]
    print(f"{theta:5d}  " + "".join(f"{t:<11.4f}" for t in row)
          + f" best q_uf = {best}")

print("\nwide beams trade beamforming gain for reaching both receivers at")
print("once; which side wins depends on geometry and the SINR threshold.")

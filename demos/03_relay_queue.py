"""The relay queue as a DTMC: rates, stability threshold, occupancy.

Arrivals are packets the relay stores (FD aimed at it and decoded, plus
BR packets it decodes while the mmAP misses them); service is the relay's
own success toward the mmAP. The queue is stable iff q_r exceeds
lambda0 / (lambda0 + B_r - A_r).
"""

import numpy as np

from mmrelay import ScenarioConfig, aggregate_throughput, queue_statistics

print("rates vs UE transmit probability (N = 5, q_uf = q_ur = 0.5, q_r = 1)")
print(f"{'q_u':>5} {'lambda0':>9} {'a_r':>9} {'b_r':>9} {'q_r_min':>9} "
      f"{'P(Q=0)':>9} {'stable':>7}")
for q_u in (0.1, 0.3, 0.5, 0.7, 0.9):
    cfg = ScenarioConfig(n_ues=5, q_u=q_u, q_uf=0.5, q_ur=0.5, q_r=1.0)
    s = aggregate_throughput(cfg).queue
    print(f"{q_u:5.1f} {s.lambda0:9.4f} {s.a_r:9.4f} {s.b_r:9.4f} "
          f"{s.q_r_min:9.4f} {s.p_empty_prob:9.4f} {str(s.stable):>7}")

print("\nnote a_r > lambda0: while the relay transmits it jams the mmAP,")
print("so more BR packets fail there and get diverted into the queue.")

cfg = ScenarioConfig(n_ues=5, q_u=0.5, q_uf=0.5, q_ur=0.5, q_r=0.8)
net = queue_statistics(cfg)
print("\nnet queue change per slot at q_u = 0.5, q_r = 0.8")
print("  empty queue   :", np.array2string(net.p_empty, precision=4))
print("  nonempty queue:", np.array2string(net.p_nonempty, precision=4),
      "(first entry is k = -1)")

print("\nhow P(Q=0) reacts to the relay transmit probability (same scenario)")
for q_r in (0.55, 0.6, 0.7, 0.8, 0.9, 1.0):
    s = aggregate_throughput(cfg.replace(q_r=q_r)).queue
    tag = f"P(Q=0) = {s.p_empty_prob:.4f}" if s.stable else "unstable"
    print(f"  q_r = {q_r:.2f}: {tag}   (threshold {s.q_r_min:.4f})")


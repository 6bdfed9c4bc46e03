"""Blockage-averaged success probabilities under interference.

A reception either clears the SINR threshold or it does not once every
involved link's LOS state is fixed, so the success probability is a sum
of binomial weights over the LOS partitions of the interferers. The
tables below show how quickly same-beam interference erodes each link.
"""

from mmrelay import ScenarioConfig, SuccessTable

cfg = ScenarioConfig()
table = SuccessTable(cfg)

print(f"defaults: gamma = {cfg.gamma_db} dB, alpha = {cfg.alpha}")
print("\nUE->mmAP (FD beam), success vs interferer profile")
print("rows: FD interferers aimed at the mmAP; cols: BR interferers")
header = "      " + "".join(f"n_b={b:<7}" for b in range(5))
print(header)
for n_f in range(5):
    row = "".join(f"{table.grid('ud', 'fd')[n_f, n_b]:<11.4f}" for n_b in range(5))
    print(f"n_f={n_f} {row}")

print("\nsame reception while the relay is transmitting")
for n_f in range(5):
    row = "".join(f"{table.grid('ud', 'fd', True)[n_f, n_b]:<11.4f}"
                  for n_b in range(5))
    print(f"n_f={n_f} {row}")

print("\nrelay->mmAP (always LOS): interference alone must break it")
for n_f in range(7):
    print(f"  {n_f} FD interferers -> {table.grid('rd', 'fd')[n_f, 0]:.4f}")

print("\nthreshold sweep for one contested reception (1 FD + 1 BR interferer)")
for gamma in (-5, 0, 5, 10, 15, 20, 25, 30):
    t = SuccessTable(cfg.replace(gamma_db=float(gamma)))
    print(f"  gamma = {gamma:3d} dB: P[ud, FD] = {t.grid('ud', 'fd')[1, 1]:.4f}   "
          f"P[ud, BR] = {t.grid('ud', 'br')[1, 1]:.4f}")

print("\nleakage sweep at gamma = 10 dB (same profile)")
for alpha in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0):
    t = SuccessTable(cfg.replace(alpha=alpha))
    print(f"  alpha = {alpha:4.2f}: P[ud, FD] = {t.grid('ud', 'fd')[1, 1]:.4f}")

"""Walk through the geometry and link budget of the default scenario.

Every node is placed by three scalars: the UE-relay distance, the UE-mmAP
distance, and the angle between relay and mmAP seen from a UE. The relay
sits at access-point height, which keeps its link to the mmAP in LOS.
"""

import math

from mmrelay import LinkBudget, ScenarioConfig, relay_mmap_distance

cfg = ScenarioConfig()
budget = LinkBudget(cfg)

print("default scenario")
print(f"  d_ur = {cfg.d_ur_m} m, d_ud = {cfg.d_ud_m} m, "
      f"theta_rd = {cfg.theta_rd_deg} deg")
d_rd = relay_mmap_distance(cfg.d_ur_m, cfg.d_ud_m, cfg.theta_rd_deg)
print(f"  relay-mmAP ground distance: {d_rd:.2f} m")
print(f"  FD beam gain {budget.gain_fd:.1f} ({cfg.theta_bw_fd_deg} deg), "
      f"BR beam gain {budget.gain_br:.1f} ({cfg.theta_bw_br} deg), "
      f"receive gain {budget.gain_rx:.1f}")
print(f"  noise power {budget.noise_w:.3e} W, "
      f"threshold {cfg.gamma_db} dB, alpha = {cfg.alpha}")

print("\nper-link budget (scheme = beam used by the transmitter)")
print(f"{'link':6} {'scheme':7} {'p_los':>6} {'P_rx LOS':>12} {'P_rx NLOS':>12} "
      f"{'SNR LOS dB':>11} {'SNR NLOS dB':>12}")
for link in ("ur", "ud", "rd"):
    schemes = ("fd",) if link == "rd" else ("fd", "br")
    for scheme in schemes:
        p_l, p_n = budget.powers(link, scheme)
        snr_l = 10 * math.log10(p_l / budget.noise_w)
        snr_n = 10 * math.log10(p_n / budget.noise_w)
        print(f"{link:6} {scheme:7} {budget.p_los(link):6.3f} "
              f"{p_l:12.3e} {p_n:12.3e} {snr_l:11.1f} {snr_n:12.1f}")
print(f"\nthe relay's term at the mmAP while it transmits: its LOS FD beam, "
      f"{budget.relay_interference_w:.3e} W, scaled by alpha = {cfg.alpha}")

print("\nhow the angle stretches the relay-mmAP hop")
for theta in (5, 15, 30, 60, 90, 120, 150, 175):
    print(f"  theta_rd = {theta:3d} deg -> d_rd = "
          f"{relay_mmap_distance(cfg.d_ur_m, cfg.d_ud_m, theta):6.2f} m")

"""Conditional SINR evaluation and blockage-averaged success probabilities.

A reception is conditioned on the LOS/NLOS state of its own link and on
how many of the interfering FD and BR transmissions are in LOS toward the
receiver. Because path loss carries no fading term, the SINR given such a
partition is a number and the success event is the indicator SINR >= gamma.
Averaging the indicator over the binomially distributed LOS partitions and
over the desired link's own state yields the unconditional success
probability for a given interferer profile.

``SuccessTable`` holds one array per (link, scheme, relay flag): S[n_f][n_b]
for every n_f + n_b up to a size of at least N, built once on first use.
The indicator is evaluated with numpy over one n_f slab of partitions
(k_f_los, k_f_nlos, k_b_los, k_b_nlos) at a time, with the float
operations of ``sinr_linear`` in the same order, and every cell is one
exactly rounded ``math.fsum`` of its weighted indicator terms. A cell is
therefore the same number however the table was sized or filled.

Interference accounting: an FD transmission aimed at the other receiver
contributes nothing; a BR transmission interferes at both receivers; the
relay interferes only at the mmAP and never with its own reception.
Residual inter-beam leakage after stream separation scales every
interference term by ``alpha``.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import LinkBudget, LinkState, Role, ScenarioConfig


def _binom_pmf(n: int, p: float) -> list[float]:
    q = 1.0 - p
    try:
        return [math.comb(n, k) * p**k * q ** (n - k) for k in range(n + 1)]
    except OverflowError:
        raise ValueError(
            f"binomial weights of {n} trials overflow a float") from None


class SuccessTable:
    """Success probabilities of one configuration, one array per key.

    ``grid(link, scheme, relay, n)`` returns the 2-D float64 array
    S[n_f, n_b], defined for n_f + n_b <= m with m = max(N, n) and zero
    elsewhere, building it on first use; a later request beyond m rebuilds
    that key at the larger size. Values are pure functions of the
    configuration, so concurrent readers that race on a missing key build
    identical arrays and need no lock.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.budget = LinkBudget(cfg)
        self._grids: dict[tuple[str, str, bool], np.ndarray] = {}
        # queue_model's traffic-free configuration blocks, by (N, which
        # activity probabilities are nonzero)
        self.blocks: dict = {}

    def sinr_linear(self, link: str, desired_state: LinkState, scheme: str,
                    k_f_los: int, k_f_nlos: int, k_b_los: int, k_b_nlos: int,
                    relay_interfering: bool = False) -> float:
        """SINR for one reception given a fixed LOS partition of interferers."""
        b = self.budget
        self._check_relay(link, relay_interfering)
        signal = b.power(link, scheme, desired_state)
        ilink = b.interferer_link(link)
        interference = (k_f_los * b.power(ilink, "fd", LinkState.LOS)
                        + k_f_nlos * b.power(ilink, "fd", LinkState.NLOS)
                        + k_b_los * b.power(ilink, "br", LinkState.LOS)
                        + k_b_nlos * b.power(ilink, "br", LinkState.NLOS))
        if relay_interfering:
            interference += b.power("rd", "fd", LinkState.LOS)
        return signal / (b.noise_w + b.alpha * interference)

    def _check_relay(self, link: str, relay_interfering: bool) -> None:
        if relay_interfering and self.budget.receiver(link) is not Role.MMAP:
            raise ValueError("the relay can interfere only at the mmAP")
        if relay_interfering and link == "rd":
            raise ValueError("the relay does not interfere with its own packet")

    def _build(self, link: str, scheme: str, relay: bool,
               m: int) -> np.ndarray:
        """S[n_f, n_b] for n_f + n_b <= m, one n_f slab at a time.

        Each cell sums (w_state * w_f[k]) * w_b[h] over the partitions
        whose SINR clears gamma, the SINR formed as in ``sinr_linear``.
        """
        self._check_relay(link, relay)
        b = self.budget
        ilink = b.interferer_link(link)
        p_des = b.p_los(link)
        # Largest count first: an overflow is reported before any work.
        pmf = [_binom_pmf(n, b.p_los(ilink)) for n in range(m, -1, -1)][::-1]
        states = [(b.power(link, scheme, state), w_state)
                  for state, w_state in ((LinkState.LOS, p_des),
                                         (LinkState.NLOS, 1.0 - p_des))
                  if w_state != 0.0]
        p_fl = b.power(ilink, "fd", LinkState.LOS)
        p_fn = b.power(ilink, "fd", LinkState.NLOS)
        p_bl = b.power(ilink, "br", LinkState.LOS)
        p_bn = b.power(ilink, "br", LinkState.NLOS)
        p_relay = b.power("rd", "fd", LinkState.LOS)
        # w_b[n_b, h] = P(h of n_b BR interferers in LOS); 0 for h > n_b,
        # which adds only zero terms to a cell's sum.
        w_b = np.zeros((m + 1, m + 1))
        for n_b in range(m + 1):
            w_b[n_b, :n_b + 1] = pmf[n_b]
        gamma = b.gamma_linear
        h = np.arange(m + 1)
        fsum = math.fsum
        out = np.zeros((m + 1, m + 1))
        for n_f in range(m + 1):
            top = m - n_f + 1                      # n_b = 0 .. m - n_f
            k = np.arange(n_f + 1)[:, None, None]
            n_b = h[:top, None]
            hb = h[:top]
            # Indexed [k, n_b, h]; h > n_b is clamped and carries weight 0.
            interference = (k * p_fl + (n_f - k) * p_fn
                            + hb * p_bl + np.maximum(n_b - hb, 0) * p_bn)
            if relay:
                interference = interference + p_relay
            denom = b.noise_w + b.alpha * interference
            w_f = np.array(pmf[n_f])[:, None, None]
            terms = np.stack([
                np.where(signal / denom >= gamma,
                         (w_state * w_f) * w_b[:top, :top], 0.0)
                for signal, w_state in states])
            out[n_f, :top] = [fsum(terms[:, :, j, :j + 1].ravel().tolist())
                              for j in range(top)]
        return out

    def grid(self, link: str, scheme: str, relay: bool = False,
             n: int = 0) -> np.ndarray:
        """S[n_f, n_b] of one key, valid for n_f + n_b <= max(N, n)."""
        key = (link, scheme, bool(relay))
        grid = self._grids.get(key)
        if grid is None or len(grid) <= n:
            grid = self._build(link, scheme, key[2], max(self.cfg.n_ues, n))
            self._grids[key] = grid
        return grid

    def p(self, link: str, scheme: str, n_f: int, n_b: int,
          relay: bool = False) -> float:
        """Success probability for raw interferer counts."""
        if n_f < 0 or n_b < 0:
            raise ValueError("interferer counts must be non-negative")
        return float(self.grid(link, scheme, relay, n_f + n_b)[n_f, n_b])

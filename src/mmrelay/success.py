"""Conditional SINR evaluation and blockage-averaged success probabilities.

A reception is conditioned on the LOS/NLOS state of its own link and on
how many of the interfering FD and BR transmissions are in LOS toward the
receiver. Because path loss carries no fading term, the SINR given such a
partition is a number and the success event is the indicator SINR >= gamma.
Averaging the indicator over the binomially distributed LOS partitions and
over the desired link's own state yields the unconditional success
probability for a given interferer profile.

``SuccessTable`` holds one array per (link, scheme, relay flag): S[n_f][n_b]
for every n_f + n_b <= N, all built when the table is made. The seven
arrays have two receivers, and one build fills every array of a
receiver: the relay's ``ur`` fd/br, or the mmAP's ``ud`` fd/br with the
relay silent and transmitting plus ``rd`` fd. The build goes over one n_f
slab of partitions (k_f_los, k_f_nlos, k_b_los, k_b_nlos) at a time and
forms each partition's interference once per slab, plus one copy with the
relay's beam added at the mmAP. A partition decodes when its interference
is at most ``LinkBudget.threshold`` of the signal, which equals the
division test SINR >= gamma in float64. The terms are laid out cell by
cell, the nonzero ones taken out with one ``tolist`` per slab, and every
cell is one exactly rounded ``math.fsum`` of its slice; dropping zero
terms cannot change a sum of nonnegative terms. A cell is therefore the
same number whatever the table's N.

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


# The keys each receiver's build fills: (link, scheme, relay transmitting).
_KEYS = {
    Role.RELAY: (("ur", "fd", False), ("ur", "br", False)),
    Role.MMAP: (("ud", "fd", False), ("ud", "fd", True), ("ud", "br", False),
                ("ud", "br", True), ("rd", "fd", False)),
}


class SuccessTable:
    """Success probabilities of one configuration, one array per key.

    Both receivers are built when the table is made, at N = ``cfg.n_ues``;
    ``grid(link, scheme, relay)`` returns the 2-D float64 array
    S[n_f, n_b], defined for n_f + n_b <= N and zero elsewhere. The table
    never changes afterwards, except for ``blocks``, so any number of
    readers may share it.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.budget = LinkBudget(cfg)
        self._grids: dict[tuple[str, str, bool], np.ndarray] = {}
        for receiver in _KEYS:
            self._grids.update(self._build(receiver, cfg.n_ues))
        # queue_model's traffic-free configuration blocks, by which
        # activity probabilities are nonzero
        self.blocks: dict = {}

    def _build(self, receiver: Role,
               m: int) -> dict[tuple[str, str, bool], np.ndarray]:
        """S[n_f, n_b] of every key of ``receiver``, n_f + n_b <= m.

        One pass over the n_f slabs. A cell sums (w_state * w_f[k]) * w_b[h]
        over the partitions whose interference is at most the budget's
        decode threshold for the cell's signal.
        """
        b = self.budget
        keys = _KEYS[receiver]
        ilink = "ur" if receiver is Role.RELAY else "ud"
        # Largest count first: an overflow is reported before any work.
        pmf = [_binom_pmf(n, b.p_los(ilink)) for n in range(m, -1, -1)][::-1]
        # (state, weight) of each link's desired signal, per link
        states = {link: [(state, w) for state, w in
                         ((LinkState.LOS, b.p_los(link)),
                          (LinkState.NLOS, 1.0 - b.p_los(link))) if w != 0.0]
                  for link, _, _ in keys}
        # decode thresholds per key, along the state axis of a slab
        thresholds = {(link, scheme, relay): np.array(
            [b.threshold(link, scheme, state) for state, _ in states[link]]
        )[:, None, None] for link, scheme, relay in keys}
        p_fl = b.power(ilink, "fd", LinkState.LOS)
        p_fn = b.power(ilink, "fd", LinkState.NLOS)
        p_bl = b.power(ilink, "br", LinkState.LOS)
        p_bn = b.power(ilink, "br", LinkState.NLOS)
        p_relay = b.power("rd", "fd", LinkState.LOS)
        # w_b[n_b, h] = P(h of n_b BR interferers in LOS); 0 for h > n_b,
        # and zero terms are dropped before the sums.
        w_b = np.zeros((m + 1, m + 1))
        for n_b in range(m + 1):
            w_b[n_b, :n_b + 1] = pmf[n_b]
        h = np.arange(m + 1)
        fsum = math.fsum
        out = {key: np.zeros((m + 1, m + 1)) for key in keys}
        for n_f in range(m + 1):
            top = m - n_f + 1                      # n_b = 0 .. m - n_f
            k = np.arange(n_f + 1)[:, None]
            hb = h[:top]
            # Indexed [n_b, k, h] (cell-major); h > n_b is clamped and
            # carries weight 0.
            interference = {False: k * p_fl + (n_f - k) * p_fn + hb * p_bl
                            + np.maximum(h[:top, None, None] - hb, 0) * p_bn}
            if receiver is Role.MMAP:
                interference[True] = interference[False] + p_relay
            w_f = np.array(pmf[n_f])[:, None]
            # Terms indexed [n_b, state, k, h], per link
            terms = {link: np.stack([(w_state * w_f) * w_b[:top, None, :top]
                                     for _, w_state in link_states], axis=1)
                     for link, link_states in states.items()}
            live = {link: t != 0.0 for link, t in terms.items()}
            picked, counts = [], []
            for link, scheme, relay in keys:
                ok = interference[relay][:, None] <= thresholds[link, scheme,
                                                                relay]
                ok &= live[link]
                picked.append(terms[link][ok])
                counts.append(np.count_nonzero(ok.reshape(top, -1), axis=1))
            values = np.concatenate(picked).tolist()
            ends = np.cumsum(np.concatenate(counts)).tolist()
            cells = [fsum(values[a:z]) for a, z in zip([0, *ends], ends)]
            for i, key in enumerate(keys):
                out[key][n_f, :top] = cells[i * top:(i + 1) * top]
        return out

    def grid(self, link: str, scheme: str, relay: bool = False) -> np.ndarray:
        """S[n_f, n_b] of one key, valid for n_f + n_b <= N."""
        key = (link, scheme, bool(relay))
        if key not in self._grids:
            raise ValueError(
                f"no success array for {key!r}: the relay interferes "
                "only at the mmAP, never with its own packet; the keys "
                f"are {[*_KEYS[Role.RELAY], *_KEYS[Role.MMAP]]}")
        return self._grids[key]

    def p(self, link: str, scheme: str, n_f: int, n_b: int,
          relay: bool = False) -> float:
        """Success probability for raw interferer counts."""
        if not (n_f >= 0 and n_b >= 0 and n_f + n_b <= self.cfg.n_ues):
            raise ValueError(f"interferer counts ({n_f}, {n_b}) must be >= 0 "
                             f"with a sum of at most N = {self.cfg.n_ues}")
        return float(self.grid(link, scheme, relay)[n_f, n_b])

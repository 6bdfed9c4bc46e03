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
arrays have two receivers, each named by the link its interferers use
(``ur`` the relay, ``ud`` the mmAP), and one build fills every array of
a receiver: the relay's ``ur`` fd/br, or the mmAP's ``ud`` fd/br with
the relay silent and transmitting plus ``rd`` fd. The partitions that
exist go cell by cell: for each cell (n_f, n_b), k of the n_f FD and h of
the n_b BR interferers in LOS, C(N + 4, 4) partitions in all, in rows
(cell, k) of h = 0..n_b. The build lists only the rows where some
partition may decode: a row whose interference floor (every BR
interferer at the lower of its two powers) exceeds every threshold of
the receiver, with a margin that covers the float roundings, cannot add
a term to any key. At N = 30 on the default radio that lists 8% of the
relay's rows and 32% of the mmAP's; at alpha = 0 it lists every row. It
walks the listing in runs of whole cells, so a run's temporaries are
bounded by ``_RUN_PARTITIONS`` whatever N is, and each run costs a fixed
number of numpy calls. A run forms each partition's interference
once, plus one copy with ``LinkBudget.relay_interference_w`` added at
the mmAP. The budget gives every power and threshold as a (LOS, NLOS)
pair, and a partition decodes when its interference is at most the
threshold of its signal's state, which equals the division test
SINR >= gamma in float64. Per key the run takes out the nonzero terms of
the partitions that decode, in listing order, so each cell's terms are
one slice; one exactly rounded ``math.fsum`` per listed cell reads its
slice of one ``memoryview`` of the run's terms, with no Python list
built; a cell with no listed row is 0.0, fsum of nothing. Dropping zero
terms cannot change a sum of nonnegative terms, and fsum's result does
not depend on the order of its terms, so a cell is the same number
whatever the table's N or the run it falls in.

Interference accounting: an FD transmission aimed at the other receiver
contributes nothing; a BR transmission interferes at both receivers; the
relay interferes only at the mmAP and never with its own reception.
Residual inter-beam leakage after stream separation scales every
interference term by ``alpha``.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import LinkBudget, ScenarioConfig


# Each receiver's keys (link, scheme, relay on), by its interferers' link.
_KEYS = {
    "ur": (("ur", "fd", False), ("ur", "br", False)),
    "ud": (("ud", "fd", False), ("ud", "fd", True), ("ud", "br", False),
           ("ud", "br", True), ("rd", "fd", False)),
}

# Listed partitions per run of ``SuccessTable._build``; a run holds whole
# cells, so its temporaries are bounded whatever N is: at alpha = 0, where
# every row is listed and every term decodes, building a table at N = 30
# peaks near 1.2 MB, and near 0.6 MB on the default radio.
_RUN_PARTITIONS = 1 << 12


def _rows_that_can_decode(row_fd: np.ndarray, row_b: np.ndarray,
                          p_b_min: float,
                          thresholds: list[float]) -> np.ndarray:
    """Mask of the rows (cell, k) where a partition may pass a threshold.

    A row's partitions share its FD part a = ``row_fd``, and each adds
    fl(h * p_bl) and fl((n_b - h) * p_bn). With u = 2**-53 and at most
    eta = 2**-1075 lost by an underflowing product, every partition's
    float interference is at least (a + n_b * p_b_min)(1 - u)**3 - 2 eta,
    and the relay's beam only adds to it. Its floor
    B = fl(a + fl(n_b * p_b_min)) is at most (a + n_b * p_b_min)(1 + u)**2
    + 2 eta, so the interference is at least B (1 - 5u) - 4 eta. A row is
    dropped when fl(B (1 - 2**-40)) > fl(T + 2**-1000), T the largest
    threshold. For T = -1.0 that holds for every row, and no interference
    passes it; for T >= 0 it makes B > 2**-1001, where the 2**-40 slack
    exceeds 6u and the 4 eta, so every partition's interference exceeds
    T. Nothing is dropped at T = +inf.
    """
    floor = row_fd + row_b * p_b_min
    return ~(floor * (1.0 - 2.0**-40) > max(thresholds) + 2.0**-1000)


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
        for ilink in _KEYS:
            self._grids.update(self._build(ilink))
        # queue_model's traffic-free configuration blocks, by which
        # activity probabilities are nonzero
        self.blocks: dict = {}

    def _build(self, ilink: str) -> dict[tuple[str, str, bool], np.ndarray]:
        """S[n_f, n_b] of every key of the receiver whose interferers use
        ``ilink``, n_f + n_b <= m = N.

        The partitions (k, h) are listed cell by cell, n_f-major; a cell's
        rows are k = 0..n_f, and a row holds h = 0..n_b. A row whose
        interference floor no threshold of the receiver reaches
        (``_rows_that_can_decode``) is not listed. The listing goes in
        runs of whole cells of at most ``_RUN_PARTITIONS`` listed
        partitions (a larger cell is a run of its own). A cell sums
        (w_state * w_f[k]) * w_b[h] over the partitions whose interference
        is at most the budget's decode threshold for the cell's signal;
        a key with the relay transmitting adds the relay's term to it.
        """
        b, m = self.budget, self.cfg.n_ues
        keys = _KEYS[ilink]
        # Each link's (LOS, NLOS) weights of its desired signal; a state of
        # weight zero adds only zero terms, which ``live`` drops
        w_state = {link: (b.p_los(link), 1.0 - b.p_los(link))
                   for link, _, _ in keys}
        (p_fl, p_fn), (p_bl, p_bn) = b.powers(ilink, "fd"), b.powers(ilink, "br")
        p_relay = b.relay_interference_w
        # Flat tables over (n, j), read at j <= n only: the weight of j of
        # n interferers in LOS, and the parts of a partition's interference
        # k*p_fl + (n_f-k)*p_fn + h*p_bl + (n_b-h)*p_bn, each formed as
        # that sum forms it on int64 counts. The weights go in the order
        # ``pmfs[j <= n]`` takes them; none overflows below n = 1030.
        n, j = np.indices((m + 1, m + 1)).reshape(2, -1)
        p, q = b.p_los(ilink), 1.0 - b.p_los(ilink)
        pmfs = np.zeros(n.size)
        pmfs[j <= n] = [math.comb(t, k) * p**k * q ** (t - k)
                        for t in range(m + 1) for k in range(t + 1)]
        fd = j * p_fl + (n - j) * p_fn
        bl, bn = j * p_bl, (n - j) * p_bn
        # The cells (n_f, n_b), n_f-major, and the rows (cell, k),
        # k = 0..n_f, in listing order
        n_f, top = np.triu_indices(m + 1)
        n_b = top - n_f
        row_starts = np.cumsum(n_f + 1) - (n_f + 1)
        cell = np.repeat(np.arange(n_f.size), n_f + 1)
        at = n_f[cell] * (m + 1) + np.arange(cell.size) - row_starts[cell]
        # Only rows where some key may decode are listed; per listed row
        # the FD part of the sum, w_f[k] and n_b
        listed = _rows_that_can_decode(fd[at], n_b[cell], min(p_bl, p_bn), [
            t for key in keys for t in b.thresholds(*key[:2])])
        cell, at = cell[listed], at[listed]
        row_fd, row_w_f, row_b = fd[at], pmfs[at], n_b[cell]
        # The listed cells, where their rows start and end, and their
        # listed partitions; a cell with none stays 0.0, fsum([])
        bounds = np.append(np.flatnonzero(np.diff(cell, prepend=-1)),
                           cell.size)
        cells = cell[bounds[:-1]]
        sizes = np.diff(bounds) * (n_b[cells] + 1)
        ends = np.cumsum(sizes)
        fsum = math.fsum

        def run_cells(run: slice, rows: slice) -> list[float]:
            """The listed cells ``run`` for every key, key-major; the
            run's temporaries go when it returns."""
            width = row_b[rows] + 1
            starts = np.cumsum(width) - width
            # the flat (n_b, h) of each partition, h = 0..n_b along a row
            bt = np.repeat(row_b[rows] * (m + 1) - starts, width) + np.arange(
                starts[-1] + width[-1])
            interference = {False: (np.repeat(row_fd[rows], width) + bl[bt])
                            + bn[bt]}
            if any(relay for _, _, relay in keys):
                interference[True] = interference[False] + p_relay
            w_f, w_b = np.repeat(row_w_f[rows], width), pmfs[bt]
            # Terms indexed [partition, state], per link
            terms = {link: np.stack([(w * w_f) * w_b for w in weights], 1)
                     for link, weights in w_state.items()}
            live = {link: t != 0.0 for link, t in terms.items()}
            firsts = np.cumsum(sizes[run]) - sizes[run]
            picked, counts = [], []
            for link, scheme, relay in keys:
                ok = np.stack([interference[relay] <= t
                               for t in b.thresholds(link, scheme)], 1)
                ok &= live[link]
                picked.append(terms[link][ok])
                counts.append(np.add.reduceat(ok.ravel(),
                                              firsts * ok.shape[1]))
            values = memoryview(np.concatenate(picked))
            stops = np.cumsum(np.concatenate(counts)).tolist()
            return [fsum(values[a:z]) for a, z in zip([0, *stops], stops)]

        out = np.zeros((len(keys), m + 1, m + 1))
        lo = 0
        while lo < cells.size:
            hi = max(lo + 1, int(np.searchsorted(
                ends, ends[lo] - sizes[lo] + _RUN_PARTITIONS, "right")))
            run = slice(lo, hi)
            out[:, n_f[cells[run]], n_b[cells[run]]] = np.reshape(
                run_cells(run, slice(bounds[lo], bounds[hi])),
                (len(keys), -1))
            lo = hi
        return dict(zip(keys, out))

    def grid(self, link: str, scheme: str, relay: bool = False) -> np.ndarray:
        """S[n_f, n_b] of one key, valid for n_f + n_b <= N."""
        key = (link, scheme, bool(relay))
        if key not in self._grids:
            raise ValueError(
                f"no success array for {key!r}: the relay interferes "
                "only at the mmAP, never with its own packet; the keys "
                f"are {[*_KEYS['ur'], *_KEYS['ud']]}")
        return self._grids[key]

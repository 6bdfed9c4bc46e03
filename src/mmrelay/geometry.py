"""Node geometry, blockage probabilities, path loss and link budgets.

The network is reduced to three scalars shared by all (symmetric) user
nodes: the UE-relay ground distance, the UE-access-point ground distance,
and the angle between relay and access point seen from a UE. Propagation
follows 3GPP TR 38.901 UMi-Street-Canyon (LOS probability Table 7.4.2-1,
path loss Table 7.4.1-1) with shadow fading disabled, so a reception's
SINR is fully determined once every involved link's LOS/NLOS state is
fixed. Antennas use the ideal sectored pattern: constant gain 2*pi/theta
inside the main lobe, zero outside.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field, fields, replace
from enum import Enum

SPEED_OF_LIGHT = 3.0e8  # m/s, as used by TR 38.901 breakpoint formula

# Effective environment height for UMi breakpoint distance (Table 7.4.1-1 note 1)
_H_ENV = 1.0

# Bit pattern of +inf: the nonnegative float64 values, +inf included, are
# the patterns 0 .. _INF_BITS, in the same order as the values.
_INF_BITS = 0x7FF0000000000000
# Half-width, in float64 steps, of the seeded bracket of a decode threshold.
_SEED_ULPS = 64

# TR 38.901 formulas are calibrated down to 10 m; we evaluate below that but
# refuse distances under this hard floor.
MIN_PATH_LOSS_DISTANCE_M = 1.0


class LinkState(Enum):
    LOS = "los"
    NLOS = "nlos"


_UNIT = (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_POSITIVE = (lambda v: v > 0.0, "be strictly positive")
_BEAMWIDTH = (lambda v: 0.0 < v <= 360.0, "lie in (0, 360]")

# Domains of the float fields of ScenarioConfig beyond being finite; the
# dB-valued fields (gamma_db, p_t_dbm, p_n_dbm) have none.
_FIELD_DOMAINS = {
    "q_u": _UNIT, "q_uf": _UNIT, "q_ur": _UNIT, "q_r": _UNIT, "alpha": _UNIT,
    "f_c_ghz": _POSITIVE, "h_ap_m": _POSITIVE, "h_ue_m": _POSITIVE,
    "d_ur_m": _POSITIVE, "d_ud_m": _POSITIVE,
    "theta_rd_deg": (lambda v: 0.0 < v < 180.0, "lie in (0, 180)"),
    "theta_bw_fd_deg": _BEAMWIDTH, "theta_bw_br_deg": _BEAMWIDTH,
}


# Most UEs a scenario may have. The exact analysis keeps one stored-count
# pmf of 2 * (N + 3) doubles per distinct input, and where every one of
# the C(N + 3, 3) configurations has its own (d_ur_m = 100, d_ud_m = 150,
# gamma_db = 0, say), a cold analysis at N = 128 peaks near 800 MB of
# resident memory and takes about 8 s of CPU (the default radio: 116 MB
# and 1.9 s). The bound keeps a cold analysis under 1 GB whatever the
# radio, and admits the simulator's int16 counts (N > 127).
MAX_N_UES = 128


def check_integer(name: str, value, low: int) -> None:
    """Reject, naming it, a value that is no integer >= ``low``; any
    ``numbers.Integral`` but bool is an integer."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Every free parameter of the model.

    Defaults are the urban-microcell operating point used throughout the
    bundled sweep recipes: 30 GHz carrier, 24 dBm transmit power, -80 dBm
    noise, 10 m / 1.5 m antenna heights, 30 m and 50 m UE distances,
    10 dB SINR threshold, residual inter-beam leakage 0.1, and 5-degree
    beams for fully directional (FD) transmissions. Broadcast (BR)
    transmissions default to a beamwidth equal to ``theta_rd_deg`` so the
    beam covers relay and access point simultaneously. ``q_r`` defaults
    to 1 (work-conserving relay).
    """

    n_ues: int = 10
    q_u: float = 0.1      # P(UE transmits in a slot)
    q_uf: float = 0.5     # P(FD scheme | transmitting); q_ub = 1 - q_uf
    q_ur: float = 0.5     # P(aim at relay | FD);        q_ud = 1 - q_ur
    q_r: float = 1.0      # P(relay transmits | queue nonempty)
    gamma_db: float = 10.0
    alpha: float = 0.1    # residual inter-beam interference coefficient
    p_t_dbm: float = 24.0
    p_n_dbm: float = -80.0
    f_c_ghz: float = 30.0
    h_ap_m: float = 10.0
    h_ue_m: float = 1.5
    d_ur_m: float = 30.0
    d_ud_m: float = 50.0
    theta_rd_deg: float = 30.0
    theta_bw_fd_deg: float = 5.0
    theta_bw_br_deg: float | None = None  # None -> theta_rd_deg

    def __post_init__(self) -> None:
        for f in fields(self):
            self.check_field(f.name, getattr(self, f.name))
        # a numpy integer would make every count derived from N a numpy float
        object.__setattr__(self, "n_ues", int(self.n_ues))
        # A BR beam must cover both receivers whenever BR transmissions can occur.
        if self.q_uf < 1.0 and self.theta_bw_br < self.theta_rd_deg:
            raise ValueError(
                "theta_bw_br_deg must be >= theta_rd_deg when BR transmissions "
                f"are enabled (q_uf={self.q_uf}): "
                f"{self.theta_bw_br} < {self.theta_rd_deg}")

    @staticmethod
    def check_field(name: str, value) -> None:
        """Reject, naming the field, a value outside ``name``'s own domain.

        n_ues is an integer >= 1 (``check_integer``) and at most
        ``MAX_N_UES``, other numbers finite and not bool; cross-field
        constraints are left to ``__post_init__``.
        """
        if name == "n_ues":
            check_integer(name, value, 1)
            if value > MAX_N_UES:
                raise ValueError(
                    f"n_ues must be at most {MAX_N_UES}, got {value!r}: the "
                    "exact analysis's memory grows as N**4 (up to about "
                    f"800 MB at N = {MAX_N_UES})")
            return
        if name == "theta_bw_br_deg" and value is None:
            return
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        if name in _FIELD_DOMAINS:
            inside, domain = _FIELD_DOMAINS[name]
            if not inside(value):
                raise ValueError(f"{name} must {domain}, got {value!r}")

    @property
    def q_ub(self) -> float:
        return 1.0 - self.q_uf

    @property
    def q_ud(self) -> float:
        return 1.0 - self.q_ur

    @property
    def theta_bw_br(self) -> float:
        """BR beamwidth in degrees (defaults to the relay/mmAP separation)."""
        if self.theta_bw_br_deg is None:
            return self.theta_rd_deg
        return self.theta_bw_br_deg

    def radio_key(self) -> tuple:
        """All fields but n_ues, q_u, q_uf, q_ur, q_r; theta_bw_br resolved.

        ``LinkBudget`` and ``SuccessTable`` read exactly these, so two
        configurations with equal keys have equal success arrays.
        """
        return tuple(self.theta_bw_br if name == "theta_bw_br_deg"
                     else getattr(self, name) for name in _RADIO_FIELDS)

    def replace(self, **changes) -> "ScenarioConfig":
        return replace(self, **changes)


# Every field but those of the UE population and its activity (see
# ScenarioConfig.radio_key).
_RADIO_FIELDS = tuple(f.name for f in fields(ScenarioConfig) if f.name not in
                      ("n_ues", "q_u", "q_uf", "q_ur", "q_r"))


@dataclass(frozen=True)
class Link:
    """A directed transmitter->receiver link with its blockage probability."""

    d_2d_m: float
    h_tx_m: float
    h_rx_m: float
    p_los: float
    d_3d_m: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.d_2d_m > 0.0:
            raise ValueError(f"link distance must be positive, got {self.d_2d_m!r}")
        if not (0.0 <= self.p_los <= 1.0):
            raise ValueError(f"p_los must lie in [0, 1], got {self.p_los!r}")
        dh = self.h_rx_m - self.h_tx_m
        object.__setattr__(self, "d_3d_m", math.hypot(self.d_2d_m, dh))


def relay_mmap_distance(d_ur_m: float, d_ud_m: float, theta_rd_deg: float) -> float:
    """Ground distance between relay and mmAP via the law of cosines.

    ``theta_rd_deg`` is the angle at the UE between the two; 0 and 180
    degrees give the collinear limits |d_ud - d_ur| and d_ur + d_ud.
    """
    if d_ur_m <= 0.0 or d_ud_m <= 0.0:
        raise ValueError("distances must be strictly positive")
    if not (0.0 <= theta_rd_deg <= 180.0):
        raise ValueError(f"theta_rd_deg must lie in [0, 180], got {theta_rd_deg!r}")
    c = math.cos(math.radians(theta_rd_deg))
    return math.sqrt(d_ur_m * d_ur_m + d_ud_m * d_ud_m - 2.0 * d_ur_m * d_ud_m * c)


def los_probability(d_2d_m: float) -> float:
    """UMi street-canyon LOS probability (TR 38.901 Table 7.4.2-1)."""
    if d_2d_m < 0.0:
        raise ValueError(f"distance must be non-negative, got {d_2d_m!r}")
    if d_2d_m <= 18.0:
        return 1.0
    return 18.0 / d_2d_m + math.exp(-d_2d_m / 36.0) * (1.0 - 18.0 / d_2d_m)


def breakpoint_distance_m(f_c_ghz: float, h_bs_m: float, h_ut_m: float) -> float:
    """UMi breakpoint distance with effective antenna heights."""
    return 4.0 * (h_bs_m - _H_ENV) * (h_ut_m - _H_ENV) * (f_c_ghz * 1e9) / SPEED_OF_LIGHT


def path_loss_db(d_3d_m: float, f_c_ghz: float, state: LinkState,
                 h_bs_m: float, h_ut_m: float) -> float:
    """UMi street-canyon path loss in dB (TR 38.901 Table 7.4.1-1, no shadowing).

    NLOS is the max of the LOS loss and the NLOS expression, so it can
    never fall below LOS at the same distance.
    """
    if d_3d_m < MIN_PATH_LOSS_DISTANCE_M:
        raise ValueError(
            f"d_3d_m={d_3d_m!r} below model validity floor "
            f"({MIN_PATH_LOSS_DISTANCE_M} m)")
    dh = h_bs_m - h_ut_m
    d_2d = math.sqrt(max(d_3d_m * d_3d_m - dh * dh, 0.0))
    d_bp = breakpoint_distance_m(f_c_ghz, h_bs_m, h_ut_m)
    if d_2d <= d_bp:
        pl_los = 32.4 + 21.0 * math.log10(d_3d_m) + 20.0 * math.log10(f_c_ghz)
    else:
        pl_los = (32.4 + 40.0 * math.log10(d_3d_m) + 20.0 * math.log10(f_c_ghz)
                  - 9.5 * math.log10(d_bp * d_bp + dh * dh))
    if state is LinkState.LOS:
        return pl_los
    pl_nlos = (35.3 * math.log10(d_3d_m) + 22.4 + 21.3 * math.log10(f_c_ghz)
               - 0.3 * (h_ut_m - 1.5))
    return max(pl_los, pl_nlos)


def beam_gain(theta_bw_deg: float) -> float:
    """Main-lobe gain of the ideal sectored antenna, 2*pi over the beamwidth."""
    if not (0.0 < theta_bw_deg <= 360.0):
        raise ValueError(f"beamwidth must lie in (0, 360] degrees, got {theta_bw_deg!r}")
    return math.tau / math.radians(theta_bw_deg)


def received_power_w(link: Link, state: LinkState, tx_gain: float, rx_gain: float,
                     p_t_dbm: float, f_c_ghz: float) -> float:
    """Received power in watts: p_t * g_tx * g_rx * 10^(-PL/10)."""
    if tx_gain < 0.0 or rx_gain < 0.0:
        raise ValueError("antenna gains must be non-negative")
    if tx_gain == 0.0 or rx_gain == 0.0:
        return 0.0
    pl = path_loss_db(link.d_3d_m, f_c_ghz, state,
                      h_bs_m=max(link.h_tx_m, link.h_rx_m),
                      h_ut_m=min(link.h_tx_m, link.h_rx_m))
    p_t_w = 10.0 ** ((p_t_dbm - 30.0) / 10.0)
    return p_t_w * tx_gain * rx_gain * 10.0 ** (-pl / 10.0)


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _float_to_bits(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


class LinkBudget:
    """What a receiver hears: received powers, radio constants and the
    decode rule, read by both the success build and the simulator.

    Links are 'ur' (UE->relay), 'ud' (UE->mmAP) and 'rd' (relay->mmAP);
    schemes are 'fd' (narrow beam to one receiver) and 'br' (wide beam
    covering both).
    The relay sits at mmAP height, which keeps its link to the mmAP
    unobstructed (p_los = 1). Receivers form one narrow beam per decoded
    stream, so every reception uses the FD beamwidth on the receive side.
    ``powers(link, scheme)`` gives a transmission's received watts as a
    (LOS, NLOS) pair. While the relay transmits, the mmAP hears its LOS FD
    beam, FD gain at both ends: ``relay_interference_w`` watts, scaled by
    alpha like any interferer on the same receive beam.

    The budget owns the decode rule. A reception with signal power s and
    interference I (watts at the receiver, before leakage) decodes when
    s / (noise_w + alpha * I) >= gamma_linear in float64. Each rounding
    step of that test is monotone in I, so for I >= 0 it holds exactly
    when I <= its threshold: the largest float (+inf included) that passes
    for that signal, or -1.0 when even I = 0 fails.
    ``thresholds(link, scheme)`` pairs them like the powers; the success
    tables and the simulator both decide by that comparison.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        d_rd = relay_mmap_distance(cfg.d_ur_m, cfg.d_ud_m, cfg.theta_rd_deg)
        self.links: dict[str, Link] = {
            "ur": Link(cfg.d_ur_m, cfg.h_ue_m, cfg.h_ap_m,
                       los_probability(cfg.d_ur_m)),
            "ud": Link(cfg.d_ud_m, cfg.h_ue_m, cfg.h_ap_m,
                       los_probability(cfg.d_ud_m)),
            "rd": Link(d_rd, cfg.h_ap_m, cfg.h_ap_m, 1.0),
        }
        self.alpha = cfg.alpha
        self._powers: dict[tuple[str, str], tuple[float, float]] = {}
        try:
            self.gain_fd = beam_gain(cfg.theta_bw_fd_deg)
            self.gain_br = beam_gain(cfg.theta_bw_br)
            self.gain_rx = self.gain_fd
            self.noise_w = 10.0 ** ((cfg.p_n_dbm - 30.0) / 10.0)
            self.gamma_linear = 10.0 ** (cfg.gamma_db / 10.0)
            for name, link in self.links.items():
                for scheme, g_tx in (("fd", self.gain_fd), ("br", self.gain_br)):
                    self._powers[name, scheme] = tuple(received_power_w(
                        link, state, g_tx, self.gain_rx, cfg.p_t_dbm,
                        cfg.f_c_ghz) for state in LinkState)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ValueError(f"link budget out of float range ({exc}); check "
                             "the dB fields, beamwidths, heights, distances "
                             "and f_c_ghz") from None
        # An infinite or NaN power or a zero noise floor would make SINR
        # NaN (inf/inf, 0/0), which no threshold test can catch later.
        for name, value in (("noise_w", self.noise_w),
                            ("gamma_linear", self.gamma_linear),
                            *((f"{link} {scheme} {state.name} received power",
                               power)
                              for (link, scheme), pair in self._powers.items()
                              for state, power in zip(LinkState, pair))):
            if not math.isfinite(value):
                raise ValueError(f"link budget out of float range: {name} is "
                                 f"{value!r}")
        if self.noise_w == 0.0:
            raise ValueError(f"noise floor underflows to 0 W at "
                             f"p_n_dbm={cfg.p_n_dbm!r}")
        self.relay_interference_w = self._powers["rd", "fd"][0]
        self._thresholds = {key: tuple(map(self._decode_threshold, pair))
                            for key, pair in self._powers.items()}

    def _decodes(self, signal: float, interference: float) -> bool:
        return signal / (self.noise_w + self.alpha * interference) \
            >= self.gamma_linear

    def _decode_threshold(self, signal: float) -> float:
        """Largest I >= 0 at which ``signal`` decodes; -1.0 for none.

        Bisection over the bit patterns of 0.0 .. +inf, at most 63 halvings.
        The real-number threshold (s / gamma - noise) / alpha seeds a bracket
        of 2 * _SEED_ULPS patterns, used only when the test confirms it; the
        seed can sit far off (cancellation in s / gamma - noise) or
        overflow, and then the bisection spans the whole range.
        """
        if not self._decodes(signal, 0.0):
            return -1.0
        if self.alpha == 0.0:
            # Interference cannot matter. (At I = +inf the test itself
            # fails, 0 * inf being NaN, but no sum of powers is infinite.)
            return math.inf
        lo, hi = 0, _INF_BITS + 1   # lo decodes; hi is past +inf
        if self.gamma_linear > 0.0:
            seed = (signal / self.gamma_linear - self.noise_w) / self.alpha
            if 0.0 <= seed < math.inf:
                bits = _float_to_bits(seed)
                a = max(bits - _SEED_ULPS, 0)
                z = min(bits + _SEED_ULPS, _INF_BITS)
                if (self._decodes(signal, _bits_to_float(a))
                        and not self._decodes(signal, _bits_to_float(z))):
                    lo, hi = a, z
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._decodes(signal, _bits_to_float(mid)):
                lo = mid
            else:
                hi = mid
        return _bits_to_float(lo)

    def powers(self, link: str, scheme: str) -> tuple[float, float]:
        """(LOS, NLOS) received watts of ``scheme`` on ``link``."""
        return self._powers[link, scheme]

    def thresholds(self, link: str, scheme: str) -> tuple[float, float]:
        """(LOS, NLOS) decode thresholds of ``scheme`` on ``link`` (above)."""
        return self._thresholds[link, scheme]

    def p_los(self, link: str) -> float:
        return self.links[link].p_los

"""Radio link budget: free-space loss, Shannon-capacity rates, transfer times.

All links (inter-satellite and satellite-to-server) share one model: isotropic
free-space path loss at the carrier frequency, thermal noise over the channel
bandwidth, and a rate at the Shannon bound for the resulting SNR. A message's
transfer time is its size over that rate plus one-way propagation and any
fixed processing delays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .orbital import SPEED_OF_LIGHT_M_S

BOLTZMANN_J_PER_K = 1.380649e-23

BITS_PER_PARAMETER = 32
MODEL_HEADER_BITS = 256  # epoch, sink id, source id, flags
CONTROL_MESSAGE_BITS = 512


def db(linear: float) -> float:
    return 10.0 * math.log10(linear)


def from_db(decibels: float) -> float:
    return 10.0 ** (decibels / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def model_size_bits(dimension: int) -> int:
    """Wire size of a model or partial update: packed parameters plus header."""
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    return dimension * BITS_PER_PARAMETER + MODEL_HEADER_BITS


@dataclass(frozen=True)
class LinkParams:
    """Transmitter, receiver, and channel characteristics shared by both ends:
    the ``[link]`` keys of a scenario file, power in dBm and each end's
    antenna gain in dBi."""

    bandwidth_hz: float
    tx_power_dbm: float
    antenna_gain_dbi: float
    carrier_hz: float
    noise_temperature_k: float
    tx_delay_s: float = 0.0
    rx_delay_s: float = 0.0
    # the link budget's distance-free factors, derived once
    signal_w: float = field(init=False, repr=False, compare=False)  # received at unit loss
    noise_w: float = field(init=False, repr=False, compare=False)
    loss_factor: float = field(init=False, repr=False, compare=False)  # 4*pi*f

    def __post_init__(self):
        for name in ("bandwidth_hz", "noise_temperature_k", "carrier_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("tx_delay_s", "rx_delay_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        power_w = _linear("tx_power_dbm", self.tx_power_dbm, dbm_to_watts, "a power in W")
        gain = _linear("antenna_gain_dbi", self.antenna_gain_dbi, from_db, "a linear gain")
        derived = {
            "signal_w": power_w * gain * gain,
            "noise_w": BOLTZMANN_J_PER_K * self.noise_temperature_k * self.bandwidth_hz,
            "loss_factor": 4.0 * math.pi * self.carrier_hz,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def _linear(name: str, decibels: float, convert, what: str) -> float:
    """``convert(decibels)``, refused by ``name`` when it overflows or rounds to 0."""
    try:
        linear = convert(decibels)
    except OverflowError:
        raise ValueError(f"{name} overflows as {what}, got {decibels}") from None
    if linear == 0.0:
        raise ValueError(f"{name} rounds to 0 as {what}, got {decibels}")
    return linear


def path_loss(distance_m: float, carrier_hz: float) -> float:
    """Free-space path loss (linear): (4*pi*f*d/c)^2, inf past the float range."""
    if distance_m <= 0:
        raise ValueError(f"distance_m must be positive, got {distance_m}")
    x = 4.0 * math.pi * carrier_hz * distance_m / SPEED_OF_LIGHT_M_S
    return x * x


def snr(params: LinkParams, distance_m: float) -> float:
    """Received signal-to-noise ratio."""
    return params.signal_w / (params.noise_w * path_loss(distance_m, params.carrier_hz))


def rate(params: LinkParams, distance_m: float) -> float:
    """Achievable rate in bit/s: B * log2(1 + SNR)."""
    return params.bandwidth_hz * math.log2(1.0 + snr(params, distance_m))


def transfer_time(params: LinkParams, distance_m: float, payload_bits: int) -> float:
    """Seconds to move ``payload_bits`` across the link.

    Serialization at the achievable rate, plus one-way propagation, plus the
    fixed transmit/receive processing delays. This is :func:`rate` written out
    over the parameters' derived factors, rounding as the composed functions do.
    """
    if payload_bits < 0:
        raise ValueError(f"payload_bits must be >= 0, got {payload_bits}")
    if distance_m <= 0:
        raise ValueError(f"distance_m must be positive, got {distance_m}")
    return transfer_times(params, distance_m, payload_bits)


def transfer_times(params: LinkParams, distance_m, payload_bits: int):
    """:func:`transfer_time`, unchecked, at a float or an array of distances.

    Both run the same operations in the same order, an array in place but for
    the two reciprocals and the log. The log is ``math.log2``, of each entry
    for an array (``np.log2`` rounds some arguments otherwise), so each entry
    equals the float answer. Where the rate rounds to 0 bit/s, as where the
    path loss overflows, or the path loss times the noise power rounds to 0, a
    float raises ``ZeroDivisionError``; an array first runs its farthest and
    nearest entries, of least rate and least loss, as floats to raise it.
    """
    if isinstance(distance_m, np.ndarray) and len(distance_m):
        d = distance_m.tolist()
        transfer_times(params, max(d), payload_bits)
        transfer_times(params, min(d), payload_bits)
    x = params.loss_factor * distance_m
    x /= SPEED_OF_LIGHT_M_S
    x *= x  # the path loss
    x *= params.noise_w
    x = params.signal_w / x  # the signal-to-noise ratio
    x += 1.0
    if isinstance(x, np.ndarray):
        x = x.tolist()
        x = np.fromiter(map(math.log2, x), float, len(x))
    else:
        x = math.log2(x)
    x *= params.bandwidth_hz  # the rate
    x = payload_bits / x
    x += distance_m / SPEED_OF_LIGHT_M_S
    # x is positive, so adding a zero delay would leave it as it is
    if params.tx_delay_s:
        x += params.tx_delay_s
    if params.rx_delay_s:
        x += params.rx_delay_s
    return x

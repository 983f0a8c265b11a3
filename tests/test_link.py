import math
from dataclasses import replace

import numpy as np
import pytest

from orbitfl.link import (
    BOLTZMANN_J_PER_K,
    CONTROL_MESSAGE_BITS,
    LinkParams,
    db,
    dbm_to_watts,
    from_db,
    model_size_bits,
    path_loss,
    rate,
    snr,
    transfer_time,
)
from orbitfl.orbital import SPEED_OF_LIGHT_M_S


def reference_link() -> LinkParams:
    # 20 MHz S-band channel, 40 dBm transmit power, 6.98 dBi antennas, 354.81 K noise
    return LinkParams(
        bandwidth_hz=20e6,
        tx_power_dbm=40.0,
        antenna_gain_dbi=6.98,
        carrier_hz=2.4e9,
        noise_temperature_k=354.81,
    )


CHORD_M = 6406.886e3  # adjacent-ring spacing of the reference constellation


def test_db_round_trip():
    for x in (1e-6, 0.5, 1.0, 42.0, 4.15e17):
        assert from_db(db(x)) == pytest.approx(x, rel=1e-12)
    assert dbm_to_watts(40.0) == pytest.approx(10.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)


def test_path_loss_reference_value():
    loss = path_loss(CHORD_M, 2.4e9)
    assert loss == pytest.approx(4.1543e17, rel=1e-3)
    assert db(loss) == pytest.approx(176.18, abs=0.05)


def test_path_loss_square_law():
    base = path_loss(1e6, 2.4e9)
    assert path_loss(2e6, 2.4e9) == pytest.approx(4 * base, rel=1e-12)
    assert path_loss(1e6, 4.8e9) == pytest.approx(4 * base, rel=1e-12)


def test_path_loss_unit_distance():
    # loss is 1 where 4*pi*f*d/c == 1
    d_unit = SPEED_OF_LIGHT_M_S / (4 * math.pi * 2.4e9)
    assert path_loss(d_unit, 2.4e9) == pytest.approx(1.0, rel=1e-12)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss(0.0, 2.4e9)


def test_snr_reference_value():
    params = reference_link()
    got = snr(params, CHORD_M)
    assert got == pytest.approx(6.115e-3, rel=1e-3)
    assert db(got) == pytest.approx(-22.14, abs=0.05)


def test_snr_decreases_with_distance():
    params = reference_link()
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = float(rng.uniform(1e4, 1e8))
        factor = float(rng.uniform(1.01, 10.0))
        assert snr(params, d * factor) < snr(params, d)
        assert rate(params, d * factor) < rate(params, d)


def test_rate_reference_value():
    assert rate(reference_link(), CHORD_M) == pytest.approx(1.759e5, rel=1e-3)


def test_rate_at_unity_snr_is_bandwidth():
    # engineered link with SNR exactly 1: rate must equal B * log2(2) = B
    d = 1e6
    loss = path_loss(d, 1e9)
    noise = BOLTZMANN_J_PER_K * 300.0 * 1e6
    params = LinkParams(
        bandwidth_hz=1e6,
        tx_power_dbm=db(noise * loss) + 30.0,
        antenna_gain_dbi=0.0,
        carrier_hz=1e9,
        noise_temperature_k=300.0,
    )
    assert rate(params, d) == pytest.approx(1e6, rel=1e-9)


def test_transfer_time_reference_value():
    params = reference_link()
    got = transfer_time(params, CHORD_M, 251_200)
    assert got == pytest.approx(1.4494, abs=2e-3)


def test_transfer_time_zero_payload_is_propagation_plus_delays():
    params = LinkParams(
        bandwidth_hz=1e6,
        tx_power_dbm=40.0,
        antenna_gain_dbi=db(2.0),
        carrier_hz=1e9,
        noise_temperature_k=300.0,
        tx_delay_s=0.25,
        rx_delay_s=0.5,
    )
    got = transfer_time(params, 3e8, 0)
    assert got == pytest.approx(3e8 / SPEED_OF_LIGHT_M_S + 0.75, rel=1e-9)


def test_transfer_time_monotone_in_payload_and_distance():
    params = reference_link()
    assert transfer_time(params, CHORD_M, 2000) > transfer_time(params, CHORD_M, 1000)
    assert transfer_time(params, 2 * CHORD_M, 1000) > transfer_time(params, CHORD_M, 1000)


def test_model_size_bits():
    # 7850 packed 32-bit parameters plus the fixed header
    assert model_size_bits(7850) == 7850 * 32 + 256
    assert model_size_bits(1) == 288
    with pytest.raises(ValueError):
        model_size_bits(0)
    assert CONTROL_MESSAGE_BITS == 512


def test_link_params_validation():
    with pytest.raises(ValueError, match="bandwidth_hz must be positive"):
        LinkParams(0.0, 30.0, 0.0, 1e9, 300.0)
    with pytest.raises(ValueError, match="noise_temperature_k must be positive"):
        LinkParams(1e6, 30.0, 0.0, 1e9, -300.0)
    for key in ("tx_delay_s", "rx_delay_s"):
        with pytest.raises(ValueError, match=rf"^{key} must be >= 0, got -1\.0$"):
            LinkParams(1e6, 30.0, 0.0, 1e9, 300.0, **{key: -1.0})
    # a power in dBm or a gain in dBi whose linear form a float cannot hold
    for power_dbm, gain_dbi, problem in [
        (1e20, 0.0, "tx_power_dbm overflows as a power in W, got 1e+20"),
        (-4000.0, 0.0, "tx_power_dbm rounds to 0 as a power in W, got -4000.0"),
        (30.0, 1e5, "antenna_gain_dbi overflows as a linear gain, got 100000.0"),
        (30.0, -4000.0, "antenna_gain_dbi rounds to 0 as a linear gain, got -4000.0"),
    ]:
        with pytest.raises(ValueError) as err:
            LinkParams(1e6, power_dbm, gain_dbi, 1e9, 300.0)
        assert str(err.value) == problem


# the received power at unit loss is the transmit power times both antennas' gain
def test_signal_is_the_power_times_both_gains():
    params = reference_link()
    assert params.signal_w == dbm_to_watts(40.0) * from_db(6.98) * from_db(6.98)


def test_transfer_time_is_serialization_plus_propagation():
    params = reference_link()
    want = 251_200 / rate(params, CHORD_M) + CHORD_M / SPEED_OF_LIGHT_M_S
    assert transfer_time(params, CHORD_M, 251_200) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("delays", [(0.0, 0.0), (0.25, 0.5)])
@pytest.mark.parametrize("distance_m", [1.0, CHORD_M, 2.1e7, 4.2e8])
@pytest.mark.parametrize("payload_bits", [0, 512, 251_200])
def test_transfer_time_rounds_as_the_composed_link_budget(delays, distance_m, payload_bits):
    tx_delay_s, rx_delay_s = delays
    params = replace(reference_link(), tx_delay_s=tx_delay_s, rx_delay_s=rx_delay_s)
    want = (
        payload_bits / rate(params, distance_m)
        + distance_m / SPEED_OF_LIGHT_M_S
        + tx_delay_s
        + rx_delay_s
    )
    assert transfer_time(params, distance_m, payload_bits) == want


def test_transfer_time_rejects_a_bad_distance_or_payload():
    params = reference_link()
    for distance_m in (0.0, -1.0):
        with pytest.raises(ValueError, match="distance_m must be positive"):
            transfer_time(params, distance_m, 512)
    with pytest.raises(ValueError, match="payload_bits must be >= 0"):
        transfer_time(params, CHORD_M, -1)

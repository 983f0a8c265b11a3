# How fast do models move? Shannon rate and transfer time versus distance
# for the default radio, plus the sizes that actually cross the links.

from orbitfl import LinkParams, model_dimension, model_size_bits
from orbitfl.link import rate, transfer_time

# the [link] keys of a scenario file, as the file writes them: 40 dBm into a
# 6.98 dBi antenna at each end
params = LinkParams(
    bandwidth_hz=20e6,
    tx_power_dbm=40.0,
    antenna_gain_dbi=6.98,
    carrier_hz=2.4e9,
    noise_temperature_k=354.81,
)

dim = model_dimension(784, 10)
model_bits = model_size_bits(dim)
print(f"model: {dim} parameters -> {model_bits} bits on the wire")
print(f"control message: 512 bits")
print()

print(f"{'distance':>12} {'rate':>12} {'model':>10} {'control':>10}")
for km in (500, 1000, 2000, 6407, 12000, 20000, 33500):
    d = km * 1000.0
    r = rate(params, d)
    t_model = transfer_time(params, d, model_bits)
    t_ctrl = transfer_time(params, d, 512)
    print(f"{km:>9} km {r / 1e6:>8.2f} Mbps {t_model:>8.3f} s {t_ctrl * 1000:>7.2f} ms")

# 6407 km is the chord between ring neighbors in the default shell; the
# 12000-33500 km rows bracket the slant range to a server orbiting higher up.

"""Walk through the constellation geometry layer.

Builds the default five-plane Walker shell, prints a few orbital facts, and
lists the first server contact for one satellite per plane.
"""

import math

from orbitfl import build_constellation, reference_scenario
from orbitfl.orbital import (
    ContactPlan,
    intra_plane_isl_feasible,
    max_isl_range_km,
    orbital_period,
    orbital_speed,
)

cfg = reference_scenario(seed=0)
con = build_constellation(cfg)

period = orbital_period(cfg.altitude_km)
print(f"{cfg.num_planes} planes x {cfg.sats_per_plane} satellites at {cfg.altitude_km:.0f} km")
print(f"orbital period  {period / 60:.1f} min")
print(f"orbital speed   {orbital_speed(cfg.altitude_km) / 1000:.2f} km/s")
print(f"isl range limit {max_isl_range_km(cfg.altitude_km, cfg.altitude_km):.0f} km")

orbit = con.orbits[0]
chord = 2.0 * orbit.radius_km * math.sin(math.pi / orbit.num_satellites)
print(f"ring chord      {chord:.0f} km "
      f"({'ok' if intra_plane_isl_feasible(orbit) else 'too long'} for neighbor links)")

print()
print("first server contact per plane (satellite ids are plane-ordered):")
# each satellite's server windows over six hours, from the scan a run reads them from
plan = ContactPlan(con, 6 * 3600.0)
for plane in con.plane_indices():
    sat = con.ring_ids(plane)[0]
    w = plan.window(sat, 0.0)
    if w is None:
        print(f"  plane {plane}: satellite {sat} sees no server within 6 h")
        continue
    print(f"  plane {plane}: satellite {sat} from {w.start_s:8.1f} s "
          f"to {w.end_s:8.1f} s ({w.duration_s / 60:.1f} min)")

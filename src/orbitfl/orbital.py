"""Circular-orbit constellation geometry, visibility, and contact prediction.

Two-body motion around a spherical, rotating Earth. Satellites move on circular
orbits grouped into equally spaced planes; ground stations rotate with the
Earth. Positions are Earth-centered inertial (ECI) three-vectors in kilometers,
returned as numpy arrays so callers can evaluate whole time grids at once.

Visibility between two satellites requires a line of sight that clears the
Earth's limb; visibility between a satellite and a ground station requires a
minimum elevation above the local horizon. Contact windows are located by a
coarse time scan refined with bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0
GRAVITATIONAL_PARAMETER_M3_S2 = 3.98e14  # Earth mu
EARTH_ROTATION_RAD_S = 7.2921159e-5  # sidereal rate
SPEED_OF_LIGHT_M_S = 299_792_458.0

PS_NODE = 0  # the parameter server's node id; satellites are numbered from 1

_TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class OrbitSpec:
    """One circular orbital plane holding equally spaced satellites.

    Satellite i of the plane sits at anomaly
    ``phase_offset_rad + 2*pi*i/num_satellites`` at t = 0 and advances at the
    plane's mean motion. ``raan_rad`` rotates the ascending node about the
    inertial z axis; ``inclination_rad`` tilts the plane off the equator.
    """

    plane_index: int
    altitude_km: float
    inclination_rad: float
    raan_rad: float
    num_satellites: int
    phase_offset_rad: float = 0.0

    def __post_init__(self):
        if self.altitude_km <= 0:
            raise GeometryError(f"altitude_km must be positive, got {self.altitude_km}")
        if not 0 <= self.inclination_rad <= math.pi:
            raise GeometryError(f"inclination_rad outside [0, pi]: {self.inclination_rad}")
        if not 0 <= self.raan_rad < _TWO_PI:
            raise GeometryError(f"raan_rad outside [0, 2*pi): {self.raan_rad}")
        if not 0 <= self.phase_offset_rad < _TWO_PI:
            raise GeometryError(f"phase_offset_rad outside [0, 2*pi): {self.phase_offset_rad}")
        if self.num_satellites < 1:
            raise GeometryError(f"num_satellites must be >= 1, got {self.num_satellites}")

    @property
    def radius_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km


@dataclass(frozen=True)
class GroundStationSpec:
    """A fixed point on the rotating Earth, with a minimum-elevation mask."""

    latitude_rad: float
    longitude_rad: float
    min_elevation_rad: float
    altitude_km: float = 0.0

    def __post_init__(self):
        if not -math.pi / 2 <= self.latitude_rad <= math.pi / 2:
            raise GeometryError(f"latitude_rad outside [-pi/2, pi/2]: {self.latitude_rad}")
        if not 0 <= self.min_elevation_rad < math.pi / 2:
            raise GeometryError(f"min_elevation_rad outside [0, pi/2): {self.min_elevation_rad}")
        if self.altitude_km < 0:
            raise GeometryError(f"altitude_km must be >= 0, got {self.altitude_km}")


@dataclass(frozen=True)
class ContactWindow:
    node_a: int
    node_b: int
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def orbital_speed(altitude_km: float) -> float:
    """Circular orbital speed in m/s at the given altitude.

    v = sqrt(mu / r) with r the orbital radius in meters.
    """
    if altitude_km < 0:
        raise GeometryError(f"altitude_km must be >= 0, got {altitude_km}")
    radius_m = (EARTH_RADIUS_KM + altitude_km) * 1000.0
    return math.sqrt(GRAVITATIONAL_PARAMETER_M3_S2 / radius_m)


def orbital_period(altitude_km: float) -> float:
    """Orbital period in seconds: circumference over circular speed."""
    radius_m = (EARTH_RADIUS_KM + altitude_km) * 1000.0
    return _TWO_PI * radius_m / orbital_speed(altitude_km)


def satellite_position(orbit: OrbitSpec, sat_index: int, t):
    """ECI position (km) of satellite ``sat_index`` of ``orbit`` at time t.

    Args:
        orbit: the plane the satellite belongs to.
        sat_index: position within the plane, 0 <= sat_index < num_satellites.
        t: seconds since epoch; scalar or ndarray.

    Returns:
        Array of shape (3,) for scalar t, or (..., 3) matching t's shape.
    """
    if not 0 <= sat_index < orbit.num_satellites:
        raise GeometryError(f"sat_index {sat_index} outside plane of {orbit.num_satellites}")
    t = np.asarray(t, dtype=float)
    theta = (
        orbit.phase_offset_rad
        + _TWO_PI * sat_index / orbit.num_satellites
        + _TWO_PI * t / orbital_period(orbit.altitude_km)
    )
    r = orbit.radius_km
    x_plane = r * np.cos(theta)
    y_plane = r * np.sin(theta)
    ci, si = math.cos(orbit.inclination_rad), math.sin(orbit.inclination_rad)
    co, so = math.cos(orbit.raan_rad), math.sin(orbit.raan_rad)
    # rotate the in-plane point by inclination about x, then by RAAN about z
    x = co * x_plane - so * ci * y_plane
    y = so * x_plane + co * ci * y_plane
    z = si * y_plane
    return np.stack([x, y, z], axis=-1)


def ground_position(station: GroundStationSpec, t, earth_angle0_rad: float = 0.0):
    """ECI position (km) of a ground station at time t.

    The station sits at its geocentric latitude/longitude on a sphere of radius
    EARTH_RADIUS_KM + altitude and rotates eastward at the sidereal rate.
    ``earth_angle0_rad`` is the Earth's rotation angle at t = 0.
    """
    t = np.asarray(t, dtype=float)
    lon = station.longitude_rad + earth_angle0_rad + EARTH_ROTATION_RAD_S * t
    r = EARTH_RADIUS_KM + station.altitude_km
    cl = math.cos(station.latitude_rad)
    x = r * cl * np.cos(lon)
    y = r * cl * np.sin(lon)
    z = np.broadcast_to(r * math.sin(station.latitude_rad), t.shape)
    return np.stack([x, y, np.asarray(z, dtype=float)], axis=-1)


def max_isl_range_km(altitude_a_km: float, altitude_b_km: float) -> float:
    """Longest line of sight between two satellites that clears the Earth.

    Sum of the two horizon distances: sqrt((r_E+h)^2 - r_E^2) for each side.
    """
    ra = EARTH_RADIUS_KM + altitude_a_km
    rb = EARTH_RADIUS_KM + altitude_b_km
    return math.sqrt(ra * ra - EARTH_RADIUS_KM**2) + math.sqrt(rb * rb - EARTH_RADIUS_KM**2)


def sat_sat_visible(pos_a, pos_b, altitude_a_km: float, altitude_b_km: float):
    """True where the inter-satellite distance is below the limb-clearing range."""
    pos_a = np.asarray(pos_a, dtype=float)
    pos_b = np.asarray(pos_b, dtype=float)
    d = np.linalg.norm(pos_a - pos_b, axis=-1)
    return d < max_isl_range_km(altitude_a_km, altitude_b_km)


def sat_ground_visible(pos_sat, pos_ground, min_elevation_rad: float):
    """True where the satellite's elevation above the station horizon meets the mask.

    Elevation is pi/2 minus the angle between the station's zenith direction and
    the station-to-satellite vector.
    """
    pos_sat = np.asarray(pos_sat, dtype=float)
    pos_ground = np.asarray(pos_ground, dtype=float)
    rel = pos_sat - pos_ground
    num = np.sum(pos_ground * rel, axis=-1)
    den = np.linalg.norm(pos_ground, axis=-1) * np.linalg.norm(rel, axis=-1)
    # sin(elevation) >= sin(mask), both angles in [-pi/2, pi/2]
    return num >= den * math.sin(min_elevation_rad)


def walker_planes(
    num_planes: int,
    sats_per_plane: int,
    altitude_km: float,
    inclination_rad: float,
    phasing_factor: int = 1,
) -> list[OrbitSpec]:
    """Equally spaced planes with a relative phase shift between neighbors.

    Plane p gets RAAN 2*pi*p/P and phase offset 2*pi*p*F/(P*K), F the phasing
    factor.
    """
    if num_planes < 1:
        raise GeometryError(f"num_planes must be >= 1, got {num_planes}")
    planes = []
    for p in range(num_planes):
        planes.append(
            OrbitSpec(
                plane_index=p,
                altitude_km=altitude_km,
                inclination_rad=inclination_rad,
                raan_rad=_TWO_PI * p / num_planes,
                num_satellites=sats_per_plane,
                phase_offset_rad=_TWO_PI * p * phasing_factor / (num_planes * sats_per_plane),
            )
        )
    return planes


def intra_plane_isl_feasible(orbit: OrbitSpec) -> bool:
    """Whether ring neighbors within the plane can always see each other.

    The ring chord between adjacent satellites is constant, so one comparison
    against the limb-clearing range settles it.
    """
    if orbit.num_satellites < 2:
        return True
    chord = 2.0 * orbit.radius_km * math.sin(math.pi / orbit.num_satellites)
    return chord < max_isl_range_km(orbit.altitude_km, orbit.altitude_km)


class Constellation:
    """Node table plus geometry queries for one scenario.

    Satellites take ids 1..K in plane order (plane 0 first, ring order within
    the plane); the parameter server is node 0 and is either a satellite on its
    own plane or a ground station. All query methods accept node ids.
    """

    def __init__(
        self,
        orbits: list[OrbitSpec],
        ps,
        earth_angle0_rad: float = 0.0,
    ):
        if not orbits:
            raise GeometryError("at least one orbital plane is required")
        self.orbits = list(orbits)
        self.ps = ps
        self.earth_angle0_rad = earth_angle0_rad
        self._sat_plane: dict[int, tuple[OrbitSpec, int]] = {}
        self._ring: dict[int, list[int]] = {}
        node = 1
        for orbit in self.orbits:
            ids = []
            for i in range(orbit.num_satellites):
                self._sat_plane[node] = (orbit, i)
                ids.append(node)
                node += 1
            self._ring[orbit.plane_index] = ids
        self.num_satellites = node - 1
        self.ps_is_satellite = isinstance(ps, OrbitSpec)
        if not self.ps_is_satellite and not isinstance(ps, GroundStationSpec):
            raise GeometryError(f"unsupported parameter server spec: {type(ps).__name__}")

    # -- node table ---------------------------------------------------------

    def satellite_ids(self) -> list[int]:
        return sorted(self._sat_plane)

    def plane_of(self, node: int) -> int:
        return self._sat_plane[node][0].plane_index

    def ring_ids(self, plane_index: int) -> list[int]:
        return list(self._ring[plane_index])

    def plane_indices(self) -> list[int]:
        return sorted(self._ring)

    def altitude_km(self, node: int) -> float:
        if node == PS_NODE:
            if not self.ps_is_satellite:
                raise GeometryError("parameter server is a ground station, not a satellite")
            return self.ps.altitude_km
        return self._sat_plane[node][0].altitude_km

    # -- geometry -----------------------------------------------------------

    def position(self, node: int, t):
        if node == PS_NODE:
            if self.ps_is_satellite:
                return satellite_position(self.ps, 0, t)
            return ground_position(self.ps, t, self.earth_angle0_rad)
        orbit, index = self._sat_plane[node]
        return satellite_position(orbit, index, t)

    def distance_km(self, a: int, b: int, t):
        return np.linalg.norm(self.position(a, t) - self.position(b, t), axis=-1)

    def visible(self, a: int, b: int, t):
        """Line-of-sight predicate between two nodes; t may be an array."""
        a_ground = a == PS_NODE and not self.ps_is_satellite
        b_ground = b == PS_NODE and not self.ps_is_satellite
        if a_ground and b_ground:
            raise GeometryError("visibility between two ground nodes is undefined")
        if a_ground or b_ground:
            ground = self.ps
            sat = b if a_ground else a
            return sat_ground_visible(
                self.position(sat, t),
                ground_position(ground, t, self.earth_angle0_rad),
                ground.min_elevation_rad,
            )
        return sat_sat_visible(
            self.position(a, t), self.position(b, t), self.altitude_km(a), self.altitude_km(b)
        )

    # -- contact prediction --------------------------------------------------

    def next_contact(
        self,
        a: int,
        b: int,
        from_t: float,
        horizon_s: float,
        *,
        step_s: float = 10.0,
        tol_s: float = 0.1,
    ) -> ContactWindow | None:
        """Earliest visibility window starting at or after ``from_t``.

        A window already open at ``from_t`` is reported with start = from_t.
        Boundaries come from a coarse scan at ``step_s`` refined by bisection to
        ``tol_s``; the window end is clamped to the horizon when visibility
        persists. Returns None when no window begins within the horizon.
        Windows shorter than ``step_s`` can be missed.
        """
        t_end = from_t + horizon_s
        if bool(self.visible(a, b, from_t)):
            start = from_t
            after_rise = from_t
        else:
            rise = self._scan_for(a, b, from_t, t_end, want=True, step_s=step_s)
            if rise is None:
                return None
            start = self._refine(a, b, rise[0], rise[1], tol_s)
            after_rise = rise[1]
        drop = self._scan_for(a, b, after_rise, t_end, want=False, step_s=step_s)
        end = t_end if drop is None else self._refine(a, b, drop[0], drop[1], tol_s)
        return ContactWindow(a, b, start, end)

    def contact_windows(
        self,
        a: int,
        b: int,
        from_t: float,
        until_t: float,
        *,
        step_s: float = 10.0,
        tol_s: float = 0.1,
    ) -> list[ContactWindow]:
        """All visibility windows between ``from_t`` and ``until_t``."""
        windows = []
        t = from_t
        while t < until_t:
            w = self.next_contact(a, b, t, until_t - t, step_s=step_s, tol_s=tol_s)
            if w is None:
                break
            windows.append(w)
            if w.end_s >= until_t:
                break
            t = w.end_s + tol_s
        return windows

    def _scan_for(self, a, b, t0, t1, want, step_s):
        """First grid time in [t0, t1] where visible == want, with the prior grid time.

        The caller guarantees visible(t0) != want. Returns (t_before, t_hit) or
        None if the state never flips on the grid.
        """
        if t1 <= t0:
            return None
        n = int(math.ceil((t1 - t0) / step_s)) + 1
        chunk = 8192
        prev_t = t0
        i = 0
        while i < n:
            ts = t0 + step_s * np.arange(i, min(i + chunk, n), dtype=float)
            ts = np.minimum(ts, t1)
            vis = np.asarray(self.visible(a, b, ts), dtype=bool)
            hits = np.nonzero(vis == want)[0]
            if hits.size:
                j = int(hits[0])
                t_before = float(ts[j - 1]) if j > 0 else prev_t
                return (t_before, float(ts[j]))
            prev_t = float(ts[-1])
            i += chunk
        return None

    def _refine(self, a, b, t_lo, t_hi, tol_s):
        """Bisect a visibility flip bracketed by (t_lo, t_hi) down to tol_s."""
        state_lo = bool(self.visible(a, b, t_lo))
        while t_hi - t_lo > tol_s:
            mid = 0.5 * (t_lo + t_hi)
            if bool(self.visible(a, b, mid)) == state_lo:
                t_lo = mid
            else:
                t_hi = mid
        return 0.5 * (t_lo + t_hi)

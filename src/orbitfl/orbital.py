"""Circular-orbit constellation geometry and contact prediction.

Two-body motion around a spherical, rotating Earth. Satellites move on circular
orbits grouped into equally spaced planes; ground stations rotate with the
Earth. Positions are Earth-centered inertial (ECI) three-vectors in kilometers.
Each node's position constants are computed once per ``Constellation``, and
``distance_km`` evaluates them at one time with ``math``. ``distances_to``
stacks the orbit constants of the satellites it is asked for, and of an
orbiting server, so that it evaluates their server distances, each at its own
time, in one numpy pass that rounds as ``distance_km`` does.

Visibility between two satellites requires a line of sight that clears the
Earth's limb; visibility between a satellite and a ground station requires a
minimum elevation above the local horizon. A ``ContactPlan`` predicts every
satellite's windows with the server, the single source of predicted windows
for a run and for ``orbitfl contacts``: one scan per satellite by conservative
advancement on the test's margin over the grid of ``tol_s`` multiples, all
scans in lockstep with one numpy evaluation per step, and each edge at the
grid time where its scan finds the flip.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0
GRAVITATIONAL_PARAMETER_M3_S2 = 3.98e14  # Earth mu
EARTH_ROTATION_RAD_S = 7.2921159e-5  # sidereal rate
SPEED_OF_LIGHT_M_S = 299_792_458.0

PS_NODE = 0  # the parameter server's node id; satellites are numbered from 1

_TWO_PI = 2.0 * math.pi
# two satellites that pass closer than this (10 m) collide
MIN_SEPARATION_KM = 0.01


class GeometryError(ValueError):
    pass


class AngleRangeError(GeometryError):
    """An angle outside its allowed range, kept as numbers so that a caller
    whose users write another unit can restate the rule with ``describe``."""

    def __init__(self, name: str, value: float, low: float, high: float, high_open: bool):
        self.name, self.low, self.high, self.high_open = name, low, high, high_open
        super().__init__(self.describe(name, value))

    def describe(self, name: str, value: float, convert=float) -> str:
        """The rule for ``name`` with its bounds passed through ``convert``."""
        close = ")" if self.high_open else "]"
        return f"{name} outside [{convert(self.low):g}, {convert(self.high):g}{close}: {value}"


def _check_angle(name: str, value: float, low: float, high: float, high_open: bool = False):
    if not (low <= value < high if high_open else low <= value <= high):
        raise AngleRangeError(name, value, low, high, high_open)


@dataclass(frozen=True)
class OrbitSpec:
    """One circular orbital plane holding equally spaced satellites.

    Satellite i of the plane sits at anomaly
    ``phase_offset_rad + 2*pi*i/num_satellites`` at t = 0 and advances at the
    plane's mean motion. ``raan_rad`` rotates the ascending node about the
    inertial z axis; ``inclination_rad`` tilts the plane off the equator.
    """

    altitude_km: float
    inclination_rad: float
    raan_rad: float
    num_satellites: int
    phase_offset_rad: float = 0.0

    def __post_init__(self):
        if self.radius_km <= EARTH_RADIUS_KM:  # also an altitude that rounds away
            raise GeometryError(
                f"altitude_km must raise the orbit above the Earth's radius of "
                f"{EARTH_RADIUS_KM:g} km, got {self.altitude_km}"
            )
        _check_angle("inclination_rad", self.inclination_rad, 0.0, math.pi)
        _check_angle("raan_rad", self.raan_rad, 0.0, _TWO_PI, high_open=True)
        _check_angle("phase_offset_rad", self.phase_offset_rad, 0.0, _TWO_PI, high_open=True)
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
        _check_angle("latitude_rad", self.latitude_rad, -math.pi / 2, math.pi / 2)
        _check_angle("min_elevation_rad", self.min_elevation_rad, 0.0, math.pi / 2, high_open=True)
        if self.altitude_km < 0:
            raise GeometryError(f"altitude_km must be >= 0, got {self.altitude_km}")


@dataclass(frozen=True)
class ContactWindow:
    """A span in which ``satellite`` sees the server."""

    satellite: int
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


class _OrbitTrack:
    """Position constants of satellite ``sat_index`` of ``orbit`` (see OrbitSpec)."""

    __slots__ = ("horizon_km", "theta0", "period", "r", "co", "so", "si", "so_ci", "co_ci")

    def __init__(self, orbit: OrbitSpec, sat_index: int):
        self.theta0 = orbit.phase_offset_rad + _TWO_PI * sat_index / orbit.num_satellites
        self.period = orbital_period(orbit.altitude_km)
        self.r = orbit.radius_km
        self.horizon_km = _horizon_km(self.r)
        ci, self.si = math.cos(orbit.inclination_rad), math.sin(orbit.inclination_rad)
        self.co, self.so = math.cos(orbit.raan_rad), math.sin(orbit.raan_rad)
        self.so_ci = self.so * ci
        self.co_ci = self.co * ci

    def at(self, t, m):
        theta = self.theta0 + _TWO_PI * t / self.period
        x_plane = self.r * m.cos(theta)
        y_plane = self.r * m.sin(theta)
        # rotate the in-plane point by inclination about x, then by RAAN about z
        return (
            self.co * x_plane - self.so_ci * y_plane,
            self.so * x_plane + self.co_ci * y_plane,
            self.si * y_plane,
        )


class _GroundTrack:
    """Position and elevation-mask constants of a ground station on the rotating Earth."""

    __slots__ = ("lon0", "r_cl", "z", "sin_mask")

    def __init__(self, station: GroundStationSpec):
        r = EARTH_RADIUS_KM + station.altitude_km
        self.lon0 = station.longitude_rad
        self.r_cl = r * math.cos(station.latitude_rad)
        self.z = r * math.sin(station.latitude_rad)
        self.sin_mask = math.sin(station.min_elevation_rad)

    def at(self, t, m):
        lon = self.lon0 + EARTH_ROTATION_RAD_S * t
        return (self.r_cl * m.cos(lon), self.r_cl * m.sin(lon), self.z)


def _distance(a, b, sqrt):
    dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    return sqrt(dx * dx + dy * dy + dz * dz)


def _elevation_margin(sat, ground, sin_mask, sqrt):
    """|g| |r| (sin(elevation) - sin(mask)) for station g and r = sat - g."""
    gx, gy, gz = ground
    rx, ry, rz = sat[0] - gx, sat[1] - gy, sat[2] - gz
    num = gx * rx + gy * ry + gz * rz
    den = sqrt(gx * gx + gy * gy + gz * gz) * sqrt(rx * rx + ry * ry + rz * rz)
    return num - den * sin_mask


def _curvature(sat, other) -> tuple[float, float, float, float]:
    """Constants (k0, k1, low, speed) of bounds on the pair's margin''.

    With d = sat - other, |d| >= low at all times and |d'| <= speed, and
    margin'' <= k0 always, margin'' >= -(k0 + k1 / L) while |d| >= L.
    Between satellites the margin is range - |d|, and |d|'' is
    |d'_perp|^2 / |d| >= 0, at most |d'|^2 / |d|, plus d.d'' / |d|, where
    |d'| <= v_a + v_b and |d''| <= v_a^2 / r_a + v_b^2 / r_b, the two
    centripetal accelerations. With a station g (|g| = G, at r_cl from the
    axis, turning at w) the margin is g.d - G |d| sin(mask), whose second
    derivative g''.d + 2 g'.d' + g.d'' - G sin(mask) |d|'' is bounded term by
    term alike, with |g'| = w r_cl, |g''| = w^2 r_cl and |d| <= R + G for a
    satellite at radius R."""
    v = _TWO_PI * sat.r / sat.period
    if isinstance(other, _GroundTrack):
        g, w, r_cl = math.hypot(other.r_cl, other.z), EARTH_ROTATION_RAD_S, other.r_cl
        speed = v + w * r_cl
        accel = v * v / sat.r + w * w * r_cl
        k0 = w * r_cl * (w * (sat.r + g) + 2.0 * speed) + g * accel * (1.0 + other.sin_mask)
        return k0, other.sin_mask * g * speed * speed, abs(sat.r - g), speed
    u = _TWO_PI * other.r / other.period
    return v * v / sat.r + u * u / other.r, (v + u) ** 2, abs(sat.r - other.r), v + u


def _horizon_km(radius_km: float) -> float:
    """Distance from a satellite at ``radius_km`` to its horizon on the Earth."""
    return math.sqrt(radius_km * radius_km - EARTH_RADIUS_KM**2)


def _closest_approach_km(a: _OrbitTrack, b: _OrbitTrack) -> float:
    """The least distance between two satellites over all time; infinite
    unless they share a radius. On one radius they share a mean motion w, so
    their squared distance is c + p cos(2wt) + q sin(2wt), whose least value,
    c - hypot(p, q), its samples at t = 0, T/8 and T/4 fix."""
    if a.r != b.r:
        return math.inf
    times = (0.0, a.period / 8, a.period / 4)
    # _distance with no square root: the squared distance
    d0, d1, d2 = (_distance(a.at(t, math), b.at(t, math), lambda x: x) for t in times)
    c = (d0 + d2) / 2
    return math.sqrt(max(0.0, c - math.hypot(d0 - c, d1 - c)))


def max_isl_range_km(altitude_a_km: float, altitude_b_km: float) -> float:
    """Longest line of sight between two satellites that clears the Earth:
    the sum of their horizon distances."""
    ra, rb = EARTH_RADIUS_KM + altitude_a_km, EARTH_RADIUS_KM + altitude_b_km
    return _horizon_km(ra) + _horizon_km(rb)


def walker_planes(
    num_planes: int,
    sats_per_plane: int,
    altitude_km: float,
    inclination_rad: float,
    phasing_factor: int = 1,
) -> list[OrbitSpec]:
    """Equally spaced planes with a relative phase shift between neighbors.

    Plane p gets RAAN 2*pi*p/P and phase offset 2*pi*p*F/(P*K) mod 2*pi, F the
    phasing factor, so F and F + P*K give the same planes.
    """
    if num_planes < 1:
        raise GeometryError(f"num_planes must be >= 1, got {num_planes}")
    if sats_per_plane < 1:
        raise GeometryError(f"sats_per_plane must be >= 1, got {sats_per_plane}")
    planes = []
    for p in range(num_planes):
        phase = _TWO_PI * p * phasing_factor / (num_planes * sats_per_plane)
        planes.append(
            OrbitSpec(
                altitude_km=altitude_km,
                inclination_rad=inclination_rad,
                raan_rad=_TWO_PI * p / num_planes,
                num_satellites=sats_per_plane,
                phase_offset_rad=phase % _TWO_PI,
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

    Plane p is ``orbits[p]``: a plane's index is its place in the list, so
    equal specs are distinct planes. Satellites take ids 1..K in plane order
    (plane 0 first, ring order within the plane), and each lies on exactly one
    plane's ring; the parameter server is node 0 and is either a satellite on
    its own plane or a ground station. All query methods accept node ids.
    """

    def __init__(self, orbits: list[OrbitSpec], ps):
        if not orbits:
            raise GeometryError("at least one orbital plane is required")
        self.orbits = list(orbits)
        self.ps = ps
        # per plane, its satellites' ids in ring order; per satellite, its plane
        self._ring: list[list[int]] = []
        self._plane: dict[int, int] = {}
        tracks = []
        for p, orbit in enumerate(self.orbits):
            first = len(tracks) + 1
            self._ring.append(list(range(first, first + orbit.num_satellites)))
            self._plane.update(dict.fromkeys(self._ring[p], p))
            tracks += [_OrbitTrack(orbit, i) for i in range(orbit.num_satellites)]
        self.num_satellites = len(tracks)
        self.ps_is_satellite = isinstance(ps, OrbitSpec)
        if not self.ps_is_satellite and not isinstance(ps, GroundStationSpec):
            raise GeometryError(f"unsupported parameter server spec: {type(ps).__name__}")
        # node id -> position constants, the server first
        if self.ps_is_satellite:
            ps_track = _OrbitTrack(ps, 0)
        else:
            ps_track = _GroundTrack(ps)
        self._tracks = [ps_track] + tracks
        for n in self.satellite_ids() if self.ps_is_satellite else ():  # a station meets none
            if _closest_approach_km(self._tracks[n], ps_track) <= MIN_SEPARATION_KM:
                raise GeometryError(
                    f"satellite {n} collides with the server: they share a radius "
                    f"and pass within {MIN_SEPARATION_KM * 1000:.0f} m of each other"
                )

    # -- node table ---------------------------------------------------------

    def satellite_ids(self) -> list[int]:
        return list(range(1, self.num_satellites + 1))

    def plane_of(self, node: int) -> int:
        return self._plane[node]

    def ring_ids(self, plane_index: int) -> list[int]:
        return list(self._ring[plane_index])

    def plane_indices(self) -> list[int]:
        return list(range(len(self.orbits)))

    # -- geometry -----------------------------------------------------------

    def distance_km(self, a: int, b: int, t: float) -> float:
        """Distance between two nodes at time t."""
        return _distance(self._tracks[a].at(t, math), self._tracks[b].at(t, math), math.sqrt)

    def distances_to(self, nodes) -> _Distances:
        """The distance from each satellite of ``nodes`` to the server, as a
        function of an array t that puts ``nodes[i]`` at t[i]: its entry i
        equals ``distance_km(nodes[i], PS_NODE, t[i])`` bit for bit. Its
        ``take`` keeps some of the satellites."""
        server = self._tracks[PS_NODE]
        rows = [[self._tracks[n] for n in nodes]]
        if self.ps_is_satellite:
            rows, server = rows + [[server] * len(rows[0])], None
        # per row and satellite: theta0, period and r, and the coefficients by
        # which ``_OrbitTrack.at`` turns the in-plane x and y into x, y and z
        stack = np.array([
            [(tr.theta0, tr.period, tr.r, tr.co, tr.so, 0.0, -tr.so_ci, tr.co_ci, tr.si)
             for tr in row]
            for row in rows
        ]).reshape(len(rows), -1, 9)
        stack = np.moveaxis(stack, 2, 0).copy()
        rotation = stack[3:].reshape(2, 3, len(rows), -1).swapaxes(1, 2).copy()
        return _Distances(stack[:3, :, np.newaxis], rotation, server)


class _Distances:
    """``Constellation.distances_to``'s function: satellite i's distance to
    the server at t[i].

    Its constants are indexed [row, ..., i]: row 0 holds the satellites', and
    row 1 an orbiting server's, so that both are evaluated in one pass of
    ``_OrbitTrack.at``'s operations, and each operation runs on contiguous
    blocks. ``co * x - so_ci * y`` is computed as ``co * x + (-so_ci) * y``,
    which rounds alike, and the squared distance is summed in ``_distance``'s
    order. A ground server keeps its own ``at``.
    """

    __slots__ = ("angle", "rotation", "ground")

    def __init__(self, angle, rotation, ground: _GroundTrack | None):
        # angle: theta0, period and r, each (k, 1, n); rotation: the x and the
        # y coefficients of the three coordinates, each (k, 3, n)
        self.angle, self.rotation, self.ground = tuple(angle), tuple(rotation), ground

    def _planes(self, t):
        """Every row's in-plane x and y at t, each (k, 1, n)."""
        theta0, period, r = self.angle
        theta = _TWO_PI * t / period
        theta += theta0
        x_plane = np.cos(theta)
        x_plane *= r
        y_plane = np.sin(theta, theta)
        y_plane *= r
        return x_plane, y_plane

    def __call__(self, t):
        x_coef, y_coef = self.rotation
        x_plane, y_plane = self._planes(t)
        pos = x_coef * x_plane
        pos += y_coef * y_plane
        d = pos[0]
        if self.ground is None:
            d -= pos[1]
        else:
            for axis, coord in zip(d, self.ground.at(t, np)):
                axis -= coord
        d *= d
        squared = d[0] + d[1]
        squared += d[2]
        return np.sqrt(squared, squared)

    def motion(self, t):
        """Every row's position, as ``__call__`` computes it, and velocity at
        t, each (k, 3, n): the in-plane point turns at 2 pi / period."""
        x_coef, y_coef = self.rotation
        x_plane, y_plane = self._planes(t)
        pos = x_coef * x_plane
        pos += y_coef * y_plane
        vel = y_coef * x_plane
        vel -= x_coef * y_plane
        vel *= _TWO_PI / self.angle[1]
        return pos, vel

    def take(self, keep) -> _Distances:
        """The distances of the satellites at indices ``keep`` alone."""
        return _Distances(
            [a[..., keep] for a in self.angle], [c[..., keep] for c in self.rotation], self.ground
        )


class ContactPlan:
    """Every satellite's contact windows with the server, predicted from t = 0
    to ``end_s``.

    Each satellite has one window scan over [0, ``end_s``].
    The scans run in lockstep: each pass evaluates the margin of every running
    scan, each at its own time, in one numpy evaluation that rounds as
    ``_OrbitTrack.at``, ``_GroundTrack.at`` and ``_elevation_margin`` do under
    ``math`` at one time. So every running scan steps with the one a query
    extends, as far as that query needs, and a scan stops running at ``end_s``.

    Every time a scan evaluates is a grid time ``k * tol_s``, but ``end_s``.
    The largest h over which the margin's Taylor bound |m| + s h - M h^2 / 2
    stays positive, with s the rate at which |m| grows and M a bound on how
    fast that rate can fall (``_curvature``: -m'' inside a window, m'' outside),
    spans no zero of the margin. A scan steps from t to the last grid time that
    t + h reaches, else to the next grid time, which leaves no grid time
    between, and one float on at least. So sight flips at a scan's grid time
    just when it differs from the grid time before, and each edge is the scan
    time where it flipped: the first grid time at or after the flip. Each
    window is then a maximal run of grid times in sight, from the first of
    them to the grid time after the last, or to ``end_s``, and does not depend
    on when or in what order it is asked for, nor on which other scans stepped
    with its own.
    """

    def __init__(self, con: Constellation, end_s: float, *, tol_s: float = 0.1):
        # a scan's steps are tol_s at least, and it runs until end_s
        if not math.isfinite(end_s):
            raise ValueError(f"end_s must be finite, got {end_s}")
        if not 0.0 < tol_s < math.inf:
            raise ValueError(f"tol_s must be finite and positive, got {tol_s}")
        self.end_s, self.tol_s = end_s, tol_s
        nodes = con.satellite_ids()
        self._nodes, self._index = nodes, {n: i for i, n in enumerate(nodes)}
        self._pairs = con.distances_to(nodes)
        ground, server = self._pairs.ground, con._tracks[PS_NODE]
        # per node: the range to an orbiting server (0 with a station), then _curvature's constants
        self._const = np.array([
            (0.0 if ground else sat.horizon_km + server.horizon_km, *_curvature(sat, server))
            for sat in (con._tracks[n] for n in nodes)
        ]).reshape(-1, 5).T
        if ground:
            self._lean = math.hypot(ground.r_cl, ground.z) * ground.sin_mask
        n = len(nodes)
        # per node: the windows found so far, and whether the scan has ended
        self._windows: list[list[ContactWindow]] = [[] for _ in range(n)]
        self._done = [end_s <= 0.0] * n
        # one entry per running scan: its node, whether the node sees the server
        # at the time it has come to, and the next time evaluated
        self._rows = np.arange(n)
        self._inside, self._at = self._look(np.zeros(n))
        # per node: the start of the window open since the last edge, or None
        self._open = [0.0 if seen else None for seen in self._inside.tolist()]

    def window(self, node: int, t: float) -> ContactWindow | None:
        """The window open at t, else the next one before ``end_s``, else None."""
        windows = self._scan(node, lambda w: w.end_s >= t)
        i = bisect.bisect_left(windows, t, key=lambda w: w.end_s)
        return windows[i] if i < len(windows) else None

    def after(self, node: int, w: ContactWindow) -> ContactWindow | None:
        """The node's next window after ``w``, else None."""
        return self.window(node, math.nextafter(w.end_s, math.inf))

    def windows(self, node: int) -> list[ContactWindow]:
        """Every window before ``end_s``, in time order."""
        return list(self._scan(node, lambda w: False))

    def _scan(self, node: int, enough) -> list[ContactWindow]:
        """The node's windows, its scan run on until ``enough`` holds for the
        last one found or the scan ends; every running scan steps with it."""
        i = self._index[node]
        windows = self._windows[i]
        while not (self._done[i] or windows and enough(windows[-1])):
            self._pass()
        return windows

    def _pass(self) -> None:
        """Step every running scan once, record an edge at the time of each
        that flipped, and stop each that reached ``end_s``."""
        t, was = self._at, self._inside
        inside, ahead = self._look(t)
        self._inside, self._at = inside, ahead
        rows, ended = self._rows, []
        for j in np.flatnonzero((inside != was) | (t >= self.end_s)).tolist():
            i, at = int(rows[j]), float(t[j])
            if inside[j] != was[j]:
                self._edge(i, at, bool(inside[j]))
            if at >= self.end_s:
                ended.append(j)
                self._done[i] = True
                if self._open[i] is not None:  # the span's end closes the open window
                    self._edge(i, self.end_s, False)
        if ended:
            running = np.ones(len(rows), dtype=bool)
            running[ended] = False
            self._rows, self._pairs = rows[running], self._pairs.take(running)
            self._const = self._const[:, running]
            self._inside, self._at = inside[running], ahead[running]

    def _edge(self, i: int, at: float, rising: bool) -> None:
        """Record node i's edge at ``at``: a rise opens a window, a drop closes
        the open one unless it opened at ``at``, as a rise at ``end_s`` does."""
        start, self._open[i] = self._open[i], (at if rising else None)
        if not rising and start < at:
            self._windows[i].append(ContactWindow(self._nodes[i], start, at))

    def _look(self, t):
        """Whether each running scan's node sees the server at its time t, and
        the time of its next scan step from there."""
        margin, slope, fall, rise, reach = self._taylor(t)
        inside = margin >= 0 if self._pairs.ground else margin > 0
        bound = np.where(inside, fall, rise)
        size = np.abs(margin)
        # the positive root h of size + away h - bound h^2 / 2, where away is
        # the rate at which size grows (slope inside, -slope outside), in the
        # form that does not cancel for either sign of away
        root = slope * slope
        twice = bound * size
        twice += twice
        root += twice
        np.sqrt(root, root)
        root += np.abs(slope)
        h = np.where((slope > 0) == inside, root / bound, (size + size) / root)
        np.minimum(h, reach, out=h, where=inside)
        # step to the last grid time k * tol that t + h reaches (cut to end_s
        # first, so that no quotient overflows), else to the grid time after t,
        # and by one float at least. t is a grid time, so rint finds its k. A
        # nan h, 0 / 0 at a zero margin, reaches no grid time.
        tol, end = self.tol_s, self.end_s
        h = np.floor(np.minimum(h + t, end) / tol) * tol
        h = np.where(h > t, h, (np.rint(t / tol) + 1.0) * tol)
        np.maximum(h, np.nextafter(t, np.inf), out=h)
        return inside, np.minimum(h, end, out=h)

    def _taylor(self, t):
        """Each running scan's margin at its time t, the margin's slope, bounds
        on how fast it can bend down and up, -margin'' and margin'', and how
        long from t the first holds. With d the pair's separation,
        ``_curvature``'s bound at L = max(low, |d(t)| / 2) holds while
        |d| >= L: for ever when L = low, else for |d(t)| / (2 speed)."""
        span, k0, k1, low, speed = self._const
        (pos, *server), (vel, *server_vel) = self._pairs.motion(t)
        ground = self._pairs.ground
        if ground is None:
            d, dv = pos - server[0], server_vel[0] - vel
            squares = d * d
            dist = squares[0] + squares[1]
            dist += squares[2]
            np.sqrt(dist, dist)
            margin = span - dist
            # (range - |d|)' = -d.d' / |d|
            d *= dv
            slope = d[0] + d[1]
            slope += d[2]
            slope /= dist
        else:
            g = ground.at(t, np)
            margin = _elevation_margin(pos, g, ground.sin_mask, np.sqrt)
            # with r = sat - g and |g|, |sat| constant, g.r and -|r|^2 / 2 both
            # change at the rate of g.sat, g'.sat + g.sat', g' = w (-gy, gx, 0)
            (gx, gy, gz), (sx, sy, sz), (ux, uy, uz) = g, pos, vel
            rate = gx * sy
            rate -= gy * sx
            rate *= EARTH_ROTATION_RAD_S
            rate += gx * ux
            rate += gy * uy
            rate += gz * uz
            sx, sy, sz = sx - gx, sy - gy, sz - gz
            dist = sx * sx
            dist += sy * sy
            dist += sz * sz
            np.sqrt(dist, dist)
            # the margin g.r - G |r| sin(mask) has slope rate (1 + G sin(mask) / |r|)
            slope = self._lean / dist
            slope += 1.0
            slope *= rate
        half = 0.5 * dist
        floor = np.maximum(low, half)
        fall = k1 / floor
        fall += k0
        reach = np.where(floor > low, half / speed, np.inf)
        return margin, slope, fall, k0, reach

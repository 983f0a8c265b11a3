import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from orbitfl import orbital
from orbitfl.orbital import (
    Constellation,
    ContactPlan,
    ContactWindow,
    GeometryError,
    GroundStationSpec,
    OrbitSpec,
    PS_NODE,
    intra_plane_isl_feasible,
    max_isl_range_km,
    orbital_period,
    orbital_speed,
    walker_planes,
)

from helpers import brute_windows, grid_windows, margin, pair_constellation, position, visible


MEO_PS = OrbitSpec(
    altitude_km=20000.0, inclination_rad=0.0, raan_rad=0.0, num_satellites=1
)


def reference_constellation(ps=MEO_PS):
    planes = walker_planes(5, 8, 2000.0, 80.0)
    return Constellation(planes, ps)


# Test circular speed against direct evaluation of sqrt(mu/r)
def test_orbital_speed_values():
    assert orbital_speed(2000.0) == pytest.approx(6895.2952, abs=0.01)
    assert orbital_speed(0.0) == pytest.approx(7903.8326, abs=0.01)
    assert orbital_speed(500.0) > orbital_speed(2000.0) > orbital_speed(20000.0)


def test_orbital_speed_rejects_negative_altitude():
    with pytest.raises(GeometryError):
        orbital_speed(-1.0)


def test_orbital_period_values():
    assert orbital_period(2000.0) == pytest.approx(7627.889, abs=0.1)
    assert orbital_period(20000.0) == pytest.approx(42650.9, abs=1.0)


# period * speed must equal the orbit circumference
def test_period_speed_identity():
    for h in (300.0, 2000.0, 20000.0, 35786.0):
        circumference_m = 2 * math.pi * (orbital.EARTH_RADIUS_KM + h) * 1000.0
        assert orbital_period(h) * orbital_speed(h) == pytest.approx(circumference_m, rel=1e-12)


def test_satellite_position_axis_cases():
    orbit = OrbitSpec(2000.0, 0.0, 0.0, 4)
    p = position(Constellation([orbit], MEO_PS), 1, 0.0)
    np.testing.assert_allclose(p, [8371.0, 0.0, 0.0], atol=1e-9)
    # quarter ring ahead (node 2), polar plane: the +y in-plane direction maps to +z
    polar = OrbitSpec(2000.0, math.pi / 2, 0.0, 4)
    p = position(Constellation([polar], MEO_PS), 2, 0.0)
    np.testing.assert_allclose(p, [0.0, 0.0, 8371.0], atol=1e-9)


def test_satellite_position_periodicity_and_radius():
    rng = np.random.default_rng(7)
    for _ in range(50):
        orbit = OrbitSpec(
            altitude_km=float(rng.uniform(300, 30000)),
            inclination_rad=float(rng.uniform(0, math.pi)),
            raan_rad=float(rng.uniform(0, 2 * math.pi)),
            num_satellites=int(rng.integers(1, 12)),
            phase_offset_rad=float(rng.uniform(0, 2 * math.pi)),
        )
        con = Constellation([orbit], MEO_PS)
        node = int(rng.integers(1, orbit.num_satellites + 1))
        ts = rng.uniform(0, 1e6, size=200)
        pos = position(con, node, ts, np)
        assert pos.shape == (200, 3)
        np.testing.assert_allclose(
            np.linalg.norm(pos, axis=-1), orbit.radius_km, rtol=1e-12
        )
        period = orbital_period(orbit.altitude_km)
        np.testing.assert_allclose(pos, position(con, node, ts + period, np), atol=1e-6)
        np.testing.assert_allclose(
            [con.distance_km(node, PS_NODE, t) for t in ts.tolist()],
            np.linalg.norm(pos - position(con, PS_NODE, ts, np), axis=-1),
            rtol=1e-12,
        )


def test_ground_position_pole_and_equator():
    planes = walker_planes(5, 8, 2000.0, 80.0)
    pole = Constellation(planes, GroundStationSpec(90.0, 0.0, 10.0))
    for t in (0.0, 1234.5, 86400.0):
        np.testing.assert_allclose(position(pole, PS_NODE, t), [0.0, 0.0, 6371.0], atol=1e-9)
    equator = Constellation(planes, GroundStationSpec(0.0, 0.0, 0.0))
    np.testing.assert_allclose(position(equator, PS_NODE, 0.0), [6371.0, 0.0, 0.0], atol=1e-9)
    sidereal = 2 * math.pi / orbital.EARTH_ROTATION_RAD_S
    np.testing.assert_allclose(
        position(equator, PS_NODE, sidereal), position(equator, PS_NODE, 0.0), atol=1e-6
    )


def test_max_isl_range_values():
    assert max_isl_range_km(2000.0, 2000.0) == pytest.approx(10859.83, abs=0.01)
    assert max_isl_range_km(2000.0, 20000.0) == pytest.approx(31019.76, abs=0.01)
    assert max_isl_range_km(500.0, 500.0) < max_isl_range_km(500.0, 2000.0)


def test_sat_sat_visible_ring_cases():
    # adjacent satellites of the reference ring see each other, antipodal ones do not
    con = Constellation([OrbitSpec(2000.0, math.radians(80.0), 0.0, 8)], MEO_PS)
    assert visible(con, 1, 2, 0.0)
    assert not visible(con, 1, 5, 0.0)


def test_visibility_symmetric():
    con = reference_constellation()
    rng = np.random.default_rng(11)
    nodes = con.satellite_ids() + [PS_NODE]
    for _ in range(200):
        a, b = rng.choice(nodes, size=2, replace=False)
        t = float(rng.uniform(0, 1e5))
        assert visible(con, int(a), int(b), t) == visible(con, int(b), int(a), t)


def test_sat_ground_visible_zenith_and_mask():
    # an equatorial station at longitude 0: satellite 1 is overhead at t = 0,
    # satellite 2 (its own plane) is 8000 km away at 5 degrees of elevation
    r_e = orbital.EARTH_RADIUS_KM
    low = math.radians(5.0)
    x, y = r_e + 8000.0 * math.sin(low), 8000.0 * math.cos(low)
    planes = [
        OrbitSpec(2000.0, 0.0, 0.0, 1),
        OrbitSpec(math.hypot(x, y) - r_e, 0.0, 0.0, 1, math.atan2(y, x)),
    ]
    masked = Constellation(planes, GroundStationSpec(0.0, 0.0, 10.0))
    open_sky = Constellation(planes, GroundStationSpec(0.0, 0.0, 0.0))
    np.testing.assert_allclose(position(masked, 2, 0.0), [x, y, 0.0], atol=1e-9)
    assert visible(masked, 1, PS_NODE, 0.0) and visible(open_sky, 1, PS_NODE, 0.0)
    assert not visible(masked, 2, PS_NODE, 0.0)
    assert visible(open_sky, 2, PS_NODE, 0.0)


# With a zero mask, visibility must match a line-of-sight check against the sphere:
# the station-to-satellite segment may not dip below the surface. The segment's
# closest approach to the center is the exact minimum of a quadratic in the
# path parameter.
def test_sat_ground_visible_matches_segment_oracle():
    rng = np.random.default_rng(23)
    r_e = orbital.EARTH_RADIUS_KM
    for _ in range(1000):
        lat = math.asin(rng.uniform(-1, 1))
        lon = rng.uniform(-math.pi, math.pi)
        g = r_e * np.array(
            [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
        )
        u = rng.normal(size=3)
        sat = u / np.linalg.norm(u) * rng.uniform(r_e + 200, r_e + 30000)
        seg = sat - g
        s_min = min(1.0, max(0.0, -float(g @ seg) / float(seg @ seg)))
        closest = np.linalg.norm(g + s_min * seg)
        if abs(closest - r_e) < 1e-9:
            continue  # tangent to within float noise; either verdict is defensible
        margin = orbital._elevation_margin(tuple(sat), tuple(g), 0.0, math.sqrt)
        assert (margin >= 0) == bool(closest >= r_e)


def test_walker_planes_layout():
    planes = walker_planes(5, 8, 2000.0, 80.0)
    assert len(planes) == 5
    for p, orbit in enumerate(planes):
        assert orbit.raan_rad == pytest.approx(2 * math.pi * p / 5)
        assert orbit.phase_offset_rad == pytest.approx(2 * math.pi * p / 40)
        assert orbit.num_satellites == 8


@pytest.mark.parametrize("factor", [1, 3, 10, -1])
def test_walker_phasing_factor_wraps_mod_planes_times_sats(factor):
    planes = walker_planes(5, 8, 2000.0, 80.0, phasing_factor=factor)
    same = walker_planes(5, 8, 2000.0, 80.0, phasing_factor=factor + 40)
    for a, b in zip(planes, same):
        assert 0.0 <= a.phase_offset_rad < 2 * math.pi
        assert abs(math.remainder(a.phase_offset_rad - b.phase_offset_rad, 2 * math.pi)) <= 1e-12


def test_constellation_node_table():
    con = reference_constellation()
    assert con.num_satellites == 40
    assert con.satellite_ids() == list(range(1, 41))
    assert con.plane_of(1) == 0
    assert con.plane_of(8) == 0
    assert con.plane_of(9) == 1
    assert con.plane_of(40) == 4
    assert con.ring_ids(2) == list(range(17, 25))
    assert con.ps.altitude_km == 20000.0


# A plane's index is its place in the list, so equal specs are distinct
# planes: every satellite lies on exactly one ring, its plane's.
@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from([OrbitSpec(2000.0, 1.0, 0.0, 4), OrbitSpec(1500.0, 0.5, 2.0, 1),
                                 OrbitSpec(2000.0, 1.0, 3.0, 3)]), min_size=1, max_size=5))
@example([OrbitSpec(2000.0, 1.0, 0.0, 4)] * 2)
def test_rings_partition_the_satellites(planes):
    con = Constellation(planes, MEO_PS)
    assert con.plane_indices() == list(range(len(planes)))
    rings = [con.ring_ids(p) for p in con.plane_indices()]
    assert sorted(n for ring in rings for n in ring) == con.satellite_ids()
    assert con.num_satellites == sum(orbit.num_satellites for orbit in planes)
    for p, ring in enumerate(rings):
        assert len(ring) == planes[p].num_satellites
        assert [con.plane_of(n) for n in ring] == [p] * len(ring)


def test_orbit_spec_validation():
    with pytest.raises(GeometryError):
        OrbitSpec(-10.0, 0.0, 0.0, 4)
    with pytest.raises(GeometryError):
        OrbitSpec(2000.0, 4.0, 0.0, 4)
    with pytest.raises(GeometryError):
        OrbitSpec(2000.0, 0.0, 7.0, 4)
    with pytest.raises(GeometryError):
        OrbitSpec(2000.0, 0.0, 0.0, 0)
    with pytest.raises(GeometryError):
        GroundStationSpec(math.degrees(2.0), 0.0, math.degrees(0.1))
    with pytest.raises(GeometryError):
        GroundStationSpec(math.degrees(0.5), 0.0, math.degrees(2.0))


def test_a_window_open_at_the_scan_start_starts_there():
    con = reference_constellation()
    plan = ContactPlan(con, 3600.0)
    # find a pair already visible at 0 and confirm the window opens exactly there
    for sat in con.satellite_ids():
        if visible(con, sat, PS_NODE, 0.0):
            w = plan.window(sat, 0.0)
            assert w is not None
            assert w.start_s == 0.0
            assert w.end_s > 0.0
            return
    pytest.fail("no satellite visible at t0 in the reference scenario")


def test_lasting_sight_is_one_window_cut_at_the_scan_end():
    # ring neighbors in one plane never lose sight of each other
    pair = pair_constellation(reference_constellation(), 1, 2)
    windows = ContactPlan(pair, 5100.0).windows(1)
    assert windows == [ContactWindow(1, 0.0, 5100.0)]


def test_no_window_is_open_while_the_earth_blocks_the_pair():
    # antipodal ring members: the Earth blocks them, so no window is open at t
    pair = pair_constellation(reference_constellation(), 1, 5)
    w = ContactPlan(pair, 1000.0).window(1, 0.0)
    assert w is None or w.start_s > 0.0


def test_the_open_window_ends_where_a_brute_scan_loses_sight():
    con = reference_constellation()
    plan = ContactPlan(con, 9000.0 + 20000.0)
    checked = 0
    for sat in (3, 17, 30):
        for t in (0.0, 4000.0, 9000.0):
            expected = None
            if visible(con, sat, PS_NODE, t):
                for dt in np.arange(0.0, 20000.0, 1.0).tolist():
                    if not visible(con, sat, PS_NODE, t + dt):
                        expected = dt
                        break
            else:
                expected = 0.0
            if expected is None:
                continue
            # remaining contact: the end of the window open at t, minus t
            w = plan.window(sat, t)
            got = w.end_s - t if w is not None and w.start_s <= t else 0.0
            assert got == pytest.approx(expected, abs=2.0)
            checked += 1
    assert checked >= 4


# Window prediction agrees with a dense 1 s scan over a full day's worth of
# geometry, for a satellite pair too, read through a plan whose server flies as
# the second satellite
def test_plan_windows_match_brute_windows():
    con = reference_constellation()
    horizon = 43200.0
    for a, b in ((1, PS_NODE), (23, PS_NODE), (1, 23)):
        brute = brute_windows(con, a, b, 0.0, horizon)
        plan_con, sat = (con, a) if b == PS_NODE else (pair_constellation(con, a, b), 1)
        predicted = ContactPlan(plan_con, horizon).windows(sat)
        long_brute = [w for w in brute if w[1] - w[0] > 10.0]
        assert len(predicted) >= len(long_brute)
        for bs, be in long_brute:
            match = [
                w
                for w in predicted
                if abs(w.start_s - bs) <= 2.0 and abs(w.end_s - be) <= 2.0
            ]
            assert match, f"brute window ({bs}, {be}) for pair ({a}, {b}) not predicted"
        for w in predicted:
            assert visible(con, a, b, 0.5 * (w.start_s + w.end_s))


def test_polar_station_windows_recur_every_period():
    planes = walker_planes(5, 8, 2000.0, 80.0)
    pole = GroundStationSpec(90.0, 0.0, 10.0)
    con = Constellation(planes, pole)
    period = orbital_period(2000.0)
    windows = ContactPlan(con, 43200.0).windows(1)
    assert len(windows) >= 5
    starts = [w.start_s for w in windows]
    gaps = np.diff(starts)
    np.testing.assert_allclose(gaps, period, rtol=0.2)


def test_contact_plan_window_and_after_read_the_same_windows():
    con = reference_constellation()
    plan = ContactPlan(con, 43200.0)
    windows = ContactPlan(con, 43200.0).windows(3)
    for w, nxt in zip(windows, windows[1:]):
        mid = 0.5 * (w.start_s + w.end_s)
        assert plan.window(3, mid) == w
        assert plan.window(3, w.start_s - 1.0) == w
        assert plan.window(3, math.nextafter(w.end_s, math.inf)) == nxt
    assert plan.window(3, 43200.0 + 1.0) is None


def test_contact_plan_stops_at_its_end():
    # ring neighbors never lose sight of each other: one window, cut at the end
    plan = ContactPlan(pair_constellation(reference_constellation(), 1, 2), 5000.0)
    assert plan.window(1, 100.0) == ContactWindow(1, 0.0, 5000.0)
    assert plan.windows(1) == [ContactWindow(1, 0.0, 5000.0)]


# A scan steps by tol_s at least, from t = 0 until end_s: a nan or infinite
# span or step would scan for ever, a zero step divides by zero, a negative
# one puts the windows on a negative grid, and one finer than two float
# spacings at end_s (9.1e-13 at 3600 s) has grid times that round together.
@pytest.mark.parametrize("end_s, tol_s, name", [
    (math.nan, 0.1, "end_s"), (math.inf, 0.1, "end_s"), (3600.0, math.nan, "tol_s"),
    (3600.0, math.inf, "tol_s"), (3600.0, 0.0, "tol_s"), (3600.0, -1.0, "tol_s"),
    (3600.0, 1e-20, "tol_s"), (3600.0, 1e-300, "tol_s"),
    (3600.0, math.nextafter(2 * math.ulp(3600.0), 0.0), "tol_s"),
])
def test_a_contact_plan_refuses_a_span_or_step_its_scan_cannot_take(end_s, tol_s, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        ContactPlan(reference_constellation(), end_s, tol_s=tol_s)


def test_intra_plane_isl_feasibility():
    assert intra_plane_isl_feasible(OrbitSpec(2000.0, math.radians(80.0), 0.0, 8))
    # a two-satellite ring at this altitude puts neighbors behind the limb
    assert not intra_plane_isl_feasible(OrbitSpec(2000.0, math.radians(80.0), 0.0, 2))
    assert intra_plane_isl_feasible(OrbitSpec(2000.0, 0.0, 0.0, 1))


# Two satellites of one plane fly at opposite ends of a diameter, 2r, always
# farther apart than the 2 sqrt(r^2 - R^2) their lines of sight reach, so no
# ring protocol runs on a plane of two, and a ring's fallback hop always has a
# neighbor to go to.
@settings(max_examples=200, derandomize=True, deadline=None)
@given(altitude=st.floats(1e-6, 1e9), inclination=st.floats(0.0, math.pi))
def test_no_plane_of_two_is_feasible(altitude, inclination):
    assert not intra_plane_isl_feasible(OrbitSpec(altitude, inclination, 0.0, 2))


@pytest.mark.parametrize(
    "inclination_deg, raan_deg, phase_deg, meets",
    [
        (0.0, 0.0, 0.0, True),  # on the server's orbit, at its phase
        (0.0, 90.0, 270.0, True),  # the same, reached by another node and anomaly
        (80.0, 0.0, 0.0, True),  # another plane, crossing the server's path in step
        (180.0, 0.0, 180.0, True),  # retrograde, head on
        (0.0, 0.0, 90.0, False),  # on the server's orbit, a quarter turn behind
        (80.0, 90.0, 90.0, False),  # another plane, out of step
    ],
)
def test_a_satellite_that_meets_the_server_is_rejected(inclination_deg, raan_deg, phase_deg, meets):
    inclination, raan, phase = (math.radians(a) for a in (inclination_deg, raan_deg, phase_deg))
    orbit = OrbitSpec(20000.0, inclination, raan, 1, phase)
    track, ps_track = orbital._OrbitTrack(orbit, 0), orbital._OrbitTrack(MEO_PS, 0)
    ts = np.linspace(0.0, track.period, 40001)
    brute = np.min(np.linalg.norm(np.subtract(track.at(ts, np), ps_track.at(ts, np)), axis=0))
    closest = orbital._closest_approach_km(track, ps_track)
    assert closest <= brute + 1e-6
    assert brute <= closest + 2 * orbital_speed(20000.0) / 1000.0 * (ts[1] - ts[0])
    if meets:
        with pytest.raises(GeometryError, match="satellite 1 collides with the server"):
            Constellation([orbit], MEO_PS)
    else:
        Constellation([orbit], MEO_PS)


def test_ground_ps_constellation_dispatch():
    planes = walker_planes(5, 8, 2000.0, 80.0)
    bremen = GroundStationSpec(53.08, 8.80, 10.0)
    con = Constellation(planes, bremen)
    assert not con.ps_is_satellite
    # visibility dispatch works both ways around
    t = 123.0
    assert visible(con, 1, PS_NODE, t) == visible(con, PS_NODE, 1, t)


# -- random constellations --------------------------------------------------------


@st.composite
def constellations(draw):
    planes = walker_planes(
        draw(st.integers(1, 6)),
        draw(st.integers(1, 12)),
        draw(st.floats(300.0, 3000.0)),
        draw(st.floats(0.0, 180.0)),
        phasing_factor=draw(st.integers(0, 1)),
    )
    if draw(st.booleans()):
        ps = OrbitSpec(
            draw(st.floats(300.0, 36000.0)),
            draw(st.floats(0.0, math.pi)),
            draw(st.floats(0.0, 6.28)),
            1,
        )
    else:
        ps = GroundStationSpec(
            draw(st.floats(-90.0, 90.0)),
            draw(st.floats(-180.0, 180.0)),
            draw(st.floats(0.0, math.degrees(1.5))),
            draw(st.floats(0.0, 2.0)),
        )
    try:
        return Constellation(planes, ps)
    except GeometryError:
        # a satellite on the server's radius and in step with it collides with
        # it, which no constellation may have
        reject()


# A coast evaluates many satellites' server distances, each at its own time, in
# one pass, and keeps evaluating the chains left when some stop. Every entry
# must equal the point query an event makes, for any list of satellites (none,
# repeats, the subsets left as chains drop out, up to every satellite of a
# 20 x 20 constellation), to an orbiting or a ground server.
WIDE = [
    Constellation(walker_planes(20, 20, 2000.0, 80.0), ps)
    for ps in (MEO_PS, GroundStationSpec(*map(math.degrees, (0.7, 0.3, 0.1)), 0.5))
]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(con=st.one_of(constellations(), st.sampled_from(WIDE)), data=st.data())
def test_distances_to_equal_scalar_distances(con, data):
    ids = con.satellite_ids()
    rnd = data.draw(st.randoms(use_true_random=True))
    kind = data.draw(st.sampled_from(["every", "subset", "any"]))
    if kind == "every":
        nodes = ids
    elif kind == "subset":
        keep = rnd.random()
        nodes = [n for n in ids if rnd.random() < keep]
    else:
        nodes = [rnd.choice(ids) for _ in range(rnd.randint(0, 12))]
    t = np.array([rnd.uniform(0.0, 3e6) for _ in nodes])
    distances = con.distances_to(nodes)
    want = [con.distance_km(n, PS_NODE, float(ti)) for n, ti in zip(nodes, t)]
    assert distances(t).tolist() == want
    # the chains left after some stop, as the coast re-indexes them
    going = np.array([i for i in range(len(nodes)) if rnd.random() < 0.7], dtype=np.intp)
    assert distances.take(going)(t[going]).tolist() == [want[i] for i in going]


# -- completeness of the window scan ----------------------------------------------

@st.composite
def server_pairs(draw):
    """One satellite of random radius, inclination, RAAN and phase, with an
    orbiting server drawn alike or a ground station of random latitude,
    longitude, mask and height."""
    def orbit():
        return OrbitSpec(
            draw(st.floats(300.0, 36000.0)),
            draw(st.floats(0.0, math.pi)),
            draw(st.floats(0.0, 6.28)),
            1,
            draw(st.floats(0.0, 6.28)),
        )

    if draw(st.booleans()):
        ps = orbit()
    else:
        ps = GroundStationSpec(
            draw(st.floats(-90.0, 90.0)),
            draw(st.floats(-180.0, 180.0)),
            draw(st.floats(0.0, math.degrees(1.5))),
            draw(st.floats(0.0, 2.0)),
        )
    try:
        return Constellation([orbit()], ps)
    except GeometryError:
        reject()


def _scan_margins(con, times):
    """The scan's margin, slope, bounds on -margin'' and margin'' and the reach
    of the first, for satellite 1 and the server, at each of ``times``."""
    plan = ContactPlan(con, 0.0)
    return map(np.concatenate, zip(*(plan._taylor(np.array([t])) for t in times)))


# The scan steps by a Taylor bound built from the margin, its slope and bounds
# on margin'' below and above, so each must hold: the margin is the point
# query's bit for bit, the slope is the central difference's limit, and no
# second difference over a span the bounds claim to cover falls outside them.
@settings(max_examples=100, derandomize=True, deadline=None)
@given(con=server_pairs(), data=st.data())
def test_scan_slope_and_curvature_bound_match_finite_differences(con, data):
    times = data.draw(st.lists(st.floats(10.0, 3e6), min_size=1, max_size=6))
    scan = (a.tolist() for a in _scan_margins(con, times))
    for t, m, s, fall, rise, r in zip(times, *scan):
        assert m == margin(con, 1, PS_NODE, t)
        step = 0.01
        ahead, behind = (margin(con, 1, PS_NODE, t + dt) for dt in (step, -step))
        assert abs((ahead - behind) / (2 * step) - s) <= 1e-6 * abs(s) + 1e-12 * abs(m) / step
        span = min(r, 3600.0)
        step = 1.0
        if span <= 2 * step:
            continue
        at = t + step + data.draw(st.floats(0.0, 1.0)) * (span - 2 * step)
        second = (
            margin(con, 1, PS_NODE, at + step)
            - 2 * margin(con, 1, PS_NODE, at)
            + margin(con, 1, PS_NODE, at - step)
        ) / step**2
        assert -fall <= second <= rise


# The scan's lockstep pass is the only code that decides sight, and must decide
# it as the oracle does: a satellite on a station's mask is seen, one at a
# satellite's range is not. Random times never land on a zero margin, so each
# pair is then moved onto one: a station to the Earth's centre, where every
# margin is 0 - 0, or a satellite's horizon to its distance from a server given
# none, at the first time drawn.
@settings(max_examples=100, derandomize=True, deadline=None)
@given(con=server_pairs(), data=st.data())
def test_the_scan_decides_sight_as_the_oracle_does(con, data):
    times = data.draw(st.lists(st.floats(0.0, 3e6), min_size=1, max_size=6))
    sat, ps = con._tracks[1], con._tracks[PS_NODE]
    for zero in (False, True):
        if zero and isinstance(ps, orbital._GroundTrack):
            ps.r_cl = ps.z = 0.0
        elif zero:
            sat.horizon_km, ps.horizon_km = con.distance_km(1, PS_NODE, times[0]), 0.0
        # the scan's step from a zero margin at the Earth's centre divides 0 by 0
        with np.errstate(divide="ignore", invalid="ignore"):
            plan = ContactPlan(con, 0.0)
            scan = [plan._look(np.array([t]))[0][0] for t in times]
        assert scan == [visible(con, 1, PS_NODE, t) for t in times]
        assert not zero or margin(con, 1, PS_NODE, times[0]) == 0.0


# Each window is a maximal run of the grid times k * tol_s in sight. So
# a plan at a 1 s tolerance holds exactly the windows that the grid oracle reads
# at every second, with the server and, through a pair constellation whose
# server flies as another satellite, with that satellite: each starts at its
# first visible grid time and ends at the first invisible one after it, or at
# the plan's end. A pair whose satellites meet is refused.
@settings(max_examples=40, derandomize=True, deadline=None)
@given(con=constellations(), data=st.data())
def test_plan_windows_equal_dense_scan_windows(con, data):
    ids = con.satellite_ids()
    sat = data.draw(st.sampled_from(ids))
    peers = [PS_NODE]
    if len(ids) > 1:
        peers.append(data.draw(st.sampled_from([n for n in ids if n != sat])))
    _check_plan_windows(con, sat, peers)


# Equatorial planes are one orbit, so in phase satellite 2 (plane 0) and
# satellite 4 (plane 1) fly at one place: no drawn pair meets, so this one
# runs the refusal.
def test_plan_windows_refuse_a_pair_that_meets():
    con = Constellation(walker_planes(3, 3, 1000.0, 0.0, phasing_factor=0), MEO_PS)
    assert orbital._closest_approach_km(con._tracks[2], con._tracks[4]) == 0.0
    _check_plan_windows(con, 2, [PS_NODE, 4])


def _check_plan_windows(con, sat, peers):
    end = 6 * 3600.0
    for peer in peers:
        if peer == PS_NODE:
            plan_con, node = con, sat
        elif orbital._closest_approach_km(
            con._tracks[sat], con._tracks[peer]
        ) <= orbital.MIN_SEPARATION_KM:
            with pytest.raises(GeometryError, match="satellite 1 collides with the server"):
                pair_constellation(con, sat, peer)
            continue
        else:
            plan_con, node = pair_constellation(con, sat, peer), 1
        got = ContactPlan(plan_con, end, tol_s=1.0).windows(node)
        want = grid_windows(plan_con, node, PS_NODE, end, 1.0)
        assert [(w.start_s, w.end_s) for w in got] == want, f"({sat}, {peer})"


def _sin_elevation(con, t):
    """The sine of the satellite's elevation over the station, at each of ``t``."""
    g = position(con, PS_NODE, t, np)
    r = position(con, 1, t, np) - g
    return np.sum(g * r, axis=-1) / (np.linalg.norm(g, axis=-1) * np.linalg.norm(r, axis=-1))


def _grazing(planes, latitude, longitude, near, offset):
    """The satellite of ``planes`` with a station whose mask is the satellite's
    elevation ``offset`` seconds after the pass peak within a minute of
    ``near``, found to 0.01 s, or the horizon if that is higher: the pass then
    lasts about twice ``offset``. Also the peak's time."""
    con = Constellation(planes, GroundStationSpec(latitude, longitude, 0.0))
    times = near + np.arange(-6000, 6001) * 0.01
    peak = float(times[np.argmax(_sin_elevation(con, times))])
    mask = max(0.0, math.asin(float(_sin_elevation(con, np.array([peak + offset]))[0])))
    return Constellation(planes, GroundStationSpec(latitude, longitude, math.degrees(mask))), peak


# A pass about 1 s long whose peak lies on the grid time k * tol_s, a 800 km
# satellite's pass over a station at 30 N, 10 E near the end of the first day,
# is the window [k * tol_s, (k + 1) * tol_s] however long a grid step is: no
# scan step jumps over the one grid time in sight.
@pytest.mark.parametrize("step", [30.0, 60.0, 120.0])
def test_a_pass_shorter_than_a_grid_step_is_the_window_of_its_grid_time(step):
    planes = walker_planes(1, 1, 800.0, 60.0)
    con, peak = _grazing(planes, 30.0, 10.0, 85_167.3, 0.5)
    k = round(peak / step)
    tol = peak / k
    assert [visible(con, 1, PS_NODE, j * tol) for j in (k - 1, k, k + 1)] == [False, True, False]
    windows = ContactPlan(con, 86_400.0, tol_s=tol).windows(1)
    assert ContactWindow(1, k * tol, (k + 1) * tol) in windows


@st.composite
def grazing_passes(draw):
    """One satellite of random orbit and a station of random place whose mask
    grazes the peak of one of its first day's passes, found on a 60 s grid: the
    pass lasts about twice a drawn offset from the peak, often less than the
    grid step drawn with it."""
    planes = [
        OrbitSpec(
            draw(st.floats(300.0, 20000.0)),
            draw(st.floats(0.0, math.pi)),
            draw(st.floats(0.0, 6.28)),
            1,
            draw(st.floats(0.0, 6.28)),
        )
    ]
    latitude = draw(st.floats(-math.degrees(1.5), math.degrees(1.5)))
    longitude = draw(st.floats(-180.0, 180.0))
    con = Constellation(planes, GroundStationSpec(latitude, longitude, 0.0))
    times = np.arange(1, 1440) * 60.0
    up = _sin_elevation(con, times)
    peaks = np.flatnonzero((up[1:-1] > 0.0) & (up[1:-1] >= up[:-2]) & (up[1:-1] >= up[2:])) + 1
    if not len(peaks):
        reject()
    near = float(times[draw(st.sampled_from(peaks.tolist()))])
    tol = draw(st.floats(5.0, 120.0))
    con, _ = _grazing(planes, latitude, longitude, near, draw(st.floats(0.0, 1.0)) * tol)
    return con, tol


# Over a day of grazing passes, some shorter than a grid step and some between
# two grid times, a plan's windows are exactly the maximal runs of grid times in
# sight that the oracle reads at every grid time.
@settings(max_examples=40, derandomize=True, deadline=None)
@given(case=grazing_passes())
def test_plan_windows_are_the_runs_of_grid_times_in_sight(case):
    con, tol = case
    windows = ContactPlan(con, 86_400.0, tol_s=tol).windows(1)
    assert [(w.start_s, w.end_s) for w in windows] == grid_windows(con, 1, PS_NODE, 86_400.0, tol)

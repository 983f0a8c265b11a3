import math

import numpy as np
import pytest

from orbitfl.orbital import Constellation, ContactPlan, ContactWindow, OrbitSpec, walker_planes
from orbitfl.protocol import (
    RECONNECT,
    SEND_MODEL,
    WAIT,
    ProtocolError,
    PsState,
    SatelliteState,
    build_routing_tree,
    distribution_targets,
    estimate_aggregation_time,
    fallback_next_hop,
    ring_distance,
    ring_neighbors,
    ring_position,
    select_sink,
)

from helpers import ring_hop_distances, visible


def ring(k, first=1):
    return list(range(first, first + k))


# -- ring helpers ---------------------------------------------------------------


def test_ring_position_and_errors():
    ids = ring(8)
    assert ring_position(ids, 1) == 0
    assert ring_position(ids, 8) == 7
    with pytest.raises(ProtocolError):
        ring_position(ids, 99)


def test_ring_distance_wraps():
    assert ring_distance(8, 0, 7) == 1
    assert ring_distance(8, 2, 6) == 4
    assert ring_distance(5, 0, 3) == 2
    for k in range(2, 10):
        for a in range(k):
            for b in range(k):
                assert ring_distance(k, a, b) == ring_distance(k, b, a)
                assert ring_distance(k, a, b) <= k // 2


def test_ring_neighbors():
    ids = ring(8)
    assert ring_neighbors(ids, 1) == [2, 8]
    assert ring_neighbors(ids, 5) == [4, 6]
    assert ring_neighbors(ids, 8) == [1, 7]
    assert ring_neighbors([10, 11], 10) == [11]
    assert ring_neighbors([7], 7) == []


# -- model distribution over the ring --------------------------------------------


def flood(ids, source):
    """Replay the forwarding rule; returns (receipt counts, total sends)."""
    receipts = {n: 0 for n in ids}
    sends = 0
    queue = [(source, None)]
    first_from = {}
    while queue:
        node, came_from = queue.pop(0)
        if node != source:
            receipts[node] += 1
            if node in first_from:
                continue  # duplicate: cached, never forwarded again
            first_from[node] = came_from
        for target in distribution_targets(ids, node, source, came_from):
            sends += 1
            queue.append((target, node))
    return receipts, sends

def test_flood_reaches_everyone_exactly_once_or_twice():
    for k in range(2, 13):
        ids = ring(k, first=3)
        for source in ids:
            receipts, sends = flood(ids, source)
            assert receipts[source] == 0
            others = {n: c for n, c in receipts.items() if n != source}
            assert all(c >= 1 for c in others.values())
            if k >= 4 and k % 2 == 0:
                # both wavefronts hit the antipode, nobody else twice
                twice = [n for n, c in others.items() if c == 2]
                antipode = ids[(ids.index(source) + k // 2) % k]
                assert twice == [antipode]
                assert sends == k
            else:
                assert all(c == 1 for c in others.values())
                assert sends == k - 1


def test_source_floods_both_directions():
    ids = ring(8)
    assert distribution_targets(ids, 3, 3, None) == [2, 4]
    assert distribution_targets(ids, 1, 1, None) == [2, 8]


def test_relay_forwards_away_from_source_only():
    ids = ring(8)
    # 4 got the model from 3; 5 is farther from source 3, so pass it on
    assert distribution_targets(ids, 4, 3, 3) == [5]
    # 7 is the antipode of 3: both neighbors are closer, flood dies here
    assert distribution_targets(ids, 7, 3, 6) == []
    assert distribution_targets(ids, 7, 3, 8) == []


def test_two_node_ring_single_send():
    ids = [4, 9]
    assert distribution_targets(ids, 4, 4, None) == [9]
    assert distribution_targets(ids, 9, 4, 4) == []


# -- aggregation routing tree -----------------------------------------------------


def test_reference_ring_tree_shape():
    # eight satellites, sink at 8: two chains fold inward, 4 routes via 3
    tree = build_routing_tree(ring(8), 8)
    assert tree.children[8] == (1, 7)
    assert tree.parent[5] == 6 and tree.parent[6] == 7 and tree.parent[7] == 8
    assert tree.parent[4] == 3 and tree.parent[3] == 2 and tree.parent[2] == 1
    assert tree.parent[1] == 8
    assert tree.children[4] == ()
    assert tree.depth == 4


def test_tree_antipodal_tie_takes_smaller_id():
    tree = build_routing_tree(ring(6), 1)
    # node 4 is antipodal to sink 1: neighbors 3 and 5 both two hops out
    assert tree.parent[4] == 3


def test_trees_are_spanning_and_hop_minimal():
    for k in range(2, 13):
        ids = ring(k, first=1)
        for sink in ids:
            tree = build_routing_tree(ids, sink)
            want = ring_hop_distances(k, ids.index(sink))
            seen = set()
            for node in ids:
                if node == sink:
                    continue
                hops, cursor = 0, node
                while cursor != sink:
                    cursor = tree.parent[cursor]
                    hops += 1
                    assert hops <= k, "routing loop"
                assert hops == want[ids.index(node)]
                seen.add(node)
            assert seen == set(ids) - {sink}
            assert tree.depth == k // 2
            kids = [c for tup in tree.children.values() for c in tup]
            assert sorted(kids) == sorted(set(ids) - {sink})


def test_single_node_tree():
    tree = build_routing_tree([5], 5)
    assert tree.parent == {}
    assert tree.depth == 0


# -- aggregation time estimate -----------------------------------------------------


def test_estimate_aggregation_time_cases():
    assert estimate_aggregation_time(8, 2.0, 60.0) == pytest.approx(76.0)
    assert estimate_aggregation_time(1, 2.0, 60.0) == pytest.approx(60.0)
    assert estimate_aggregation_time(2, 1.5, 10.0) == pytest.approx(13.0)
    assert estimate_aggregation_time(7, 1.0, 0.0) == pytest.approx(6.0)


# -- sink election -----------------------------------------------------------------


def window_table(spans):
    """A ``window_of`` lookup over fixed windows: {sat: (start_s, end_s)}."""

    def window_of(sat, t):
        span = spans.get(sat)
        return None if span is None else ContactWindow(sat, *span)

    return window_of


def test_select_sink_longest_remaining_contact():
    lookup = window_table(
        {11: (100.0, 160.0), 12: (500.0, 600.0), 13: (50.0, 210.0), 14: (120.0, 175.0)}
    )
    assert select_sink([11, 12, 13, 14], 120.0, lookup) == 13


def test_select_sink_tie_prefers_smallest_id():
    lookup = window_table({11: (0.0, 3610.0), 12: (0.0, 3610.0), 14: (0.0, 3610.0)})
    assert select_sink([14, 12, 11], 10.0, lookup) == 11


def test_select_sink_falls_back_to_soonest_contact():
    lookup = window_table({21: (500.0, 600.0), 22: (120.0, 220.0), 23: (300.0, 400.0)})
    assert select_sink([21, 22, 23], 30.0, lookup) == 22


def test_select_sink_no_contact_at_all():
    assert select_sink([32, 31], 30.0, window_table({})) == 31


def test_select_sink_group_of_one_skips_geometry():
    def no_lookup(sat, t):
        raise AssertionError("a group of one needs no window")

    assert select_sink([41], 30.0, no_lookup) == 41


def test_select_sink_on_real_constellation():
    orbits = walker_planes(5, 8, 2000.0, math.radians(80.0))
    ps = OrbitSpec(
        altitude_km=20000.0,
        inclination_rad=0.0,
        raan_rad=0.0,
        num_satellites=1,
    )
    con = Constellation(orbits, ps)
    plane_ids = con.ring_ids(0)
    window_of = ContactPlan(con, 5076.0 + 4 * 3600.0).window

    for t in (0.0, 900.0, 2400.0, 5000.0):
        target = t + 76.0
        chosen = select_sink(plane_ids, target, window_of)
        best = None
        for sat in plane_ids:
            if not visible(con, sat, 0, target):
                continue
            rem = window_of(sat, target).end_s - target
            if best is None or rem > best[0] or (rem == best[0] and sat < best[1]):
                best = (rem, sat)
        if best is not None:
            assert chosen == best[1]
        else:
            starts = {sat: window_of(sat, target).start_s for sat in plane_ids}
            assert starts[chosen] == min(starts.values())


# -- fallback hop choice ------------------------------------------------------------


class DistanceTable:
    def __init__(self, dists):
        self._d = dists

    def distance_km(self, a, b, t):
        return self._d[a]


def test_fallback_prefers_neighbor_nearest_server():
    geo = DistanceTable({2: 9000.0, 8: 4000.0})
    assert fallback_next_hop(geo, ring(8), 1, None, 0.0) == 8


def test_fallback_never_returns_sender():
    geo = DistanceTable({2: 9000.0, 8: 4000.0})
    assert fallback_next_hop(geo, ring(8), 1, 8, 0.0) == 2


def test_fallback_tie_takes_smaller_id():
    geo = DistanceTable({2: 5000.0, 8: 5000.0})
    assert fallback_next_hop(geo, ring(8), 1, None, 0.0) == 2


def test_fallback_exhausted_ring():
    geo = DistanceTable({9: 1.0})
    assert fallback_next_hop(geo, [4, 9], 4, 9, 0.0) is None


# -- server, one group per plane -------------------------------------------------------


def fresh_ps(num_groups=2, dim=4, totals=100):
    return PsState(
        num_groups=num_groups,
        total_samples=totals,
        global_params=np.zeros(dim),
    )


def test_ps_serves_each_plane_once():
    ps = fresh_ps()
    assert ps.handle_connection(0) == SEND_MODEL
    # second satellite of the same plane shows up while the transfer runs
    assert ps.handle_connection(0) == RECONNECT
    ps.downlink_acked(0)
    assert ps.handle_connection(0) == WAIT
    assert ps.handle_connection(1) == SEND_MODEL
    ps.downlink_acked(1)
    # every group is served now; a served group's member is still told to wait
    assert ps.handle_connection(0) == WAIT


def test_ps_epoch_roundtrip_weighted_average():
    ps = fresh_ps(num_groups=2, dim=3, totals=50)
    ps.handle_connection(0)
    ps.downlink_acked(0)
    ps.handle_connection(1)
    ps.downlink_acked(1)
    w0 = 20 * np.array([1.0, 2.0, 3.0])
    w1 = 30 * np.array([-1.0, 0.5, 2.0])
    # every group is served now; a served group's member is still told to wait
    assert ps.handle_connection(0) == WAIT
    ps.handle_partial(0, w0)
    with pytest.raises(ProtocolError, match="second aggregate"):
        ps.handle_partial(0, w0)
    assert ps.epoch == 1
    ps.handle_partial(1, w1)
    assert ps.epoch == 2
    np.testing.assert_allclose(ps.global_params, (w0 + w1) / 50.0, rtol=1e-15)
    assert ps.handle_connection(1) == SEND_MODEL


def test_ps_accepts_early_partial_during_distribution():
    # one plane finished its whole round before the other ever connected
    ps = fresh_ps(num_groups=2, dim=2, totals=10)
    ps.handle_connection(0)
    ps.downlink_acked(0)
    ps.handle_partial(0, np.ones(2))
    assert ps.epoch == 1
    assert ps.handle_connection(1) == SEND_MODEL


def test_ps_fold_order_is_ascending_plane_id():
    vals = [np.array([0.1]), np.array([0.2]), np.array([0.3e-17])]
    ps = fresh_ps(num_groups=3, dim=1, totals=1)
    for plane in (2, 0, 1):  # arrival order scrambled on purpose
        ps.handle_connection(plane)
        ps.downlink_acked(plane)
    for plane in (2, 0, 1):
        ps.handle_partial(plane, vals[plane])
    expect = ((np.zeros(1) + vals[0]) + vals[1]) + vals[2]
    assert ps.global_params.tobytes() == expect.tobytes()


# -- server, one group per satellite (the direct protocol) -------------------------------


def test_one_satellite_groups_are_served_and_folded_one_by_one():
    ps = fresh_ps(num_groups=3, dim=2, totals=30)
    assert ps.handle_connection(0) == SEND_MODEL
    assert ps.handle_connection(0) == RECONNECT
    ps.downlink_acked(0)
    # the satellite already has this epoch's model; the engine retries it later
    assert ps.handle_connection(0) == WAIT
    # uploads and downloads interleave freely
    ps.handle_partial(0, 10 * np.array([1.0, 1.0]))
    assert ps.handle_connection(1) == SEND_MODEL
    ps.downlink_acked(1)
    assert ps.handle_connection(2) == SEND_MODEL
    ps.downlink_acked(2)
    # every satellite is served now; a served one is still told to wait
    assert ps.handle_connection(0) == WAIT
    with pytest.raises(ProtocolError, match="second aggregate"):
        ps.handle_partial(0, np.zeros(2))
    ps.handle_partial(1, 10 * np.array([2.0, 0.0]))
    assert ps.epoch == 1
    ps.handle_partial(2, 10 * np.array([0.0, 2.0]))
    assert ps.epoch == 2
    np.testing.assert_allclose(ps.global_params, np.array([1.0, 1.0]), rtol=1e-15)
    assert ps.sent == set() and ps.received == {}


def test_one_satellite_groups_fold_to_the_sample_weighted_average():
    rng = np.random.default_rng(7)
    sizes = [17, 5, 28, 11]
    models = [rng.normal(size=6) for _ in sizes]
    ps = fresh_ps(num_groups=4, dim=6, totals=sum(sizes))
    for sat in range(4):
        ps.handle_connection(sat)
        ps.downlink_acked(sat)
        ps.handle_partial(sat, sizes[sat] * models[sat])
    expect = np.average(models, axis=0, weights=sizes)
    np.testing.assert_allclose(ps.global_params, expect, rtol=1e-12)


# -- satellite state -----------------------------------------------------------------


def test_satellite_reset_keeps_identity_and_holdings():
    sat = SatelliteState(group=0)
    sat.tree = build_routing_tree([3, 5], 5)
    sat.cached_partials = {2: np.ones(3)}
    sat.partial_sent = True
    sat.holding = np.ones(3)
    sat.holding_epoch = 1
    sat.reset_for_next_epoch()
    assert sat.epoch == 2
    assert sat.group == 0
    assert sat.tree is None and sat.cached_partials == {}
    assert not sat.partial_sent
    assert sat.holding is not None and sat.holding_epoch == 1

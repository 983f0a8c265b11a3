"""Synchronous federated learning over a satellite constellation, by group.

The server deals in *groups*: ordered lists of satellites that share one model
downlink and one aggregate uplink per epoch. The server hands the current model
to the first member of each group that connects; that member floods it around
the group's ring, every member trains, and sample-weighted partial sums fold
along a hop-minimal tree rooted at an elected sink, which is predicted to see
the server when aggregation finishes; the tree is built when the group is
served and travels with the model. Once every group has delivered its
aggregate, the server folds them into the next global model.

A member asking for the model is answered SEND_MODEL (the model follows) when
its group is unserved this epoch, RECONNECT while the model is in flight, and
WAIT once it is served. The asker hears one value, the epoch of a WAIT, else
None, and stops asking on a WAIT in its own epoch, as its model is on the ring.

The two transports differ only in how satellites are grouped:

* Ring-assisted ("fedisl"): each orbital plane is one group, so one downlink
  and one uplink of model parameters per plane per epoch.
* Direct ("fednonisl"): each satellite is a group of one. Its flood has no
  targets, its tree is the satellite alone, and it has no relay to hand a
  late aggregate to, so it waits for its own next server pass.

This module owns decision logic and node state; it does not schedule events or
move time. The simulator calls in with concrete times, geometry, and link
costs and carries out the returned decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import learning
from .orbital import PS_NODE

# node phases within an epoch
DISTRIBUTION = "distribution"
COMPUTATION = "computation"
AGGREGATION = "aggregation"

# the server's answers to a member asking for the model
SEND_MODEL = "send_model"
RECONNECT = "reconnect"
WAIT = "wait"


class ProtocolError(RuntimeError):
    """A node or the server received something its state rules out."""


# -- ring geometry ------------------------------------------------------------


def ring_position(ring_ids: list[int], node: int) -> int:
    try:
        return ring_ids.index(node)
    except ValueError:
        raise ProtocolError(f"node {node} is not on the ring {ring_ids}") from None


def ring_distance(num_nodes: int, pos_a: int, pos_b: int) -> int:
    ahead = (pos_a - pos_b) % num_nodes
    return min(ahead, num_nodes - ahead)


def ring_neighbors(ring_ids: list[int], node: int) -> list[int]:
    """Distinct ring neighbors of ``node``, ascending."""
    k = len(ring_ids)
    if k < 2:
        return []
    p = ring_position(ring_ids, node)
    return sorted({ring_ids[(p - 1) % k], ring_ids[(p + 1) % k]})


def distribution_targets(
    ring_ids: list[int], node: int, source: int, received_from: int | None
) -> list[int]:
    """Neighbors the node should forward a freshly received global model to.

    The source floods both directions. A relay forwards to its other neighbor
    only if that neighbor sits strictly farther from the source along the
    ring; the node where the two wavefronts meet receives from both sides and
    forwards nothing, so each epoch's flood terminates on its own.
    """
    k = len(ring_ids)
    if k < 2:
        return []
    my_dist = ring_distance(k, ring_position(ring_ids, node), ring_position(ring_ids, source))
    targets = []
    for neighbor in ring_neighbors(ring_ids, node):
        if neighbor == received_from:
            continue
        n_dist = ring_distance(
            k, ring_position(ring_ids, neighbor), ring_position(ring_ids, source)
        )
        if n_dist > my_dist:
            targets.append(neighbor)
    return targets


@dataclass(frozen=True)
class RoutingTree:
    """Hop-minimal aggregation tree over one group's ring, rooted at the sink."""

    sink: int
    parent: dict[int, int]  # node -> next hop toward the sink; sink absent
    children: dict[int, tuple[int, ...]]  # node -> ascending child ids

    @property
    def depth(self) -> int:
        longest = 0
        for node in self.parent:
            hops, cursor = 0, node
            while cursor != self.sink:
                cursor = self.parent[cursor]
                hops += 1
            longest = max(longest, hops)
        return longest


def build_routing_tree(ring_ids: list[int], sink: int) -> RoutingTree:
    """Each non-sink node points at the ring neighbor nearest the sink.

    At the single antipodal tie of an even ring, the route goes through the
    smaller-id neighbor.
    """
    k = len(ring_ids)
    sink_pos = ring_position(ring_ids, sink)
    parent: dict[int, int] = {}
    for pos, node in enumerate(ring_ids):
        if node == sink:
            continue
        best = None
        for neighbor in ring_neighbors(ring_ids, node):
            d = ring_distance(k, ring_position(ring_ids, neighbor), sink_pos)
            if best is None or d < best[0] or (d == best[0] and neighbor < best[1]):
                best = (d, neighbor)
        parent[node] = best[1]
    children: dict[int, list[int]] = {node: [] for node in ring_ids}
    for node, up in parent.items():
        children[up].append(node)
    return RoutingTree(
        sink=sink,
        parent=parent,
        children={node: tuple(sorted(kids)) for node, kids in children.items()},
    )


def estimate_aggregation_time(
    num_satellites: int, adjacent_transfer_s: float, learning_s: float
) -> float:
    """Predicted span from the source receiving the model to the sink holding
    the group's aggregate: half a ring of distribution hops, the slowest local
    training, and half a ring of aggregation hops."""
    half = num_satellites // 2
    return half * adjacent_transfer_s + learning_s + half * adjacent_transfer_s


def select_sink(group_ids: list[int], t_target: float, window_of) -> int:
    """Pick the group's delivery satellite for this epoch from predicted windows.

    ``window_of(sat, t)`` gives the satellite's server window open at t, else
    its next window before the end of the contact plan, else None. Among members
    whose window is open at ``t_target``, when aggregation is expected to
    finish, take the one with the most contact left; failing that, the one
    whose window opens soonest; failing that, the smallest id. Ties go to the
    smallest id. A group of one is its own sink, with nothing to look up.
    """
    if len(group_ids) == 1:
        return group_ids[0]
    windows = [(sat, window_of(sat, t_target)) for sat in sorted(group_ids)]
    # ranked by (seconds of contact left, negated) or by opening time, then id
    in_view = [
        (t_target - w.end_s, sat) for sat, w in windows if w is not None and w.start_s <= t_target
    ]
    if in_view:
        return min(in_view)[1]
    upcoming = [(w.start_s, sat) for sat, w in windows if w is not None]
    if upcoming:
        return min(upcoming)[1]
    return min(group_ids)  # no window left in the plan; fallback delivery will cope


def fallback_next_hop(
    constellation,
    ring_ids: list[int],
    node: int,
    exclude: int | None,
    t: float,
) -> int | None:
    """Ring neighbor currently closest to the server, never the one the
    fallback arrived from (keeps the parcel moving around the ring)."""
    candidates = [n for n in ring_neighbors(ring_ids, node) if n != exclude]
    best = None
    for neighbor in candidates:
        d = constellation.distance_km(neighbor, PS_NODE, t)
        if best is None or d < best[0] or (d == best[0] and neighbor < best[1]):
            best = (d, neighbor)
    return None if best is None else best[1]


# -- satellite state -----------------------------------------------------------


@dataclass
class SatelliteState:
    """What one satellite keeps across an epoch: only what outlives the event
    that brings it. It has the routing tree exactly when it has the epoch's
    model, which rides on to its training event. Its models are the run's
    read-only arrays, shared with the server, the ring and the event queue;
    once its partial sum is folded, it drops its update and the partials it folded.
    """

    group: int
    epoch: int = 1
    tree: RoutingTree | None = None
    trained_params: np.ndarray | None = None
    cached_partials: dict[int, np.ndarray] = field(default_factory=dict)
    partial_sent: bool = False
    # a group aggregate waiting for a server window, held by the sink or a
    # fallback recipient
    holding: np.ndarray | None = None
    holding_epoch: int = 0
    holding_from: int | None = None

    def partial_folded(self):
        """The satellite's partial sum is made; it keeps none of its inputs."""
        self.partial_sent = True
        self.trained_params = None
        self.cached_partials = {}

    def reset_for_next_epoch(self):
        self.epoch += 1
        self.tree = None
        self.trained_params = None
        self.cached_partials = {}
        self.partial_sent = False


# -- server state machine -------------------------------------------------------


@dataclass
class PsState:
    """The server: serves each group once per epoch, collects one aggregate each.

    A request is answered RECONNECT while the group's model is in flight, WAIT
    once it is served, else SEND_MODEL, which puts it in flight. A second
    aggregate is a :class:`ProtocolError`. The server never writes a model:
    the ones it holds are shared, and each epoch's is a new read-only array.
    """

    num_groups: int
    total_samples: int
    global_params: np.ndarray
    epoch: int = 1
    sent: set[int] = field(default_factory=set)
    inflight: set[int] = field(default_factory=set)
    received: dict[int, np.ndarray] = field(default_factory=dict)

    def handle_connection(self, group: int) -> str:
        """Answer a member of ``group`` asking for the model."""
        if group in self.inflight:
            return RECONNECT
        if group in self.sent:
            return WAIT
        self.inflight.add(group)
        return SEND_MODEL

    def downlink_acked(self, group: int):
        """A satellite confirmed receipt; the group is now served."""
        self.inflight.discard(group)
        self.sent.add(group)

    def handle_partial(self, group: int, weighted: np.ndarray):
        """Take the group's aggregate for this epoch; a second one is an error."""
        if group in self.received:
            raise ProtocolError(f"the server got a second aggregate from group {group}")
        self.received[group] = np.asarray(weighted, dtype=np.float64)
        if len(self.received) == self.num_groups:
            self._complete_epoch()

    def _complete_epoch(self):
        # a fixed fold order keeps replays bit-identical
        partials = [self.received[group] for group in sorted(self.received)]
        self.global_params = learning.global_aggregate(partials, self.total_samples)
        self.epoch += 1
        self.sent = set()
        self.inflight = set()
        self.received = {}

"""Brute-force oracles shared by the unit and acceptance tests.

Everything here recomputes expected values by the dumbest defensible method
(dense scans, direct enumeration, finite differences) so the library is checked
against an independent implementation, not against itself. ``position``,
``margin`` and ``visible`` are the geometry oracle: each evaluates the nodes'
tracks at one time t with ``math``, or at an array of times with numpy, which
rounds alike, and ``grid_windows`` reads sight at every grid time of a plan.
``features`` and ``augmented`` rebuild a dataset's float64 rows from the
levels it stores, the oracle that its folded products are checked against.
``write_idx_pair`` writes the IDX files that data-loading tests read, and
``read_idx_pair`` reads them back whole.
"""

import math
import struct
from pathlib import Path

import numpy as np

from orbitfl.learning import LocalDataset, partition_dataset
from orbitfl.orbital import _distance, _elevation_margin, _GroundTrack


def position(constellation, node, t, m=math):
    """The node's ECI position (km): shape (3,) at one time, else t's shape plus (3,)."""
    return np.stack(np.broadcast_arrays(*constellation._tracks[node].at(t, m)), axis=-1)


def margin(constellation, a, b, t, m=math):
    """How far inside visibility two nodes are at t, as the window scan rounds
    it: the pair's range less its distance between satellites, the elevation
    margin with a ground station."""
    sat, other = constellation._tracks[a], constellation._tracks[b]
    if isinstance(sat, _GroundTrack):
        sat, other = other, sat
    if isinstance(other, _GroundTrack):
        return _elevation_margin(sat.at(t, m), other.at(t, m), other.sin_mask, m.sqrt)
    return sat.horizon_km + other.horizon_km - _distance(sat.at(t, m), other.at(t, m), m.sqrt)


def visible(constellation, a, b, t, m=math):
    """Whether two nodes see each other at t: a station sees a satellite on
    its mask, a satellite at range does not see another."""
    inside = margin(constellation, a, b, t, m)
    if any(isinstance(constellation._tracks[n], _GroundTrack) for n in (a, b)):
        return inside >= 0
    return inside > 0


def brute_windows(constellation, a, b, t0, t1, step_s=1.0):
    """Visibility windows found by dense scanning.

    Returns a list of (start, end) grid times; each boundary is accurate to one
    grid step. A window still open at t1 is reported with end = t1.
    """
    ts = np.arange(t0, t1 + step_s, step_s)
    ts = ts[ts <= t1]
    vis = visible(constellation, a, b, ts, np)
    windows = []
    start = None
    for t, v in zip(ts, vis):
        if v and start is None:
            start = t
        elif not v and start is not None:
            windows.append((float(start), float(prev)))
            start = None
        prev = t
    if start is not None:
        windows.append((float(start), float(ts[-1])))
    return windows


def grid_windows(constellation, a, b, end_s, tol_s):
    """The (start, end) windows of a plan over [0, end_s] on the grid of
    ``k * tol_s``: each maximal run of grid times before end_s at which the
    nodes see each other, from its first grid time to the grid time after its
    last one, or to end_s."""
    ts = np.arange(math.ceil(end_s / tol_s) + 1) * tol_s
    ts = ts[ts < end_s]
    seen = visible(constellation, a, b, ts, np)
    flips = np.flatnonzero(np.diff(seen, prepend=False, append=False)).tolist()
    return [(float(ts[i]), min(j * tol_s, end_s)) for i, j in zip(flips[::2], flips[1::2])]


def ring_hop_distances(num_nodes, sink_pos):
    """Hop count from every ring position to the sink by breadth-first search."""
    dist = {sink_pos: 0}
    frontier = [sink_pos]
    while frontier:
        nxt = []
        for p in frontier:
            for q in ((p - 1) % num_nodes, (p + 1) % num_nodes):
                if q not in dist:
                    dist[q] = dist[p] + 1
                    nxt.append(q)
        frontier = nxt
    return dist


def features(dataset):
    """The float64 feature rows of ``dataset``, rebuilt apart from the
    library's products: each stored level times the scale, plus the shift of
    the row's class when the dataset has shifts."""
    rows = dataset.scale * dataset.levels.astype(np.float64)
    if dataset.shifts is not None:
        rows += dataset.shifts[dataset.labels]
    return rows


def augmented(dataset):
    """:func:`features` with the bias input 1 as a last column."""
    return np.hstack([features(dataset), np.ones((dataset.num_samples, 1))])


def cross_entropy(params, dataset):
    """Mean cross-entropy of the softmax model ``params`` on ``dataset``,
    computed apart from the library: the float64 scores of the rebuilt,
    bias-augmented rows, then each row's log-sum-exp less its label's score."""
    weights = np.asarray(params, dtype=float).reshape(dataset.num_features + 1, -1)
    scores = augmented(dataset) @ weights
    top = scores.max(axis=1)
    log_norm = top + np.log(np.exp(scores - top[:, np.newaxis]).sum(axis=1))
    return float(np.mean(log_norm - scores[np.arange(dataset.num_samples), dataset.labels]))


def numeric_gradient(loss_fn, params, eps=1e-6):
    """Central finite differences of a scalar loss over a flat parameter vector."""
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += eps
        dn[i] -= eps
        grad[i] = (loss_fn(up) - loss_fn(dn)) / (2 * eps)
    return grad


def write_idx_pair(directory, images, labels, stem="data"):
    """Write an IDX image file and label file under ``directory``; their paths.

    ``images`` is an (n, rows, cols) array and ``labels`` has n entries, both
    stored as unsigned bytes; the files are ``<stem>-images-idx3-ubyte`` and
    ``<stem>-labels-idx1-ubyte``.
    """
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    ip = directory / f"{stem}-images-idx3-ubyte"
    lp = directory / f"{stem}-labels-idx1-ubyte"
    ip.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes())
    lp.write_bytes(struct.pack(">II", 0x00000801, labels.size) + labels.tobytes())
    return str(ip), str(lp)


def read_idx_pair(images_path, labels_path, rows, **partition):
    """The first ``rows`` rows of an IDX pair, each file read whole, as a
    dataset of float rows that hold the pixel bytes' values: the pool, or its
    shards when ``partition`` holds the arguments of ``partition_dataset``
    after the pool."""
    images = Path(images_path).read_bytes()
    _, count, height, width = struct.unpack(">IIII", images[:16])
    pixels = np.frombuffer(images, dtype=np.uint8, offset=16).reshape(count, height * width)
    labels = np.frombuffer(Path(labels_path).read_bytes(), dtype=np.uint8, offset=8)
    pool = LocalDataset(pixels[:rows], labels[:rows])
    return partition_dataset(pool, **partition) if partition else pool

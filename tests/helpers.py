"""Brute-force oracles shared by the unit and acceptance tests.

Everything here recomputes expected values by the dumbest defensible method
(dense scans, direct enumeration, finite differences) so the library is checked
against an independent implementation, not against itself. ``write_idx_pair``
writes the IDX files that data-loading tests read.
"""

import struct

import numpy as np


def brute_windows(constellation, a, b, t0, t1, step_s=1.0):
    """Visibility windows found by dense scanning, no bisection.

    Returns a list of (start, end) grid times; each boundary is accurate to one
    grid step. A window still open at t1 is reported with end = t1.
    """
    ts = np.arange(t0, t1 + step_s, step_s)
    ts = ts[ts <= t1]
    vis = np.asarray(constellation.visible(a, b, ts), dtype=bool)
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

"""End-to-end acceptance checks, one per headline behavior.

Each test prints a single summary line; together they gate a release:

1. tree aggregation is numerically equivalent to direct weighted averaging
2. server traffic per epoch is exactly 8x lower with in-plane relaying
3. the ring protocol reaches parity 15-45x sooner, with and without the ML
4. accuracy over time under the ring protocol never trails the direct one
5. analytic gradients agree with finite differences
6. contact windows agree with dense scanning
7. aggregation routes are spanning, hop-minimal trees of the expected depth
8. a fixed seed reproduces output byte for byte
"""

import math
import os
import time

import numpy as np
import pytest

from orbitfl import learning, protocol
from orbitfl.cli import main
from orbitfl.orbital import PS_NODE, ContactPlan
from orbitfl.sim import build_constellation, compare, desk_scenario, run_scenario

from helpers import brute_windows, pair_constellation, ring_hop_distances


def report(num: int, detail: str, started: float):
    print(f"[criterion {num}] PASS - {detail} ({time.perf_counter() - started:.2f}s)")


def tree_fold(ring_ids, sink, params_by_node, samples_by_node):
    """Bottom-up fold along the routing tree, mirroring what satellites do."""
    tree = protocol.build_routing_tree(ring_ids, sink)

    def partial(node):
        kids = tree.children.get(node, ())
        return learning.partial_aggregate(
            params_by_node[node], samples_by_node[node], [partial(k) for k in kids]
        )

    return partial(sink)


def test_criterion_1_tree_aggregation_equals_direct_average():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        num_planes = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 41))
        partials = []
        total = 0
        flat_params, flat_weights = [], []
        for plane in range(num_planes):
            k = int(rng.integers(2, 13))
            ring = list(range(checked * 100, checked * 100 + k))
            sink = int(rng.choice(ring))
            params = {n: rng.normal(scale=3.0, size=dim) for n in ring}
            samples = {n: int(rng.integers(1, 51)) for n in ring}
            partials.append(tree_fold(ring, sink, params, samples))
            total += sum(samples.values())
            flat_params.extend(params[n] for n in ring)
            flat_weights.extend(samples[n] for n in ring)
            checked += 1
        got = learning.global_aggregate(partials, total)
        want = np.average(flat_params, axis=0, weights=flat_weights)
        scale = max(float(np.max(np.abs(want))), 1e-30)
        assert float(np.max(np.abs(got - want))) <= 1e-12 * scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"{checked} random rings folded, max error within 1e-12 relative", t0)


def test_criterion_2_server_traffic_ratio_is_exactly_eight():
    t0 = time.perf_counter()
    cfg = desk_scenario(seed=3, until_epochs=3)
    ring = run_scenario(cfg, "fedisl")
    direct = run_scenario(cfg, "fednonisl")

    def per_epoch(run, attr):
        vals = [getattr(r, attr) for r in run.records]
        return [b - a for a, b in zip(vals, vals[1:])]

    assert per_epoch(ring, "ps_down_msgs") == [5, 5, 5]
    assert per_epoch(ring, "ps_up_msgs") == [5, 5, 5]
    assert per_epoch(direct, "ps_down_msgs") == [40, 40, 40]
    assert per_epoch(direct, "ps_up_msgs") == [40, 40, 40]
    last_r, last_d = ring.records[-1], direct.records[-1]
    ratio = (last_d.ps_down_msgs + last_d.ps_up_msgs) / (
        last_r.ps_down_msgs + last_r.ps_up_msgs
    )
    assert ratio == 8.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, "80 vs 10 model transfers per epoch, ratio exactly 8.0", t0)


def test_criterion_3_speedup_lands_in_band():
    t0 = time.perf_counter()
    # timing-only variant: ratio of mean epoch durations over five epochs
    plain = compare(desk_scenario(seed=3, until_epochs=5))
    assert 15.0 <= plain.epoch_time_ratio <= 45.0
    assert 15.0 <= plain.speedup <= 45.0
    # learning variant: wall-clock to a fixed test accuracy, same seeds
    timed = compare(
        desk_scenario(seed=3, until_epochs=40, target_accuracy=0.9, separation=6.0)
    )
    assert 15.0 <= timed.speedup <= 45.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(
        3,
        f"epoch-time ratio {plain.epoch_time_ratio:.1f}, "
        f"time-to-0.9-accuracy ratio {timed.speedup:.1f}, both within [15, 45]",
        t0,
    )


def _mnist_paths():
    root = os.environ.get("ORBITFL_MNIST_DIR")
    if not root:
        return None
    names = (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    )
    paths = [os.path.join(root, n) for n in names]
    return paths if all(os.path.exists(p) for p in paths) else None


def test_criterion_4_ring_accuracy_never_trails():
    t0 = time.perf_counter()
    mnist = _mnist_paths()
    if mnist:
        cfg = desk_scenario(
            seed=3,
            until_epochs=6,
            data_source="idx",
            train_images_path=mnist[0],
            train_labels_path=mnist[1],
            test_images_path=mnist[2],
            test_labels_path=mnist[3],
            local_iterations=3,
        )
        variant = "handwriting images"
    else:
        cfg = desk_scenario(seed=3, until_epochs=6, separation=6.0, local_iterations=3)
        variant = "synthetic data"
    ring = run_scenario(cfg, "fedisl")
    direct = run_scenario(cfg, "fednonisl")

    def accuracy_at(run, t):
        acc = None
        for rec in run.records:
            if rec.sim_time_s <= t:
                acc = rec.test_accuracy
        return acc

    first_ring_epoch = next(r.sim_time_s for r in ring.records if r.epoch == 1)
    eval_times = sorted(
        {r.sim_time_s for r in ring.records} | {r.sim_time_s for r in direct.records}
    )
    compared = 0
    for t in eval_times:
        if t < first_ring_epoch:
            continue
        assert accuracy_at(ring, t) >= accuracy_at(direct, t), f"trails at t={t}"
        compared += 1
    assert compared >= 3
    report(4, f"ring protocol leads or ties at all {compared} eval points ({variant})", t0)


def test_criterion_5_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    from helpers import cross_entropy, numeric_gradient

    for trial in range(100):
        num_features = int(rng.integers(1, 9))
        num_classes = int(rng.integers(2, 5))
        num_samples = int(rng.integers(1, 31))
        features = rng.normal(size=(num_samples, num_features))
        labels = rng.integers(0, num_classes, size=num_samples)
        dataset = learning.LocalDataset(features, labels)
        params = rng.normal(scale=0.5, size=learning.model_dimension(num_features, num_classes))
        got = learning.local_gradient(params, dataset)
        want = numeric_gradient(lambda p: cross_entropy(p, dataset), params)
        err = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-6)
        assert err <= 1e-5, f"trial {trial}: relative error {err}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(5, "100 random models, analytic vs numeric gradient within 1e-5", t0)


def test_criterion_6_contact_windows_match_dense_scan():
    t0 = time.perf_counter()
    con = build_constellation(desk_scenario(seed=0))
    rng = np.random.default_rng(5)
    sats = list(con.satellite_ids())
    pairs = [(int(rng.choice(sats)), PS_NODE) for _ in range(14)]
    while len(pairs) < 20:
        a, b = rng.choice(sats, size=2, replace=False)
        if con.plane_of(int(a)) != con.plane_of(int(b)):
            pairs.append((int(a), int(b)))
    horizon = 12 * 3600.0
    for a, b in pairs:
        brute = brute_windows(con, a, b, 0.0, horizon, step_s=1.0)
        # a satellite pair is read through a plan whose server flies as b
        plan_con, sat = (con, a) if b == PS_NODE else (pair_constellation(con, a, b), 1)
        got = ContactPlan(plan_con, horizon).windows(sat)
        for start, end in brute:
            if end - start <= 10.0:
                continue  # below the coarse scan's resolution by design
            match = [w for w in got if w.start_s <= end and w.end_s >= start]
            assert match, f"pair ({a},{b}): window {start}-{end} missed"
            w = match[0]
            assert abs(w.start_s - start) <= 2.0
            assert abs(w.end_s - end) <= 2.0
        for w in got:
            if w.duration_s <= 10.0:
                continue
            assert any(
                s <= w.end_s and e >= w.start_s for s, e in brute
            ), f"pair ({a},{b}): phantom window {w}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(6, "20 node pairs over 12h, boundaries within 2s of a 1s dense scan", t0)


def test_criterion_7_routing_trees_are_sound():
    t0 = time.perf_counter()
    trees = 0
    for k in range(2, 13):
        ids = list(range(1, k + 1))
        for sink in ids:
            tree = protocol.build_routing_tree(ids, sink)
            want = ring_hop_distances(k, ids.index(sink))
            for node in ids:
                if node == sink:
                    continue
                hops, cursor = 0, node
                while cursor != sink:
                    cursor = tree.parent[cursor]
                    hops += 1
                    assert hops <= k
                assert hops == want[ids.index(node)]
            assert tree.depth == k // 2
            kids = sorted(c for tup in tree.children.values() for c in tup)
            assert kids == [n for n in ids if n != sink]
            trees += 1
    # the eight-satellite shape: two chains folding into the sink's neighbors
    tree = protocol.build_routing_tree(list(range(1, 9)), 8)
    assert tree.children[8] == (1, 7)
    assert tree.parent[5] == 6 and tree.parent[4] == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(7, f"{trees} rings exhaustively checked, all spanning and hop-minimal", t0)


def test_criterion_8_fixed_seed_reproduces_bytes(tmp_path):
    t0 = time.perf_counter()
    ini = tmp_path / "scenario.ini"
    ini.write_text(
        "[data]\n"
        "samples_per_satellite = 10\n"
        "test_samples = 60\n"
        "num_features = 16\n"
        "num_classes = 3\n"
        "[sim]\n"
        "seed = 7\n"
        "until_epochs = 2\n"
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    other = tmp_path / "c.csv"
    assert main(["run", "--config", str(ini), "--out", str(first)]) == 0
    assert main(["run", "--config", str(ini), "--out", str(second)]) == 0
    assert main(["run", "--config", str(ini), "--out", str(other), "--seed", "8"]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() != other.read_bytes()
    report(8, "same seed gives identical bytes, a different seed does not", t0)

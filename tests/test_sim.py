import heapq
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import orbitfl.learning as learning
import orbitfl.link as link
import orbitfl.protocol as protocol
import orbitfl.sim as sim
from orbitfl import orbital
from orbitfl.cli import emit_config, main
from orbitfl.orbital import PS_NODE, ContactPlan
from orbitfl.sim import (
    CompareResult,
    _build,
    _Simulation,
    _section,
    ConfigError,
    DeadlockError,
    ScenarioConfig,
    build_constellation,
    build_datasets,
    compare,
    contact_table,
    desk_scenario,
    reference_scenario,
    run_scenario,
    validate_scenario,
)

from helpers import read_idx_pair, visible, write_idx_pair


def small_scenario(**overrides):
    """Full study-case geometry but a light model, to keep runs quick."""
    base = dict(
        samples_per_satellite=10,
        num_features=16,
        num_classes=3,
        test_samples=60,
        until_epochs=3,
    )
    base.update(overrides)
    return desk_scenario(seed=3, **base)


def epoch_deltas(records, attr):
    vals = [getattr(r, attr) for r in records]
    return [b - a for a, b in zip(vals, vals[1:])]


# -- scenario plumbing ---------------------------------------------------------


def test_presets_differ_only_in_compute_scale():
    ref = reference_scenario(seed=9)
    desk = desk_scenario(seed=9)
    assert ref.compute_time_factor == 1.0
    assert desk.compute_time_factor == 25.0
    assert ref.num_planes == desk.num_planes == 5
    assert ref.sats_per_plane == desk.sats_per_plane == 8
    assert desk_scenario(seed=1, altitude_km=500.0).altitude_km == 500.0


def test_validate_flags_bad_values():
    assert validate_scenario(reference_scenario(seed=0)) == []
    bad = reference_scenario(seed=0, altitude_km=-5.0, learning_rate=0.0, until_epochs=0)
    problems = validate_scenario(bad)
    assert any("altitude_km" in p for p in problems)
    assert any("learning_rate" in p for p in problems)
    assert any("until_epochs" in p for p in problems)


# one setting out of range, and the one line validate gives for it
BAD_SETTINGS = [
    (dict(data_source="csv"), "[data] source must be 'synthetic' or 'idx', got 'csv'"),
    (
        dict(data_scheme="dirichlet"),
        "[data] scheme must be 'iid' or 'label_split', got 'dirichlet'",
    ),
    (dict(samples_per_satellite=0), "[data] samples_per_satellite must be at least 1, got 0"),
    (dict(test_samples=0), "[data] test_samples must be at least 1, got 0"),
    (dict(num_features=0), "[data] num_features must be at least 1, got 0"),
    (dict(num_classes=1), "[data] num_classes must be at least 2, got 1"),
    (dict(reconnect_wait_s=0.0), "[protocol] reconnect_wait_s must be positive, got 0.0"),
    (dict(grace_factor=-1.0), "[protocol] grace_factor must be non-negative, got -1.0"),
    (dict(target_accuracy=1.5), "[sim] target_accuracy must lie in (0, 1]"),
]


@pytest.mark.parametrize(
    "overrides, line", BAD_SETTINGS, ids=[next(iter(o)) for o, _ in BAD_SETTINGS]
)
def test_validate_names_each_bad_setting(overrides, line):
    assert validate_scenario(desk_scenario(0, **overrides)) == [line]


def test_validate_flags_infeasible_ring():
    cfg = reference_scenario(seed=0, num_planes=1, sats_per_plane=2)
    problems = validate_scenario(cfg)
    ring = "[constellation] sats_per_plane is too few for the ring protocol, got 2: "
    assert any(p.startswith(ring) for p in problems)


def test_infeasible_ring_blocks_only_ring_protocol():
    cfg = small_scenario(
        num_planes=1, sats_per_plane=2, samples_per_satellite=4, until_epochs=1
    )
    with pytest.raises(ConfigError):
        run_scenario(cfg, "fedisl")
    res = run_scenario(cfg, "fednonisl")
    assert res.records[-1].epoch == 1


def test_unknown_protocol_rejected():
    with pytest.raises(ConfigError):
        run_scenario(small_scenario(), "fedavg")


def test_datasets_partition_evenly_and_deterministically():
    cfg = small_scenario()
    by_sat, test_set = build_datasets(cfg)
    assert sorted(by_sat) == list(range(1, 41))
    assert all(d.num_samples == 10 for d in by_sat.values())
    assert test_set.num_samples == 60
    again, _ = build_datasets(cfg)
    for sat in by_sat:
        assert by_sat[sat].levels.tobytes() == again[sat].levels.tobytes()


def test_shards_share_one_read_only_block():
    by_sat, test_set = build_datasets(small_scenario())
    # the shards, in satellite order, are exactly the bytes of one read-only block
    block = by_sat[1].levels.base
    shards = [by_sat[sat].levels for sat in sorted(by_sat)]
    assert block.nbytes == 400 * 16 and not block.flags.writeable
    assert np.concatenate(shards).tobytes() == block.tobytes()
    assert all(np.shares_memory(d.levels, block) for d in by_sat.values())
    assert not np.shares_memory(test_set.levels, block)
    for ds in (by_sat[7], test_set):
        with pytest.raises(ValueError):
            ds.levels[0, 0] = 0


def test_compare_builds_the_scenario_once(monkeypatch):
    builds = []

    def counted(cfg):
        builds.append(cfg)
        return build_datasets(cfg)

    monkeypatch.setattr(sim, "build_datasets", counted)
    result = compare(small_scenario(until_epochs=1))
    assert len(builds) == 1
    assert result.baseline.records[-1].epoch == result.treatment.records[-1].epoch == 1


# two planes of two satellites at 500 km: the Earth blocks every ring link
def test_compare_sets_up_both_engines_before_running_either(monkeypatch):
    runs = []
    run = _Simulation.run
    monkeypatch.setattr(_Simulation, "run", lambda engine: runs.append(engine) or run(engine))
    cfg = small_scenario(num_planes=2, sats_per_plane=2, altitude_km=500.0)
    with pytest.raises(ConfigError) as err:
        compare(cfg)
    assert runs == []
    ring = ("[constellation] sats_per_plane is too few for the ring protocol, got 2: adjacent "
            "satellites in a plane are 13742 km apart, beyond their 5146.26 km line-of-sight range")
    assert err.value.problems == [ring] and str(err.value) == ring


def test_label_split_halves_class_range():
    cfg = small_scenario(data_scheme="label_split", num_classes=4)
    by_sat, _ = build_datasets(cfg)
    low = {int(l) for s in range(1, 21) for l in by_sat[s].labels}
    high = {int(l) for s in range(21, 41) for l in by_sat[s].labels}
    assert low == {0, 1}
    assert high == {2, 3}
    # non-IID shards must not break cross-protocol equivalence
    ring = run_scenario(small_scenario(data_scheme="label_split", num_classes=4,
                                       until_epochs=1), "fedisl")
    direct = run_scenario(small_scenario(data_scheme="label_split", num_classes=4,
                                         until_epochs=1), "fednonisl")
    p, q = ring.epoch_params[1], direct.epoch_params[1]
    assert np.max(np.abs(p - q)) <= 1e-12 * max(np.max(np.abs(q)), 1e-30)


# A data build blames samples_per_satellite only when a satellite is left with
# no rows; a split it cannot make at all, such as a label_split over one
# satellite, keeps its own words.
def test_a_data_build_names_only_the_failure_it_means():
    small = small_scenario(data_scheme="label_split", samples_per_satellite=1)
    with pytest.raises(learning.PartitionError, match="^samples_per_satellite is too small "
                       "for scheme 'label_split', got 1: worker 14 would receive zero samples$"):
        build_datasets(small)
    alone = small_scenario(data_scheme="label_split", num_planes=1, sats_per_plane=1)
    with pytest.raises(learning.PartitionError,
                       match="^label_split needs at least 2 workers, got 1$"):
        build_datasets(alone)


@pytest.mark.parametrize("scheme", ["iid", "label_split"])
def test_build_equals_the_two_pools_drawn_in_turn(scheme):
    # 400 training and 150 test rows, dealt to 40 satellites
    cfg = small_scenario(data_scheme=scheme, num_classes=4, test_samples=150)

    def shard(labels):
        return learning.partition_dataset(labels, 40, scheme, cfg.seed, num_classes=4)

    draw = dict(num_features=16, num_classes=4, separation=cfg.separation, means_seed=cfg.seed)
    shards = learning.synthetic_pool(400, seed=cfg.seed + 1, shard=shard, **draw)
    test = learning.synthetic_pool(150, seed=cfg.seed + 2, **draw)
    by_sat, test_set = build_datasets(cfg)
    for got, want in [*((by_sat[s + 1], shards[s]) for s in range(40)), (test_set, test)]:
        assert got.levels.tobytes() == want.levels.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.scale == want.scale
        assert got.shifts.tobytes() == want.shifts.tobytes()


def _idx_paths(tmp_path, train=400, test=60):
    """Matching idx files for small_scenario: ``train`` training and ``test``
    test rows of 4x4 images, labels in [0, 3)."""
    rng = np.random.default_rng(5)
    paths = {}
    for side, rows in (("train", train), ("test", test)):
        images = rng.integers(0, 256, size=(rows, 4, 4), dtype=np.uint8)
        labels = rng.integers(0, 3, size=rows, dtype=np.uint8)
        pair = write_idx_pair(tmp_path, images, labels, stem=side)
        paths[f"{side}_images_path"], paths[f"{side}_labels_path"] = pair
    return paths


# Files longer than the run: rows it does not use, on the training side (400
# of 475 rows) and on the test side (150 of 190).
@pytest.mark.parametrize("scheme", ["iid", "label_split"])
def test_an_idx_build_equals_the_two_files_loaded_in_turn(tmp_path, scheme):
    paths = _idx_paths(tmp_path, train=475, test=190)
    cfg = small_scenario(data_source="idx", data_scheme=scheme, test_samples=150, **paths)
    by_sat, test_set = build_datasets(cfg)
    shards = read_idx_pair(paths["train_images_path"], paths["train_labels_path"], 400,
                           num_workers=40, scheme=scheme, seed=3, num_classes=3)
    test = read_idx_pair(paths["test_images_path"], paths["test_labels_path"], 150)
    for got, want in [*((by_sat[s + 1], shards[s]) for s in range(40)), (test_set, test)]:
        assert got.levels.dtype == np.uint8 and got.scale == 1.0 / 255.0
        np.testing.assert_array_equal(got.levels, want.levels)
        assert got.labels.tobytes() == want.labels.tobytes()


# An idx build reads only the rows a run uses, so its memory follows the run,
# not the files: 28x28 files ten times longer than the run (4,000 training and
# 600 test rows) peak as files of just the 400 and 60 rows it uses do, within
# 1 %. Whole files read as float64 peaked ten times higher (53.4 MB against
# 5.3 MB of traced memory).
def test_an_idx_build_peaks_alike_on_files_ten_times_longer_than_the_run(tmp_path):
    rng = np.random.default_rng(6)
    peaks = {}
    for folder, scale in (("long", 10), ("cut", 1)):
        (tmp_path / folder).mkdir()
        paths = {}
        for side, rows in (("train", 400), ("test", 60)):
            images = rng.integers(0, 256, size=(scale * rows, 28, 28))
            labels = rng.integers(0, 3, size=scale * rows)
            pair = write_idx_pair(tmp_path / folder, images, labels, stem=side)
            paths[f"{side}_images_path"], paths[f"{side}_labels_path"] = pair
        cfg = small_scenario(data_source="idx", num_features=28 * 28, **paths)
        build_datasets(cfg)  # once untraced, so that no first-call cost is counted
        tracemalloc.start()
        try:
            build_datasets(cfg)
            peaks[folder] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks["long"] - peaks["cut"]) <= 0.01 * peaks["cut"], peaks


# A desk build stores one byte per feature: its 6,000 training and 2,000 test
# rows of 784 features are 6,272,000 bytes of uint8 levels, the shards row
# slices of one block of the training rows, and every array read-only.
def test_a_desk_build_holds_one_byte_per_feature():
    by_sat, test_set = build_datasets(desk_scenario(7))
    sets = [*by_sat.values(), test_set]
    assert all(ds.levels.dtype == np.uint8 for ds in sets)
    assert sum(ds.levels.nbytes for ds in sets) == 8_000 * 784 == 6_272_000
    block = by_sat[1].levels.base
    shards = [by_sat[sat].levels for sat in sorted(by_sat)]
    assert block.nbytes == 6_000 * 784 and block.flags.c_contiguous
    assert np.concatenate(shards).tobytes() == block.tobytes() and not block.flags.writeable
    assert all(np.shares_memory(ds.levels, block) for ds in by_sat.values())
    assert not np.shares_memory(test_set.levels, block)
    assert all(ds.shifts is by_sat[1].shifts for ds in by_sat.values())
    for ds in (by_sat[1], by_sat[40], test_set):
        for array in (ds.levels, ds.labels, ds.shifts):
            with pytest.raises(ValueError):
                array[0] = 1


# A desk synthetic build holds those 6.0 MiB of levels and little more: 6.2
# MiB of traced memory at its peak, where float32 blocks of 785 columns peaked
# at 24.9 MiB and float64 blocks at 48.6 MiB.
def test_a_desk_synthetic_build_peaks_at_7_mib():
    cfg = desk_scenario(7)
    build_datasets(cfg)  # once untraced, so that no first-call cost is counted
    tracemalloc.start()
    try:
        build_datasets(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20, peak / 2**20


@pytest.mark.parametrize("source", ["synthetic", "idx"])
def test_every_block_is_read_only_c_contiguous_uint8(tmp_path, source):
    paths = _idx_paths(tmp_path) if source == "idx" else {}
    by_sat, test_set = build_datasets(small_scenario(data_source=source, **paths))
    for ds in [*by_sat.values(), test_set]:
        block = ds.levels
        assert block.dtype == np.uint8 and block.shape[1] == 16
        assert block.flags.c_contiguous and not block.flags.writeable


def _build_problems(cfg):
    """The problems ``_build`` raises for ``cfg``."""
    with pytest.raises(ConfigError) as err:
        _build(cfg)
    return err.value.problems


# A failed side raises the error a sequential build raises: the test side's
# when it fails alone, else the training side's. A scenario's checks refuse
# these sizes before any draw, so the data is built straight from them.
@pytest.mark.parametrize(
    "overrides, rows",
    [(dict(test_samples=2), 2), (dict(samples_per_satellite=1, num_classes=60, test_samples=2), 40)],
    ids=["test", "both"],
)
def test_a_failed_draw_is_the_error_a_sequential_build_raises(overrides, rows):
    with pytest.raises(ValueError) as err:
        build_datasets(small_scenario(**overrides))
    assert str(err.value) == f"need at least one sample per class, got {rows}"


@pytest.mark.parametrize(
    "gone, named", [(["test"], "test"), (["train", "test"], "train")], ids=["test", "both"]
)
def test_a_failed_load_is_the_error_a_sequential_build_raises(tmp_path, gone, named):
    paths = _idx_paths(tmp_path)
    for side in gone:
        paths[f"{side}_images_path"] = str(tmp_path / f"no-{side}")
    problems = _build_problems(small_scenario(data_source="idx", **paths))
    missing = tmp_path / f"no-{named}"
    assert problems == [f"[data] [Errno 2] No such file or directory: '{missing}'"]


def test_a_cli_data_error_is_one_line_on_stderr(tmp_path, capfd):
    paths = dict(_idx_paths(tmp_path), test_images_path=str(tmp_path / "no-test"))
    path = tmp_path / "bad.ini"
    path.write_text(emit_config(small_scenario(data_source="idx", **paths)))
    assert main(["run", "--config", str(path)]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    missing = tmp_path / "no-test"
    assert err == f"config error: [data] [Errno 2] No such file or directory: '{missing}'\n"


# -- ring protocol runs -----------------------------------------------------------


def test_ring_run_message_counts():
    res = run_scenario(small_scenario(), "fedisl")
    assert res.stop_reason == "epochs"
    assert [r.epoch for r in res.records] == [0, 1, 2, 3]
    # one model down, one aggregate up per plane per epoch
    assert epoch_deltas(res.records, "ps_down_msgs") == [5, 5, 5]
    assert epoch_deltas(res.records, "ps_up_msgs") == [5, 5, 5]
    # flood sends one copy per satellite on even rings, aggregation one per
    # non-sink satellite, so 8 + 7 per plane plus any handoffs
    for isl, fb in zip(
        epoch_deltas(res.records, "isl_msgs"), epoch_deltas(res.records, "fallback_hops")
    ):
        assert isl == 75 + fb
    assert all(d > 0 for d in epoch_deltas(res.records, "sim_time_s"))


# The flood's two wavefronts meet once per even ring per epoch, where the
# second copy of the model is a duplicate; an odd ring's meet at two
# neighbors, each reached once, and a group of one floods nothing.
@pytest.mark.parametrize(
    "protocol_name, size, duplicates",
    [("fedisl", {}, 15), ("fedisl", dict(num_planes=4, sats_per_plane=6), 12),
     ("fedisl", dict(sats_per_plane=7), 0), ("fednonisl", {}, 0)],
    ids=["ring-5x8", "ring-4x6", "ring-5x7", "direct-5x8"],
)
def test_each_even_ring_floods_one_duplicate_model_per_epoch(protocol_name, size, duplicates):
    res = run_scenario(desk_scenario(7, until_epochs=3, **size), protocol_name)
    assert res.counters["duplicate_models"] == duplicates


def test_ring_run_bit_traffic_dominated_by_models():
    from orbitfl.link import CONTROL_MESSAGE_BITS, model_size_bits
    from orbitfl.learning import model_dimension

    cfg = small_scenario()
    res = run_scenario(cfg, "fedisl")
    model_bits = model_size_bits(model_dimension(cfg.num_features, cfg.num_classes))
    last = res.records[-1]
    assert last.isl_bits == last.isl_msgs * model_bits
    down_models = last.ps_down_msgs * model_bits
    assert last.ps_down_bits >= down_models
    assert (last.ps_down_bits - down_models) % CONTROL_MESSAGE_BITS == 0


def test_direct_run_message_counts():
    res = run_scenario(small_scenario(), "fednonisl")
    assert epoch_deltas(res.records, "ps_down_msgs") == [40, 40, 40]
    assert epoch_deltas(res.records, "ps_up_msgs") == [40, 40, 40]
    assert res.records[-1].isl_msgs == 0
    assert res.records[-1].fallback_hops == 0


@pytest.mark.parametrize("protocol_name, groups", [("fedisl", 5), ("fednonisl", 40)])
def test_model_as_small_as_a_control_message_counts_as_a_model(protocol_name, groups):
    from orbitfl.learning import model_dimension
    from orbitfl.link import CONTROL_MESSAGE_BITS, model_size_bits

    # 3 features and 2 classes make a model exactly as large as a control message
    cfg = desk_scenario(
        7,
        num_features=3,
        num_classes=2,
        samples_per_satellite=10,
        test_samples=20,
        until_epochs=2,
    )
    assert model_size_bits(model_dimension(3, 2)) == CONTROL_MESSAGE_BITS
    res = run_scenario(cfg, protocol_name)
    # only the model transfers count as messages, one each way per group per epoch
    assert epoch_deltas(res.records, "ps_down_msgs") == [groups, groups]
    assert epoch_deltas(res.records, "ps_up_msgs") == [groups, groups]


def test_initial_record_is_untrained_model():
    res = run_scenario(small_scenario(until_epochs=1), "fedisl")
    first = res.records[0]
    assert first.sim_time_s == 0.0 and first.epoch == 0
    assert first.ps_down_msgs == 0 and first.isl_bits == 0
    assert first.test_loss == pytest.approx(math.log(3), rel=1e-6)


# -- the two protocols learn the same model ----------------------------------------


def test_protocols_agree_epoch_by_epoch():
    cfg = small_scenario()
    ring = run_scenario(cfg, "fedisl")
    direct = run_scenario(cfg, "fednonisl")
    assert sorted(ring.epoch_params) == sorted(direct.epoch_params) == [1, 2, 3]
    for epoch in ring.epoch_params:
        a, b = ring.epoch_params[epoch], direct.epoch_params[epoch]
        scale = np.max(np.abs(b))
        assert np.max(np.abs(a - b)) <= 1e-12 * max(scale, 1e-30)
    ring_acc = [r.test_accuracy for r in ring.records]
    direct_acc = [r.test_accuracy for r in direct.records]
    assert ring_acc == pytest.approx(direct_acc, abs=1e-12)


@pytest.mark.parametrize(
    "server", [{}, {"ps_kind": "ground", "ps_latitude_deg": 40.0}], ids=["orbit", "ground"]
)
def test_direct_is_ring_with_single_satellite_groups(server):
    cfg = desk_scenario(seed=7, sats_per_plane=1, num_planes=5, until_epochs=3, **server)
    assert run_scenario(cfg, "fedisl").records == run_scenario(cfg, "fednonisl").records


def test_runs_are_deterministic():
    cfg = small_scenario()
    a = run_scenario(cfg, "fedisl")
    b = run_scenario(cfg, "fedisl")
    assert a.records == b.records
    assert a.final_params.tobytes() == b.final_params.tobytes()


# -- shared, read-only models -----------------------------------------------------------


def _watched_run(monkeypatch, protocol_name):
    """Run a small scenario, keeping every model served, trained and folded,
    and each satellite's state just after its partial sum is folded."""
    engine = _Simulation(_build(small_scenario()), protocol_name)
    served, trained, partials, folded = [], [], [], []

    def kept(made, fn):
        def wrapper(*args):
            made.append(fn(*args))
            return made[-1]

        return wrapper

    monkeypatch.setattr(sim.learning, "local_gd", kept(trained, sim.learning.local_gd))
    monkeypatch.setattr(
        sim.learning, "partial_aggregate", kept(partials, sim.learning.partial_aggregate)
    )
    recv_model, try_send = engine._sat_recv_model, engine._try_send_partial

    def recv(sid, epoch, tree, source, params):
        if sid == source:  # from the server: no flood returns to its source
            assert params is engine.ps.global_params
            served.append(params)
        recv_model(sid, epoch, tree, source, params)

    def send(sid):
        try_send(sid)
        sat = engine.sats[sid]
        if sat.partial_sent:  # still in the epoch: a sink that holds its group's sum
            folded.append((sat.trained_params, sat.cached_partials))

    engine._sat_recv_model, engine._try_send_partial = recv, send
    result = engine.run()
    return engine, result, served, trained, partials, folded


@pytest.mark.parametrize("protocol_name", ["fedisl", "fednonisl"])
def test_a_run_shares_one_read_only_array_per_model(monkeypatch, protocol_name):
    engine, res, served, trained, partials, _ = _watched_run(monkeypatch, protocol_name)
    assert len(served) == 3 * len(engine.groups) and len(trained) == len(partials) == 3 * 40
    assert len({id(p) for p in served}) == 3  # one model per epoch, whoever it goes to
    assert res.final_params is res.epoch_params[3] is engine.ps.global_params
    models = served + trained + partials + [res.final_params, *res.epoch_params.values()]
    for params in models:
        with pytest.raises(ValueError):
            params[0] = 0.0
        with pytest.raises(ValueError):
            params += 1.0


@pytest.mark.parametrize("protocol_name", ["fedisl", "fednonisl"])
def test_a_satellite_lets_go_of_its_models_once_its_partial_is_folded(
    monkeypatch, protocol_name
):
    engine, _, _, _, _, folded = _watched_run(monkeypatch, protocol_name)
    assert len(folded) == 3 * len(engine.groups)  # one sink per group and epoch
    assert all(state == (None, {}) for state in folded)
    assert all(sat.trained_params is None for sat in engine.sats.values())


def test_a_satellite_whose_partial_is_folded_is_diagnosed_in_aggregation():
    engine = _Simulation(_build(small_scenario()), "fednonisl")
    model = engine.ps.global_params
    for sid in (1, 2):
        engine._sat_recv_model(sid, 1, protocol.build_routing_tree([sid], sid), sid, model)
    engine._compute_done(1, model)
    assert engine.sats[1].partial_sent and engine.sats[1].trained_params is None
    assert engine.sats[1].holding is not None
    assert "satellites: 1 aggregation, 1 computation, 38 distribution" in engine._diagnose()


# -- delivery resilience --------------------------------------------------------------


def test_misjudged_sink_hops_until_delivered(monkeypatch):
    """Force the election to pick satellites blind to the server: aggregates
    must circle the ring to someone with a window, with no duplicates."""

    def worst_sink(group_ids, t_target, window_of):
        def shut(sat):
            w = window_of(sat, t_target)
            return w is None or w.start_s > t_target

        hidden = [s for s in sorted(group_ids) if shut(s)]
        return hidden[0] if hidden else max(group_ids)

    cfg = small_scenario(until_epochs=2)
    clean = run_scenario(cfg, "fedisl")
    monkeypatch.setattr(protocol, "select_sink", worst_sink)
    res = run_scenario(cfg, "fedisl")
    assert res.counters["fallback_hops"] >= 1
    assert res.records[-1].ps_up_msgs == 2 * cfg.num_planes
    deltas = epoch_deltas(res.records, "isl_msgs")
    fbs = epoch_deltas(res.records, "fallback_hops")
    assert deltas == [75 + f for f in fbs]
    # the hand-off's bytes: every record's time and traffic, as the engine
    # first wrote them; no model product moves these columns
    columns = ("sim_time_s", "epoch_duration_s", "ps_down_msgs", "ps_down_bits", "ps_up_msgs",
               "ps_up_bits", "isl_msgs", "isl_bits", "fallback_hops")
    assert [tuple(getattr(r, c) for c in columns) for r in res.records] == [
        (0.0, 0.0, 0, 0, 0, 0, 0, 0, 0),
        (0.898998940472055, 0.898998940472055, 5, 37600, 5, 43232, 79, 149152, 4),
        (11.351453666068528, 10.452454725596473, 10, 65984, 10, 76224, 158, 298304, 8),
    ]
    # a different sink regroups the in-plane float sums, so allow rounding slack
    scale = np.max(np.abs(clean.final_params))
    assert np.max(np.abs(res.final_params - clean.final_params)) <= 1e-12 * scale


# equatorial satellites never rise above a polar station's mask
UNREACHABLE = desk_scenario(
    seed=1,
    num_planes=1,
    sats_per_plane=5,
    inclination_deg=0.0,
    ps_kind="ground",
    ps_latitude_deg=90.0,
    ps_min_elevation_deg=10.0,
    samples_per_satellite=5,
    num_features=4,
    num_classes=2,
    test_samples=10,
)


def _count_positions(monkeypatch):
    """Count the times at which node positions are evaluated, an array of
    times counting each entry: every geometry query evaluates two."""
    count = [0]
    for track in (orbital._OrbitTrack, orbital._GroundTrack):

        def counted(self, t, m, at=track.at):
            count[0] += np.size(t)
            return at(self, t, m)

        monkeypatch.setattr(track, "at", counted)
    return count


def _count_scan_margins(monkeypatch, budget=math.inf):
    """Count the margins the contact plans' window scans evaluate, one per
    lockstep row. Going past ``budget`` fails the test, so a scan that would
    not end stops."""
    count, taylor = [0], orbital.ContactPlan._taylor

    def counted_taylor(self, t):
        count[0] += len(t)
        if count[0] > budget:
            pytest.fail(f"more than {budget} scan margins evaluated")
        return taylor(self, t)

    monkeypatch.setattr(orbital.ContactPlan, "_taylor", counted_taylor)
    return count


def test_deadlock_reported_when_server_unreachable():
    with pytest.raises(DeadlockError, match="no further progress at t=0.0s"):
        run_scenario(UNREACHABLE, "fedisl")


# With no server window left, a satellite's one poll is booked at infinity,
# not woken again and again to find the server still out of sight.
def test_unreachable_server_books_one_event_per_satellite():
    engine = _Simulation(_build(UNREACHABLE), "fedisl")
    booked = []
    schedule = engine.schedule

    def counted(t, fn, *args):
        booked.append(t)
        schedule(t, fn, *args)

    engine.schedule = counted
    with pytest.raises(DeadlockError):
        engine.run()
    assert len(booked) <= len(engine.sats)


# The plan scans each satellite to its end, 30.5 days. A 10 s grid evaluated
# 2,635,222 positions for it; a scan that steps by the margin's Taylor bound
# passes over an orbit that never rises in steps of many minutes.
def test_unreachable_server_is_scanned_in_few_steps(monkeypatch):
    positions = _count_positions(monkeypatch)
    with pytest.raises(DeadlockError):
        run_scenario(UNREACHABLE, "fedisl")
    assert 0 < positions[0] < 50_000


def test_duplicate_aggregate_is_a_protocol_error():
    engine = _Simulation(_build(small_scenario()), "fedisl")
    weighted = np.zeros(engine.dim)
    engine._ps_recv_update(1, 1, weighted)
    with pytest.raises(protocol.ProtocolError):
        engine._ps_recv_update(2, 1, weighted)


def test_poll_retry_leaves_asking_to_a_booked_poll():
    engine = _Simulation(_build(small_scenario()), "fednonisl")
    sid = next(s for s in engine.sats if engine.plan.window(s, 0.0).start_s > 100.0)
    opens = engine.plan.window(sid, 0.0).start_s
    engine._schedule_poll(sid, 0.0)
    # a retry timer firing before that window, out of view of the server
    engine.t = 50.0
    engine._fire_poll(sid)
    polls = [t for t, _, fn, args in engine.queue if fn == engine._fire_poll and args == (sid,)]
    assert polls == [opens]
    assert engine._due[sid] == (opens, sim._FIRE) and engine.counters["ps_up_bits"] == 0


def _reply(engine, sid, wait_epoch=None):
    """The server's answer reaching the satellite now, as its chain's booked
    stage: the epoch a WAIT was given in, else None."""
    engine._due[sid] = engine.t, sim._REPLY
    engine._sat_recv_ctrl(sid, wait_epoch)


def test_finishing_inside_the_retry_wait_keeps_one_poll_chain():
    engine = _Simulation(_build(small_scenario()), "fedisl")
    wait = engine.cfg.reconnect_wait_s
    sid, w = next(
        (s, w) for s in engine.sats if (w := engine.plan.window(s, 0.0)).end_s - w.start_s > 5 * wait
    )
    # the group's downlink is on its way, so every poll is answered "not yet"
    engine.ps.inflight.add(engine.sats[sid].group)
    engine.t = w.start_s
    _reply(engine, sid)
    # the model arrives over the ring and training ends inside the retry's wait
    engine.t += wait / 2
    engine._advance_sat(sid)
    until = engine.t + 2.5 * wait
    while engine.queue and engine.queue[0][0] <= until:
        engine.t, _, fn, args = heapq.heappop(engine.queue)
        fn(*args)
    engine._replay_parked(until)
    # in view throughout, one chain polls at 0, 1 and 2 waits (and round trips) on
    assert engine.counters["ps_up_bits"] == 3 * link.CONTROL_MESSAGE_BITS


def ahead_of_the_server(protocol_name):
    """An engine at t = 100 s whose satellite 1 has finished the server's epoch."""
    engine = _Simulation(_build(small_scenario()), protocol_name)
    engine.t = 100.0
    engine.sats[1].reset_for_next_epoch()
    return engine, engine.sats[1].group


@pytest.mark.parametrize("served", ["sent", "inflight"])
def test_reply_to_a_satellite_ahead_parks_its_poll(served):
    engine, group = ahead_of_the_server("fedisl")
    getattr(engine.ps, served).add(group)
    _reply(engine, 1)
    assert engine.queue == []
    assert engine._parked[1] == 110.0 and engine._due[1] is None


def test_reply_to_a_satellite_ahead_of_its_unserved_group_is_a_protocol_error():
    engine, group = ahead_of_the_server("fednonisl")
    assert group not in engine.ps.sent | engine.ps.inflight
    with pytest.raises(protocol.ProtocolError, match="never served its group"):
        _reply(engine, 1, engine.ps.epoch)


# A parked chain coasts when the epoch advances, up to that time, and one left
# waiting for the server's reply carries no WAIT. A WAIT stamped with the new
# epoch would stop a satellite whose epoch now matches from asking again, and
# its group would never be served.
def test_a_reply_pending_across_the_advance_polls_again_and_is_served():
    engine = _Simulation(_build(small_scenario()), "fednonisl")
    wait, bits = engine.cfg.reconnect_wait_s, link.CONTROL_MESSAGE_BITS
    sid, w = next(
        (s, w) for s in engine.sats if (w := engine.plan.window(s, 0.0)).duration_s > 20 * wait
    )
    sat, last = engine.sats[sid], next(s for s in engine.sats if s != sid)
    # the satellite has delivered epoch 1 and is told "not yet" from inside its window
    sat.reset_for_next_epoch()
    engine.ps.sent.add(sat.group)
    engine.t = w.start_s
    _reply(engine, sid, engine.ps.epoch)
    fire = w.start_s + wait
    asked = fire + engine._ps_transfer_s(sid, fire, bits)
    # every other group has delivered; the last aggregate lands once the
    # server has answered the next poll and before that answer arrives
    zeros = np.zeros(engine.dim)
    others = {engine.sats[s].group for s in engine.sats if s != last}
    engine.ps.received = {g: zeros for g in others}
    engine.t = asked
    engine._ps_recv_update(last, 1, zeros)
    assert engine.ps.epoch == 2 and engine._parked == {}
    (reply,) = [args for _, _, fn, args in engine.queue if fn == engine._sat_recv_ctrl]
    assert reply == (sid, None)
    while engine.queue and sat.tree is None and engine.queue[0][0] <= w.end_s:
        engine.t, _, fn, args = heapq.heappop(engine.queue)
        fn(*args)
    assert sat.tree is not None and sat.epoch == 2 and engine._due[sid] is None


# A member of a served group is told to wait whatever the other groups' state,
# so once every group is served, a member still waiting for its model over the
# ring stops asking, as it would while another group was unserved.
def test_a_member_of_a_served_group_stops_asking_once_every_group_is_served():
    engine = _Simulation(_build(small_scenario()), "fedisl")
    sid, w = next(
        (s, w) for s in engine.sats if (w := engine.plan.window(s, 0.0)).duration_s > 100.0
    )
    for group in range(len(engine.groups)):
        engine.ps.downlink_acked(group)
    engine.t = w.start_s
    engine._due[sid] = engine.t, sim._FIRE
    engine._fire_poll(sid)
    while engine.queue and engine.queue[0][0] <= w.end_s:
        engine.t, _, fn, args = heapq.heappop(engine.queue)
        fn(*args)
    assert engine.queue == [] and engine._due[sid] is None and engine._parked == {}
    bits = link.CONTROL_MESSAGE_BITS
    assert engine.counters["ps_up_bits"] == engine.counters["ps_down_bits"] == bits


# The server sends a model only when the transfer fits the pass open when the
# request lands. Satellite 1 polls 0.01 s before its first pass closes, and its
# request reaches the server after the close: it is told to ask again, and it
# is served in its next pass.
def test_a_request_landing_after_the_pass_closed_is_not_served():
    engine = _Simulation(_build(small_scenario()), "fednonisl")
    sid, sat = 1, engine.sats[1]
    w = engine.plan.window(sid, 0.0)
    after = engine.plan.window(sid, math.nextafter(w.end_s, math.inf))
    assert (w.start_s, w.end_s) == (0.0, 2598.4) and round(after.start_s, 1) == 5130.2
    engine.t = w.end_s - 0.01
    engine._due[sid] = engine.t, sim._FIRE
    engine._fire_poll(sid)
    engine.t, _, fn, args = heapq.heappop(engine.queue)
    assert fn == engine._ps_recv_request and engine.t > w.end_s
    fn(*args)
    assert not any(fn == engine._sat_recv_model for _, _, fn, _ in engine.queue)
    assert engine.ps.inflight == set() and engine.counters["ps_down_msgs"] == 0
    # the answer is RECONNECT's: no WAIT, so the satellite asks again
    (reply,) = [(fn, args) for _, _, fn, args in engine.queue]
    assert reply == (engine._sat_recv_ctrl, (sid, None))
    while engine.queue and sat.tree is None:
        engine.t, _, fn, args = heapq.heappop(engine.queue)
        fn(*args)
    assert sat.tree is not None and sat.epoch == 1 and after.start_s <= engine.t <= after.end_s
    assert engine.counters["ps_down_msgs"] == 1


# np.log2 rounds some arguments otherwise than math.log2 does, and at these
# server distances (m) it would move a control message's transfer time by an
# ulp. A coast evaluates its transfer times on arrays, and each must equal the
# time an event computes.
def test_array_transfer_times_equal_scalar_ones():
    params = link.LinkParams(**_section(desk_scenario(0), "link"))
    bits = link.CONTROL_MESSAGE_BITS
    d_m = [25965709.286489364, 38160466.07458334, 38383949.87395545, 21209748.262874674]
    want = [link.transfer_time(params, d, bits) for d in d_m]
    assert link.transfer_times(params, np.array(d_m), bits).tolist() == want


# An array of distances runs the float's operations in the same order, so any
# link, with processing delays too, and any payload give every entry the float
# answer. A link whose rate rounds to 0 at the farthest distance drawn carries
# nothing there, and a build refuses it, so it is not drawn.
@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    link_values=st.tuples(
        st.floats(1e3, 1e9),  # bandwidth (Hz)
        st.floats(0.0, 60.0),  # tx power (dBm): 1e-3 to 1e3 W
        st.floats(-30.0, 30.0),  # antenna gain (dBi): 1e-3 to 1e3
        st.floats(1e6, 1e11),  # carrier (Hz)
        st.floats(1.0, 1e4),  # noise temperature (K)
        st.floats(1e-9, 1.0),  # tx delay (s)
        st.floats(1e-9, 1.0),  # rx delay (s)
    ),
    bits=st.integers(0, 10**9),
    d_m=st.lists(st.floats(1.0, 1e9), min_size=1, max_size=500),
)
def test_array_transfer_times_equal_scalar_ones_on_any_link(link_values, bits, d_m):
    params = link.LinkParams(*link_values)
    assume(link.rate(params, max(d_m)) > 0.0)
    want = [link.transfer_time(params, d, bits) for d in d_m]
    assert link.transfer_times(params, np.array(d_m), bits).tolist() == want


def test_time_limit_truncates_cleanly():
    cfg = small_scenario(time_limit_s=30.0)
    res = run_scenario(cfg, "fednonisl")
    assert res.stop_reason == "time_limit"
    assert res.records[-1].epoch == 0


# With no time limit a run stops at the default cap, once an epoch is done.
def test_a_run_without_a_time_limit_stops_at_the_cap(monkeypatch):
    monkeypatch.setattr(sim, "DEFAULT_TIME_CAP_S", 300.0)
    res = run_scenario(desk_scenario(7, until_epochs=50), "fedisl")
    assert res.stop_reason == "time_cap"
    assert [r.epoch for r in res.records] == [0, 1, 2, 3]
    assert [r.sim_time_s for r in res.records] == pytest.approx([0, 82.9, 182.7, 282.9], abs=0.05)


# -- cross-protocol comparison ----------------------------------------------------------


def test_compare_ratios():
    out = compare(small_scenario())
    assert isinstance(out, CompareResult)
    assert out.traffic_ratio == 8.0
    assert out.speedup > 1.0
    assert out.epoch_time_ratio > 1.0
    assert out.baseline.protocol == "fednonisl"
    assert out.treatment.protocol == "fedisl"


def test_compare_time_to_accuracy():
    cfg = small_scenario(separation=6.0, target_accuracy=0.8, until_epochs=10)
    out = compare(cfg)
    assert out.baseline.stop_reason == "accuracy"
    assert out.treatment.stop_reason == "accuracy"
    t_base = out.baseline.time_to_accuracy(0.8)
    t_treat = out.treatment.time_to_accuracy(0.8)
    assert out.speedup == pytest.approx(t_base / t_treat)
    assert out.speedup > 1.0


def test_time_to_accuracy_lookup():
    res = run_scenario(small_scenario(separation=6.0), "fedisl")
    t = res.time_to_accuracy(0.5)
    assert t is not None and t > 0.0
    assert res.time_to_accuracy(2.0) is None


# -- contact table ------------------------------------------------------------------------


def test_contact_table_matches_geometry():
    cfg = small_scenario()
    horizon = 7200.0
    rows = contact_table(cfg, horizon)
    assert rows == sorted(rows, key=lambda r: (r[2], r[0]))
    con = build_constellation(cfg)
    for sat, plane, start, end in rows:
        assert con.plane_of(sat) == plane
        assert 0.0 <= start < end <= horizon
    # the table prints the plan's windows, the last one cut at the table's end
    sat_one = [(start, end) for sat, _, start, end in rows if sat == 1]
    want = ContactPlan(con, horizon).windows(1)
    assert sat_one == [(w.start_s, w.end_s) for w in want]


# -- the contact plan ----------------------------------------------------------------------


_GROUND = {"ps_kind": "ground", "ps_latitude_deg": 40.0}


@pytest.mark.parametrize("protocol_name", ["fedisl", "fednonisl"])
@pytest.mark.parametrize("server", [{}, _GROUND], ids=["orbit", "ground"])
def test_engine_windows_are_contact_table_rows(protocol_name, server):
    engine = _Simulation(_build(small_scenario(until_epochs=1, **server)), protocol_name)
    used = set()
    plan = engine.plan
    window = plan.window

    def record(w):
        if w is not None:
            used.add((w.satellite, w.start_s, w.end_s))
        return w

    plan.window = lambda sid, t: record(window(sid, t))
    engine.run()
    # reach far enough past every used window that none is cut at the table's end
    horizon = max(end for _, _, end in used) + 3600.0
    rows = contact_table(engine.cfg, horizon)
    assert used
    for sid, start, end in used:
        row = next((r for r in rows if r[0] == sid and r[2] == start), None)
        assert row is not None, f"satellite {sid}: window from {start} is no table row"
        assert end <= row[3]


# A pass that grazes a 40-degree station's 28.58433-degree mask for 2.85 s:
# a 10 s grid stepped over it. Its edges are the first grid times at or after
# the rise and the drop.
def test_plan_holds_a_grazing_pass():
    cfg = desk_scenario(0, ps_kind="ground", ps_latitude_deg=40.0, ps_min_elevation_deg=28.58433)
    con = build_constellation(cfg)
    plan = ContactPlan(con, 43200.0)
    (w,) = [w for w in plan.windows(1) if 8600.0 < w.start_s < 8700.0]
    assert visible(con, 1, PS_NODE, w.start_s)
    assert not visible(con, 1, PS_NODE, w.start_s - plan.tol_s)
    assert abs(w.duration_s - 2.85) <= plan.tol_s
    assert visible(con, 1, PS_NODE, 8640.0)


# A plan takes no grid finer than two float spacings at its end, so every scan
# step moves t to a later float: at the finest grid of an hour's plan, a power
# of two whose multiples are exact, and at the next float up, whose multiples
# round. The budget is far above what these scans take (about 400 margins
# with an orbiting server and 280 with a ground one) and bounds a scan that
# would never end.
@pytest.mark.parametrize("server", [{}, _GROUND], ids=["orbit", "ground"])
@pytest.mark.parametrize("tol", [2 * math.ulp(3600.0), math.nextafter(2 * math.ulp(3600.0), 1.0)],
                         ids=["finest", "next"])
def test_every_scan_step_moves_at_the_finest_grid_a_plan_accepts(monkeypatch, server, tol):
    _count_scan_margins(monkeypatch, budget=10_000)
    end = 3600.0
    look = ContactPlan._look

    def moving(self, t):
        inside, ahead = look(self, t)
        assert np.all((ahead > t) | (t >= end))
        return inside, ahead

    monkeypatch.setattr(ContactPlan, "_look", moving)
    con = build_constellation(small_scenario(**server))
    plan = ContactPlan(con, end, tol_s=tol)
    assert sum(len(plan.windows(sid)) for sid in con.satellite_ids())


# the table's horizon is its plan's end, so a nan horizon is refused, not
# scanned for ever
def test_a_contact_table_refuses_a_nan_horizon():
    with pytest.raises(ValueError, match="^end_s must be finite, got nan"):
        contact_table(ScenarioConfig(seed=7), math.nan)


# Every running scan steps with the one a query extends, by the margin's Taylor
# bound, so a scan closes on an edge in a few strides and no scan runs much
# further than the queries need. When each scan stepped alone by the margin
# over a bound on its rate, a desk fedisl run evaluated 2,398 margins and the
# 720 h table 1,501,064 for its 9,626 windows; now they take 1,520 and 210,313
# lockstep rows. A scan runs to the table's end, so the table's total is
# pinned, with a ground server's, so that no change there adds margins unseen.
def test_desk_run_scans_no_more_margins_than_one_scan_at_a_time(monkeypatch):
    margins = _count_scan_margins(monkeypatch)
    run_scenario(desk_scenario(7, until_epochs=5), "fedisl")
    assert 0 < margins[0] <= 2_398


def test_month_table_scans_a_fifth_of_the_margins(monkeypatch):
    margins = _count_scan_margins(monkeypatch)
    assert len(contact_table(ScenarioConfig(seed=7), 720 * 3600.0)) == 9_626
    assert margins[0] <= 300_000
    assert margins[0] == 210_313
    margins[0] = 0
    ground = ScenarioConfig(seed=7, ps_kind="ground", ps_latitude_deg=40.0)
    assert len(contact_table(ground, 720 * 3600.0)) == 6_679
    assert margins[0] == 153_029


# -- the engine's work -------------------------------------------------------------------

# Work counts are exact on any host and BLAS kernel, since data never moves time
# or traffic, so a change to the engine's work shows here without timing noise.
# Per desk run at seed 7, 5 epochs: the events booked, by the handler each
# runs; the coasts, and the polls and answers their cycles charge; the coast's
# distance evaluations, as calls and as entries, one per coasting chain a call;
# the contact plan's lockstep passes and the margins they evaluate; and the
# training and its model products. A change that moves a count states the old
# and new values, and why.
DESK_WORK = {
    "fedisl": dict(
        events={"_fire_poll": 706, "_ps_recv_request": 567, "_sat_recv_ctrl": 541,
                "_sat_recv_model": 225, "_compute_done": 200, "_sat_recv_partial": 175,
                "_ps_recv_ack": 25, "_ps_recv_update": 25},
        coasts=5, coast_polls=521, coast_answers=518,
        distance_calls=46, distances=1_042, passes=37, margins=1_520,
        local_gd=200, products=812),
    "fednonisl": dict(
        events={"_fire_poll": 430, "_ps_recv_request": 397, "_sat_recv_model": 200,
                "_ps_recv_ack": 200, "_compute_done": 200, "_ps_recv_update": 200,
                "_sat_recv_ctrl": 196, "_try_deliver": 2},
        coasts=5, coast_polls=38_698, coast_answers=38_693,
        distance_calls=2_516, distances=77_474, passes=66, margins=2_680,
        local_gd=200, products=812),
}


@pytest.mark.parametrize("protocol_name", sorted(DESK_WORK))
def test_a_desk_run_does_its_pinned_work(monkeypatch, protocol_name):
    work = dict.fromkeys(("coasts", "coast_polls", "coast_answers", "distance_calls",
                          "distances", "passes", "local_gd", "products"), 0)

    def counted(owner, name, key, size=lambda *args: 1):
        fn = getattr(owner, name)

        def wrapper(*args):
            work[key] += size(*args)
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(orbital._Distances, "__call__", "distance_calls")
    counted(orbital._Distances, "__call__", "distances", lambda self, t: np.size(t))
    counted(orbital.ContactPlan, "_pass", "passes")
    counted(learning, "local_gd", "local_gd")
    counted(learning, "_product", "products")
    replay = _Simulation._replay_parked

    def coast(self, until):
        # a coast charges its control messages, and only those, in one count each way
        up, down = self.counters["ps_up_bits"], self.counters["ps_down_bits"]
        due = replay(self, until)
        work["coasts"] += 1
        work["coast_polls"] += (self.counters["ps_up_bits"] - up) // link.CONTROL_MESSAGE_BITS
        work["coast_answers"] += (self.counters["ps_down_bits"] - down) // link.CONTROL_MESSAGE_BITS
        return due

    monkeypatch.setattr(_Simulation, "_replay_parked", coast)
    margins = _count_scan_margins(monkeypatch)
    engine = _Simulation(_build(desk_scenario(7, until_epochs=5)), protocol_name)
    events, schedule = {}, engine.schedule

    def booked(t, fn, *args):
        events[fn.__name__] = events.get(fn.__name__, 0) + 1
        schedule(t, fn, *args)

    engine.schedule = booked
    engine.run()
    want = DESK_WORK[protocol_name]
    assert events == want["events"]
    assert dict(work, margins=margins[0]) == {k: v for k, v in want.items() if k != "events"}

"""Properties of random scenarios: validation agrees with the engine, INI
text round-trips, runs stop cleanly with the same models and one server
model each way per group and epoch under both protocols, a scenario that
validates trains in the float range, the server serves a group once per
epoch whatever order requests, acknowledgements and aggregates come in,
parked poll chains coast as they would run cycle by cycle, a pool drawn
straight into shard order holds the levels of one drawn whole and then dealt
out, and the products that fold a dataset's map from levels to features
equal the products of its rebuilt float64 rows.

Constellations are drawn with 0-6 planes of 0-12 satellites at random
altitudes, among them sizes, altitudes and angles that no scenario may have,
around an orbit or a ground server. A second draw stays near the study case,
so that most of its scenarios build. Data stays tiny, dealt by either
scheme, so that building an engine is cheap, and a run goes for at most two epochs and a few hours.
"""

import math
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import augmented, cross_entropy, write_idx_pair

from orbitfl import learning, link, protocol
from orbitfl.cli import emit_config, parse_config
from orbitfl.orbital import PS_NODE
from orbitfl.sim import (
    ConfigError,
    DeadlockError,
    ScenarioConfig,
    _build,
    _Simulation,
    desk_scenario,
    validate_scenario,
)

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)
RUN_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


def _mostly(good, *odd):
    """``good``, or now and then one of the ``odd`` values no scenario may have."""
    return st.integers(0, 15).flatmap(lambda k: st.sampled_from(odd) if k == 15 else good)


def _altitude():
    return _mostly(st.floats(300.0, 40000.0), 0.0, -1.0, math.nan, math.inf)


# [link] settings that no scenario may have: a power or a gain whose linear
# form overflows or rounds to 0, and a negative processing delay
ODD_LINKS = [dict(tx_power_dbm=1e20), dict(tx_power_dbm=-4000.0), dict(antenna_gain_dbi=1e5),
             dict(antenna_gain_dbi=-4000.0), dict(tx_delay_s=-1.0), dict(rx_delay_s=-1e-9)]


# the [link] keys about the study case's
LINK_KEYS = st.fixed_dictionaries(dict(
    bandwidth_hz=st.floats(1e6, 1e8),
    tx_power_dbm=st.floats(20.0, 60.0),
    antenna_gain_dbi=st.floats(0.0, 20.0),
    carrier_hz=st.floats(1e9, 3e10),
    noise_temperature_k=st.floats(100.0, 1000.0),
    tx_delay_s=st.floats(0.0, 0.01),
    rx_delay_s=st.floats(0.0, 0.01),
))


def _link():
    """The [link] keys about the study case's, now and then with an odd one."""
    return st.tuples(LINK_KEYS, _mostly(st.just({}), *ODD_LINKS)).map(lambda kv: {**kv[0], **kv[1]})


@st.composite
def scenarios(draw):
    num_planes = draw(_mostly(st.integers(1, 6), 0))
    sats_per_plane = draw(_mostly(st.integers(1, 12), 0))
    samples_per_satellite = draw(st.integers(1, 4))
    pool = max(2, num_planes * sats_per_plane * samples_per_satellite)
    cfg = dict(
        seed=draw(st.integers(0, 2**16)),
        num_planes=num_planes,
        sats_per_plane=sats_per_plane,
        altitude_km=draw(_altitude()),
        inclination_deg=draw(_mostly(st.floats(0.0, 180.0), -1.0, 181.0)),
        phasing_factor=draw(st.integers(-3, 3)),
        data_scheme=draw(st.sampled_from(["iid", "label_split"])),
        num_features=draw(st.integers(3, 8)),
        # a few classes, now and then as many as the training pool has rows
        num_classes=draw(st.integers(0, 7).flatmap(
            lambda k: st.integers(2, pool) if k == 7 else st.integers(2, 4))),
        samples_per_satellite=samples_per_satellite,
        test_samples=draw(_mostly(st.integers(4, 12), 1, 2, 3)),
        # a negative one flips the class means; a huge one puts them beyond float32
        separation=draw(_mostly(st.floats(0.0, 8.0), -4.0, 1e300, math.nan, math.inf)),
        until_epochs=1,
        **draw(_link()),
    )
    if draw(st.booleans()):
        cfg.update(
            ps_kind="orbit",
            ps_altitude_km=draw(_altitude()),
            ps_inclination_deg=draw(_mostly(st.floats(0.0, 180.0), 200.0)),
            ps_raan_deg=draw(_mostly(st.floats(0.0, 359.0), 360.0, -1.0)),
        )
    else:
        cfg.update(
            ps_kind="ground",
            ps_latitude_deg=draw(_mostly(st.floats(-90.0, 90.0), 91.0)),
            ps_longitude_deg=draw(st.floats(-180.0, 180.0)),
            ps_min_elevation_deg=draw(_mostly(st.floats(0.0, 89.0), 90.0, -1.0)),
        )
    return ScenarioConfig(**cfg)


@st.composite
def study_cases(draw):
    """Scenarios about the study case, on tiny data, most of which build: a
    few planes of 6-12 satellites between 1,500 and 3,000 km, an orbiting
    server well above them or a ground one, a link and a protocol near the
    study case's, a learning rate drawn log-uniformly over [1e-320, 1e308]
    at 1-3 local iterations, a compute cost about the study case's, a time
    limit of a day at most or none, an accuracy goal or none, and now and
    then data too small for a label_split."""
    cfg = dict(
        seed=draw(st.integers(0, 2**16)),
        num_planes=draw(st.integers(1, 6)),
        sats_per_plane=draw(st.integers(6, 12)),
        altitude_km=draw(st.floats(1500.0, 3000.0)),
        inclination_deg=draw(st.floats(0.0, 180.0)),
        phasing_factor=draw(st.integers(0, 2)),
        data_scheme=draw(st.sampled_from(["iid", "label_split"])),
        samples_per_satellite=draw(st.integers(1, 4)),
        test_samples=draw(st.integers(4, 12)),
        num_features=draw(st.integers(3, 8)),
        num_classes=draw(st.integers(2, 4)),
        reconnect_wait_s=draw(st.floats(1.0, 60.0)),
        grace_factor=draw(st.floats(0.0, 4.0)),
        learning_rate=10.0 ** draw(st.floats(-320.0, 308.0)),
        local_iterations=draw(st.integers(1, 3)),
        cycles_per_sample=10.0 ** draw(st.floats(2.0, 4.0)),
        cpu_hz=10.0 ** draw(st.floats(8.0, 10.0)),
        compute_time_factor=draw(st.floats(0.5, 50.0)),
        until_epochs=draw(st.integers(1, 2)),
        time_limit_s=draw(st.none() | st.floats(60.0, 86400.0)),
        target_accuracy=draw(st.none() | st.floats(0.05, 1.0)),
        **draw(LINK_KEYS),
    )
    if draw(st.booleans()):
        cfg.update(ps_altitude_km=draw(st.floats(10000.0, 30000.0)),
                   ps_inclination_deg=draw(st.floats(0.0, 180.0)))
    else:
        cfg.update(ps_kind="ground", ps_latitude_deg=draw(st.floats(-60.0, 60.0)),
                   ps_longitude_deg=draw(st.floats(-180.0, 180.0)))
    return ScenarioConfig(**cfg)


# every odd link setting goes once, however rarely the draws hold one, and so
# do a label_split over one satellite and, on tiny data, a label_split with
# flipped class means and class means beyond float32
TINY_DATA = dict(samples_per_satellite=2, num_features=3, num_classes=3, test_samples=3)
@SETTINGS
@given(scenarios())
@example(ScenarioConfig(seed=0, **ODD_LINKS[0]))
@example(ScenarioConfig(seed=0, **ODD_LINKS[1]))
@example(ScenarioConfig(seed=0, **ODD_LINKS[2]))
@example(ScenarioConfig(seed=0, **ODD_LINKS[3]))
@example(ScenarioConfig(seed=0, **ODD_LINKS[4]))
@example(ScenarioConfig(seed=0, **ODD_LINKS[5]))
@example(ScenarioConfig(seed=0, num_planes=1, sats_per_plane=1, data_scheme="label_split"))
@example(ScenarioConfig(seed=0, data_scheme="label_split", separation=-4.0, **TINY_DATA))
@example(ScenarioConfig(seed=0, separation=1e300, **TINY_DATA))
def test_validate_is_empty_exactly_when_the_engine_builds(cfg):
    _validate_agrees_with_the_engine(cfg)


# the property's accepting side: most scenarios near the study case build;
# the examples are two learning rates that once validated and then left the
# float range in a desk run, and extreme [learning], [protocol] and [sim]
# settings that validate and run to exit 0
@SETTINGS
@given(study_cases())
@example(desk_scenario(7, until_epochs=2, learning_rate=1e306, local_iterations=3))
@example(desk_scenario(7, until_epochs=2, learning_rate=1e307, local_iterations=1))
@example(desk_scenario(7, until_epochs=2, reconnect_wait_s=1e-300))
@example(desk_scenario(7, until_epochs=2, reconnect_wait_s=1e9))
@example(desk_scenario(7, until_epochs=2, grace_factor=1e300))
@example(desk_scenario(7, until_epochs=2, learning_rate=1e-320))
@example(desk_scenario(7, until_epochs=2, time_limit_s=1e-300))
@example(desk_scenario(7, until_epochs=2, target_accuracy=1e-300))
def test_validate_is_empty_exactly_when_a_study_case_builds(cfg):
    _validate_agrees_with_the_engine(cfg)


def _validate_agrees_with_the_engine(cfg):
    problems = validate_scenario(cfg)
    try:
        _Simulation(_build(cfg), "fedisl")
    except ConfigError:
        assert problems
    else:
        assert problems == []


@SETTINGS
@given(scenarios())
def test_emitted_config_parses_back(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("ini") / "scenario.ini"
    path.write_text(emit_config(cfg), encoding="utf-8")
    # repr, not ==, so that a nan field counts as equal to itself
    assert repr(parse_config(str(path))) == repr(cfg)


def _goals():
    """A run's time limit, 1-6 hours, and its epoch goal, at most two."""
    return st.tuples(st.floats(3600.0, 6 * 3600.0), st.integers(1, 2))


def _run(cfg, goals, protocol_name, watch=None):
    """The run's result, or None when the scenario cannot run under the
    protocol (which scenarios those are is checked above) or gets stuck.
    ``watch(engine)``, when given, is called before the engine runs."""
    limit, epochs = goals
    try:
        build = _build(replace(cfg, time_limit_s=limit, until_epochs=epochs))
        engine = _Simulation(build, protocol_name)
    except ConfigError:
        return None
    if watch is not None:
        watch(engine)
    try:
        return engine.run()
    except DeadlockError:
        return None


@RUN_SETTINGS
@given(scenarios(), _goals(), st.sampled_from(["fedisl", "fednonisl"]))
def test_a_run_reaches_its_goal_or_its_time_limit_or_is_stuck(cfg, goals, protocol_name):
    result = _run(cfg, goals, protocol_name)
    if result is None:
        return
    limit, epochs = goals
    finished = [r.epoch for r in result.records if r.epoch > 0]
    assert result.stop_reason in ("epochs", "time_limit")
    if result.stop_reason == "epochs":
        assert finished == list(range(1, epochs + 1))
    assert all(r.sim_time_s <= limit for r in result.records)


# A scenario that validates trains in the float range: under either protocol
# its run raises no NumericDivergenceError and numpy warns nothing, at the
# drawn learning rate and at the largest that the bound accepts, near enough.
@RUN_SETTINGS
@given(study_cases(), _goals(), st.booleans())
def test_a_run_that_validates_trains_in_the_float_range(cfg, goals, at_the_edge):
    limit, epochs = goals
    if at_the_edge:
        try:
            build = _build(replace(cfg, learning_rate=1.0, time_limit_s=limit, until_epochs=epochs))
        except ConfigError:
            return
        bound = learning.value_bound(build.lcfg, epochs, cfg.num_classes,
                                     list(build.data.values()), build.test_set)
        cfg = replace(cfg, learning_rate=sys.float_info.max / bound * (1.0 - 2.0**-20))
        assert validate_scenario(replace(cfg, time_limit_s=limit, until_epochs=epochs)) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for protocol_name in ("fedisl", "fednonisl"):
            _run(cfg, goals, protocol_name)


@RUN_SETTINGS
@given(scenarios(), _goals())
def test_protocols_agree_epoch_by_epoch(cfg, goals):
    ring, direct = _run(cfg, goals, "fedisl"), _run(cfg, goals, "fednonisl")
    if ring is None or direct is None:
        return
    for epoch in set(ring.epoch_params) & set(direct.epoch_params):
        a, b = ring.epoch_params[epoch], direct.epoch_params[epoch]
        assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1e-30)


@RUN_SETTINGS
@given(scenarios(), _goals(), st.sampled_from(["fedisl", "fednonisl"]))
def test_each_epoch_sends_one_server_model_each_way_per_group(cfg, goals, protocol_name):
    result = _run(cfg, goals, protocol_name)
    if result is None:
        return
    groups = cfg.num_planes * (1 if protocol_name == "fedisl" else cfg.sats_per_plane)
    for before, after in zip(result.records, result.records[1:]):
        assert after.ps_down_msgs - before.ps_down_msgs == groups
        assert after.ps_up_msgs - before.ps_up_msgs == groups


# The engine keeps no guard for states its events never meet: a satellite
# runs _try_deliver only while it holds an aggregate and has none on its way
# to the server, _try_send_partial only before its partial sum is folded, and
# _schedule_poll only while its poll chain is not parked. Blind sinks, elected
# out of view where the group has one, make deliveries wait and hand off.
def _watch_unguarded_states(engine):
    sats, parked, inflight = engine.sats, engine._parked, set()

    def deliverable(sid):
        assert sats[sid].holding is not None and sid not in inflight

    def unfolded(sid):
        assert not sats[sid].partial_sent

    def unparked(sid):
        assert sid not in parked

    def before(name, check):
        method = getattr(engine, name)

        def wrapper(sid, *args):
            check(sid)
            return method(sid, *args)

        setattr(engine, name, wrapper)

    before("_try_deliver", deliverable)
    before("_try_send_partial", unfolded)
    before("_schedule_poll", unparked)
    before("_ps_recv_update", inflight.discard)  # the aggregate has landed
    schedule = engine.schedule

    def booked(t, fn, *args):
        if fn is engine._ps_recv_update:  # an aggregate on its way to the server
            inflight.add(args[0])
        schedule(t, fn, *args)

    engine.schedule = booked


def _blind_sink(group_ids, t_target, window_of):
    """The first member out of the server's view at ``t_target``, else the last."""
    for sat in sorted(group_ids):
        w = window_of(sat, t_target)
        if w is None or w.start_s > t_target:
            return sat
    return max(group_ids)


@RUN_SETTINGS
@given(
    scenarios(),
    _goals(),
    st.sampled_from(["fedisl", "fednonisl"]),
    st.sampled_from([0.0, 2.0]),
    st.booleans(),
)
def test_no_event_meets_a_state_the_engine_keeps_no_guard_for(
    cfg, goals, protocol_name, grace, blind
):
    cfg = replace(cfg, grace_factor=grace)
    with mock.patch.object(protocol, "select_sink", _blind_sink if blind else protocol.select_sink):
        _run(cfg, goals, protocol_name, _watch_unguarded_states)


# -- the server's answers -----------------------------------------------------------------


def _server_state(ps):
    """The server's epoch, served and in-flight groups, and the aggregates and
    model it holds, by identity."""
    received = {g: id(a) for g, a in ps.received.items()}
    return ps.epoch, set(ps.sent), set(ps.inflight), received, id(ps.global_params)


# Requests, acknowledgements and aggregates interleave as the engine can bring
# them: an acknowledgement comes from a group whose model is in flight, and an
# aggregate from a served group. A poll chain parked off the heap never asks
# the server, which holds only if asking for a group in flight or served
# changes nothing.
@SETTINGS
@given(st.integers(1, 8), st.data())
def test_the_server_sends_a_group_one_model_per_epoch_and_asking_it_again_changes_nothing(
    num_groups, data
):
    ps = protocol.PsState(num_groups=num_groups, total_samples=num_groups,
                          global_params=np.zeros(2))
    served = set()  # (epoch, group) for every SEND_MODEL
    for _ in range(data.draw(st.integers(0, 80))):
        before = _server_state(ps)
        epoch, sent, inflight = before[:3]
        groups_for = {"ask": range(num_groups), "ack": inflight, "aggregate": sent}
        op = data.draw(st.sampled_from([op for op, groups in groups_for.items() if groups]))
        group = data.draw(st.sampled_from(sorted(groups_for[op])))
        if op == "ask":
            answer = ps.handle_connection(group)
            if group in inflight | sent:
                assert answer == (protocol.RECONNECT if group in inflight else protocol.WAIT)
                assert _server_state(ps) == before
            else:
                assert answer == protocol.SEND_MODEL and (epoch, group) not in served
                served.add((epoch, group))
                assert _server_state(ps) == (epoch, sent, inflight | {group}, *before[3:])
        elif op == "ack":
            ps.downlink_acked(group)
        elif group in ps.received:
            with pytest.raises(protocol.ProtocolError):
                ps.handle_partial(group, np.ones(2))
            assert _server_state(ps) == before
        else:
            ps.handle_partial(group, np.ones(2))


# -- coasting parked poll chains ---------------------------------------------------------

FIRE, REQUEST, REPLY = "_fire_poll", "_ps_recv_request", "_sat_recv_ctrl"


@st.composite
def coast_cases(draw):
    """A small engine that can run, the parked chains of some of its
    satellites, each with its next poll due in the first 6 h, and a time to
    coast them to."""
    altitude_km = draw(st.floats(300.0, 20000.0))
    cfg = ScenarioConfig(
        seed=draw(st.integers(0, 2**16)),
        num_planes=draw(st.integers(1, 4)),
        sats_per_plane=draw(st.integers(1, 8)),
        altitude_km=altitude_km,
        inclination_deg=draw(st.floats(0.0, 180.0)),
        ps_kind=draw(st.sampled_from(["orbit", "ground"])),
        # off the satellites' shell, so that no satellite sits on the server
        ps_altitude_km=altitude_km + draw(st.floats(100.0, 20000.0)),
        ps_inclination_deg=draw(st.floats(0.0, 180.0)),
        ps_latitude_deg=draw(st.floats(-90.0, 90.0)),
        ps_min_elevation_deg=draw(st.floats(0.0, 60.0)),
        reconnect_wait_s=draw(st.floats(1.0, 600.0)),
        # delays long enough that a coast often stops between a poll and its reply
        tx_delay_s=draw(st.floats(0.0, 5.0)),
        rx_delay_s=draw(st.floats(0.0, 5.0)),
        num_features=3,
        num_classes=2,
        samples_per_satellite=2,
        test_samples=4,
    )
    engine = _Simulation(_build(cfg), "fednonisl")
    sids = draw(st.lists(st.sampled_from(engine.con.satellite_ids()), min_size=1, unique=True))
    polls = {sid: draw(st.floats(0.0, 6 * 3600.0)) for sid in sids}
    return engine, polls, draw(st.floats(0.0, 8 * 3600.0))


def _coast_one(engine, sid, t, until):
    """One chain from its poll due at t, carried stage by stage as the event
    handlers would run it, to its first stage due after ``until``: (t,
    stage, polls, answers)."""

    def transfer_s(t):
        d_m = engine.con.distance_km(sid, PS_NODE, t) * 1000.0
        return link.transfer_time(engine.link_params, d_m, link.CONTROL_MESSAGE_BITS)

    stage, polls, answers = FIRE, 0, 0
    while t <= until:
        if stage == FIRE:
            w = engine.plan.window(sid, t)
            at = math.inf if w is None else max(t, w.start_s)
            if at > t:  # out of view: poll when the window opens
                t = at
                continue
            polls += 1
            t, stage = t + transfer_s(t), REQUEST
        elif stage == REQUEST:
            answers += 1
            t, stage = t + transfer_s(t), REPLY
        else:
            t, stage = t + engine.cfg.reconnect_wait_s, FIRE
    return t, stage, polls, answers


@settings(max_examples=30, derandomize=True, deadline=None)
@given(coast_cases())
def test_coasting_parked_chains_runs_each_cycle_as_events_would(case):
    engine, polls, until = case
    for sid, t in polls.items():
        engine._parked[sid] = t
    engine._replay_parked(until)
    # each chain is booked once, as its record and its one event, in parking order
    booked = sorted(engine.queue, key=lambda event: event[1])
    assert engine._parked == {} and [args[0] for *_, args in booked] == list(polls)
    up = down = 0
    for at, _, fn, (sid, *reply) in booked:
        t, want, asked, answered = _coast_one(engine, sid, polls[sid], until)
        up, down = up + asked, down + answered
        assert (at, fn.__name__) == engine._due[sid] == (t, want)
        assert reply == ([None] if want == REPLY else [])
    assert engine.counters["ps_up_bits"] == up * link.CONTROL_MESSAGE_BITS
    assert engine.counters["ps_down_bits"] == down * link.CONTROL_MESSAGE_BITS


def _drawn_then_dealt(num_samples, num_features, num_classes, seed, workers, scheme, groups):
    """Each shard's (levels, labels) as one whole draw gives them: the labels,
    then the deal, then the byte levels of every row at once, in block order,
    each row a whole number of 32-bit words of which it keeps the first
    ``num_features``. None when a worker would get no rows or a label group no
    worker."""
    rng = np.random.default_rng(seed + 1)
    base, extra = divmod(num_samples, num_classes)
    labels = np.repeat(np.arange(num_classes), [base + (c < extra) for c in range(num_classes)])
    labels = labels[rng.permutation(num_samples)]
    deal = np.random.default_rng(seed + 2)
    if scheme == "iid":
        order = deal.permutation(num_samples)
        rows = [order[w::workers] for w in range(workers)]
    else:
        rows = []
        for group, block in zip(groups, np.array_split(np.arange(workers), len(groups))):
            if block.size == 0:
                return None
            members = np.nonzero(np.isin(labels, sorted(group)))[0]
            order = members[deal.permutation(members.size)]
            rows += [order[j :: block.size] for j in range(block.size)]
    if any(r.size == 0 for r in rows):
        return None
    width = 4 * -(-num_features // 4)
    levels = rng.integers(0, 256, size=(num_samples, width), dtype=np.uint8)[:, :num_features]
    starts = np.cumsum([0] + [r.size for r in rows])
    return [(levels[start : start + r.size], labels[r]) for r, start in zip(rows, starts)]


@SETTINGS
@given(
    num_samples=st.integers(2, 60),
    num_features=st.integers(1, 9),
    num_classes=st.integers(2, 4),
    seed=st.integers(0, 2**16),
    workers=st.integers(1, 7),
    scheme=st.sampled_from(["iid", "label_split"]),
)
def test_a_pool_drawn_into_shard_order_equals_one_drawn_whole_then_dealt(
    num_samples, num_features, num_classes, seed, workers, scheme
):
    num_samples = max(num_samples, num_classes)
    groups = [set(range(num_classes // 2)), set(range(num_classes // 2, num_classes))]
    want = _drawn_then_dealt(num_samples, num_features, num_classes, seed, workers, scheme, groups)

    def shard(labels):
        return learning.partition_dataset(labels, workers, scheme, seed + 2, num_classes)

    try:
        shards = learning.synthetic_pool(
            num_samples, num_features, num_classes, seed + 1, 3.0, means_seed=seed, shard=shard
        )
    except learning.PartitionError:
        assert want is None
        return
    assert want is not None and len(shards) == len(want)
    means = np.random.default_rng(seed).normal(size=(num_classes, num_features))
    means *= 3.0 / np.sqrt(num_features)
    sd = np.sqrt((256**2 - 1) / 12)
    for got, (levels, labels) in zip(shards, want):
        assert got.levels.dtype == np.uint8
        assert got.levels.tobytes() == levels.tobytes()
        assert got.labels.tolist() == labels.tolist()
        assert got.scale == 1 / sd
        assert got.shifts.tobytes() == (means - 127.5 / sd).tobytes()


@st.composite
def folded_cases(draw):
    """A dataset of one storage kind (a synthetic pool, idx files, or float
    rows), and a model for it. Its feature count is no multiple of 4, and its
    row count is within one row of a whole number of blocks of the scores'
    product, 2**18 multiply-adds each."""
    num_classes = draw(st.integers(2, 10))
    # blocks of 40 rows at most, and of 64 / num_classes rows at least, so
    # that a row holds at most 4,096 features
    rows_wanted = draw(st.integers(-(-64 // num_classes), 40))
    num_features = learning._BLOCK_MADDS // (rows_wanted * num_classes)
    if num_features % 4 == 0:
        num_features -= 1
    block_rows = learning._BLOCK_MADDS // (num_features * num_classes)
    num_samples = max(num_classes, block_rows * draw(st.integers(1, 2)) + draw(st.integers(-1, 1)))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["synthetic", "idx", "float"]))
    if kind == "synthetic":
        separation = draw(st.floats(0.0, 8.0))
        dataset = learning.synthetic_pool(num_samples, num_features, num_classes, seed, separation)
    else:
        labels = rng.integers(0, num_classes, num_samples)
        if kind == "idx":
            images = rng.integers(0, 256, (num_samples, num_features, 1), dtype=np.uint8)
            with tempfile.TemporaryDirectory() as folder:
                paths = write_idx_pair(Path(folder), images, labels)
                dataset = learning.load_idx(*paths, num_samples, num_features, num_classes)
        else:
            dataset = learning.LocalDataset(rng.normal(size=(num_samples, num_features)), labels)
    params = rng.normal(scale=draw(st.floats(0.01, 1.0)), size=(num_features + 1) * num_classes)
    return dataset, params


# The products fold the dataset's map from levels to features into the model,
# and equal, to 1e-12 of the magnitudes they sum, the plain float64 products
# of the rows that helpers.augmented rebuilds from the levels.
@settings(max_examples=45, derandomize=True, deadline=None)
@given(folded_cases())
def test_folded_products_equal_the_products_of_the_rebuilt_rows(case):
    dataset, params = case
    weights = params.reshape(dataset.num_features + 1, -1)
    rows = augmented(dataset)
    # each feature's two terms, level and shift, apart: what the products sum
    terms = np.abs(dataset.scale * dataset.levels.astype(np.float64))
    if dataset.shifts is not None:
        terms += np.abs(dataset.shifts[dataset.labels])
    terms = np.hstack([terms, np.ones((dataset.num_samples, 1))])

    scores = rows @ weights
    got = learning._scores(dataset.levels, weights, dataset)
    assert np.all(np.abs(got - scores) <= 1e-12 * (terms @ np.abs(weights)))

    probs = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(dataset.num_samples), dataset.labels] -= 1.0
    want = rows.T @ probs / dataset.num_samples
    got = learning.local_gradient(params, dataset).reshape(want.shape)
    assert np.all(np.abs(got - want) <= 1e-12 * (terms.T @ np.abs(probs)) / dataset.num_samples)

    accuracy, loss = learning.evaluate(params, dataset)
    assert accuracy == np.mean(np.argmax(scores, axis=1) == dataset.labels)
    assert loss == pytest.approx(cross_entropy(params, dataset), rel=1e-12)

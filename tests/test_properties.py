"""Properties of random scenarios: validation agrees with the engine, INI
text round-trips, and runs stop cleanly with the same models and one server
model each way per group and epoch under both protocols.

Constellations are drawn with 0-6 planes of 0-12 satellites at random
altitudes, among them sizes, altitudes and angles that no scenario may have,
around an orbit or a ground server. Data stays tiny so that building an
engine is cheap, and a run goes for at most two epochs and a few hours.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitfl.cli import emit_config, parse_config
from orbitfl.sim import (
    ConfigError,
    DeadlockError,
    ScenarioConfig,
    _Simulation,
    validate_scenario,
)

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)
RUN_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


def _mostly(good, *odd):
    """``good``, or now and then one of the ``odd`` values no scenario may have."""
    return st.integers(0, 15).flatmap(lambda k: st.sampled_from(odd) if k == 15 else good)


def _altitude():
    return _mostly(st.floats(300.0, 40000.0), 0.0, -1.0, math.nan, math.inf)


@st.composite
def scenarios(draw):
    cfg = dict(
        seed=draw(st.integers(0, 2**16)),
        num_planes=draw(_mostly(st.integers(1, 6), 0)),
        sats_per_plane=draw(_mostly(st.integers(1, 12), 0)),
        altitude_km=draw(_altitude()),
        inclination_deg=draw(_mostly(st.floats(0.0, 180.0), -1.0, 181.0)),
        phasing_factor=draw(st.integers(-3, 3)),
        num_features=draw(st.integers(3, 8)),
        num_classes=draw(st.integers(2, 4)),
        samples_per_satellite=draw(st.integers(1, 4)),
        test_samples=draw(st.integers(4, 12)),
        until_epochs=1,
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


@SETTINGS
@given(scenarios())
def test_validate_is_empty_exactly_when_the_engine_builds(cfg):
    problems = validate_scenario(cfg)
    try:
        _Simulation(cfg, "fedisl")
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


def _run(cfg, goals, protocol_name):
    """The run's result, or None when the scenario cannot run under the
    protocol (which scenarios those are is checked above) or gets stuck."""
    limit, epochs = goals
    try:
        engine = _Simulation(replace(cfg, time_limit_s=limit, until_epochs=epochs), protocol_name)
    except ConfigError:
        return None
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

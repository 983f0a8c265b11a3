"""Properties of random scenarios: validation agrees with the engine, and INI
text round-trips.

Constellations are drawn with 0-6 planes of 0-12 satellites at random
altitudes, among them sizes, altitudes and angles that no scenario may have,
around an orbit or a ground server. Data stays tiny so that building an
engine is cheap.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitfl.cli import emit_config, parse_config
from orbitfl.sim import ConfigError, ScenarioConfig, _Simulation, validate_scenario

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


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

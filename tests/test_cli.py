import configparser
import dataclasses
import io
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from orbitfl.cli import (
    COMPARE_HEADER,
    CONFIG_SCHEMA,
    CONTACTS_HEADER,
    RUN_HEADER,
    SEED_ENV_VAR,
    _hours,
    emit_config,
    main,
    parse_config,
    render_run_csv,
)
from orbitfl.sim import (
    MAX_SPAN_S,
    ConfigError,
    ScenarioConfig,
    contact_table,
    desk_scenario,
    reference_scenario,
)

from helpers import write_idx_pair

SMALL = """
[data]
samples_per_satellite = 10
test_samples = 60
num_features = 16
num_classes = 3

[learning]
compute_time_factor = 25.0

[sim]
seed = 7
until_epochs = 2
"""

STUCK = """
[constellation]
num_planes = 1
sats_per_plane = 5
inclination_deg = 0.0

[ps]
kind = ground
latitude_deg = 90.0
min_elevation_deg = 10.0

[data]
samples_per_satellite = 5
test_samples = 10
num_features = 4
num_classes = 2

[sim]
seed = 1
"""


@pytest.fixture
def small_ini(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    return str(path)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


# -- config parsing --------------------------------------------------------------


def test_parse_minimal_fills_defaults(small_ini):
    cfg = parse_config(small_ini)
    assert cfg.seed == 7
    assert cfg.num_planes == 5 and cfg.sats_per_plane == 8  # untouched defaults
    assert cfg.num_features == 16 and cfg.until_epochs == 2
    assert cfg.time_limit_s is None


def test_parse_unknown_key_reports_line(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[sim]\nseed = 1\nspeed = 9\n")
    with pytest.raises(ConfigError, match=r"unknown key \[sim\] speed .*line 3"):
        parse_config(str(path))


def test_parse_bad_value_reports_line(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[constellation]\naltitude_km = high\n\n[sim]\nseed = 1\n")
    with pytest.raises(ConfigError, match=r"bad value 'high' .*altitude_km.*line 2"):
        parse_config(str(path))


def test_parse_mixed_case_key_reports_line(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[sim]\nseed = 1\n\n[constellation]\nAltitude_KM = high\n")
    with pytest.raises(ConfigError, match=r"bad value 'high' .*altitude_km.*\(line 5\)"):
        parse_config(str(path))


PERCENT_PATHS = {"train_images_path": "/data/50%_split/x", "test_images_path": "/data/%(seed)s"}


def test_values_are_read_as_written(tmp_path, capsys):
    path = tmp_path / "percent.ini"
    path.write_text(ini_with({"data": PERCENT_PATHS}))
    cfg = parse_config(str(path))
    assert cfg.train_images_path == "/data/50%_split/x"
    assert cfg.test_images_path == "/data/%(seed)s"
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_every_field_is_set_by_exactly_one_key():
    fields = [field for keys in CONFIG_SCHEMA.values() for field, _ in keys.values()]
    assert sorted(fields) == sorted(f.name for f in dataclasses.fields(ScenarioConfig))


def test_readme_scenario_parses_to_the_desk_preset(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert parse_config(str(path)) == desk_scenario(7, until_epochs=5)


def test_parse_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[orbits]\nnum_planes = 3\n")
    with pytest.raises(ConfigError, match=r"unknown section \[orbits\] in .*\(line 1\)"):
        parse_config(str(path))


# configparser would copy [DEFAULT]'s keys into every section, so beside
# [constellation] its seed was an unknown key there, and alone it was ignored
@pytest.mark.parametrize(
    "text",
    [
        "[DEFAULT]\nseed = 2\n\n[constellation]\nnum_planes = 5\n",
        "; scenario\n[DEFAULT]\nseed = 2\n",
    ],
    ids=["beside", "alone"],
)
def test_default_section_is_an_unknown_section(tmp_path, capsys, text):
    path = tmp_path / "defaults.ini"
    path.write_text(text)
    line = text.splitlines().index("[DEFAULT]") + 1
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"unknown section [DEFAULT] in {path} (line {line})" in err


# a scenario file that still sets the grid scan's step is refused at validate
def test_contact_step_is_an_unknown_key(tmp_path, capsys):
    path = tmp_path / "old.ini"
    path.write_text("[protocol]\ncontact_step_s = 10.0\n\n[sim]\nseed = 1\n")
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"unknown key [protocol] contact_step_s in {path} (line 2)" in err


def test_parse_missing_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config("/nonexistent/nowhere.ini")


def test_parse_requires_seed(tmp_path):
    path = tmp_path / "seedless.ini"
    path.write_text("[constellation]\nnum_planes = 2\n")
    with pytest.raises(ConfigError, match="no seed"):
        parse_config(str(path))
    assert parse_config(str(path), seed_override=4).seed == 4


def test_seed_priority(small_ini, monkeypatch, tmp_path):
    out = tmp_path / "o.csv"

    def seed_in(args):
        main(args + ["--out", str(out)])
        return int(out.read_text().splitlines()[0].split("=")[1])

    base = ["contacts", "--config", small_ini, "--horizon-hours", "0.5"]
    # contacts CSV has no seed line, so use run for this
    base = ["run", "--config", small_ini]
    assert seed_in(base) == 7
    monkeypatch.setenv(SEED_ENV_VAR, "9")
    assert seed_in(base) == 9
    assert seed_in(base + ["--seed", "11"]) == 11


def test_env_seed_must_be_integer(small_ini, monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV_VAR, "eleven")
    assert main(["run", "--config", small_ini]) == 1
    assert "must be an integer" in capsys.readouterr().err


def test_emit_round_trips(tmp_path):
    for cfg in (
        reference_scenario(seed=5),
        desk_scenario(
            seed=12,
            ps_kind="ground",
            ps_latitude_deg=53.08,
            ps_longitude_deg=8.8,
            time_limit_s=1234.5,
            target_accuracy=0.9,
            data_scheme="label_split",
        ),
        desk_scenario(seed=3, **PERCENT_PATHS),
    ):
        path = tmp_path / "echo.ini"
        path.write_text(emit_config(cfg))
        assert parse_config(str(path)) == cfg


# -- run subcommand ----------------------------------------------------------------


def test_run_writes_exact_csv(small_ini, tmp_path):
    out = tmp_path / "metrics.csv"
    assert main(["run", "--config", small_ini, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == RUN_HEADER
    assert len(lines) == 2 + 3  # epoch 0 plus two completed epochs
    first = lines[2].split(",")
    assert first[0] == "0.0" and first[1] == "0"
    assert float(first[3]) == pytest.approx(math.log(3), rel=1e-6)
    assert all(c.isdigit() for c in first[4:11])


def test_run_is_byte_reproducible(small_ini, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", small_ini, "--out", str(a)]) == 0
    assert main(["run", "--config", small_ini, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_prints_to_stdout(small_ini, capsys):
    assert main(["run", "--config", small_ini]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# seed=7" and lines[1] == RUN_HEADER


def test_run_direct_protocol(small_ini, tmp_path):
    out = tmp_path / "direct.csv"
    assert main(["run", "--config", small_ini, "--out", str(out), "--protocol", "fednonisl"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    down = [int(r[4]) for r in rows]
    assert down == [0, 40, 80]
    assert all(int(r[8]) == 0 for r in rows)  # no relaying in the direct protocol


def test_run_rejects_unknown_protocol(small_ini):
    with pytest.raises(SystemExit):
        main(["run", "--config", small_ini, "--protocol", "fedavg"])


def test_render_run_csv_uses_plain_float_repr():
    from orbitfl.sim import MetricsRecord
    import numpy as np

    rec = MetricsRecord(
        sim_time_s=np.float64(1.5),
        epoch=1,
        test_accuracy=np.float64(0.25),
        test_loss=np.float64(2.0),
        ps_down_msgs=5,
        ps_down_bits=10,
        ps_up_msgs=5,
        ps_up_bits=10,
        isl_msgs=0,
        isl_bits=0,
        fallback_hops=0,
        epoch_duration_s=np.float64(1.5),
    )
    body = render_run_csv([rec], seed=3).splitlines()[2]
    assert body == "1.5,1,0.25,2.0,5,10,5,10,0,0,0,1.5"


# -- compare subcommand ---------------------------------------------------------------


def test_compare_emits_summary(small_ini, tmp_path):
    out = tmp_path / "summary.csv"
    assert main(["compare", "--config", small_ini, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == COMPARE_HEADER
    speedup, traffic = lines[2].split(",")
    assert traffic == "8.0"
    assert float(speedup) > 1.0


# -- contacts subcommand ----------------------------------------------------------------


def test_contacts_lists_windows(small_ini, tmp_path):
    out = tmp_path / "contacts.csv"
    assert main(
        ["contacts", "--config", small_ini, "--out", str(out), "--horizon-hours", "2"]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CONTACTS_HEADER
    cfg = parse_config(small_ini)
    want = contact_table(cfg, 7200.0)
    assert len(lines) == 1 + len(want)
    sat, plane, start, end = lines[1].split(",")
    assert (int(sat), int(plane)) == (want[0][0], want[0][1])
    assert float(start) == pytest.approx(want[0][2], abs=1e-9)
    assert float(end) == pytest.approx(want[0][3], abs=1e-9)


@pytest.mark.parametrize("hours", ["inf", "nan", "-1", "0", "1e306"])
def test_contacts_rejects_bad_horizon_as_usage_error(small_ini, capsys, hours):
    with pytest.raises(SystemExit) as exit_:
        main(["contacts", "--config", small_ini, "--horizon-hours", hours])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--horizon-hours" in err


# A scan takes time in proportion to its span even when it finds no window: on
# STUCK, where no satellite ever sees the server, a year of it takes about
# 0.6 s and prints nothing, and 1e12 hours never ended. A span may be one year
# at most.
def test_contacts_rejects_a_horizon_past_a_year(tmp_path, capsys):
    path = tmp_path / "stuck.ini"
    path.write_text(STUCK)
    with pytest.raises(SystemExit) as exit_:
        main(["contacts", "--config", str(path), "--horizon-hours", "8760.001"])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--horizon-hours" in err and "(0, 8760]" in err
    assert _hours("8760") * 3600.0 == MAX_SPAN_S


# Satellite 15 sees a 40-degree station from about 9,964 s to 10,520 s, over
# the grid time 10,000 s of a 1,000 s tolerance, so the 3 h table lists that
# pass from 10,000 s to the table's end, though it is shorter than a grid step.
def test_contacts_list_a_pass_shorter_than_a_grid_step(tmp_path):
    config, out = tmp_path / "scenario.ini", tmp_path / "contacts.csv"
    cfg = ScenarioConfig(seed=7, ps_kind="ground", ps_latitude_deg=40.0, contact_tol_s=1000.0)
    config.write_text(emit_config(cfg), encoding="utf-8")
    argv = ["contacts", "--config", str(config), "--horizon-hours", "3", "--out", str(out)]
    assert main(argv) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert [row for row in rows if row.startswith("15,")] == ["15,1,10000.0,10800.0"]


# -- validate subcommand -------------------------------------------------------------------


def test_validate_accepts_good_config(small_ini, capsys):
    assert main(["validate", "--config", small_ini]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def ini_with(overrides) -> str:
    """SMALL with some keys replaced, as INI text."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(SMALL)
    parser.read_dict(overrides)
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


def at(path, setting) -> str:
    """Where a problem points ``setting``, a line such as "kind = moon" of the
    file at ``path``: " in PATH (line N)"."""
    return f" in {path} (line {path.read_text().splitlines().index(setting) + 1})"


@pytest.mark.parametrize(
    "overrides",
    [
        {"learning": {"compute_time_factor": "0"}},
        {"learning": {"cycles_per_sample": "0"}},
        {"learning": {"learning_rate": "nan"}},
        {"protocol": {"contact_tol_s": "nan"}},
        {"protocol": {"contact_tol_s": "1e-310"}},
        {"link": {"tx_power_dbm": "nan"}},
        {"link": {"tx_delay_s": "-1"}},
        {"ps": {"kind": "ground", "latitude_deg": "120"}},
        {"ps": {"kind": "ground", "min_elevation_deg": "95"}},
        {"ps": {"raan_deg": "400"}},
        {"data": {"samples_per_satellite": "1", "num_classes": "60"}},
        {"data": {"test_samples": "5", "num_classes": "10"}},
        {
            "constellation": {"num_planes": "1", "sats_per_plane": "1"},
            "data": {"scheme": "label_split"},
        },
        {"ps": {"altitude_km": "nan"}},
        {"constellation": {"sats_per_plane": "0"}},
    ],
    ids=lambda overrides: ",".join(
        f"{key}={value}" for keys in overrides.values() for key, value in keys.items()
    ),
)
def test_validate_rejects_what_run_rejects(tmp_path, capsys, overrides):
    path = tmp_path / "bad.ini"
    path.write_text(ini_with(overrides))
    assert main(["validate", "--config", str(path)]) == 1
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 1
    assert "config error" in capsys.readouterr().err


# one plane on the server's own equatorial orbit, satellite 1 at its phase
ON_THE_SERVER = {
    "constellation": {
        "num_planes": "1",
        "sats_per_plane": "4",
        "altitude_km": "20000.0",
        "inclination_deg": "0.0",
    }
}


@pytest.mark.parametrize("protocol", ["fedisl", "fednonisl"])
def test_a_satellite_on_the_server_is_a_config_error(tmp_path, capsys, protocol):
    path = tmp_path / "on_server.ini"
    path.write_text(ini_with(ON_THE_SERVER))
    assert main(["validate", "--config", str(path), "--seed", "7"]) == 1
    problem = (
        "satellite 1 collides with the server: "
        "they share a radius and pass within 10 m of each other"
    )
    assert capsys.readouterr().out.splitlines() == [f"[ps] {problem}"]
    out = tmp_path / "out.csv"
    argv = ["run", "--config", str(path), "--seed", "7", "--protocol", protocol, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.strip() == f"config error: [ps] {problem}"
    assert not out.exists()


# a link whose Shannon rate rounds to 0 at long range: a weak transmitter, a
# band so wide that its noise drowns any signal, one so narrow that its noise
# power rounds to 0, or a carrier so high that its path loss overflows
@pytest.mark.parametrize("key, value", [("tx_power_dbm", "-100"), ("bandwidth_hz", "1e30"),
                                        ("bandwidth_hz", "1e-310"), ("carrier_hz", "1e299")])
def test_a_link_whose_rate_rounds_to_zero_is_a_config_error(tmp_path, capsys, key, value):
    path = tmp_path / "mute.ini"
    path.write_text(ini_with({"link": {key: value}}))
    problem = ("[link] rate rounds to 0 bit/s at the longest line of sight, 31020 km, "
               "so a transfer there never ends")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [problem]
    for command in ("run", "compare"):
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"config error: {problem}\n")


# a power in dBm or a gain in dBi whose linear form a float cannot hold, or a
# negative processing delay: the link's own rule names the key, so the problem
# points at its line
@pytest.mark.parametrize("key, value, rule", [
    ("tx_power_dbm", "1e20", "overflows as a power in W, got 1e+20"),
    ("antenna_gain_dbi", "1e5", "overflows as a linear gain, got 100000.0"),
    ("tx_power_dbm", "-4000", "rounds to 0 as a power in W, got -4000.0"),
    ("tx_delay_s", "-1", "must be >= 0, got -1.0"),
])
def test_a_link_setting_its_layer_refuses_names_its_key(tmp_path, capsys, key, value, rule):
    path = tmp_path / "bad.ini"
    path.write_text(ini_with({"link": {key: value}}))
    problem = f"[link] {key}{at(path, f'{key} = {value}')} {rule}"
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == (problem + "\n", "")
    for command in ("run", "compare"):
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"config error: {problem}\n")


# four satellites a plane at 2000 km sit farther apart than their line of
# sight reaches, so the ring protocol cannot run: a problem of sats_per_plane
def test_a_ring_beyond_line_of_sight_names_sats_per_plane(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(ini_with({"constellation": {"sats_per_plane": "4"}}))
    problem = (f"[constellation] sats_per_plane{at(path, 'sats_per_plane = 4')} is too few for "
               "the ring protocol, got 4: adjacent satellites in a plane are 11838.4 km apart, "
               "beyond their 10859.8 km line-of-sight range")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == (problem + "\n", "")
    for command in ("run", "compare"):
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"config error: {problem}\n")
    assert main(["run", "--config", str(path), "--protocol", "fednonisl",
                 "--out", str(tmp_path / "out.csv")]) == 0


# a link whose signal-to-noise ratio overflows at the least distance two nodes
# may come to: a noise power of about 3e-316 W, and a strong transmitter (the
# least distance to the orbiting server, 18,000 km) or a server 0.5 km off the
# satellites' shell. Such a run's transfers would divide to an infinite rate,
# and numpy would warn of the overflow on stderr.
@pytest.mark.parametrize("overrides, least", [
    ({"link": {"noise_temperature_k": "1e-300", "tx_power_dbm": "130"}}, "18000"),
    ({"link": {"noise_temperature_k": "1e-300"}, "ps": {"altitude_km": "2000.5"}}, "0.5"),
], ids=["strong-transmitter", "server-near-the-shell"])
def test_a_signal_to_noise_ratio_that_overflows_is_a_config_error(
    tmp_path, capsys, overrides, least
):
    path = tmp_path / "loud.ini"
    path.write_text(ini_with(overrides))
    problem = (f"[link] signal-to-noise ratio overflows at the least distance, {least} km, "
               "so the rate there has no bound")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == (problem + "\n", "")
    out = tmp_path / "out.csv"
    for command in ("run", "compare", "contacts"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"config error: {problem}\n")
        assert not out.exists()


# class means beyond the float32 range, which rows given as floats may not
# reach either: numpy overflows nowhere, and the problem names its key's line
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("separation", ["-1e+300", "1.7e+308"])
def test_a_separation_beyond_the_float32_range_is_a_config_error(tmp_path, capsys, separation):
    path = tmp_path / "far.ini"
    path.write_text(ini_with({"data": {"separation": separation}}))
    problem = (f"[data] separation{at(path, f'separation = {separation}')} must keep the class "
               f"means within the float32 range, got {float(separation)}")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == (problem + "\n", "")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr() == ("", f"config error: {problem}\n")


# a link on which a model takes longer to reach the server, even at the least
# distance a satellite comes to it (the radii's difference, 18,000 km here),
# than the passes a run reads last: the run would stall as stuck
@pytest.mark.parametrize("bandwidth, seconds", [("1e-3", "1.05e+07"), ("1e-200", "3.71e+202"),
                                                ("1e-290", "2.57e+292")])
def test_a_link_too_slow_for_any_pass_is_a_config_error(tmp_path, capsys, bandwidth, seconds):
    path = tmp_path / "slow.ini"
    path.write_text(f"[link]\nbandwidth_hz = {bandwidth}\n\n[sim]\nseed = 7\n")
    problem = (f"[link] a model takes {seconds} s to reach the server even at the least "
               "distance, 18000 km, longer than the 2.64e+06 s of passes a run reads, "
               "so no pass carries one")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == (problem + "\n", "")
    out = tmp_path / "out.csv"
    for command in ("run", "compare", "contacts"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"config error: {problem}\n")
        assert not out.exists()


# an altitude so small that adding it to the Earth's radius leaves the radius:
# a satellite or an orbiting server would sit on the ground, under either server
@pytest.mark.parametrize(
    "overrides, section",
    [
        ({"constellation": {"altitude_km": "1e-13"}}, "constellation"),
        ({"constellation": {"altitude_km": "1e-13"}, "ps": {"kind": "ground"}}, "constellation"),
        ({"ps": {"altitude_km": "1e-13"}}, "ps"),
    ],
    ids=["orbit-server", "ground-server", "server-altitude"],
)
def test_an_altitude_that_rounds_away_is_a_config_error(tmp_path, capsys, overrides, section):
    path = tmp_path / "flat.ini"
    path.write_text(ini_with(overrides))
    problem = (f"[{section}] altitude_km{at(path, 'altitude_km = 1e-13')} must raise the orbit "
               "above the Earth's radius of 6371 km, got 1e-13")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == (problem + "\n", "")
    for command in ("run", "compare", "contacts"):
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"config error: {problem}\n")


# one bad value in [link] and one in [learning]: every command names both
def test_every_command_reports_every_problem_by_section(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(ini_with({"link": {"bandwidth_hz": "-5"}, "learning": {"learning_rate": "-1"}}))
    problems = [
        f"[link] bandwidth_hz{at(path, 'bandwidth_hz = -5')} must be positive, got -5.0",
        f"[learning] learning_rate{at(path, 'learning_rate = -1')} must be positive, got -1.0",
    ]
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == problems
    out = tmp_path / "out.csv"
    for command in ("run", "compare", "contacts"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: " + "; ".join(problems) + "\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"constellation": {"altitude_km": "-5"}},
        {"protocol": {"contact_tol_s": "0"}},
        {"ps": {"kind": "moon"}},
    ],
    ids=["altitude", "contact_tol", "ps_kind"],
)
def test_contacts_rejects_what_run_rejects(tmp_path, capsys, overrides):
    path = tmp_path / "bad.ini"
    path.write_text(ini_with(overrides))
    assert main(["validate", "--config", str(path)]) == 1
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 1
    assert main(["contacts", "--config", str(path), "--out", str(tmp_path / "windows.csv")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "windows.csv").exists()


@pytest.mark.parametrize(
    "overrides, setting, line",
    [
        ({"ps": {"raan_deg": "400"}}, "raan_deg = 400", "[ps] raan_deg{} outside [0, 360): 400.0"),
        (
            {"ps": {"kind": "ground", "latitude_deg": "120"}},
            "latitude_deg = 120",
            "[ps] latitude_deg{} outside [-90, 90]: 120.0",
        ),
        (
            {"constellation": {"inclination_deg": "200"}},
            "inclination_deg = 200",
            "[constellation] inclination_deg{} outside [0, 180]: 200.0",
        ),
    ],
    ids=["raan", "latitude", "inclination"],
)
def test_validate_reports_angles_in_degrees(tmp_path, capsys, overrides, setting, line):
    path = tmp_path / "bad.ini"
    path.write_text(ini_with(overrides))
    line = line.format(at(path, setting))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [line]
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"config error: {line}\n"


@pytest.mark.parametrize("factor", ["10", "-1"])
def test_validate_accepts_any_phasing_factor(tmp_path, capsys, factor):
    path = tmp_path / "phased.ini"
    path.write_text(ini_with({"constellation": {"phasing_factor": factor}}))
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_rejects_a_time_limit_past_a_year(tmp_path, capsys):
    path = tmp_path / "long.ini"
    path.write_text(ini_with({"sim": {"time_limit_s": "31536000.5"}}))
    assert main(["validate", "--config", str(path)]) == 1
    where = at(path, "time_limit_s = 31536000.5")
    problem = f"[sim] time_limit_s{where} must lie in (0, 31536000] when set (one year)"
    assert capsys.readouterr().out.splitlines() == [problem]
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 1
    assert problem in capsys.readouterr().err
    path.write_text(ini_with({"sim": {"time_limit_s": "31536000"}}))
    assert main(["validate", "--config", str(path)]) == 0


# a seed from --seed or the environment is not the file's, so its problem
# names no line there
def test_validate_names_a_negative_seed(tmp_path, capsys, monkeypatch):
    path = tmp_path / "bad.ini"
    path.write_text(ini_with({"sim": {"seed": "-1"}}))
    assert main(["validate", "--config", str(path)]) == 1
    problem = f"[sim] seed{at(path, 'seed = -1')} must be a non-negative integer, got -1"
    assert capsys.readouterr().out.splitlines() == [problem]
    path.write_text(SMALL)
    assert main(["validate", "--config", str(path), "--seed", "-1"]) == 1
    problem = "[sim] seed must be a non-negative integer, got -1"
    assert capsys.readouterr().out.splitlines() == [problem]
    monkeypatch.setenv(SEED_ENV_VAR, "-1")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [problem]


# Every problem names the section and the key to edit, the settings' own rules
# as the layers' rules do, and every command prints the same lines.
def test_every_problem_is_tagged_with_its_section_and_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    overrides = {"ps": {"kind": "moon"}, "sim": {"time_limit_s": "31536000.5"}}
    path.write_text(ini_with({**overrides, "link": {"bandwidth_hz": "-5"}}))
    problems = [
        f"[ps] kind{at(path, 'kind = moon')} must be 'orbit' or 'ground', got 'moon'",
        f"[sim] time_limit_s{at(path, 'time_limit_s = 31536000.5')} must lie in (0, 31536000]"
        " when set (one year)",
        f"[link] bandwidth_hz{at(path, 'bandwidth_hz = -5')} must be positive, got -5.0",
    ]
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == problems
    out = tmp_path / "out.csv"
    for command in ("run", "compare", "contacts"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: " + "; ".join(problems) + "\n"
        assert not out.exists()


BAD_SETTINGS = """# four settings that no scenario takes
[sim]
seed = 7
time_limit_s = 31536000.5

[link]
tx_power_dbm = 40.0
bandwidth_hz = -5

[ps]
altitude_km = 20000.0
kind = moon

[learning]
cycles_per_sample = 5
cpu_hz = 0
"""


# Under --config, a rejected [section] key names the file and the key's line,
# as a parse error does, on every command.
def test_a_rejected_setting_names_its_line_in_the_config_file(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(BAD_SETTINGS)
    problems = [
        f"[ps] kind in {path} (line 12) must be 'orbit' or 'ground', got 'moon'",
        f"[sim] time_limit_s in {path} (line 4) must lie in (0, 31536000] when set (one year)",
        f"[link] bandwidth_hz in {path} (line 8) must be positive, got -5.0",
        f"[learning] cpu_hz in {path} (line 16) must be positive, got 0.0",
    ]
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("\n".join(problems) + "\n", "")
    out = tmp_path / "out.csv"
    for command in ("run", "compare", "contacts"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "config error: " + "; ".join(problems) + "\n")
        assert not out.exists()


# A synthetic pool holds every class at least once, so a pool smaller than
# num_classes is a setting's problem, named by its key and file line.
def test_a_synthetic_pool_smaller_than_num_classes_names_its_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    sizes = {"samples_per_satellite": "1", "test_samples": "5", "num_classes": "41"}
    path.write_text(ini_with({"data": sizes}))
    problems = [
        f"[data] samples_per_satellite{at(path, 'samples_per_satellite = 1')} times the 40 "
        "satellites must be at least num_classes (41) for a synthetic pool, got 40",
        f"[data] test_samples{at(path, 'test_samples = 5')} must be at least num_classes (41) "
        "for a synthetic pool, got 5",
    ]
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("\n".join(problems) + "\n", "")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr() == ("", "config error: " + "; ".join(problems) + "\n")


# A label_split pool deals each label group's rows among its half of the
# satellites alone, so one row per satellite leaves some satellite none: a
# problem of samples_per_satellite, named by its key and file line.
def test_a_label_split_pool_too_small_for_its_satellites_names_its_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(ini_with({"data": {"scheme": "label_split", "samples_per_satellite": "1"}}))
    problem = (f"[data] samples_per_satellite{at(path, 'samples_per_satellite = 1')} is too "
               "small for scheme 'label_split', got 1: worker 14 would receive zero samples")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == (problem + "\n", "")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr() == ("", f"config error: {problem}\n")


# label_split gives each of its two label groups its own satellites, so a
# single satellite is too few: a problem of the scheme, named by its key and
# file line.
def test_a_label_split_with_fewer_satellites_than_label_groups_names_its_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(ini_with({"constellation": {"num_planes": "1", "sats_per_plane": "1"},
                              "data": {"scheme": "label_split"}}))
    problem = (f"[data] scheme{at(path, 'scheme = label_split')} 'label_split' needs at least "
               "one satellite per label group (2), got 1")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == (problem + "\n", "")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr() == ("", f"config error: {problem}\n")


def test_validate_reports_problems(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[constellation]\naltitude_km = -3.0\n\n[sim]\nseed = 1\n")
    assert main(["validate", "--config", str(path)]) == 1
    assert "altitude_km" in capsys.readouterr().out


def _idx_ini(tmp_path, side=None, fault=None) -> Path:
    """SMALL read from idx files: 400 training and 60 test rows of 4x4 images
    with labels in [0, 3), except that the ``side`` file pair has 4x3 images
    when ``fault`` is "features", a label of 11 when it is "labels", no
    images when it is "empty", one row fewer than the run uses when it is
    "short", and an images file without its last byte when it is "truncated"."""
    rng = np.random.default_rng(2)
    keys = {"source": "idx"}
    for name, rows in (("train", 400), ("test", 60)):
        rows = {"empty": 0, "short": rows - 1}.get(fault, rows) if name == side else rows
        shape = (rows, 4, 3) if (name, fault) == (side, "features") else (rows, 4, 4)
        images = rng.integers(0, 256, size=shape, dtype=np.uint8)
        labels = rng.integers(0, 3, size=rows, dtype=np.uint8)
        if (name, fault) == (side, "labels"):
            labels[-1] = 11
        pair = write_idx_pair(tmp_path, images, labels, stem=name)
        if (name, fault) == (side, "truncated"):
            Path(pair[0]).write_bytes(Path(pair[0]).read_bytes()[:-1])
        keys[f"{name}_images_path"], keys[f"{name}_labels_path"] = pair
    path = tmp_path / "idx.ini"
    path.write_text(ini_with({"data": keys}))
    return path


def test_idx_files_that_fit_the_data_section_validate(tmp_path, capsys):
    path = _idx_ini(tmp_path)
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"


# An idx file must hold the rows a run uses and agree with [data]: its image
# size with num_features, and its labels with num_classes. Otherwise every
# command that builds the data names the file as a [data] problem, before a
# run starts; a test file with no images would give every record a nan
# accuracy and loss, and a short one would quietly shrink the run. An images
# file that does not hold the pixels its header counts is named likewise, from
# its size alone.
@pytest.mark.parametrize("side", ["train", "test"])
@pytest.mark.parametrize("fault", ["features", "labels", "empty", "short", "truncated"])
def test_idx_files_that_disagree_with_the_data_section_are_a_data_problem(
    tmp_path, capsys, side, fault
):
    path = _idx_ini(tmp_path, side, fault)
    images, labels = tmp_path / f"{side}-images-idx3-ubyte", tmp_path / f"{side}-labels-idx1-ubyte"
    rows = {"train": 400, "test": 60}[side]
    problem = {
        "features": f"[data] {images}: 12 features per image, but num_features is 16",
        "labels": f"[data] {labels}: label 11, but num_classes is 3",
        "empty": f"[data] {images}: 0 images, but the run uses {rows}",
        "short": f"[data] {images}: {rows - 1} images, but the run uses {rows}",
        "truncated": f"[data] {images}: expected {rows * 16} pixels, found {rows * 16 - 1}",
    }[fault]
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [problem]
    out = tmp_path / "out.csv"
    for command in ("run", "compare"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not out.exists()


# A run reads the first rows of an idx pair that holds more than it uses: its
# CSV is that of files cut to exactly those rows.
def test_an_idx_pair_longer_than_the_run_reads_its_first_rows(tmp_path):
    rng = np.random.default_rng(4)
    sides = [
        (name, rng.integers(0, 256, size=(rows, 4, 4)), rng.integers(0, 3, size=rows), used)
        for name, rows, used in (("train", 435, 400), ("test", 75, 60))
    ]
    csvs = []
    for folder in ("long", "cut"):
        keys = {"source": "idx"}
        (tmp_path / folder).mkdir()
        for name, images, labels, used in sides:
            rows = slice(used if folder == "cut" else None)
            pair = write_idx_pair(tmp_path / folder, images[rows], labels[rows], stem=name)
            keys[f"{name}_images_path"], keys[f"{name}_labels_path"] = pair
        path, out = tmp_path / folder / "idx.ini", tmp_path / folder / "out.csv"
        path.write_text(ini_with({"data": keys}))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


# -- exit codes ------------------------------------------------------------------------------


def test_exit_code_for_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 1
    assert "config error" in capsys.readouterr().err


def test_exit_code_for_deadlock(tmp_path, capsys):
    path = tmp_path / "stuck.ini"
    path.write_text(STUCK)
    assert main(["run", "--config", str(path)]) == 3
    assert "stuck" in capsys.readouterr().err


# a step so long that the first aggregate overflows: the run stops with one
# error line, where it once wrote a nan model under numpy's warnings
def test_an_aggregate_that_overflows_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "diverge.ini"
    path.write_text("[learning]\nlearning_rate = 1e308\n\n[sim]\nseed = 7\nuntil_epochs = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would end the run another way
        assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: partial sum left the finite range\n")


def test_exit_code_for_runtime_failure(small_ini, tmp_path, capsys):
    target = str(tmp_path / "no" / "such" / "dir" / "out.csv")
    assert main(["run", "--config", small_ini, "--out", target]) == 2
    assert "error" in capsys.readouterr().err

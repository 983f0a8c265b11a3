"""Byte-for-byte checks of the CLI outputs against committed golden files.

The files under ``golden/`` were written by ``orbitfl run --seed 7`` (both
protocols), ``orbitfl compare --seed 7`` and ``orbitfl contacts --seed 7``.
A refactor must leave them unchanged; an intended output change regenerates
them and says why. The run files are rendered from one ``compare`` outcome,
which runs both protocols exactly as ``run`` does, to keep the suite quick.

Further runs are pinned by digest rather than by file: the sha256 of each
run's CSV, its traffic counters and its stop reason.
"""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import write_idx_pair

from orbitfl import orbital
from orbitfl.cli import emit_config, main, render_compare_csv, render_run_csv
from orbitfl.sim import (
    ScenarioConfig,
    compare,
    contact_table,
    desk_scenario,
    reference_scenario,
    run_scenario,
)

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"
SEED = 7


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def outcome():
    return compare(ScenarioConfig(seed=SEED))


@pytest.mark.parametrize(
    "protocol_name, run",
    [("fedisl", "treatment"), ("fednonisl", "baseline")],
)
def test_run_matches_golden(outcome, protocol_name, run):
    result = getattr(outcome, run)
    assert result.protocol == protocol_name
    assert render_run_csv(result.records, SEED) == golden(f"run_{protocol_name}_seed7.csv")


# Training multiplies in blocks that OpenBLAS runs on the calling thread, so the
# command line writes the same bytes whatever the BLAS thread count; the
# variable is read once, when numpy loads OpenBLAS, hence a fresh process each.
@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("protocol_name", ["fedisl", "fednonisl"])
def test_run_matches_golden_at_any_blas_thread_count(protocol_name, threads):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
    argv = ["run", "--seed", str(SEED), "--protocol", protocol_name]
    done = subprocess.run(
        [sys.executable, "-m", "orbitfl.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert (done.stdout, done.stderr) == (golden(f"run_{protocol_name}_seed7.csv"), "")


def _without_learning(csv_text: str) -> list[list[str]]:
    """Each line of a run CSV, split at its commas, less the test_accuracy and
    test_loss columns."""
    return [line.split(",")[:2] + line.split(",")[4:] for line in csv_text.splitlines()]


# Time and traffic rest on geometry, link rates and each shard's size, never on
# the values of the data: another seed's synthetic draw, or idx files of random
# bytes with the rows the golden run uses, move only test_accuracy and test_loss.
@pytest.mark.parametrize(
    "protocol_name, run",
    [("fedisl", "treatment"), ("fednonisl", "baseline")],
)
def test_data_never_moves_time_or_traffic(tmp_path, outcome, protocol_name, run):
    base = ScenarioConfig(seed=SEED)
    rng, paths = np.random.default_rng(0), {}
    train_rows = base.num_planes * base.sats_per_plane * base.samples_per_satellite
    for side, rows in (("train", train_rows), ("test", base.test_samples)):
        images = rng.integers(0, 256, size=(rows, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, base.num_classes, size=rows, dtype=np.uint8)
        pair = write_idx_pair(tmp_path, images, labels, stem=side)
        paths[f"{side}_images_path"], paths[f"{side}_labels_path"] = pair
    want = getattr(outcome, run)
    for cfg in (ScenarioConfig(seed=11), replace(base, data_source="idx", **paths)):
        result = run_scenario(cfg, protocol_name)
        got = render_run_csv(result.records, SEED)
        assert _without_learning(got) == _without_learning(golden(f"run_{protocol_name}_seed7.csv"))
        assert (result.counters, result.stop_reason) == (want.counters, want.stop_reason)


def test_compare_matches_golden(outcome):
    text = render_compare_csv(outcome.speedup, outcome.traffic_ratio, SEED)
    assert text == golden("compare_seed7.csv")


def test_contacts_match_golden(tmp_path):
    out = tmp_path / "contacts.csv"
    assert main(["contacts", "--seed", str(SEED), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == golden("contacts_seed7.csv")


# The 720 h contact tables, with an orbiting and with a ground server, pinned by
# the sha256 of what ``orbitfl contacts --horizon-hours 720 --out F`` writes:
# 9,626 and 4,774 windows, each a maximal run of grid times in sight.
MONTH_TABLES = {
    "orbit": ({}, "93a7e8455a690d8042cca21f8a797e23f6e69cf04e06b88f6ecd9cd26cf22fe0"),
    "ground": (
        {"ps_kind": "ground"},
        "9c8cc8df1de30ffbbfc76f7cb35e8a58866cc0d14d58a66c734cb9ab9e9e6c35",
    ),
}


@pytest.mark.parametrize("server", sorted(MONTH_TABLES))
def test_month_contact_table_matches_pinned_digest(tmp_path, server):
    fields, want = MONTH_TABLES[server]
    config, out = tmp_path / "scenario.ini", tmp_path / "contacts.csv"
    config.write_text(emit_config(ScenarioConfig(seed=SEED, **fields)), encoding="utf-8")
    argv = ["contacts", "--config", str(config), "--horizon-hours", "720", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


# A window edge is the first grid time k * contact_tol_s at or after its flip,
# however the scan stepped to bracket the flip: a looser bound on the margin's
# curvature takes shorter steps, and changes neither the 48 h contact tables,
# with an orbiting and with a ground server, nor the golden fednonisl run.
@pytest.mark.parametrize("scale", [1.7, 3.0])
def test_edges_do_not_depend_on_the_scan_steps(monkeypatch, outcome, scale):
    servers = ({}, {"ps_kind": "ground", "ps_latitude_deg": 40.0})
    cfgs = [ScenarioConfig(seed=SEED, **server) for server in servers]
    tables = [contact_table(cfg, 48 * 3600.0) for cfg in cfgs]
    curvature = orbital._curvature

    def looser(sat, other):
        k0, k1, low, speed = curvature(sat, other)
        return scale * k0, scale * k1, low, speed

    monkeypatch.setattr(orbital, "_curvature", looser)
    assert [contact_table(cfg, 48 * 3600.0) for cfg in cfgs] == tables
    run = run_scenario(ScenarioConfig(seed=SEED), "fednonisl")
    want = outcome.baseline
    assert (run.records, run.counters, run.stop_reason) == (
        want.records,
        want.counters,
        want.stop_reason,
    )


# Satellites that finish an epoch before the server does poll it in vain until
# the epoch advances; the engine parks those polls and replays them. These
# scenarios cover that on orbit and ground servers, with satellites that finish
# training inside the wait before a poll retry, so that their fresh poll
# replaces the retry (the reference case at one cycle per sample), with a
# satellite ahead while the server still waits for its group's downlink ack
# (the tiny model), and with the run cut off by its time limit while satellites
# are parked. The digests that did not move when window scans went from a
# fixed grid to conservative advancement come from an engine that booked every
# poll as an event, a satellite's retry and fresh poll sharing its one booking.
# The desk7 and time-limit fedisl digests and the desk11 fednonisl one were
# re-pinned when training's products went to single-thread BLAS blocks, and
# every digest when synthetic noise went to byte noise drawn in block order,
# which moved only the test_accuracy and test_loss columns. Every digest was
# re-pinned again when feature blocks went to float32, each widened exactly to
# float64 for its products, which moved only the test_loss column.
PINNED = {
    "desk7": (
        desk_scenario(7, until_epochs=5),
        "544d469c2c4bd1d68e0667dbe837bfa50e2fd27e81e8596bfdc46944978264d4",
        "844ea77a85810062dabfc100cafc6eb11a4170efc1d75b4160fff2efffb528f2",
    ),
    "desk11": (
        desk_scenario(11, until_epochs=5),
        "562419fd251358e17637f4fe73c596471929ee3b164daabe9b82d85905be8fa4",
        "8281803b4586b0ad97b5f979a973923626a83da2c78bc2df41cf186d5d207ba9",
    ),
    "ground": (
        desk_scenario(
            11,
            num_planes=4,
            sats_per_plane=6,
            ps_kind="ground",
            ps_latitude_deg=40.0,
            until_epochs=3,
        ),
        "f189fdb3ab5506b6b682253885ffb4fa070c87a9863c1e20c727928fa6c26cd8",
        "0dee47c77e01812e2f379a2249852b7f1bdd8cbb62867cd087978252a76e9ede",
    ),
    "two-chains": (
        reference_scenario(3, cycles_per_sample=1.0, until_epochs=3),
        "ef655a002c6f3d580dcbb77e07611a37372268155dac640456d48a0e82648c66",
        "ddd6bbea095f8689a6351fa7d34df864867167467357c7ca6b987cd73e2b1e26",
    ),
    "tiny-model": (
        desk_scenario(
            7,
            num_features=3,
            num_classes=2,
            samples_per_satellite=10,
            test_samples=20,
            until_epochs=4,
        ),
        "cf9de4482156e42f97eb3d6074ae7f686e4ac19db80ee1686424c42266dfb5f8",
        "72bbf12f07f574c0b775ee2b5141dd32ea3c2276c4fba30667ea054dbad6250a",
    ),
    "time-limit": (
        desk_scenario(7, until_epochs=5, time_limit_s=4000.0),
        "544d469c2c4bd1d68e0667dbe837bfa50e2fd27e81e8596bfdc46944978264d4",
        "e6f7810a7ecad2d2dfd50c2a217738ef795a888918dfb1eb52b8edfaeff13fa9",
    ),
    # 100 satellites, so a fednonisl coast round carries up to 99 chains
    "wide-coast": (
        desk_scenario(
            7,
            num_planes=10,
            sats_per_plane=10,
            num_features=8,
            num_classes=4,
            samples_per_satellite=20,
            test_samples=100,
            until_epochs=3,
        ),
        "9fd4974e07a155fee1f00641596d5e16fe916400848680d5305d3b812c62c84e",
        "9f3069e33a710104d252cc3aaefc9cf4c8f1eae8ae0f27e3c674bfec616e65d4",
    ),
}


def run_digest(cfg: ScenarioConfig, protocol_name: str) -> str:
    result = run_scenario(cfg, protocol_name)
    h = hashlib.sha256()
    h.update(render_run_csv(result.records, cfg.seed).encode())
    h.update(repr(sorted(result.counters.items())).encode())
    h.update(result.stop_reason.encode())
    return h.hexdigest()


@pytest.mark.parametrize("protocol_name", ["fedisl", "fednonisl"])
@pytest.mark.parametrize("case", sorted(PINNED))
def test_run_matches_pinned_digest(case, protocol_name):
    cfg, fedisl, fednonisl = PINNED[case]
    want = fedisl if protocol_name == "fedisl" else fednonisl
    assert run_digest(cfg, protocol_name) == want

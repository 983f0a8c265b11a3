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
from pathlib import Path

import pytest

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


def test_compare_matches_golden(outcome):
    text = render_compare_csv(outcome.speedup, outcome.traffic_ratio, SEED)
    assert text == golden("compare_seed7.csv")


def test_contacts_match_golden(tmp_path):
    out = tmp_path / "contacts.csv"
    assert main(["contacts", "--seed", str(SEED), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == golden("contacts_seed7.csv")


# The 720 h contact tables, with an orbiting and with a ground server, pinned by
# the sha256 of what ``orbitfl contacts --horizon-hours 720 --out F`` writes:
# 9,626 and 4,774 windows, each edge found by the scan and its bisection.
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
# re-pinned when training's products went to single-thread BLAS blocks.
PINNED = {
    "desk7": (
        desk_scenario(7, until_epochs=5),
        "ca41e530f54460a989790ebbd0df0f8584605076bb6a1346414fd801d05dbaec",
        "e52bebde914eb559d023e64d8e1a4a5be37b988ccbc0469dc21f6ebba1e7e143",
    ),
    "desk11": (
        desk_scenario(11, until_epochs=5),
        "e481e45f801b132fa1309161b6fec9d5a37b73a51817e2d918d7a67484f3f442",
        "5974e85a670b6aacef923caab1625b7eade49466b380ed13eedca351e7bb8c50",
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
        "2abe2b69a611a29af9bf7ffb60a8f0bd5510a440ef059cb12873070d62a277b1",
        "4d3568baa6eabb96a3abd31905446311d7250ad89f60f1a33a105d67d0e0cfd0",
    ),
    "two-chains": (
        reference_scenario(3, cycles_per_sample=1.0, until_epochs=3),
        "dc01c555d0b61f38a2c2a0b465ae0b202c339db9643a8f1f215ccf74555ab889",
        "32f055f35255ea54f59c33926c59839b1e7a832ea2bf70bf1cceac356ee5e6f9",
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
        "f8d80ca4eede82127a75a24e10e29d3f28f64b89fcf08eca3f5520610838545b",
        "d8e6f66b8fdde1dc12afff7ce14dec2d5a374cb6c83a5aa2eaa9eb388d4c202c",
    ),
    "time-limit": (
        desk_scenario(7, until_epochs=5, time_limit_s=4000.0),
        "ca41e530f54460a989790ebbd0df0f8584605076bb6a1346414fd801d05dbaec",
        "a2420d298d23ff38b6a82d65974a003bba6fc44f074e86acb57b3bdb1405aac4",
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
        "b01a0f2fe434830b0c980ba6b0b2a3ee9a72e6bc31bdc25661d7cd33e3d57279",
        "93668e538b87d1a182789e1fe120d7bd3f17b85bcb481424a550d56be8de9606",
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

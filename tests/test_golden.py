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
from pathlib import Path

import pytest

from orbitfl.cli import main, render_compare_csv, render_run_csv
from orbitfl.sim import ScenarioConfig, compare, desk_scenario, reference_scenario, run_scenario

GOLDEN = Path(__file__).parent / "golden"
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


def test_compare_matches_golden(outcome):
    text = render_compare_csv(outcome.speedup, outcome.traffic_ratio, SEED)
    assert text == golden("compare_seed7.csv")


def test_contacts_match_golden(tmp_path):
    out = tmp_path / "contacts.csv"
    assert main(["contacts", "--seed", str(SEED), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == golden("contacts_seed7.csv")


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
PINNED = {
    "desk7": (
        desk_scenario(7, until_epochs=5),
        "1f7a2866f69cb11603533f20a02098951760128bfefedbf9e5e7b6b447b9c047",
        "e8cee0da4210292eacbbdc20c221930335eea115ba15e0403e01c5c7afee6b7e",
    ),
    "desk11": (
        desk_scenario(11, until_epochs=5),
        "e481e45f801b132fa1309161b6fec9d5a37b73a51817e2d918d7a67484f3f442",
        "b681dd637cf431ebce9799d29c07275f9b17a092f4efed404a2be13b722e420c",
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
        "8d27a389efa6c99390dfa91f85578393297e438c49a8c193b5cce4c3e713459a",
        "7e58687568b3d907458eb60f3190e08da19554c6f2073f709321852df1d15e94",
    ),
    "two-chains": (
        reference_scenario(3, cycles_per_sample=1.0, until_epochs=3),
        "dc01c555d0b61f38a2c2a0b465ae0b202c339db9643a8f1f215ccf74555ab889",
        "37ad3b0c49e893448e5fe88f71facc92f8656a52ddcd5d77f8478e675ebcaaa2",
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
        "d9d2e27a17f8ba3256495a30a646f2e6f46f6466ea9c56be522aa872663cc743",
    ),
    "time-limit": (
        desk_scenario(7, until_epochs=5, time_limit_s=4000.0),
        "1f7a2866f69cb11603533f20a02098951760128bfefedbf9e5e7b6b447b9c047",
        "e9beeb2d07fd26dc0f6dd611e4b5d71e7384ffa016d9c996e0217343139fc376",
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

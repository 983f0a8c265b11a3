"""Byte-for-byte checks of the CLI outputs against committed golden files.

The files under ``golden/`` were written by ``orbitfl run --seed 7`` (both
protocols), ``orbitfl compare --seed 7`` and ``orbitfl contacts --seed 7``.
A refactor must leave them unchanged; an intended output change regenerates
them and says why. The run files are rendered from one ``compare`` outcome,
which runs both protocols exactly as ``run`` does, to keep the suite quick.
"""

from pathlib import Path

import pytest

from orbitfl.cli import main, render_compare_csv, render_run_csv
from orbitfl.sim import ScenarioConfig, compare

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

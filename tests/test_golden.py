"""Golden-artifact regression: the shipped evolve and symmetry configs must
reproduce the committed snapshot CSV and report JSON byte for byte."""

from pathlib import Path

import pytest

from fpknl.cli import ENV_OUTDIR, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"


@pytest.mark.parametrize("config, prefix", [
    ("reference_case.json", "reference"),
    ("symmetry_linsym.json", "symmetry"),
])
def test_shipped_config_reproduces_golden_artifacts(tmp_path, monkeypatch,
                                                    config, prefix):
    monkeypatch.setenv(ENV_OUTDIR, str(tmp_path))
    assert main(["run", str(ROOT / "configs" / config)]) == 0
    for suffix in ("report.json", "snapshots.csv"):
        name = f"{prefix}_{suffix}"
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

"""API summary generator and the package's subpackage list."""

import subprocess
import sys
from pathlib import Path

import repro


class TestApiSummary:
    def test_generator_runs_and_covers_subpackages(self, tmp_path):
        out = tmp_path / "API.md"
        result = subprocess.run(
            [sys.executable, "tools/gen_api_summary.py", str(out)],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parents[1],
        )
        assert result.returncode == 0, result.stderr
        text = out.read_text()
        for section in (
            "repro.amt",
            "repro.analysis",
            "repro.gravity",
            "repro.distsim",
        ):
            assert f"## `{section}`" in text
        # Spot-check key public items are documented.
        for item in ("FmmSolver", "OctoTigerSim", "RaceDetector", "simulate_step"):
            assert f"`{item}`" in text

    def test_committed_copy_exists(self):
        api = Path(__file__).resolve().parents[1] / "docs" / "API.md"
        assert api.exists()
        assert "repro.core" in api.read_text()


class TestSubpackageList:
    def test_all_names_every_subpackage_directory(self):
        """``repro.__all__`` is hand-kept; it must list exactly the
        subpackage directories, no more and no fewer."""
        src = Path(repro.__file__).resolve().parent
        dirs = {path.parent.name for path in src.glob("*/__init__.py")}
        assert set(repro.__all__) == dirs

"""The package is its modules: `ifrsim` re-exports nothing, the simulator
modules load without numpy, and the version is written in one place."""
import os
import re
import subprocess
import sys
from pathlib import Path

import ifrsim
from ifrsim import report

_ROOT = Path(__file__).resolve().parent.parent

_IMPORT_CHECK = """
import sys
import ifrsim, ifrsim.pipeline, ifrsim.isa, ifrsim.hw, ifrsim.faults
import ifrsim.formulas, ifrsim.report
assert "numpy" not in sys.modules, "a simulator module loaded numpy"
import ifrsim.markov
assert "numpy" in sys.modules, "ifrsim.markov did not load numpy"
"""


def test_the_simulator_modules_import_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", _IMPORT_CHECK], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_the_tool_id_carries_the_package_version():
    assert report.TOOL_ID == f"ifrsim {ifrsim.__version__}"


def test_pyproject_declares_the_package_version():
    text = (_ROOT / "pyproject.toml").read_text()
    versions = re.findall(r'^version\s*=\s*"([^"]*)"', text, re.MULTILINE)
    assert versions == [ifrsim.__version__]

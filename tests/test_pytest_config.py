"""The pytest settings in pyproject.toml keep a failing property test
readable: every warning is an error, yet hypothesis still reports the
falsifying example instead of ending the run in INTERNALERROR."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed" in run.stdout

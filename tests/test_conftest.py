"""The warnings-as-errors rule of conftest.py, run on a throwaway test tree."""

import shutil
import subprocess
import sys
from pathlib import Path

FAILING = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property(x):
    assert x < 10


def test_warning():
    warnings.warn("any other warning", DeprecationWarning)
'''


def test_failing_property_shows_its_example(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_forced.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_forced.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example: test_property(" in proc.stdout
    assert "FAILED test_forced.py::test_warning - DeprecationWarning" in proc.stdout

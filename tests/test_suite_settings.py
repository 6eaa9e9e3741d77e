"""The test suite's own pytest settings."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    """With every warning an error, hypothesis' report hook raised a
    DeprecationWarning (`mypy_extensions.TypedDict is deprecated`), and
    pytest printed INTERNALERROR and no falsifying example."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        capture_output=True, text=True, cwd=tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example: test_fails(" in done.stdout, done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr

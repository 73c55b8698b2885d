"""The repository's pytest configuration, run on a throwaway test file."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_given_test_is_reported_not_fatal(tmp_path):
    """A failing ``@given`` test makes Hypothesis import its code
    formatters, whose dependencies warn on import; with every warning an
    error that must not end the session, so the failure is counted and
    the summary prints."""
    (tmp_path / "test_one.py").write_text(
        textwrap.dedent(
            """\
            from hypothesis import given, settings, strategies as st

            @given(st.integers())
            @settings(database=None)
            def test_fails(x):
                assert x < 0
            """
        )
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout
    assert "1 failed" in result.stdout

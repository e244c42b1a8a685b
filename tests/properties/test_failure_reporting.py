"""A failing property test is reported as a failure, not an INTERNALERROR.

The suite runs with ``filterwarnings = ["error"]``.  When a ``@given``
test fails, hypothesis's pytest plugin imports libcst to offer a patch of
the failing example, and libcst warns on import; unless pyproject.toml
ignores that one warning, the session aborts without naming the test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"

FAILING = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_property_that_fails(x):
    assert x != x
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "test_failing_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "FAILED test_failing_property.py::test_property_that_fails" in output

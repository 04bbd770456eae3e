import sys
from pathlib import Path

import pytest

from divfilters.harness import run_harness

sys.path.insert(0, str(Path(__file__).parent))
# perfbench/ holds the one brute-force oracle; after tests/, so test modules win a name clash
sys.path.insert(1, str(Path(__file__).parent.parent / "perfbench"))


@pytest.fixture(scope="session")
def default_report():
    """The default harness run (seed 0, budget 10^4), made once per session.
    A session fixture is set up before any test's monkeypatch, so the run
    sees the library unpatched."""
    return run_harness()

"""The seeded paper examples print exactly their golden output.

``fec_audio_figure7.py`` (Figure 7), ``adaptive_fec_audio.py`` (the
Section 3 walk) and ``collaborative_browsing.py`` (Figure 1) run on the
simulated WLAN, whose losses are drawn from seeded models.  Their stdout is
therefore a byte-exact oracle for the wireless segment: the same on every
execution engine and FEC backend, and unchanged by any refactoring that
keeps the loss draws.  The golden files under ``golden/`` hold that output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden"
EXAMPLES = ("fec_audio_figure7", "adaptive_fec_audio", "collaborative_browsing")


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_stdout_matches_golden(example):
    env = dict(os.environ)
    # The golden output is the simulated testbed's: another transport, or a
    # fault plan, changes what the wireless segment loses.
    env.pop("REPRO_TRANSPORT", None)
    env.pop("REPRO_CHAOS", None)
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{example}.py")],
        cwd=ROOT, env=env, capture_output=True, timeout=300, check=False)
    assert completed.returncode == 0, completed.stderr.decode(errors="replace")
    expected = (GOLDEN / f"{example}.txt").read_bytes()
    assert completed.stdout == expected

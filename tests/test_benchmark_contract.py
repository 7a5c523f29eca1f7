"""The benchmark's tracer reads package internals: each module's memo
view ``_CACHES``, ``characters.ALGORITHMS`` and the names it wraps.  Its
self-tests of that contract run here too, so a refactor of ``src/`` that
breaks one fails this suite and not only ``perfbench/selftest.py``."""

import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_contract_with_the_package():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "selftest.TracingTest",
         "selftest.GaugeTest.test_kernel_touches_no_package_state"],
        cwd=PERFBENCH, capture_output=True, text=True, timeout=300,
        # read perfbench/ only: no bytecode cache is written there
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr

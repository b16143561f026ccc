"""Import-weight guard: the library and server entry points stay off scipy.stats.

``scipy.stats`` (which pulls in ``scipy.optimize``) costs about a second of
start-up and tens of MB of resident memory in every ``repro serve`` process;
only the test oracle :func:`repro.ctmc.transient.poisson_terms_reference`
needs it and imports it locally.  A fresh interpreter is the only reliable
check, since the test process itself has long imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro, repro.core, repro.service.app, repro.cli
print(",".join(name for name in ("scipy.stats", "scipy.optimize") if name in sys.modules))
"""


def test_entry_points_do_not_import_scipy_stats_or_optimize():
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "", (
        f"importing the package loaded {completed.stdout.strip()}"
    )

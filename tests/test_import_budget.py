"""Import budget: no command pays for numpy or scipy.

The computed throughput of Section 5.3.2 is an exact bottleneck bound
(:func:`repro.core.throughput.solve_port_assignment`), so nothing on
the program's import paths needs an LP solver.  A fresh interpreter
imports the CLI, the XML writer and the predictor and must not have
loaded either package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_SCRIPT = """
import json, sys
import repro.cli, repro.core.xml_output, repro.predictor
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("numpy", "scipy")
)))
"""


def test_no_numpy_or_scipy_on_import():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env,
        capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == []

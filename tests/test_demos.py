"""Every demo script runs to completion against the current library.

Each runs with RuntimeWarnings as errors, the policy of the test suite,
so a demo that leans on a silent cast (numpy's ComplexWarning is a
RuntimeWarning) or on arithmetic with a non-finite value fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

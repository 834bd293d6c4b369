"""The fast demos run to completion, with RuntimeWarnings as errors.

Demo 02 is left out: it is the criterion-9 training run, which the
acceptance suite already runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_routing_basics.py",
    "03_sharing_modes.py",
    "04_embeddings_and_pose_tracking.py",
    "05_files_and_reference_oracle.py",
])
def test_demo_runs(tmp_path, demo):
    path = os.pathsep.join(filter(None, [str(_ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         str(_ROOT / "demos" / demo)], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=120)
    assert result.returncode == 0, result.stderr

import os
import subprocess
import sys
from pathlib import Path

import poisonbench


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; importing scipy.linalg alone
    # costs several times the package's own import time
    src = str(Path(poisonbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, poisonbench; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"

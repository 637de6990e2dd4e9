"""The program runs without numpy: only the tests use it, as a reference.

Each check runs in a fresh interpreter, where `sys.modules['numpy'] = None`
makes any `import numpy` fail.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

BLOCK = "import sys\nsys.modules['numpy'] = None\n"


def python(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_leaves_numpy_unloaded(tmp_path):
    out = python("import sys\nimport opposim.cli\n"
                 "print('numpy' in sys.modules)\n", tmp_path)
    assert out.strip() == "False"


def test_import_works_without_numpy(tmp_path):
    python(BLOCK + "import opposim.cli\n", tmp_path)


def test_run_works_without_numpy(tmp_path):
    out = python(BLOCK + "from opposim.cli import main\n"
                 "sys.exit(main(['run', '--scenario', 'desk',"
                 " '--duration', '7200', '--seed', '3']))\n", tmp_path)
    assert "run seed=3" in out


def test_pooled_sweep_works_without_numpy(tmp_path):
    # two seeds on two workers: the sweep's tasks go through the fork pool
    out = python(BLOCK + "from opposim.cli import main\n"
                 "sys.exit(main(['sweep', '--scenario', 'desk',"
                 " '--duration', '7200', '--param', 'copies',"
                 " '--values', '2,4', '--runs', '2', '--workers', '2']))\n",
                 tmp_path)
    assert "copies=2" in out and "copies=4" in out

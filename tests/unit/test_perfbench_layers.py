"""The serving benchmark's layer wrappers still find every callable they patch.

``perfbench/layers.py`` wraps named methods and functions of the serving
stack (``cls.__dict__[name]``), so renaming or deleting one breaks the
benchmark.  Installing the wrappers here makes such a rename fail the
test suite, not only a benchmark run.  The wrappers patch classes for the
life of a process, so they are installed in a child interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

INSTALL = """
import layers
layers.install_server(layers.Recorder())
layers.install_client(layers.Recorder())
"""


def test_benchmark_wrappers_install():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", INSTALL],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr

"""Every script under ``examples/`` runs to completion and prints its table.

The examples are entry points of the project in their own right, so each
one runs here as a user would start it: a fresh interpreter, ``src`` on
the path, the repository as the only input.  Together they take about
three seconds (``protocol_shootout.py`` runs serially, ``--workers 0``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: example script -> (extra arguments, a line its output must contain)
EXAMPLES = {
    "quickstart.py": ((), "completed:                True"),
    "field_sensor_collection.py": ((), "5 uploads to a collector, 15 nodes, 1.0 m/s mobility"),
    "video_streaming.py": ((), "Streaming one 120 kB segment over a 6-node chain"),
    "protocol_shootout.py": (("--workers", "0"), "Energy per bit and goodput vs. path length"),
}


def test_every_example_is_listed():
    assert sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py")) == sorted(EXAMPLES)


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_runs(script, tmp_path):
    args, expected = EXAMPLES[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    completed = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script), *args],
        cwd=tmp_path,
        env=env,
        timeout=120,
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    assert expected in completed.stdout
    assert list(tmp_path.iterdir()) == []  # an example writes nothing unless asked to

import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(__file__))

SRC = Path(__file__).resolve().parents[1] / "src"

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it
    pass
else:
    # derandomized and database-free, so every run draws the same examples
    settings.register_profile(
        "tverlab", max_examples=60, deadline=None, derandomize=True, database=None
    )
    settings.load_profile("tverlab")


@pytest.fixture
def fresh_python():
    """Start ``python *args`` in a fresh interpreter that imports tverlab from
    this tree's src/, with stdout and stderr piped. Children still running
    at teardown are killed."""
    children = []

    def start(*args, **popen):
        popen.setdefault("stdout", subprocess.PIPE)
        popen.setdefault("stderr", subprocess.PIPE)
        proc = subprocess.Popen(
            [sys.executable, *args],
            env={**os.environ, "PYTHONPATH": str(SRC)}, **popen,
        )
        children.append(proc)
        return proc

    yield start
    for proc in children:
        with proc:  # closes the pipes and reaps the child
            proc.kill()

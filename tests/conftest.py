"""Shared test setup.

Let `python -m isotropy.cli` subprocesses import the package under test:
pyproject.toml puts src/ on sys.path for this process only; child
interpreters read PYTHONPATH, so the package's parent directory is
prepended there too.  With an installed package this is its own
site-packages directory, which changes nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import isotropy

_ROOT = str(Path(isotropy.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_ROOT, os.environ.get("PYTHONPATH")) if p)

# VmHWM is the peak RSS of this process image only.  ru_maxrss is not used: Linux
# carries the spawning process's high-water mark across exec into the child's.
_PRINT_VMHWM = """
import re as _re
with open("/proc/self/status", encoding="ascii") as _fh:
    print(_re.search(r"VmHWM:\\s+(\\d+) kB", _fh.read()).group(1))
"""


@pytest.fixture
def child_peak_rss_mb():
    """``run(code, *args)``: run Python ``code`` in a child interpreter; its peak RSS in MB."""
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/status")

    def run(code: str, *args: str) -> float:
        proc = subprocess.run([sys.executable, "-c", code + _PRINT_VMHWM, *args], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout.split()[-1]) / 1024

    return run

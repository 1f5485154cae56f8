"""Let `python -m isotropy.cli` subprocesses import the package under test.

pyproject.toml puts src/ on sys.path for this process only; child
interpreters read PYTHONPATH, so the package's parent directory is
prepended there too.  With an installed package this is its own
site-packages directory, which changes nothing.
"""

import os
from pathlib import Path

import isotropy

_ROOT = str(Path(isotropy.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_ROOT, os.environ.get("PYTHONPATH")) if p)

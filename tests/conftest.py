"""Shared test set-up: child processes import the package from ``src``.

``pyproject.toml`` puts ``src`` on ``sys.path`` of the pytest process only.
The CLI tests start ``python -m hsembed.cli`` as child processes, which
read ``PYTHONPATH`` instead, so ``src`` goes there too.  That way
``python -m pytest`` passes from a fresh checkout with no install.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])

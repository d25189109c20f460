"""Shared test set-up: child processes import the package from ``src``,
and hypothesis draws the same examples on every run.

``pyproject.toml`` puts ``src`` on ``sys.path`` of the pytest process only.
The CLI tests start ``python -m hsembed.cli`` as child processes, which
read ``PYTHONPATH`` instead, so ``src`` goes there too.  That way
``python -m pytest`` passes from a fresh checkout with no install.

The ``derandomized`` hypothesis profile derives each test's examples from
the test itself, so a failure found once is found on every run and in CI;
each test's own ``@settings`` (``max_examples``, ``deadline``) still apply.
"""

import os
from pathlib import Path

from hypothesis import settings

SRC = str(Path(__file__).resolve().parent.parent / "src")

_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

"""CLI tests start `python -m contextant.cli` in a subprocess; put the
source tree on its PYTHONPATH so they also run from an uninstalled
checkout."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))

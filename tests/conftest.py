"""Put this checkout's `src/` first on the PYTHONPATH that the tests
starting `python -m jordanalg.cli` in a subprocess hand to the child."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

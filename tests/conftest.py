"""Put the checkout's ``src/`` on ``PYTHONPATH`` for child processes.

pytest's ``pythonpath`` setting only reaches this process, so tests
that run ``python -m rfharvest.cli`` in a subprocess need the package
path in the environment they pass on.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

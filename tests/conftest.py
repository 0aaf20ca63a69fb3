"""Child interpreters started by the tests import weakcomm from this checkout.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's own
path; the tests that run ``python -m weakcomm`` need it in the environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

"""Let the suite's child interpreters import the checkout's package.

pyproject.toml puts src/ on sys.path for the test process itself; the tests
that start `python -m spherelab.cli` or `python -c "import spherelab..."`
need it on PYTHONPATH as well, so a bare `python -m pytest` works from a
checkout without an install.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

import os
from pathlib import Path

from hypothesis import settings

# no per-example deadline: the suite's hosts change speed by up to 1.7x, and
# a deadline would fail an example for the host's speed, not for the code
settings.register_profile("beamtrack", deadline=None)
settings.load_profile("beamtrack")

# the CLI tests start ``python -m beamtrack.cli`` in child processes; they
# import the package from this checkout's src/, as the tests do through the
# ``pythonpath`` setting in pyproject.toml
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)

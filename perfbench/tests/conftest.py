"""Make the program sources and the benchmark package importable."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = str(ROOT / "src")
for entry in (str(ROOT), SOURCE):
    if entry not in sys.path:
        sys.path.insert(0, entry)
# The serve workload starts ``python -m repro.cli serve`` as a subprocess.
if SOURCE not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH")]))

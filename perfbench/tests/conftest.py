"""Import the benchmark and the program from this checkout."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
os.environ.setdefault("REPRO_OBS_DIR", str(ROOT / ".perfbench" / "obs"))
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import sys
from pathlib import Path

# The benchmark measures the program in ``src/`` of the same checkout.
_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

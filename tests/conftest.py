import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# perfbench/ holds the one brute-force oracle; after tests/, so test modules win a name clash
sys.path.insert(1, str(Path(__file__).parent.parent / "perfbench"))

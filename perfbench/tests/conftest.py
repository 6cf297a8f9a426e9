import sys
from pathlib import Path

# the benchmark's modules are plain scripts beside run.py
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

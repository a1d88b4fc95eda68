"""Certificate Transparency substrate: Merkle log, monitors, corpus."""

# The benchmark harness (perfbench/workloads.py) imports these names
# through the package; every other caller names the defining module.
from .corpus import CorpusGenerator  # noqa: F401
from .tail import MonitorConfig, TailLog, TailMonitor, drive  # noqa: F401

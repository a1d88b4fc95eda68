#!/usr/bin/env python
"""Regenerate src/repro/x509/simkeys.py from the prime search.

Usage::

    PYTHONPATH=src python scripts/regen_simkeys.py

Rewrites the committed table of fixed-seed simulation keys.  Run after
adding an issuer organization to the corpus generator or a fixed
``generate_keypair`` seed to a call site; the test suite fails when
the committed file drifts.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.x509.simkeys_gen import write_module  # noqa: E402


def main() -> None:
    """Regenerate the committed key table and report where it went."""
    target = write_module()
    print(f"wrote {target}")


if __name__ == "__main__":
    main()

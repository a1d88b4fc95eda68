"""Unicert-aware certificate linter — the paper's primary contribution.

Importing this package populates :data:`repro.lint.framework.REGISTRY` with the 95
constraint-rule lints (50 of them beyond existing linters), grouped by
the paper's noncompliance taxonomy:

* T1 *Invalid Character* — :mod:`repro.lint.character` (22 lints)
* T2 *Bad Normalization* — :mod:`repro.lint.normalization` (4 lints)
* T3 *Illegal Format* — :mod:`repro.lint.format` (17 lints)
* T3 *Invalid Encoding* — :mod:`repro.lint.encoding` (48 lints)
* T3 *Invalid Structure* / *Discouraged Field* —
  :mod:`repro.lint.structure` (2 + 2 lints)
"""

# Populate the registry (import order is unimportant; names are unique).
from . import character  # noqa: F401  (T1)
from . import normalization  # noqa: F401  (T2)
from . import format  # noqa: F401  (T3 Illegal Format)
from . import encoding  # noqa: F401  (T3 Invalid Encoding)
from . import structure  # noqa: F401  (T3 Invalid Structure / Discouraged)

# The benchmark harness (perfbench/workloads.py) imports this name
# through the package; every other caller names the defining module.
from .serialization import summary_to_json  # noqa: F401

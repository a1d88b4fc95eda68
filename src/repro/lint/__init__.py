"""Unicert-aware certificate linter — the paper's primary contribution.

Importing this package populates :data:`repro.lint.REGISTRY` with the 95
constraint-rule lints (50 of them beyond existing linters), grouped by
the paper's noncompliance taxonomy:

* T1 *Invalid Character* — :mod:`repro.lint.character` (22 lints)
* T2 *Bad Normalization* — :mod:`repro.lint.normalization` (4 lints)
* T3 *Illegal Format* — :mod:`repro.lint.format` (17 lints)
* T3 *Invalid Encoding* — :mod:`repro.lint.encoding` (48 lints)
* T3 *Invalid Structure* / *Discouraged Field* —
  :mod:`repro.lint.structure` (2 + 2 lints)
"""

from .framework import (
    CABF_BR_DATE,
    COMMUNITY_DATE,
    IDNA2008_DATE,
    Lint,
    LintMetadata,
    LintResult,
    LintStatus,
    NoncomplianceType,
    REGISTRY,
    RegistryIndex,
    RFC5280_DATE,
    RFC8399_DATE,
    RFC9549_DATE,
    RFC9598_DATE,
    Severity,
    Source,
    index_for,
)

# Populate the registry (import order is unimportant; names are unique).
from . import character  # noqa: F401  (T1)
from . import normalization  # noqa: F401  (T2)
from . import format  # noqa: F401  (T3 Illegal Format)
from . import encoding  # noqa: F401  (T3 Invalid Encoding)
from . import structure  # noqa: F401  (T3 Invalid Structure / Discouraged)

from .runner import CertificateReport, CorpusSummary, run_lints, summarize
from .parallel import (
    LintPool,
    ParallelLintOutcome,
    ShardError,
    ShardResult,
    ShardTask,
    shard_bounds,
)
from .serialization import (
    report_to_dict,
    report_to_json,
    summary_from_dict,
    summary_to_dict,
    summary_to_json,
)
from .constraints import CONSTRAINT_RULES, ConstraintRule, rules_for_lint
from .rfc_analyzer import (
    SPEC_LIBRARY,
    SpecSection,
    extract_constraint_rules,
    filter_sections,
)

__all__ = [
    "report_to_dict",
    "report_to_json",
    "summary_from_dict",
    "summary_to_dict",
    "summary_to_json",
    "LintPool",
    "ParallelLintOutcome",
    "ShardError",
    "ShardResult",
    "ShardTask",
    "shard_bounds",
    "REGISTRY",
    "RegistryIndex",
    "index_for",
    "Lint",
    "LintMetadata",
    "LintResult",
    "LintStatus",
    "NoncomplianceType",
    "Severity",
    "Source",
    "CABF_BR_DATE",
    "COMMUNITY_DATE",
    "IDNA2008_DATE",
    "RFC5280_DATE",
    "RFC8399_DATE",
    "RFC9549_DATE",
    "RFC9598_DATE",
    "CertificateReport",
    "CorpusSummary",
    "run_lints",
    "summarize",
    "CONSTRAINT_RULES",
    "ConstraintRule",
    "rules_for_lint",
    "SPEC_LIBRARY",
    "SpecSection",
    "extract_constraint_rules",
    "filter_sections",
]

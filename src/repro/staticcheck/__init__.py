"""``repro.staticcheck`` — a lint-the-linter static analysis pass.

The corpus results rest on ~95 lints whose bodies must neither mutate
shared certificate views nor depend on chance; this package reads the
source to verify that.  The lint-body checker groups (cache-safety,
exception-hygiene, determinism) sit beside the whole-program
concurrency/resource pass (fork-cow, async-blocking, pickle-boundary,
resource-lifetime) built on a worker-reachability call graph
(:mod:`~repro.staticcheck.callgraph`).  Checkers read source files
only and report structured :class:`Finding` records; CI fails on any
finding.  The lint metadata rules (name prefix, severity, effective
date) are checked when a lint is declared, by
:class:`repro.lint.framework.LintMetadata`.  See DESIGN.md §8 and §13
for the architecture.
"""

from .asyncblocking import check_async_blocking
from .cachesafety import check_cache_safety
from .callgraph import (
    DEFAULT_WORKER_ROOTS,
    CallGraph,
    build_call_graph,
    module_name_for,
)
from .determinism import check_determinism
from .engine import (
    CHECKER_NAMES,
    StaticcheckReport,
    concurrency_paths,
    hygiene_paths,
    lint_module_paths,
    run_checkers,
    run_staticcheck,
)
from .findings import Finding, sort_key
from .forkcow import check_fork_cow
from .hygiene import check_exception_hygiene
from .pickleboundary import check_pickle_boundary
from .resolve import SourceIndex
from .resourcelifetime import check_resource_lifetime

__all__ = [
    "CHECKER_NAMES",
    "CallGraph",
    "DEFAULT_WORKER_ROOTS",
    "Finding",
    "SourceIndex",
    "StaticcheckReport",
    "build_call_graph",
    "check_async_blocking",
    "check_cache_safety",
    "check_determinism",
    "check_exception_hygiene",
    "check_fork_cow",
    "check_pickle_boundary",
    "check_resource_lifetime",
    "concurrency_paths",
    "hygiene_paths",
    "lint_module_paths",
    "module_name_for",
    "run_checkers",
    "run_staticcheck",
    "sort_key",
]

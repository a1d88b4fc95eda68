"""``repro.staticcheck`` — a lint-the-linter static analysis pass.

The corpus results rest on ~95 frozen lints being scheduled exactly as
declared; this package verifies the declarations themselves.  The
registry-facing checker groups (registry-invariants, cache-safety,
exception-hygiene, determinism) were joined by the
whole-program concurrency/resource pass (fork-cow, async-blocking,
pickle-boundary, resource-lifetime) built on a worker-reachability call
graph (:mod:`~repro.staticcheck.callgraph`).
Checkers report structured :class:`Finding` records with
line-drift-stable fingerprints, gated in CI against a reviewed
baseline.  See DESIGN.md §8 and §13 for the architecture.
"""

from .asyncblocking import check_async_blocking
from .baseline import load_baseline, partition, write_baseline
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
from .findings import Finding, fingerprint_of, sort_key
from .forkcow import check_fork_cow
from .hygiene import check_exception_hygiene
from .pickleboundary import check_pickle_boundary
from .registry import check_registered, check_registry_invariants
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
    "check_registered",
    "check_registry_invariants",
    "check_resource_lifetime",
    "concurrency_paths",
    "fingerprint_of",
    "hygiene_paths",
    "lint_module_paths",
    "load_baseline",
    "module_name_for",
    "partition",
    "run_checkers",
    "run_staticcheck",
    "sort_key",
    "write_baseline",
]

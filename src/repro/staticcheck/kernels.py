"""Checker: every char-class lint must compile or be manifest-reviewed.

The compiled dispatch plan (:mod:`repro.lint.compiled`) only speeds up
the lints it can classify into char-class kernels; everything else runs
its own check on every certificate.  That fallback is silent at runtime — a refactor that
renames a check function or restructures a factory can knock a lint off
the compiled path and nobody notices until the benchmark regresses.

This checker makes the fallback loud.  It classifies every registered
lint with :func:`repro.lint.compiled.classify_lint` and reports:

* **error** — a lint is neither classifiable nor listed in
  ``UNCOMPILED_MANIFEST``.  Either extend the classifier (a new
  ``_CHECK_SPECS`` entry or factory rule) or review the lint and add it
  to the manifest.
* **warning** — a manifest entry is stale: the named lint either is not
  registered at all, or *is* classifiable now and should be removed from
  the manifest so the compiled path covers it.
"""

from __future__ import annotations

from .findings import Finding
from .resolve import SourceIndex, lint_location

CHECKER = "kernel-coverage"


def check_kernel_coverage(
    lints, index: SourceIndex, manifest=None, classify=None
) -> list:
    """Verify compiled-kernel coverage of the registered lints.

    ``manifest`` and ``classify`` default to the live
    ``UNCOMPILED_MANIFEST`` / :func:`classify_lint` pair; tests inject
    fixtures for both.
    """
    if manifest is None or classify is None:
        from ..lint.compiled import UNCOMPILED_MANIFEST, classify_lint

        manifest = UNCOMPILED_MANIFEST if manifest is None else manifest
        classify = classify_lint if classify is None else classify
    findings: list[Finding] = []
    seen: set[str] = set()
    classified: set[str] = set()
    for lint in lints:
        name = lint.metadata.name
        seen.add(name)
        spec = classify(lint)
        if spec is not None:
            classified.add(name)
            continue
        if name in manifest:
            continue
        path, line = lint_location(lint, index)
        findings.append(
            Finding(
                checker=CHECKER,
                severity="error",
                path=path,
                line=line,
                anchor=name,
                message=(
                    "lint is not classifiable into a compiled char-class "
                    "kernel and is not listed in UNCOMPILED_MANIFEST — "
                    "extend the classifier or review it into the manifest"
                ),
            )
        )
    for name in sorted(manifest):
        if name not in seen:
            findings.append(
                Finding(
                    checker=CHECKER,
                    severity="warning",
                    path="src/repro/lint/compiled.py",
                    line=1,
                    anchor=name,
                    message=(
                        "UNCOMPILED_MANIFEST names a lint that is not "
                        "registered — remove the stale entry"
                    ),
                )
            )
        elif name in classified:
            findings.append(
                Finding(
                    checker=CHECKER,
                    severity="warning",
                    path="src/repro/lint/compiled.py",
                    line=1,
                    anchor=name,
                    message=(
                        "UNCOMPILED_MANIFEST names a lint the classifier "
                        "now compiles — remove the stale entry"
                    ),
                )
            )
    return findings

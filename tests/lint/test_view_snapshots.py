"""Lint bodies leave the certificate they read unchanged.

With the view memo on, every lint of a run reads the same parsed
``Name`` and ``GeneralNames`` objects.  A ``check()`` that sorts,
reverses or edits one of them changes what every later lint reads, and
the reference oracle cannot see it: it runs with the memo off, so each
lint parses its own copy.  Production meets the bug only when that
lint's trigger fires.

So every applicable lint's ``check()`` runs here on every certificate
of a small seeded corpus and on each lint's crafted violator, with the
memo on, and the ``repr`` of each parsed field is compared before and
after each call.
"""

from types import SimpleNamespace

import pytest

from repro.ct import CorpusGenerator
from repro.lint import REGISTRY
from repro.x509 import Certificate
from repro.x509.cache import caching_enabled

from .test_all_lints_reachable import KEY as VIOLATOR_KEY, VIOLATORS

#: The parsed fields a lint body can reach from the certificate.
VIEW_FIELDS = (
    "subject",
    "issuer",
    "extensions",
    "san",
    "ian",
    "aia",
    "sia",
    "crl_distribution_points",
    "policies",
)


def _views(cert: Certificate) -> tuple[str, ...]:
    return tuple(repr(getattr(cert, field)) for field in VIEW_FIELDS)


def _certificates():
    corpus = CorpusGenerator(seed=1, scale=1 / 40000).generate()
    for position, record in enumerate(corpus.records):
        yield f"corpus[{position}]", record.certificate.to_der()
    for name in sorted(VIOLATORS):
        yield f"violator of {name}", VIOLATORS[name]().sign(VIOLATOR_KEY).to_der()


def _mutating_lints(lints, certificates) -> tuple[dict[str, str], int]:
    """Run every applicable lint on each certificate with the memo on.

    Returns each lint whose ``check()`` changed a parsed view, mapped to
    the first certificate it changed, and the number of checks run.
    """
    mutated: dict[str, str] = {}
    checks = 0
    for label, der in certificates:
        cert = Certificate.from_der(der)
        before = _views(cert)
        for lint in lints:
            if not lint.applies(cert):
                continue
            lint.check(cert)
            checks += 1
            after = _views(cert)
            if after != before:
                mutated.setdefault(lint.metadata.name, label)
                before = after
    return mutated, checks


def test_lint_bodies_leave_parsed_views_unchanged():
    assert caching_enabled()
    mutated, checks = _mutating_lints(REGISTRY.snapshot(), _certificates())
    assert checks > 30000
    assert mutated == {}


def _planted(applies, mutate):
    def check(cert):
        mutate(cert)
        return []

    return SimpleNamespace(
        metadata=SimpleNamespace(name="planted"), applies=applies, check=check
    )


@pytest.mark.parametrize("planted", [
    _planted(lambda c: c.san is not None and c.san.names, lambda c: c.san.names.clear()),
    _planted(lambda c: c.subject.rdns, lambda c: c.subject.rdns.clear()),
], ids=["san-names-cleared", "subject-rdns-cleared"])
def test_a_check_that_edits_a_view_is_caught(planted):
    violators = [
        (f"violator of {name}", VIOLATORS[name]().sign(VIOLATOR_KEY).to_der())
        for name in sorted(VIOLATORS)[:10]
    ]
    lints = [planted, *REGISTRY.snapshot()]
    mutated, _ = _mutating_lints(lints, violators)
    assert list(mutated) == ["planted"]

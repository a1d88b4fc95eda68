"""Violation-free twin of ``bad_lints`` for the negative tests.

Every pattern here is the *repaired* form of a planted violation: the
cached view is copied before mutation, the except clause is narrow, and
nothing consults randomness or the clock.
Every checker must report zero findings on this module.
"""


def _check_sorted_copy(cert):
    names = sorted(cert.san.names, key=lambda gn: gn.value)
    names.append(None)  # fine: ``sorted`` built a fresh list
    return bool(names), ""


def _careful_parse(data):
    try:
        return int(data)
    except ValueError:
        return None

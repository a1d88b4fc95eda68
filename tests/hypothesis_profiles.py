"""The suite's Hypothesis profiles and example budgets.

``HYPOTHESIS_PROFILE=ci`` loads Hypothesis's own ``ci`` profile
(derandomized, no deadline) at ten times the examples; any other name is
loaded as it is, and with the variable unset Hypothesis keeps its own
choice.  A test that pins its budget with ``max_examples=examples(n)``
runs ``n`` examples under the default profile and scales with the
loaded one.
"""

import os

from hypothesis import settings

#: How many times the default examples the ``ci`` profile runs.
CI_EXAMPLE_FACTOR = 10

#: ``max_examples`` of Hypothesis's ``default`` profile.
_DEFAULT_EXAMPLES = settings.get_profile("default").max_examples


def load_profile_from_env() -> None:
    name = os.environ.get("HYPOTHESIS_PROFILE")
    if name is None:
        return
    if name == "ci":
        # Registered only on request: Hypothesis loads its ``ci`` profile
        # by itself on CI hosts, and a plain run there must not scale.
        base = settings.get_profile("ci")
        settings.register_profile(
            "ci", base, max_examples=CI_EXAMPLE_FACTOR * _DEFAULT_EXAMPLES
        )
    settings.load_profile(name)


def examples(n: int) -> int:
    """``n`` under the default profile, scaled like the loaded one."""
    return n * settings.default.max_examples // _DEFAULT_EXAMPLES

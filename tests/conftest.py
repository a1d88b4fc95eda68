"""Suite-wide pytest setup: the Hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see :mod:`tests.hypothesis_profiles`)."""

from .hypothesis_profiles import load_profile_from_env

load_profile_from_env()

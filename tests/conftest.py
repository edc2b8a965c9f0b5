"""Shared test settings.

Hypothesis runs under a profile loaded by default: ``derandomize=True``
draws the same examples on every run, so a property test fails or passes
the same way locally and in CI; ``deadline=None`` keeps a slow shared host
from turning one slow example into a failure.  Tests still set their own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("beliefsel", derandomize=True, deadline=None)
settings.load_profile("beliefsel")

"""Shared pytest configuration.

Registers a Hypothesis ``ci`` profile: more examples per property and
derandomized, so a CI run is reproducible.  Select it with
``--hypothesis-profile=ci``; without the option the default profile
applies (tier-1 wall time stays put).
"""

from hypothesis import settings

settings.register_profile(
    "ci", max_examples=1000, derandomize=True, deadline=None
)

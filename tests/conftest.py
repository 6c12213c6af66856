"""Shared pytest configuration.

Registers a Hypothesis ``ci`` profile: more examples per property and
derandomized, so a CI run is reproducible.  Select it with
``--hypothesis-profile=ci``; without the option the default profile
applies (tier-1 wall time stays put).

The ``full_disk`` fixture makes artifact-store writes fail with
``ENOSPC``.
"""

import os
import tempfile

import pytest
from hypothesis import settings

settings.register_profile(
    "ci", max_examples=1000, derandomize=True, deadline=None
)


@pytest.fixture
def full_disk(monkeypatch):
    """``full_disk(*prefixes)``: from then on, every artifact-store put
    whose key starts with one of ``prefixes`` writes its bytes to
    ``/dev/full`` and fails with ``ENOSPC`` once its temp file exists,
    as on a disk that fills up mid-put."""
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    real_mkstemp = tempfile.mkstemp

    def arm(*prefixes):
        temp_prefixes = tuple(".tmp-" + p for p in prefixes)

        def mkstemp(*args, **kwargs):
            fd, path = real_mkstemp(*args, **kwargs)
            if (kwargs.get("prefix") or "").startswith(temp_prefixes):
                full = os.open("/dev/full", os.O_WRONLY)
                os.dup2(full, fd)
                os.close(full)
            return fd, path

        monkeypatch.setattr(tempfile, "mkstemp", mkstemp)

    return arm

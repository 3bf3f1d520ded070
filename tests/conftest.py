"""Shared fixtures."""

import numpy as np
import pytest
from hypothesis import settings

# Property tests run numpy eigensolves whose first call can be slow; no
# per-example deadline, for every property test.
settings.register_profile("unsharpjoint", deadline=None)
settings.load_profile("unsharpjoint")


@pytest.fixture
def eigensolves(monkeypatch):
    """A list that records the name of every np.linalg.eigh/eigvalsh call."""
    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    return calls

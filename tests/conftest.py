"""Shared fixtures."""

import numpy as np
import pytest


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

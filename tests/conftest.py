import pytest

from qdtau import tau


@pytest.fixture(autouse=True)
def no_stored_connection(monkeypatch):
    """Each test starts with no tau connection stored by an earlier
    one, so work counts and fresh-engine comparisons see a build."""
    monkeypatch.setattr(tau, "_last", (None, None))

import pytest


@pytest.fixture
def linprog_calls(monkeypatch):
    """Patch scipy's linprog to record the keyword arguments of every call."""
    import scipy.optimize

    calls = []
    orig = scipy.optimize.linprog

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return orig(*args, **kwargs)

    monkeypatch.setattr("scipy.optimize.linprog", recording)
    return calls

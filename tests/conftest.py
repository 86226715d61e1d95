import pytest

from gravkick import protocol


@pytest.fixture
def superpose_calls(monkeypatch):
    """Record every call of `protocol.superpose`, which renders a Gaussian run's `conditional`."""
    calls = []
    original = protocol.superpose

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, "superpose", counted)
    return calls

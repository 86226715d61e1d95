import pytest

from gravkick import protocol


@pytest.fixture
def superpose_calls(monkeypatch):
    """Record every call of `protocol.superpose`, the grid render behind `postselect`."""
    calls = []
    original = protocol.superpose

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, "superpose", counted)
    return calls

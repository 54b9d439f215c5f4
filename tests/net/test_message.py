"""Unit tests for Message bookkeeping."""

from repro.net.message import Message


def test_defaults():
    m = Message("queue", 2, 3)
    assert m.payload == {}
    assert m.hops == 0


def test_payload_not_shared_between_messages():
    a = Message("m", 0, 1)
    b = Message("m", 0, 1)
    a.payload["x"] = 1
    assert "x" not in b.payload

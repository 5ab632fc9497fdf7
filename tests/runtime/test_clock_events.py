"""Tests for the virtual clock and structured event log."""

import pytest

from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventKind, EventLog


class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        assert clock.advance(1.5) == 1.5
        assert clock.now == 1.5

    def test_custom_start(self):
        assert VirtualClock(10.0).now == 10.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_reset(self):
        clock = VirtualClock()
        clock.advance(5)
        clock.reset()
        assert clock.now == 0.0
        clock.reset(2.0)
        assert clock.now == 2.0


class TestEventLog:
    def test_emit_assigns_monotonic_sequence(self):
        log = EventLog()
        first = log.emit(EventKind.CHECK, "A")
        second = log.emit(EventKind.REFINE, "B")
        assert second.seq == first.seq + 1
        assert len(log) == 2

    def test_payload_and_timestamp_captured(self):
        log = EventLog()
        event = log.emit(EventKind.GENERATE, 'GEN["x"]', at=1.25, confidence=0.8)
        assert event.at == 1.25
        assert event.payload["confidence"] == 0.8

    def test_of_kind_filters(self):
        log = EventLog()
        log.emit(EventKind.CHECK, "A")
        log.emit(EventKind.REFINE, "B")
        log.emit(EventKind.CHECK, "C")
        assert [event.operator for event in log.of_kind(EventKind.CHECK)] == ["A", "C"]

    def test_for_operator_matches_label_prefix(self):
        log = EventLog()
        log.emit(EventKind.GENERATE, 'GEN["answer"]')
        log.emit(EventKind.GENERATE, 'GEN["other"]')
        assert len(log.for_operator('GEN["answer"]')) == 1

    def test_last_with_and_without_kind(self):
        log = EventLog()
        assert log.last() is None
        log.emit(EventKind.CHECK, "A")
        log.emit(EventKind.REFINE, "B")
        assert log.last().operator == "B"
        assert log.last(EventKind.CHECK).operator == "A"
        assert log.last(EventKind.MERGE) is None

    def test_subscribers_receive_events(self):
        log = EventLog()
        received = []
        log.subscribe(received.append)
        log.emit(EventKind.CHECK, "A")
        assert len(received) == 1
        assert received[0].operator == "A"

    def test_to_dicts_serializes(self):
        log = EventLog()
        log.emit(EventKind.PLAN, "P", budget=10)
        record = log.to_dicts()[0]
        assert record["kind"] == "plan"
        assert record["payload"] == {"budget": 10}

    def test_clear_keeps_subscribers(self):
        log = EventLog()
        received = []
        log.subscribe(received.append)
        log.emit(EventKind.CHECK, "A")
        log.clear()
        assert len(log) == 0
        log.emit(EventKind.CHECK, "B")
        assert len(received) == 2

    def test_since_equals_slice_of_all(self):
        log = EventLog()
        for index in range(5):
            log.emit(EventKind.CHECK, f"op{index}")
        for start in range(7):
            assert log.since(start) == log.all()[start:]
        log.clear()
        log.emit(EventKind.CHECK, "after_clear")
        assert log.since(0) == log.all()
        assert log.since(0)[0].seq == 5  # clear() keeps the counter

    def test_unsubscribe_stops_delivery(self):
        log = EventLog()
        received = []
        log.subscribe(received.append)
        log.emit(EventKind.CHECK, "A")
        assert log.unsubscribe(received.append) is True
        log.emit(EventKind.CHECK, "B")
        assert len(received) == 1
        # Unsubscribing an unknown callback is a no-op, not an error.
        assert log.unsubscribe(received.append) is False

    def test_failing_subscriber_does_not_break_emit(self):
        log = EventLog()
        received = []

        def bad_subscriber(event):
            raise RuntimeError("boom")

        log.subscribe(bad_subscriber)
        log.subscribe(received.append)
        event = log.emit(EventKind.CHECK, "A", at=1.5)
        # emit returns normally and later subscribers still ran...
        assert event.operator == "A"
        assert event in received
        # ...and the failure is recorded as an ERROR event, not raised.
        errors = log.of_kind(EventKind.ERROR)
        assert len(errors) == 1
        assert errors[0].payload["error"] == "RuntimeError"
        assert errors[0].payload["message"] == "boom"
        assert errors[0].payload["during_seq"] == event.seq
        assert "bad_subscriber" in errors[0].operator

    def test_subscriber_failure_error_reaches_other_subscribers(self):
        # Live subscribers must see the synthesized ERROR event too,
        # else a live collector and an offline replay of the export
        # would disagree on error counts.
        log = EventLog()
        received = []

        def bad_subscriber(event):
            raise RuntimeError("boom")

        log.subscribe(bad_subscriber)
        log.subscribe(received.append)
        log.emit(EventKind.CHECK, "A")
        kinds = [event.kind for event in received]
        assert EventKind.ERROR in kinds
        assert EventKind.CHECK in kinds
        # The failing subscriber's ERROR is delivered, but a failure
        # while *handling* an ERROR event is only recorded: two CHECK
        # emits → exactly two ERROR events, no cascade.
        log.emit(EventKind.CHECK, "B")
        assert len(log.of_kind(EventKind.ERROR)) == 2

    def test_record_allows_payload_keys_shadowing_emit_params(self):
        log = EventLog()
        event = log.record(
            EventKind.GENERATE,
            "GEN[x]",
            at=2.0,
            payload={"kind": "custom", "operator": "inner", "at": 9.9},
        )
        assert event.payload == {"kind": "custom", "operator": "inner", "at": 9.9}
        assert event.at == 2.0

    def test_failing_subscriber_error_does_not_recurse(self):
        log = EventLog()

        def always_fails(event):
            raise ValueError("persistent")

        log.subscribe(always_fails)
        log.emit(EventKind.CHECK, "A")
        log.emit(EventKind.CHECK, "B")
        # One ERROR per emitted event — the ERROR records themselves do
        # not re-notify subscribers (no runaway growth).
        assert len(log) == 4
        assert len(log.of_kind(EventKind.ERROR)) == 2

"""Tests for span-tree reconstruction from the event log."""

import pytest

from repro.obs import build_span_tree, iter_spans, render_span_tree, top_slowest
from repro.runtime.events import EventKind, EventLog


def _nested_log():
    log = EventLog()
    log.emit(EventKind.OPERATOR_START, "PIPE", at=0.0)
    log.emit(EventKind.OPERATOR_START, 'GEN["a"]', at=0.5)
    log.emit(
        EventKind.GENERATE,
        'GEN["a"]',
        at=2.0,
        prompt_tokens=100,
        cached_tokens=40,
        output_tokens=30,
        latency=1.5,
    )
    log.emit(EventKind.OPERATOR_END, 'GEN["a"]', at=2.0)
    log.emit(EventKind.OPERATOR_START, "CHECK", at=2.0)
    log.emit(EventKind.CHECK, "CHECK", at=2.1, condition="x", outcome=True)
    log.emit(EventKind.OPERATOR_END, "CHECK", at=2.2)
    log.emit(EventKind.OPERATOR_END, "PIPE", at=2.2)
    return log


class TestNestedReconstruction:
    def test_tree_shape_and_walls(self):
        roots = build_span_tree(_nested_log())
        assert len(roots) == 1
        pipe = roots[0]
        assert pipe.operator == "PIPE"
        assert pipe.wall == 2.2
        assert [child.operator for child in pipe.children] == ['GEN["a"]', "CHECK"]
        gen, check = pipe.children
        assert gen.wall == 1.5
        assert check.wall == pytest.approx(0.2)
        assert all(span.complete for span in iter_spans(roots))

    def test_generation_attributed_inclusively(self):
        pipe = build_span_tree(_nested_log())[0]
        gen = pipe.children[0]
        # The GEN span and its parent both see the call and its tokens.
        for span in (gen, pipe):
            assert span.gen_calls == 1
            assert span.prompt_tokens == 100
            assert span.cached_tokens == 40
            assert span.output_tokens == 30
            assert span.gen_latency == 1.5
        assert gen.cache_hit_ratio == 0.4
        # The sibling CHECK saw no generation.
        assert pipe.children[1].gen_calls == 0

    def test_reentrant_operator_nests(self):
        # The same label opened twice nests: each END closes the innermost
        # open span with that label.
        log = EventLog()
        log.emit(EventKind.OPERATOR_START, "A", at=0.0)
        log.emit(EventKind.OPERATOR_START, "A", at=1.0)
        log.emit(EventKind.OPERATOR_END, "A", at=2.0)
        log.emit(EventKind.OPERATOR_END, "A", at=4.0)
        (outer,) = build_span_tree(log)
        (inner,) = outer.children
        assert (outer.wall, inner.wall) == (4.0, 1.0)
        assert outer.complete and inner.complete

    def test_depths_follow_nesting(self):
        roots = build_span_tree(_nested_log())
        depths = {span.operator: span.depth for span in iter_spans(roots)}
        assert depths == {"PIPE": 0, 'GEN["a"]': 1, "CHECK": 1}


class TestMalformedLogs:
    def test_unmatched_end_ignored(self):
        log = EventLog()
        log.emit(EventKind.OPERATOR_END, "ghost", at=1.0)
        assert build_span_tree(log) == []

    def test_interleaved_close_marks_inner_incomplete(self):
        log = EventLog()
        log.emit(EventKind.OPERATOR_START, "outer", at=0.0)
        log.emit(EventKind.OPERATOR_START, "inner", at=1.0)
        log.emit(EventKind.OPERATOR_END, "outer", at=3.0)  # closes both
        roots = build_span_tree(log)
        outer = roots[0]
        assert outer.complete
        assert outer.wall == 3.0
        (inner,) = outer.children
        assert not inner.complete
        assert inner.end == 3.0  # closed at the outer END's timestamp

    def test_truncated_log_closes_at_last_timestamp(self):
        log = EventLog()
        log.emit(EventKind.OPERATOR_START, "never_ends", at=0.0)
        log.emit(EventKind.GENERATE, 'GEN["x"]', at=4.5, latency=1.0)
        (span,) = build_span_tree(log)
        assert not span.complete
        assert span.end == 4.5
        assert span.wall == 4.5

    def test_empty_log(self):
        assert build_span_tree(EventLog()) == []


class TestHelpers:
    def test_top_slowest_orders_by_wall(self):
        roots = build_span_tree(_nested_log())
        slowest = top_slowest(roots, k=2)
        assert [span.operator for span in slowest] == ["PIPE", 'GEN["a"]']

    def test_render_span_tree_shows_tokens_and_nesting(self):
        text = render_span_tree(build_span_tree(_nested_log()))
        lines = text.splitlines()
        assert lines[0].lstrip().startswith("0.00s")
        assert "PIPE" in lines[0]
        assert "tokens=100p/40c/30o" in lines[1]
        # Children indented beneath the root.
        assert lines[1].index("GEN") > lines[0].index("PIPE")

    def test_render_marks_incomplete(self):
        log = EventLog()
        log.emit(EventKind.OPERATOR_START, "trunc", at=0.0)
        text = render_span_tree(build_span_tree(log))
        assert "[incomplete]" in text

    def test_to_dict_round_trips_subtree(self):
        pipe = build_span_tree(_nested_log())[0]
        record = pipe.to_dict()
        assert record["operator"] == "PIPE"
        assert record["wall"] == 2.2
        assert [child["operator"] for child in record["children"]] == [
            'GEN["a"]',
            "CHECK",
        ]

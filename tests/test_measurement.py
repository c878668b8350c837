import json
import math
import threading
import time
from dataclasses import dataclass
from typing import Optional

import pytest

from granscale.measurement import (
    INCOMPLETE_COVERAGE,
    RunRecord,
    Span,
    _check_types,
    aggregate,
    begin_run,
)


class TestBeginRun:
    def test_fresh_handle(self):
        h = begin_run("kmeans", 4, 983040, 42)
        assert h.workers == 4
        assert h.finish().spans == ()

    def test_single_worker(self):
        h = begin_run("pi", 1, 10_000_000, 7)
        assert h.workers == 1

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            begin_run("synthetic", 0, 10, 1)


BAD_DURATIONS = [-0.001, math.nan, math.inf, -math.inf]


class TestSpan:
    def test_positional_fields(self):
        span = Span(1, 0.25, "assign")
        assert (span.worker_id, span.duration, span.phase_label) == (1, 0.25, "assign")
        assert tuple(span) == (1, 0.25, "assign")
        assert Span._fields == ("worker_id", "duration", "phase_label")
        assert Span(worker_id=1, duration=0.25, phase_label="assign") == span

    def test_immutable(self):
        span = Span(0, 0.5, "update")
        with pytest.raises(AttributeError):
            span.duration = 1.0
        with pytest.raises(AttributeError):
            span.cpu_s = 1.0

    def test_equal_spans_hash_equal(self):
        a, b = Span(0, 0.5, "update"), Span(0, 0.5, "update")
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Span(1, 0.5, "update")}) == 2
        assert a != Span(0, 0.5, "assign")

    @pytest.mark.parametrize("duration", BAD_DURATIONS)
    def test_negative_or_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError):
            Span(0, duration, "assign")
        with pytest.raises(ValueError):
            Span(0, 0.5, "assign")._replace(duration=duration)


class TestRecordSpan:
    def test_appends(self):
        h = begin_run("w", 4, 10, 0)
        h.record_span(0, 0.010, "assign")
        assert h.finish().spans == (Span(0, 0.010, "assign"),)

    def test_out_of_range_worker(self):
        h = begin_run("w", 4, 10, 0)
        with pytest.raises(ValueError):
            h.record_span(99, 0.010, "assign")

    def test_zero_duration_allowed(self):
        h = begin_run("w", 4, 10, 0)
        h.record_span(0, 0.0, "assign")
        assert h.finish().spans == (Span(0, 0.0, "assign"),)

    def test_negative_duration_rejected(self):
        h = begin_run("w", 1, 10, 0)
        with pytest.raises(ValueError):
            h.record_span(0, -0.001, "assign")

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
    def test_non_finite_duration_rejected(self, duration):
        h = begin_run("w", 1, 10, 0)
        with pytest.raises(ValueError):
            h.record_span(0, duration, "assign")
        assert h.finish().spans == ()

    def test_finished_handle_rejects(self):
        h = begin_run("w", 1, 10, 0)
        h.record_span(0, 0.1, "assign")
        h.finish()
        with pytest.raises(RuntimeError):
            h.record_span(0, 0.1, "assign")


class TestSpanContext:
    def test_records_one_span(self):
        h = begin_run("w", 2, 10, 0)
        with h.span(1, "update"):
            pass
        (span,) = h.finish().spans
        assert (span.worker_id, span.phase_label) == (1, "update")
        assert span.duration >= 0

    def test_raising_block_records_nothing(self):
        h = begin_run("w", 1, 10, 0)
        with pytest.raises(KeyError):
            with h.span(0, "assign"):
                raise KeyError("boom")
        assert h.finish().spans == ()

    def test_out_of_range_worker(self):
        h = begin_run("w", 2, 10, 0)
        with pytest.raises(ValueError):
            with h.span(2, "assign"):
                pass


class TestFinishRun:
    def test_span_counting(self):
        h = begin_run("w", 4, 10, 0)
        for w in range(4):
            for _ in range(3):
                h.record_span(w, 0.01, "assign")
        rec = h.finish()
        assert len(rec.spans) == 12
        assert rec.flags == ()

    def test_incomplete_worker_coverage_flagged(self):
        h = begin_run("w", 2, 10, 0)
        h.record_span(0, 0.01, "assign")
        rec = h.finish()
        assert INCOMPLETE_COVERAGE in rec.flags

    def test_incomplete_coverage_survives_json(self):
        h = begin_run("w", 3, 10, 0)
        h.record_span(0, 0.01, "assign")
        h.record_span(2, 0.02, "assign")
        rec = h.finish(wall_clock=0.5)
        back = RunRecord.from_json(rec.to_json())
        assert INCOMPLETE_COVERAGE in back.flags
        assert back == rec

    def test_double_finish(self):
        h = begin_run("w", 1, 10, 0)
        h.record_span(0, 0.1, "a")
        h.finish()
        with pytest.raises(RuntimeError):
            h.finish()

    def test_wall_clock_override(self):
        h = begin_run("w", 1, 10, 0)
        h.record_span(0, 0.5, "busy")
        rec = h.finish(wall_clock=1.25)
        assert rec.wall_clock == 1.25


class TestAggregate:
    def test_summation(self):
        h = begin_run("w", 2, 10, 0)
        h.record_span(0, 2.0, "a")
        h.record_span(1, 2.0, "a")
        rec = h.finish(wall_clock=2.5)
        b = aggregate(rec)
        assert (b.workers, b.wall_clock, b.total_comp) == (2, 2.5, 4.0)

    def test_serial(self):
        h = begin_run("w", 1, 10, 0)
        h.record_span(0, 5.0, "a")
        b = aggregate(h.finish(wall_clock=5.0))
        assert (b.workers, b.wall_clock, b.total_comp) == (1, 5.0, 5.0)

    def test_budget_violation_rejected(self):
        h = begin_run("w", 4, 10, 0)
        for w in range(4):
            h.record_span(w, 10.25, "a")
        rec = h.finish(wall_clock=10.0)
        with pytest.raises(ValueError):
            aggregate(rec)

    def test_total_is_the_left_to_right_sum(self):
        # 1 + 1e16 rounds away the 1, so the order of the additions shows.
        durations = [1.0, 1e16, 1.0, 1.0, 3.0]
        h = begin_run("w", 2, 10, 0)
        for i, d in enumerate(durations):
            h.record_span(i % 2, d, "a")
        rec = h.finish(wall_clock=1e16)
        left_to_right = 0.0
        for span in rec.spans:
            left_to_right += span.duration
        assert left_to_right != math.fsum(durations)
        total = aggregate(rec).total_comp
        assert total.hex() == left_to_right.hex()
        assert aggregate(RunRecord.from_json(rec.to_json())).total_comp.hex() == total.hex()

    def test_order_independent(self):
        def build(order):
            h = begin_run("w", 3, 10, 0)
            for w, d in order:
                h.record_span(w, d, "a")
            return aggregate(h.finish(wall_clock=10.0))

        spans = [(0, 1.0), (1, 2.0), (2, 3.0), (0, 0.5)]
        assert build(spans).total_comp == build(list(reversed(spans))).total_comp


class TestConcurrentRecording:
    def test_lossless_under_concurrent_submission(self):
        workers, k, d = 8, 200, 0.001
        h = begin_run("w", workers, 10, 0)

        def submit(w):
            for _ in range(k):
                h.record_span(w, d, "busy")

        threads = [threading.Thread(target=submit, args=(w,)) for w in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rec = h.finish(wall_clock=1.0)
        assert len(rec.spans) == workers * k
        b = aggregate(rec)
        assert b.total_comp == pytest.approx(workers * k * d)


class TestTimerFidelity:
    def test_self_calibration(self):
        # Busy-wait a known interval and check the span mechanism sees it.
        target = 0.05
        h = begin_run("w", 1, 10, 0)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < target:
            pass
        measured = time.perf_counter() - t0
        h.record_span(0, measured, "busy")
        rec = h.finish()
        assert abs(rec.spans[0].duration - target) <= max(0.001, 0.05 * target)
        assert rec.wall_clock >= rec.spans[0].duration


class TestSerialization:
    def test_json_round_trip(self):
        h = begin_run("kmeans", 2, 100, 42)
        h.record_span(0, 0.25, "assign")
        h.record_span(1, 0.5, "update")
        rec = h.finish(wall_clock=1.0)
        back = RunRecord.from_json(rec.to_json())
        assert back == rec
        assert all(type(s) is Span for s in back.spans)
        assert back.to_json() == rec.to_json()

    def test_no_spans_round_trip(self):
        rec = begin_run("w", 2, 10, 0).finish(wall_clock=1.0)
        back = RunRecord.from_json(rec.to_json())
        assert back == rec and back.spans == ()
        assert aggregate(back).total_comp == 0

    @pytest.mark.parametrize("duration", BAD_DURATIONS)
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_negative_or_non_finite_duration_rejected(self, duration, position):
        durations = [0.25, 0.5, 0.125]
        durations[position] = duration
        obj = {"workload_id": "w", "workers": 1, "problem_size": 10, "seed": 0,
               "wall_clock_s": 1.0, "iterations": 3,
               "spans": [{"worker": 0, "duration_s": d, "phase": "a"} for d in durations]}
        with pytest.raises(ValueError):
            RunRecord.from_json(json.dumps(obj))

    def test_json_schema_fields(self):
        h = begin_run("pi", 1, 100, 7)
        h.record_span(0, 0.1, "sample")
        obj = json.loads(h.finish().to_json())
        assert set(obj) == {
            "workload_id", "workers", "problem_size", "seed",
            "wall_clock_s", "iterations", "spans",
        }
        assert set(obj["spans"][0]) == {"worker", "duration_s", "phase"}

    def test_older_line_with_id_and_start_time_loads(self):
        # Records files written before runs lost their random id and start time.
        line = (
            '{"run_id": "a19272e13bce462bb070870a94150b6f", "workload_id": "synthetic", '
            '"workers": 1, "problem_size": 4, "seed": 6092550624438945337, '
            '"wall_clock_s": 0.024, "iterations": 4, '
            '"started_at": "2025-01-01T12:00:00.000000+00:00", '
            '"spans": [{"worker": 0, "duration_s": 0.005, "phase": "busy"}]}'
        )
        rec = RunRecord.from_json(line)
        assert rec == RunRecord("synthetic", 1, 4, 6092550624438945337, 0.024,
                                (Span(0, 0.005, "busy"),), 4)
        obj = json.loads(line)
        del obj["run_id"], obj["started_at"]
        assert rec.to_json() == json.dumps(obj)

    @pytest.mark.parametrize("key, value", [
        ("workers", "2"),
        ("workers", 2.5),
        ("workers", True),
        ("problem_size", 4.0),
        ("seed", "7"),
        ("iterations", None),
        ("wall_clock_s", "1.0"),
        ("wall_clock_s", False),
    ])
    def test_wrongly_typed_field_refused(self, key, value):
        # A "2" would load and make .flags raise TypeError; a 2.5 would
        # aggregate to p = 2.5.
        obj = json.loads(TWO_WORKER_LINE)
        obj[key] = value
        with pytest.raises(ValueError, match=f"^{key} must be (int|float), got "):
            RunRecord.from_json(json.dumps(obj))

    @pytest.mark.parametrize("ids, match", [
        ((0, 7), r"span workers must lie in 0\.\.1"),
        ((0, -1), r"span workers must lie in 0\.\.1"),
        ((0, 2), r"span workers must lie in 0\.\.1"),
        (("0", 1), "worker must be int, got '0'"),
        ((0, True), "worker must be int, got True"),
        ((1, True), "worker must be int, got True"),
        ((1, 1.0), "worker must be int, got 1.0"),
    ], ids=["7", "negative", "2", "str", "bool", "bool-after-1", "float-after-1"])
    def test_span_worker_out_of_range_refused(self, ids, match):
        # Spans of workers {0, 7} in a 2-worker record left worker 1 without
        # a span, yet the record carried no incomplete-coverage flag. A true
        # or 1.0 after a span of worker 1 loaded as it was: {1, True} == {1}.
        obj = json.loads(TWO_WORKER_LINE)
        for span, worker in zip(obj["spans"], ids):
            span["worker"] = worker
        with pytest.raises(ValueError, match=match):
            RunRecord.from_json(json.dumps(obj))

    @pytest.mark.parametrize("key, value", [
        ("workers", 0),
        ("workers", -2),
        ("problem_size", 0),
        ("iterations", -1),
        ("wall_clock_s", -1.0),
        ("wall_clock_s", math.nan),
        ("wall_clock_s", math.inf),
    ])
    def test_out_of_range_field_refused(self, key, value):
        # RunHandle refuses workers and problem_size below 1; a run counts
        # iterations up from 0 and its wall clock is a finite time.
        obj = json.loads(TWO_WORKER_LINE)
        obj[key] = value
        with pytest.raises(ValueError, match=">= 1, iterations >= 0"):
            RunRecord.from_json(json.dumps(obj))

    def test_non_str_workload_id_refused(self):
        obj = json.loads(TWO_WORKER_LINE)
        obj["workload_id"] = 5
        with pytest.raises(ValueError, match="workload_id must be str, got 5"):
            RunRecord.from_json(json.dumps(obj))

    @pytest.mark.parametrize("key, value", [
        ("phase", 3),
        ("phase", None),
        ("duration_s", True),
        ("duration_s", False),
        ("duration_s", "0.5"),
        ("duration_s", None),
    ])
    @pytest.mark.parametrize("position", [0, 1])
    def test_wrongly_typed_span_field_refused(self, key, value, position):
        # A true duration loaded as the span's duration True, and "0.5"
        # raised TypeError from the range check's comparison.
        obj = json.loads(TWO_WORKER_LINE)
        obj["spans"][position][key] = value
        with pytest.raises(ValueError, match=f"^{key} must be (float|str), got "):
            RunRecord.from_json(json.dumps(obj))

    @pytest.mark.parametrize("edit", [
        lambda obj: {**obj, "spans": None},
        lambda obj: {**obj, "spans": [5, obj["spans"][1]]},
        lambda obj: {**obj, "spans": [{**obj["spans"][0], "worker": [0]}, obj["spans"][1]]},
        lambda obj: {k: v for k, v in obj.items() if k != "seed"},
        lambda obj: {**obj, "spans": [obj["spans"][0], {"worker": 1, "duration_s": 0.5}]},
        lambda obj: [1],
        lambda obj: {**obj, "spans": {}},
        lambda obj: {**obj, "spans": ""},
    ], ids=["spans-null", "span-5", "worker-list", "no-seed", "span-without-phase", "list",
            "spans-object", "spans-string"])
    def test_malformed_line_refused(self, edit):
        # Each raised TypeError or KeyError, so a reader had to catch three
        # types; spans {} and "" loaded as a record with no spans.
        with pytest.raises(ValueError):
            RunRecord.from_json(json.dumps(edit(json.loads(TWO_WORKER_LINE))))

    def test_boundary_values_load(self):
        obj = json.loads(TWO_WORKER_LINE)
        obj.update(workers=1, problem_size=1, iterations=0, wall_clock_s=0.0, seed=-3)
        obj["spans"] = [{"worker": 0, "duration_s": 0, "phase": ""}]
        rec = RunRecord.from_json(json.dumps(obj))
        assert rec == RunRecord("pi", 1, 1, -3, 0.0, (Span(0, 0, ""),), 0)

    def test_integer_wall_clock_loads(self):
        obj = json.loads(TWO_WORKER_LINE)
        obj["wall_clock_s"] = 1
        assert RunRecord.from_json(json.dumps(obj)).wall_clock == 1


TWO_WORKER_LINE = (
    '{"workload_id": "pi", "workers": 2, "problem_size": 8, "seed": 7, '
    '"wall_clock_s": 1.0, "iterations": 1, "spans": ['
    '{"worker": 0, "duration_s": 0.5, "phase": "sample"}, '
    '{"worker": 1, "duration_s": 0.5, "phase": "sample"}]}'
)


@dataclass(frozen=True)
class Probe:
    weights: Optional[dict[str, float]]
    name: str
    label: Optional[str]
    tags: tuple[str, ...]
    count: int
    ratio: float


class TestTypeRule:
    """_check_types, the one rule for every record read from JSON."""

    GOOD = dict(weights={"assign": 1.0, "update": 2}, name="a", label="b", tags=("x", "y"),
                count=3, ratio=0.5)

    @pytest.mark.parametrize("key, value", [
        ("weights", None), ("weights", {}), ("label", None), ("tags", ["x"]), ("tags", ()),
        ("ratio", 2), ("ratio", math.inf),
    ])
    def test_right_value_accepted(self, key, value):
        _check_types(Probe(**self.GOOD))
        _check_types(Probe(**{**self.GOOD, key: value}))

    @pytest.mark.parametrize("key, value", [
        ("weights", {"assign": "1"}), ("weights", {1: 1.0}), ("weights", {"a": True}),
        ("weights", [1.0]),
        ("name", 5), ("name", None), ("label", 5),
        ("tags", "xy"), ("tags", [5]), ("tags", None),
        ("count", True), ("count", 2.5), ("count", "2"), ("count", None),
        ("ratio", True), ("ratio", "0.5"), ("ratio", None),
    ])
    def test_wrong_value_refused(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be "):
            _check_types(Probe(**{**self.GOOD, key: value}))

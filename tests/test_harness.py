import dataclasses
import hashlib
import itertools
import json
import logging
import math
import os
import re
import weakref

import pytest

from granscale import cli, harness
from granscale.harness import (
    CellExecutionError,
    CellResult,
    ExperimentPlan,
    load_results,
    resume,
    run_plan,
)
from granscale.measurement import RunRecord
from granscale.workloads import KMeansSpec, PiSpec, SyntheticSpec

SIM = SyntheticSpec(compute_ms_per_worker=5, exchange_ms_per_worker=1,
                    iterations=1, simulate=True)


def sim_plan(**overrides):
    kwargs = dict(
        workload=SIM, mode="strong", worker_counts=(1, 2),
        base_problem_size=4, problem_sizes=(4,), repetitions=3, seed=7,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def canonical_sha256(plan_obj):
    """A header's plan_hash: the sha256 of the plan's JSON with sorted keys and no spaces."""
    return hashlib.sha256(json.dumps(
        plan_obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


KM_PLAN = sim_plan(workload=KMeansSpec(n_points=100, n_clusters=4, dims=2),
                   problem_sizes=(100,), base_problem_size=100).to_dict()


class TestPlanValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            sim_plan(mode="sideways")

    def test_non_ascending_workers(self):
        with pytest.raises(ValueError):
            sim_plan(worker_counts=(4, 2))

    def test_json_round_trip(self):
        plan = sim_plan()
        back = ExperimentPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert back == plan
        assert canonical_sha256(back.to_dict()) == canonical_sha256(plan.to_dict())

    def test_workload_kinds_round_trip(self):
        for wl in (
            KMeansSpec(n_points=100, n_clusters=4, dims=2, seed=1),
            PiSpec(n_samples=1000, seed=2),
            SIM,
        ):
            plan = sim_plan(workload=wl)
            assert ExperimentPlan.from_dict(plan.to_dict()).workload == wl

    def test_from_dict_defaults_and_unknown_keys(self):
        obj = {"workload": {"kind": "synthetic", "compute_ms_per_worker": 5,
                            "exchange_ms_per_worker": 1},
               "mode": "weak", "worker_counts": [1, 2], "base_problem_size": 4,
               "comment": "ignored"}
        plan = ExperimentPlan.from_dict(obj)
        assert plan == ExperimentPlan(SyntheticSpec(5, 1), "weak", (1, 2), 4)
        for sizes in ([], None):
            assert ExperimentPlan.from_dict({**obj, "problem_sizes": sizes}).problem_sizes is None

    def test_non_positive_problem_size(self):
        for sizes in ((0, 4), (4, -8)):
            with pytest.raises(ValueError, match="problem sizes must be positive"):
                sim_plan(problem_sizes=sizes)

    def test_duplicate_problem_sizes(self):
        with pytest.raises(ValueError, match=r"problem sizes must be distinct, got \[4, 4\]"):
            sim_plan(problem_sizes=(4, 4))

    def test_weak_plan_takes_no_problem_sizes(self):
        with pytest.raises(ValueError, match="a weak plan takes no problem_sizes"):
            sim_plan(mode="weak", problem_sizes=(100, 200))

    def test_unknown_kind(self):
        obj = sim_plan().to_dict()
        obj["workload"]["kind"] = "fft"
        with pytest.raises(ValueError, match="unknown workload kind"):
            ExperimentPlan.from_dict(obj)


def cells_run(plan):
    """The (workers, problem_size) cells a sweep of the plan measures, in order."""
    return [(c.workers, c.problem_size) for c in run_plan(plan).cells]


class TestPlanCells:
    def test_strong_product(self):
        plan = sim_plan(worker_counts=(2, 4), problem_sizes=(10, 20))
        cells = cells_run(plan)
        assert len(cells) == 6
        assert set(cells) == {(1, 10), (1, 20), (2, 10), (2, 20), (4, 10), (4, 20)}

    def test_weak_scaled_sizes(self):
        plan = sim_plan(mode="weak", worker_counts=(8, 16, 32),
                        base_problem_size=120, problem_sizes=None)
        assert cells_run(plan) == [(1, 120), (1, 240), (1, 480),
                                   (8, 120), (16, 240), (32, 480)]

    def test_weak_constant_per_worker_size(self):
        plan = sim_plan(mode="weak", worker_counts=(2, 4, 8),
                        base_problem_size=10, problem_sizes=None)
        cells = cells_run(plan)
        assert len({size // p for p, size in cells if p > 1}) == 1
        assert {(1, size) for _, size in cells} <= set(cells)

    def test_weak_indivisible(self):
        # Rejected when the plan is built, before any cell is expanded or run.
        with pytest.raises(ValueError, match="divisible by the smallest worker count"):
            sim_plan(mode="weak", worker_counts=(3,), base_problem_size=100,
                     problem_sizes=None)

    def test_pure_function(self):
        plan = sim_plan(worker_counts=(1, 2, 4), problem_sizes=(10, 20))
        assert cells_run(plan) == cells_run(plan) == [
            (1, 10), (1, 20), (2, 10), (2, 20), (4, 10), (4, 20)]


class TestRunPlan:
    def test_synthetic_cell_metrics(self):
        # Every worker computes 90 ms and exchanges 10 ms: E = 0.9 at any p.
        plan = sim_plan(workload=SyntheticSpec(90, 10, 1), worker_counts=(4,),
                        problem_sizes=(3,), base_problem_size=3, repetitions=3)
        res = run_plan(plan)
        assert sorted(c.workers for c in res.cells) == [1, 4]
        for cell in res.cells:
            assert abs(cell.metrics.efficiency - 0.9) <= 0.08, cell
            assert cell.kept == 3

    def test_serial_self_comparison(self):
        plan = sim_plan(workload=PiSpec(n_samples=50_000, seed=1),
                        worker_counts=(1,), problem_sizes=(50_000,),
                        base_problem_size=50_000, repetitions=2)
        res = run_plan(plan)
        cell = res.cells[0]
        assert cell.actual_speedup == pytest.approx(1.0, abs=0.05)
        assert abs(cell.relative_error) < 0.5

    def test_kmeans_through_harness(self):
        plan = sim_plan(
            workload=KMeansSpec(n_points=20000, n_clusters=8, dims=4,
                                max_iterations=5, seed=3),
            worker_counts=(1, 2), problem_sizes=(20000,), base_problem_size=20000,
            repetitions=2,
        )
        res = run_plan(plan)
        assert len(res.cells) == 2
        p1 = res.cells[0]
        assert p1.workers == 1
        assert p1.actual_speedup == pytest.approx(1.0)
        assert abs(p1.relative_error) <= 0.2
        assert all(0.0 <= c.metrics.efficiency <= 1.0 for c in res.cells)

    def test_pipeline_identity_per_cell(self):
        plan = sim_plan(worker_counts=(1, 2), problem_sizes=(4,))
        res = run_plan(plan)
        for cell in res.cells:
            if cell.metrics.overhead > 1e-9:
                assert cell.metrics.estimated_speedup == pytest.approx(
                    cell.mean_total_comp / cell.mean_wall
                )

    def test_results_file_layout(self, tmp_path):
        out = tmp_path / "r.jsonl"
        plan = sim_plan()
        res = run_plan(plan, out_path=out)
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["plan_hash"] == canonical_sha256(plan.to_dict())
        assert header["plan"] == plan.to_dict()
        assert "tool_version" in header
        assert len(lines) == 1 + len(res.cells)
        loaded = load_results(out)
        assert [c.cell_key for c in loaded.cells] == [c.cell_key for c in res.cells]

    def test_monotonic_persistence(self, tmp_path):
        # Each cell's line appends to the file; earlier bytes never change.
        out = tmp_path / "r.jsonl"
        plan = sim_plan(worker_counts=(1, 2), problem_sizes=(4, 8))
        run_plan(plan, out_path=out)
        lines = out.read_text().splitlines(keepends=True)
        prefix = "".join(lines[:3])
        (tmp_path / "trunc.jsonl").write_text(prefix)
        resume(tmp_path / "trunc.jsonl")
        assert (tmp_path / "trunc.jsonl").read_text().startswith(prefix)

    def _slow_run_plan(self, monkeypatch, walls, repetitions=5):
        # Simulated runs whose wall clocks follow `walls`, warm-up first;
        # returns the one cell and how many runs it made.
        made = itertools.count()
        real = harness.synthetic_run

        def run(spec, workers, handle):
            return dataclasses.replace(real(spec, workers, handle), wall_clock=walls[next(made)])

        monkeypatch.setattr(harness, "synthetic_run", run)
        plan = sim_plan(worker_counts=(1,), problem_sizes=(1,), base_problem_size=1,
                        repetitions=repetitions)
        return run_plan(plan).cells[0], next(made)

    def test_outlier_dropped_not_measured_again(self, monkeypatch):
        cell, runs = self._slow_run_plan(monkeypatch, [0.006] * 5 + [0.06, 0.006])
        assert runs == 1 + 5
        assert (cell.kept, cell.rejected) == (4, 1)
        assert cell.mean_wall == pytest.approx(0.006)

    # Rejections at both ends, two of them equal: the fences close on the
    # six equal walls.
    BOTH_ENDS = [0.006, 0.001] + [0.006] * 3 + [0.06] + [0.006] * 3 + [0.06]

    def test_one_pass_of_runs_per_cell(self, monkeypatch):
        cell, runs = self._slow_run_plan(monkeypatch, self.BOTH_ENDS, repetitions=9)
        assert runs == 1 + 9
        assert (cell.kept, cell.rejected) == (6, 3)
        assert cell.kept + cell.rejected == 9
        assert cell.mean_wall == pytest.approx(0.006)

    def test_rejections_logged_once_per_cell(self, monkeypatch, caplog):
        with caplog.at_level(logging.INFO, logger="granscale"):
            self._slow_run_plan(monkeypatch, self.BOTH_ENDS, repetitions=9)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.INFO, "cell 1/1 (p=1, size=1)"),
            (logging.INFO, "cell (p=1, size=1): kept 6/9, 3 rejected by the Tukey rule"),
        ]

    def test_warns_on_fewer_cpus_than_workers(self, monkeypatch, caplog):
        # The affinity mask, not the host's CPU count, bounds the parallelism.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with caplog.at_level(logging.WARNING, logger="granscale"):
            run_plan(sim_plan(worker_counts=(1, 2)))
        assert "CPUs available to the process: 1, plan asks for 2 workers" in caplog.text

    def test_failure_carries_cell_identity(self):
        plan = sim_plan(
            workload=KMeansSpec(n_points=4, n_clusters=2, dims=2, seed=0),
            worker_counts=(8,), problem_sizes=(4,), base_problem_size=4,
            repetitions=1,
        )
        with pytest.raises(CellExecutionError) as exc:
            run_plan(plan)
        assert exc.value.cell_key == ("kmeans", 8, 4)

    def test_progress_logged_per_cell(self, caplog):
        # No p=1 in the plan: each size's serial baseline is a p=1 cell of its own.
        plan = sim_plan(worker_counts=(2,), problem_sizes=(4, 8))
        with caplog.at_level(logging.INFO, logger="granscale"):
            run_plan(plan)
        assert caplog.messages == [
            "cell 1/4 (p=1, size=4)",
            "cell 2/4 (p=1, size=8)",
            "cell 3/4 (p=2, size=4)",
            "cell 4/4 (p=2, size=8)",
        ]

    def test_baseline_cells_added_per_size(self):
        plan = sim_plan(worker_counts=(2, 4), problem_sizes=(4, 8))
        cells = run_plan(plan).cells
        assert [(c.workers, c.problem_size) for c in cells] == [
            (1, 4), (1, 8), (2, 4), (2, 8), (4, 4), (4, 8),
        ]
        t1 = {c.problem_size: c.mean_wall for c in cells if c.workers == 1}
        for c in cells:
            assert c.actual_speedup == t1[c.problem_size] / c.mean_wall

    def test_cli_run_writes_records(self, tmp_path):
        # The second plan has no p=1: its baseline runs are recorded too.
        for name, worker_counts in (("with-p1", (1, 2)), ("without-p1", (2,))):
            plan_file, out, records = (tmp_path / f"{name}-{n}"
                                       for n in ("plan.json", "r.jsonl", "runs.jsonl"))
            plan = sim_plan(worker_counts=worker_counts, problem_sizes=(4, 8))
            plan_file.write_text(json.dumps(plan.to_dict()))
            assert cli.main(["run", "--plan", str(plan_file), "--out", str(out),
                             "--records", str(records)]) == 0
            cells = load_results(out).cells
            lines = records.read_text().splitlines()
            assert len(lines) == sum(c.kept for c in cells)
            runs = [RunRecord.from_json(line) for line in lines]
            assert [r.to_json() for r in runs] == lines
            assert [(r.workers, r.problem_size) for r in runs] == [
                (c.workers, c.problem_size) for c in cells for _ in range(c.kept)
            ]
            assert {r.workers for r in runs} == {1, 2}

    @pytest.mark.parametrize("plan_obj", [
        pytest.param(42, id="plan-not-object"),
        pytest.param({"mode": "strong"}, id="plan-without-workload"),
        pytest.param({**sim_plan().to_dict(), "mode": "sideways"}, id="plan-bad-mode"),
        pytest.param({**sim_plan().to_dict(), "problem_sizes": [0, 4]}, id="plan-size-zero"),
        pytest.param({**sim_plan().to_dict(), "mode": "weak", "worker_counts": [2, 4],
                      "base_problem_size": 5, "problem_sizes": None},
                     id="weak-base-indivisible"),
        pytest.param({**sim_plan().to_dict(), "problem_sizes": [4, 4]},
                     id="strong-duplicate-sizes"),
        pytest.param({**sim_plan().to_dict(), "mode": "weak", "worker_counts": [1, 2],
                      "base_problem_size": 4, "problem_sizes": [100, 200]},
                     id="weak-with-sizes"),
        pytest.param(None, id="plan-file-missing"),
        # Wrongly typed values: a sweep would fail partway through on each,
        # or run another plan, so they are refused before anything is written.
        *(pytest.param({**sim_plan().to_dict(), key: value}, id=name) for name, key, value in (
            ("repetitions-fraction", "repetitions", 2.5),
            ("workers-fraction", "worker_counts", [1, 2.5]),
            ("workers-bool", "worker_counts", [True, 2]),
            ("seed-fraction", "seed", 1.5),
            ("base-size-fraction", "base_problem_size", 4.5),
            ("sizes-fraction", "problem_sizes", [4.5]),
        )),
        *(pytest.param({**plan, "workload": {**plan["workload"], key: value}}, id=name)
          for name, plan, key, value in (
            ("kmeans-clusters-fraction", KM_PLAN, "n_clusters", 2.5),
            ("kmeans-iterations-fraction", KM_PLAN, "max_iterations", 1.5),
            ("simulate-string", sim_plan().to_dict(), "simulate", "yes"),
            # Non-finite floats: the header would hold bare NaN or Infinity.
            ("kmeans-epsilon-nan", KM_PLAN, "convergence_epsilon", math.nan),
            ("kmeans-epsilon-inf", KM_PLAN, "convergence_epsilon", math.inf),
            ("compute-nan", sim_plan().to_dict(), "compute_ms_per_worker", math.nan),
            ("compute-inf", sim_plan().to_dict(), "compute_ms_per_worker", math.inf),
            ("exchange-nan", sim_plan().to_dict(), "exchange_ms_per_worker", math.nan),
            ("exchange-inf", sim_plan().to_dict(), "exchange_ms_per_worker", math.inf),
        )),
    ])
    def test_cli_run_rejects_invalid_plan(self, tmp_path, capsys, plan_obj):
        plan_file, out = tmp_path / "plan.json", tmp_path / "r.jsonl"
        if plan_obj is not None:
            plan_file.write_text(json.dumps(plan_obj))
        assert cli.main(["run", "--plan", str(plan_file), "--out", str(out)]) == 1
        reason = "invalid plan: " if plan_obj is not None else "No such file or directory\n"
        assert capsys.readouterr().err.startswith(f"error: {plan_file}: {reason}")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--records"])
    def test_cli_run_unwritable_path(self, tmp_path, capsys, flag):
        plan_file, bad = tmp_path / "plan.json", tmp_path / "no/dir/x.jsonl"
        plan_file.write_text(json.dumps(sim_plan().to_dict()))
        # A repeated --out replaces the first one.
        argv = ["run", "--plan", str(plan_file), "--out", str(tmp_path / "r.jsonl"), flag, str(bad)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {bad}: No such file or directory"

    @pytest.mark.parametrize("resume_run", [False, True], ids=["fresh", "resume"])
    def test_bad_records_path_keeps_results(self, tmp_path, resume_run):
        plan, out = sim_plan(), tmp_path / "r.jsonl"
        run_plan(plan, out_path=out)
        before = out.read_bytes()
        assert len(before.splitlines()) == 3
        with pytest.raises(FileNotFoundError):
            run_plan(plan, out_path=out, resume=resume_run,
                     records_path=tmp_path / "no/such/dir/runs.jsonl")
        assert out.read_bytes() == before

    def test_fresh_run_rewrites_records(self, tmp_path):
        plan = sim_plan(worker_counts=(2,), problem_sizes=(4, 8))
        out, records = tmp_path / "r.jsonl", tmp_path / "runs.jsonl"
        run_plan(plan, out_path=out, records_path=records)
        first = records.read_bytes()
        run_plan(plan, out_path=out, records_path=records)
        assert records.read_bytes() == first
        assert len(first.splitlines()) == sum(c.kept for c in load_results(out).cells) == 12


class TestResume:
    def _full_run(self, tmp_path, name="full.jsonl"):
        plan = sim_plan(worker_counts=(1, 2), problem_sizes=(4, 8))
        out = tmp_path / name
        run_plan(plan, out_path=out)
        return plan, out

    def test_full_file_no_new_runs(self, tmp_path):
        plan, out = self._full_run(tmp_path)
        before = out.read_bytes()
        res = resume(out)
        assert out.read_bytes() == before
        assert len(res.cells) == 4

    def test_missing_last_cell_executed(self, tmp_path):
        plan, out = self._full_run(tmp_path)
        full = out.read_bytes()
        lines = out.read_text().splitlines(keepends=True)
        trunc = tmp_path / "trunc.jsonl"
        trunc.write_text("".join(lines[:-1]))
        resume(trunc)
        # Deterministic simulated workload: resumed file equals the original.
        assert trunc.read_bytes() == full

    def test_plan_mismatch(self, tmp_path):
        plan, out = self._full_run(tmp_path)
        other = sim_plan(worker_counts=(1, 2), problem_sizes=(4, 8), seed=1234)
        with pytest.raises(ValueError, match="plan mismatch"):
            run_plan(other, out_path=out, resume=True)

    def test_corrupt_record_named(self, tmp_path):
        plan, out = self._full_run(tmp_path)
        lines = out.read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(lines[0] + lines[1] + "{not json\n")
        with pytest.raises(ValueError, match="line 3"):
            resume(bad)

    @pytest.mark.parametrize("line_no, text, where", [
        (2, "[]", "record at line 2"),
        (2, "null", "record at line 2"),
        (2, "42", "record at line 2"),
        (1, "42", "header at line 1"),
        (1, "null", "header at line 1"),
        # Headers whose plan is not a valid ExperimentPlan.
        pytest.param(1, '{"plan_hash": "x", "plan": 42}', "header at line 1",
                     id="plan-not-object"),
        pytest.param(1, '{"plan_hash": "x", "plan": {"mode": "strong"}}', "header at line 1",
                     id="plan-without-workload"),
        pytest.param(1, json.dumps({"plan_hash": "x",
                                    "plan": {**sim_plan().to_dict(), "mode": "sideways"}}),
                     "header at line 1", id="plan-bad-mode"),
    ])
    def test_non_object_line_named(self, tmp_path, line_no, text, where):
        plan, out = self._full_run(tmp_path)
        lines = out.read_text().splitlines()
        lines[line_no - 1] = text
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        for load in (load_results, resume):
            with pytest.raises(ValueError, match="corrupt " + where) as exc:
                load(bad)
            assert str(exc.value).startswith(f"{bad}: ")

    @pytest.mark.parametrize("kind", [5, "kmeans"])
    def test_line_of_another_workload_refused(self, tmp_path, capsys, kind):
        # Its cell key is no cell of the plan: resume must not append that cell again.
        out = tmp_path / "r.jsonl"
        run_plan(sim_plan(), out_path=out)
        lines = out.read_text().splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), "workload_id": kind}) + "\n"
        out.write_text("".join(lines))
        before = out.read_bytes()
        for load in (load_results, resume):
            with pytest.raises(ValueError, match="corrupt record at line 2: workload_id must be"):
                load(out)
        assert out.read_bytes() == before
        assert cli.main(["report", "--in", str(out), "--format", "json"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out}: corrupt record at line 2")

    def test_resume_plan_mismatch(self, tmp_path):
        # A hash that is not its plan's checksum makes the header corrupt.
        plan, out = self._full_run(tmp_path)
        lines = out.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["plan_hash"] = "0" * 64
        edited = tmp_path / "edited.jsonl"
        edited.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(ValueError, match="corrupt header at line 1"):
            resume(edited)

    def test_seed_variable_ignored(self, tmp_path, monkeypatch):
        # The header's plan is the whole input; the environment changes nothing.
        plan, out = self._full_run(tmp_path)
        full = out.read_bytes()
        trunc = tmp_path / "trunc.jsonl"
        trunc.write_bytes(b"".join(full.splitlines(keepends=True)[:-1]))
        monkeypatch.setenv("GRANSCALE_SEED", "5")
        resume(trunc)
        assert trunc.read_bytes() == full

    def _run_with_records(self, tmp_path):
        plan = sim_plan(worker_counts=(2,), problem_sizes=(4, 8))
        out, records = tmp_path / "r.jsonl", tmp_path / "runs.jsonl"
        run_plan(plan, out_path=out, records_path=records)
        return plan, out, records

    @pytest.mark.parametrize("torn", [0, 20], ids=["whole-lines", "torn-line"])
    def test_resume_drops_runs_of_unfinished_cell(self, tmp_path, torn):
        # A crash after the (2, 4) cell's runs were flushed, before its results line.
        plan, out, records = self._run_with_records(tmp_path)
        full_out, full_runs = out.read_bytes(), records.read_bytes()
        out.write_bytes(b"".join(full_out.splitlines(keepends=True)[:3]))  # the two baselines
        runs = full_runs.splitlines(keepends=True)
        records.write_bytes(b"".join(runs[:9]) + runs[9][:torn])
        run_plan(plan, out_path=out, resume=True, records_path=records)
        assert out.read_bytes() == full_out
        assert records.read_bytes() == full_runs

    def test_resume_with_records_path(self, tmp_path):
        # A sweep cut after its first cell, with the next cell's runs half written.
        plan, out, records = self._run_with_records(tmp_path)
        full_out, full_runs = out.read_bytes(), records.read_bytes()
        out.write_bytes(b"".join(full_out.splitlines(keepends=True)[:2]))
        records.write_bytes(b"".join(full_runs.splitlines(keepends=True)[:5]))
        resume(out, records_path=records)
        assert out.read_bytes() == full_out
        assert records.read_bytes() == full_runs

    def test_resume_keeps_short_records(self, tmp_path):
        # Fewer runs than the completed cells kept: nothing is dropped.
        plan, out, records = self._run_with_records(tmp_path)
        runs = records.read_bytes().splitlines(keepends=True)
        out.write_bytes(b"".join(out.read_bytes().splitlines(keepends=True)[:3]))
        records.write_bytes(b"".join(runs[:4]))
        run_plan(plan, out_path=out, resume=True, records_path=records)
        assert records.read_bytes() == b"".join(runs[:4] + runs[6:])

    def test_resume_drops_torn_tail_of_short_records(self, tmp_path):
        # Unsynced writes lost to a power failure can leave fewer runs than the
        # completed cells kept, ending in a fragment; the next run must not
        # be appended onto it.
        plan, out, records = self._run_with_records(tmp_path)
        runs = records.read_bytes().splitlines(keepends=True)
        out.write_bytes(b"".join(out.read_bytes().splitlines(keepends=True)[:3]))
        records.write_bytes(b"".join(runs[:4]) + runs[4][:20])
        run_plan(plan, out_path=out, resume=True, records_path=records)
        assert records.read_bytes() == b"".join(runs[:4] + runs[6:])

    @staticmethod
    def _write_sequence(out_bytes, records_bytes):
        """run_plan's writes in order: the header, then each cell's runs and its results line."""
        out_lines = out_bytes.splitlines(keepends=True)
        runs = iter(records_bytes.splitlines(keepends=True))
        sequence = [("out", out_lines[0])]
        for line in out_lines[1:]:
            kept = json.loads(line)["kept"]
            sequence += [("records", run) for run in itertools.islice(runs, kept)]
            sequence.append(("out", line))
        return sequence

    def _check_crash_resumed(self, tmp_path, every_byte=False):
        """Crash after 0, 1, the middle and len-1 bytes of every line of the write
        sequence, and at its end (or after every byte); resume; compare both files.
        Returns the number of crash points checked."""
        plan = sim_plan(worker_counts=(2,), problem_sizes=(4,))
        out, records = tmp_path / "r.jsonl", tmp_path / "runs.jsonl"
        run_plan(plan, out_path=out, records_path=records)
        full = {"out": out.read_bytes(), "records": records.read_bytes()}
        sequence = self._write_sequence(full["out"], full["records"])
        ends = list(itertools.accumulate(len(line) for _, line in sequence))
        cuts = set(range(ends[-1] + 1)) if every_byte else {ends[-1]}
        for end, (_, line) in zip(ends, sequence):
            start = end - len(line)
            cuts |= {start, start + 1, start + len(line) // 2, end - 1}
        for cut in sorted(cuts):
            crashed = {"out": b"", "records": b""}
            left = cut
            for name, line in sequence:
                if left <= 0:
                    break
                crashed[name] += line[:left]
                left -= len(line)
            out.write_bytes(crashed["out"])
            records.write_bytes(crashed["records"])
            run_plan(plan, out_path=out, resume=True, records_path=records)
            assert out.read_bytes() == full["out"], f"results file, cut at byte {cut}"
            assert records.read_bytes() == full["records"], f"records file, cut at byte {cut}"
        return len(cuts)

    def test_crash_anywhere_in_write_sequence_resumed(self, tmp_path):
        # Header, 3 baseline runs, baseline line, 3 runs, (2, 4) line: 9 lines.
        assert self._check_crash_resumed(tmp_path) == 4 * 9 + 1

    def test_progress_marks_resumed_cells(self, tmp_path, caplog):
        plan, out = self._full_run(tmp_path)
        lines = out.read_text().splitlines(keepends=True)
        trunc = tmp_path / "trunc.jsonl"
        trunc.write_text("".join(lines[:-1]))
        with caplog.at_level(logging.INFO, logger="granscale"):
            resume(trunc)
        progress = [m for m in caplog.messages if m.startswith("cell ")]
        assert progress == [
            f"cell 1/4 (p=1, size=4): resumed from {trunc}",
            f"cell 2/4 (p=1, size=8): resumed from {trunc}",
            f"cell 3/4 (p=2, size=4): resumed from {trunc}",
            "cell 4/4 (p=2, size=8)",
        ]

    def test_resume_reuses_baseline(self, tmp_path, monkeypatch):
        plan = sim_plan(worker_counts=(2, 4), problem_sizes=(4,))
        out = tmp_path / "full.jsonl"
        run_plan(plan, out_path=out)
        full = out.read_bytes()
        lines = full.decode().splitlines(keepends=True)
        assert [json.loads(line)["workers"] for line in lines[1:]] == [1, 2, 4]
        trunc = tmp_path / "trunc.jsonl"
        trunc.write_text("".join(lines[:3]))  # header, baseline, (2, 4)
        real = harness.synthetic_run
        workers_run = []

        def counting(spec, workers, handle):
            workers_run.append(workers)
            return real(spec, workers, handle)

        monkeypatch.setattr(harness, "synthetic_run", counting)
        resume(trunc)
        assert workers_run and 1 not in workers_run
        assert trunc.read_bytes() == full

    @pytest.mark.parametrize("cut", [0, 10, None], ids=["empty", "ten-bytes", "before-newline"])
    def test_crash_during_header_resumed(self, tmp_path, cut):
        plan, out = self._full_run(tmp_path)
        full = out.read_bytes()
        crashed = tmp_path / "crashed.jsonl"
        crashed.write_bytes(full[:full.index(b"\n") if cut is None else cut])
        run_plan(plan, out_path=crashed, resume=True)
        assert crashed.read_bytes() == full

    def test_resume_without_header_names_the_way_out(self, tmp_path):
        crashed = tmp_path / "crashed.jsonl"
        crashed.write_bytes(b'{"plan_hash": ')
        with pytest.raises(ValueError, match="empty results file.*--plan .* --resume"):
            resume(crashed)

    def test_torn_final_line_resumed(self, tmp_path, caplog):
        # A crash 20 bytes before the end of the last line's write.
        plan, out = self._full_run(tmp_path)
        full = out.read_bytes()
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(full[:-21])
        with caplog.at_level(logging.WARNING, logger="granscale"):
            resume(torn)
        assert torn.read_bytes() == full
        assert "torn final line" in caplog.text


def kmeans_plan(**overrides):
    kwargs = dict(
        workload=KMeansSpec(n_points=2000, n_clusters=4, dims=2, max_iterations=8,
                            convergence_epsilon=1e-3, seed=11),
        worker_counts=(1, 2), problem_sizes=(1500, 2000), base_problem_size=2000,
    )
    kwargs.update(overrides)
    return sim_plan(**kwargs)


def read_runs(path):
    return [RunRecord.from_json(line) for line in path.read_text().splitlines()]


class TestKMeansInstance:
    """A k-means cell builds one problem instance, seeded by (plan seed, size)."""

    @staticmethod
    def _watch_datasets(monkeypatch):
        """Wrap harness.generate_dataset; return weakrefs to each dataset's memory.

        Each call also checks that the datasets built before it are gone.
        """
        real = harness.generate_dataset
        owners = []

        def watched(spec):
            assert all(ref() is None for ref in owners), "a second dataset is alive"
            data = real(spec)
            owners.append(weakref.ref(data if data.base is None else data.base))
            return data

        monkeypatch.setattr(harness, "generate_dataset", watched)
        return owners

    def test_one_dataset_per_cell(self, monkeypatch):
        # Warm-up and five runs, one of them rejected, in each of two cells.
        walls = iter(([0.006] * 5 + [0.06]) * 2)
        real = harness.kmeans_parallel

        def slow(spec, data, workers, handle):
            centroids, labels, rec = real(spec, data, workers, handle)
            return centroids, labels, dataclasses.replace(rec, wall_clock=next(walls))

        monkeypatch.setattr(harness, "kmeans_parallel", slow)
        owners = self._watch_datasets(monkeypatch)
        plan = kmeans_plan(problem_sizes=(2000,), repetitions=5)
        cells = run_plan(plan).cells
        assert [(c.workers, c.kept, c.rejected) for c in cells] == [(1, 4, 1), (2, 4, 1)]
        assert next(walls, None) is None
        assert len(owners) == 2

    def test_datasets_freed_when_run_plan_returns(self, monkeypatch):
        owners = self._watch_datasets(monkeypatch)
        run_plan(kmeans_plan())
        assert len(owners) == 4
        assert all(ref() is None for ref in owners)

    def test_records_of_a_size_share_one_seed(self, tmp_path):
        plan, records = kmeans_plan(), tmp_path / "runs.jsonl"
        run_plan(plan, records_path=records)
        runs = read_runs(records)
        by_size = {}
        for r in runs:
            by_size.setdefault(r.problem_size, set()).add((r.workers, r.seed))
        assert set(by_size) == {1500, 2000}
        for size, seen in by_size.items():
            seed = harness._instance_seed(plan.seed, size)
            assert seen == {(1, seed), (2, seed)}
            assert seed not in {harness._run_seed(plan.seed, w, size, rep)
                                for w in (1, 2) for rep in range(10)}
        assert harness._instance_seed(plan.seed, 1500) != harness._instance_seed(plan.seed, 2000)

    def test_resume_after_first_cell_solves_the_same_instances(self, tmp_path):
        plan = kmeans_plan()
        out, records = tmp_path / "r.jsonl", tmp_path / "runs.jsonl"
        run_plan(plan, out_path=out, records_path=records)

        def cells_run():
            # Outlier rejection may change how many runs a cell keeps, not what they solve.
            return list(dict.fromkeys((r.workers, r.problem_size, r.seed, r.iterations)
                                      for r in read_runs(records)))

        full = cells_run()
        assert len(full) == 4
        assert len({iterations for *_, iterations in full}) > 1  # the instance shows
        out.write_bytes(b"".join(out.read_bytes().splitlines(keepends=True)[:2]))
        run_plan(plan, out_path=out, resume=True, records_path=records)
        assert cells_run() == full

    @pytest.mark.parametrize("spec, size", [(PiSpec(n_samples=1000, seed=1), 1000), (SIM, 4)],
                             ids=["pi", "synthetic"])
    def test_run_seed_follows_its_rep(self, spec, size):
        run = harness._WORKLOADS[type(spec)].cell(spec, 2, size, 7)
        for rep in (3, 0, 5, 1):
            assert run(rep).seed == harness._run_seed(7, 2, size, rep)

    def test_pi_runs_keep_their_own_seeds(self, tmp_path):
        plan = sim_plan(workload=PiSpec(n_samples=1000, seed=1), problem_sizes=(1000,),
                        base_problem_size=1000, repetitions=4)
        records = tmp_path / "runs.jsonl"
        cells = run_plan(plan, records_path=records).cells
        runs = read_runs(records)
        assert len({r.seed for r in runs}) == len(runs) == sum(c.kept for c in cells)
        first = runs[0]
        assert first.seed != harness._instance_seed(plan.seed, first.problem_size)


class TestCellResult:
    def test_round_trip(self):
        plan = sim_plan()
        res = run_plan(plan)
        for cell in res.cells:
            assert CellResult.from_dict(json.loads(json.dumps(cell.to_dict()))) == cell

    REQUIRED = ("workload_id", "workers", "problem_size", "mean_wall", "mean_total_comp",
                "overhead", "granularity", "efficiency", "estimated_speedup",
                "overhead_clamped", "kept", "rejected")

    def _results_lines(self, tmp_path):
        out = tmp_path / "r.jsonl"
        run_plan(sim_plan(), out_path=out)
        return out.read_text().splitlines()

    @pytest.mark.parametrize("key", REQUIRED)
    def test_missing_required_key(self, tmp_path, key):
        header, first, *_ = self._results_lines(tmp_path)
        obj = json.loads(first)
        del obj[key]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(header + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="corrupt record at line 2"):
            load_results(bad)

    @pytest.mark.parametrize("key, value", [
        ("workers", "2"),
        ("mean_wall", "x"),
        ("kept", 2.5),
        ("kept", True),
        ("granularity", False),
        ("estimated_speedup", None),
        ("overhead_clamped", 0),
        ("relative_error", "0.5"),
        # A line of another workload than the header's plan.
        ("workload_id", 5),
        ("workload_id", "kmeans"),
    ])
    def test_wrongly_typed_key(self, tmp_path, key, value):
        header, first, second = self._results_lines(tmp_path)
        bad = tmp_path / "bad.jsonl"
        line = json.dumps({**json.loads(second), key: value})
        bad.write_text("\n".join([header, first, line]) + "\n")
        with pytest.raises(ValueError, match=f"corrupt record at line 3: {key} must be"):
            load_results(bad)

    @pytest.mark.parametrize("key, value", [
        ("workers", 0),
        ("problem_size", 0),
        ("kept", 0),
        ("kept", -1),
        ("rejected", -1),
        ("mean_wall", 0.0),
        ("mean_wall", -1.0),
        ("mean_wall", math.nan),
        ("mean_wall", math.inf),
        ("mean_total_comp", -1.0),
        ("mean_total_comp", math.nan),
        ("mean_total_comp", math.inf),
    ])
    def test_out_of_range_value(self, tmp_path, key, value):
        # _measure_cell writes none of these values.
        header, first, second = self._results_lines(tmp_path)
        bad = tmp_path / "bad.jsonl"
        line = json.dumps({**json.loads(second), key: value})
        bad.write_text("\n".join([header, first, line]) + "\n")
        with pytest.raises(ValueError, match="corrupt record at line 3: workers, problem_size "
                                             "and kept must be >= 1"):
            load_results(bad)

    def test_infinite_granularity_loads(self, tmp_path):
        # An overhead below the timer floor gives G = inf, written as Infinity.
        header, first, second = self._results_lines(tmp_path)
        line = json.dumps({**json.loads(second), "granularity": math.inf, "efficiency": 1.0})
        assert "Infinity" in line
        path = tmp_path / "inf.jsonl"
        path.write_text("\n".join([header, first, line]) + "\n")
        assert load_results(path).cells[1].metrics.granularity == math.inf

    def test_optional_keys_default_to_none(self, tmp_path):
        header, first, *_ = self._results_lines(tmp_path)
        obj = json.loads(first)
        assert list(obj)[-2:] == ["actual_speedup", "relative_error"]
        del obj["actual_speedup"], obj["relative_error"]
        # Absent or null, as older results files hold them.
        null = {**obj, "actual_speedup": None, "relative_error": None}
        short = tmp_path / "short.jsonl"
        short.write_text(header + "\n" + json.dumps(obj) + "\n" + json.dumps(null) + "\n")
        cells = load_results(short).cells
        assert [(c.actual_speedup, c.relative_error) for c in cells] == [(None, None)] * 2



class TestOneTypeRule:
    """A plan, its workload spec, a results header or line and a records line refuse a
    wrong type alike."""

    # Per reader: the int field and the str field given the wrong values. A
    # workload spec has no str field; its readers are `granscale run`'s plan,
    # a results header and the spec itself.
    FIELDS = {"header": ("repetitions", "mode"), "line": ("kept", "workload_id"),
              "records": ("workers", "workload_id"), "plan-workload": ("n_clusters", None),
              "header-workload": ("n_clusters", None), "spec": ("n_points", None)}
    VALUES = {"true": (True, "int"), "str-2": ("2", "int"), "5": (5, "str"), "null": (None, "int")}

    @pytest.mark.parametrize("reader, value, want", [
        pytest.param(reader, value, want, id=f"{reader}-{name}")
        for (reader, keys), (name, (value, want)) in itertools.product(FIELDS.items(),
                                                                       VALUES.items())
        if keys[want == "str"]])
    def test_wrong_type_named(self, tmp_path, capsys, reader, value, want):
        key = self.FIELDS[reader][want == "str"]
        out, records = tmp_path / "r.jsonl", tmp_path / "runs.jsonl"
        message = f"{key} must be {want}, got {value!r}"
        # A spec's range check ran before the type rule, so "2" and null gave
        # "'<' not supported between instances ..." and named no field.
        if reader == "spec":
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                KMeansSpec(**{"n_points": 100, "n_clusters": 4, "dims": 2, key: value})
            return
        if reader.endswith("-workload"):
            plan = {**KM_PLAN, "workload": {**KM_PLAN["workload"], key: value}}
            if reader == "plan-workload":
                plan_file = tmp_path / "plan.json"
                plan_file.write_text(json.dumps(plan))
                assert cli.main(["run", "--plan", str(plan_file), "--out", str(out)]) == 1
                assert capsys.readouterr().err == f"error: {plan_file}: invalid plan: {message}\n"
                return
            out.write_text(json.dumps({"plan_hash": canonical_sha256(plan), "plan": plan}) + "\n")
            with pytest.raises(ValueError, match=re.escape(f"corrupt header at line 1: {message}")):
                load_results(out)
            return
        run_plan(sim_plan(), out_path=out, records_path=records)
        header, *lines = out.read_text().splitlines()
        if reader == "records":
            obj = {**json.loads(records.read_text().splitlines()[0]), key: value}
            with pytest.raises(ValueError, match=re.escape(message)):
                RunRecord.from_json(json.dumps(obj))
            return
        if reader == "header":
            plan = {**json.loads(header)["plan"], key: value}
            header = json.dumps({"plan_hash": canonical_sha256(plan), "plan": plan})
            where = "header at line 1"
        else:
            lines[0] = json.dumps({**json.loads(lines[0]), key: value})
            where = "record at line 2"
        out.write_text("\n".join([header, *lines]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"corrupt {where}: {message}")):
            load_results(out)


# Results file of TestPinnedBytes._plan, byte for byte: simulate mode makes
# every number exact, so any change to the harness that alters a result, a
# key order or the header shows up here.
PINNED_RESULTS = (
    '{"plan_hash": "0f54d121e57d70c1bc2d28831baf5192348988c8174dca71b845dd374943aed8", "plan": {"workload": {"kind": "synthetic", "compute_ms_per_worker": 5, "exchange_ms_per_worker": 1, "iterations": 1, "simulate": true}, "mode": "strong", "worker_counts": [1, 2, 4], "base_problem_size": 4, "problem_sizes": [4, 8], "repetitions": 3, "seed": 7}, "tool_version": "0.1.0"}',
    '{"workload_id": "synthetic", "workers": 1, "problem_size": 4, "mean_wall": 0.024000000000000004, "mean_total_comp": 0.02, "overhead": 0.0040000000000000036, "granularity": 4.999999999999996, "efficiency": 0.8333333333333333, "estimated_speedup": 0.8333333333333333, "overhead_clamped": false, "kept": 3, "rejected": 0, "actual_speedup": 1.0, "relative_error": -0.16666666666666674}',
    '{"workload_id": "synthetic", "workers": 1, "problem_size": 8, "mean_wall": 0.04800000000000001, "mean_total_comp": 0.04, "overhead": 0.008000000000000007, "granularity": 4.999999999999996, "efficiency": 0.8333333333333333, "estimated_speedup": 0.8333333333333333, "overhead_clamped": false, "kept": 3, "rejected": 0, "actual_speedup": 1.0, "relative_error": -0.16666666666666674}',
    '{"workload_id": "synthetic", "workers": 2, "problem_size": 4, "mean_wall": 0.024000000000000004, "mean_total_comp": 0.04, "overhead": 0.008000000000000007, "granularity": 4.999999999999996, "efficiency": 0.8333333333333333, "estimated_speedup": 1.6666666666666665, "overhead_clamped": false, "kept": 3, "rejected": 0, "actual_speedup": 1.0, "relative_error": 0.6666666666666665}',
    '{"workload_id": "synthetic", "workers": 2, "problem_size": 8, "mean_wall": 0.04800000000000001, "mean_total_comp": 0.08, "overhead": 0.016000000000000014, "granularity": 4.999999999999996, "efficiency": 0.8333333333333333, "estimated_speedup": 1.6666666666666665, "overhead_clamped": false, "kept": 3, "rejected": 0, "actual_speedup": 1.0, "relative_error": 0.6666666666666665}',
    '{"workload_id": "synthetic", "workers": 4, "problem_size": 4, "mean_wall": 0.024000000000000004, "mean_total_comp": 0.08, "overhead": 0.016000000000000014, "granularity": 4.999999999999996, "efficiency": 0.8333333333333333, "estimated_speedup": 3.333333333333333, "overhead_clamped": false, "kept": 3, "rejected": 0, "actual_speedup": 1.0, "relative_error": 2.333333333333333}',
    '{"workload_id": "synthetic", "workers": 4, "problem_size": 8, "mean_wall": 0.04800000000000001, "mean_total_comp": 0.16000000000000006, "overhead": 0.03199999999999997, "granularity": 5.000000000000006, "efficiency": 0.8333333333333335, "estimated_speedup": 3.333333333333334, "overhead_clamped": false, "kept": 3, "rejected": 0, "actual_speedup": 1.0, "relative_error": 2.333333333333334}',
)

# The same sweep's header as written before the plan lost its
# measure_serial_baseline, rerun_outliers and outlier_side fields, each
# here at the one value every sweep now uses.
LEGACY_HEADER = (
    '{"plan_hash": "f65e5e6e3490eca06706ba4450446f7661b57c6f63a9fd3c154e0f58f328af3b", "plan": {"workload": {"kind": "synthetic", "compute_ms_per_worker": 5, "exchange_ms_per_worker": 1, "iterations": 1, "simulate": true}, "mode": "strong", "worker_counts": [1, 2, 4], "base_problem_size": 4, "problem_sizes": [4, 8], "repetitions": 3, "measure_serial_baseline": true, "seed": 7, "rerun_outliers": true, "outlier_side": "both"}, "tool_version": "0.1.0"}'
)

# sha256 of `granscale report --format json` on that file.
PINNED_REPORT_SHA256 = "e8e2d2b5b67540cd0c4fd4ac4b5fece2823380693d3905d9c363e064a53b498c"

# sha256 of the records file of the same sweep: a record has no id or
# timestamp, so simulate mode makes it as exact as the results file.
PINNED_RECORDS_SHA256 = "cdc342d40f27910842ab364fb4f7e93aed8eb34be8e3674954272b3daba7ed18"


class TestPinnedBytes:
    def _plan(self):
        return ExperimentPlan(
            workload=SyntheticSpec(5, 1, 1, simulate=True), mode="strong",
            worker_counts=(1, 2, 4), base_problem_size=4, problem_sizes=(4, 8),
            repetitions=3, seed=7,
        )

    def test_results_file_bytes(self, tmp_path):
        out = tmp_path / "r.jsonl"
        run_plan(self._plan(), out_path=out)
        assert out.read_text().splitlines() == list(PINNED_RESULTS)
        assert hashlib.sha256(out.read_bytes()).hexdigest().startswith("019422cb17fd1ed2")

    def test_records_file_bytes(self, tmp_path):
        records = tmp_path / "runs.jsonl"
        run_plan(self._plan(), out_path=tmp_path / "r.jsonl", records_path=records)
        assert hashlib.sha256(records.read_bytes()).hexdigest() == PINNED_RECORDS_SHA256

    def test_json_report_bytes(self, tmp_path):
        results = tmp_path / "r.jsonl"
        results.write_text("\n".join(PINNED_RESULTS) + "\n")
        report = tmp_path / "report.json"
        assert cli.main(["report", "--in", str(results), "--format", "json",
                         "--out", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == PINNED_REPORT_SHA256

    def test_legacy_header_resumes(self, tmp_path):
        # A file written before the three fields went, cut after three cells,
        # resumes under its own header to the same cell lines.
        results = tmp_path / "r.jsonl"
        results.write_text("\n".join((LEGACY_HEADER,) + PINNED_RESULTS[1:4]) + "\n")
        resume(results)
        assert results.read_text().splitlines() == [LEGACY_HEADER, *PINNED_RESULTS[1:]]
        assert load_results(results).plan == self._plan()
        report = tmp_path / "report.json"
        assert cli.main(["report", "--in", str(results), "--format", "json",
                         "--out", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == PINNED_REPORT_SHA256


class TestRemovedPlanKeys:
    """measure_serial_baseline, rerun_outliers and outlier_side are fixed protocol now."""

    OLD_DEFAULTS = {"measure_serial_baseline": True, "rerun_outliers": True,
                    "outlier_side": "both"}

    def test_old_defaults_load(self):
        plan = sim_plan()
        assert ExperimentPlan.from_dict({**plan.to_dict(), **self.OLD_DEFAULTS}) == plan

    @pytest.mark.parametrize("key, value", [
        ("measure_serial_baseline", False),
        ("rerun_outliers", False),
        ("outlier_side", "upper"),
    ])
    def test_other_values_refused(self, tmp_path, capsys, key, value):
        # Loading it would run the fixed protocol instead of what the plan asks.
        plan_file, out = tmp_path / "plan.json", tmp_path / "r.jsonl"
        plan_file.write_text(json.dumps({**sim_plan().to_dict(), key: value}))
        assert cli.main(["run", "--plan", str(plan_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {plan_file}: invalid plan: {key} was removed")
        assert not out.exists()

    def test_header_with_other_value_refused(self, tmp_path):
        header = json.loads(LEGACY_HEADER)
        header["plan"]["outlier_side"] = "upper"
        header["plan_hash"] = canonical_sha256(header["plan"])
        results = tmp_path / "r.jsonl"
        results.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match="corrupt header at line 1: outlier_side was removed"):
            load_results(results)

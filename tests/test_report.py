import json
import math

import pytest

from granscale import cli
from granscale.fixture import (
    ANOMALOUS_CELLS,
    FIXTURE_SHA256,
    GATED_COLUMNS,
    TABLE1,
    TABLE2,
    fixture_checksum,
    validate_fixture,
)
from granscale.harness import CellResult, ExperimentPlan, ResultSet, run_plan
from granscale.metrics import TimingBreakdown, granularity_metrics
from granscale.report import (
    FLAG_CLAMPED,
    FLAG_INCOMPLETE,
    FLAG_SUPERLINEAR,
    anomaly_flags,
    json_report,
    scalability_verdict,
    strong_scaling_csv,
    weak_scaling_tables,
)
from granscale.workloads import SyntheticSpec

SIM = SyntheticSpec(compute_ms_per_worker=5, exchange_ms_per_worker=1,
                    iterations=1, simulate=True)


def run_sim(mode="strong", worker_counts=(1, 2), problem_sizes=(4, 8),
            base=4, workload=SIM):
    plan = ExperimentPlan(
        workload=workload, mode=mode, worker_counts=worker_counts,
        base_problem_size=base,
        problem_sizes=problem_sizes if mode == "strong" else None,
        repetitions=2, seed=5,
    )
    return run_plan(plan)


def hand_built(mode, cells, repetitions=3):
    """A ResultSet of the given cells under a simulate plan of that mode."""
    plan = ExperimentPlan(
        workload=SIM, mode=mode, worker_counts=(2, 4), base_problem_size=4,
        problem_sizes=(4,) if mode == "strong" else None, repetitions=repetitions,
    )
    return ResultSet(plan=plan, cells=cells)


def cell(workers, size, wall, comp=None, kept=3, actual_speedup=None):
    """A CellResult whose metrics are those of one run of that wall and compute."""
    comp = 0.5 * workers * wall if comp is None else comp
    return CellResult(
        workload_id="synthetic", workers=workers, problem_size=size, mean_wall=wall,
        mean_total_comp=comp, metrics=granularity_metrics(TimingBreakdown(workers, wall, comp)),
        kept=kept, rejected=0, actual_speedup=actual_speedup,
        relative_error=None if actual_speedup is None else 0.0,
    )


class TestStrongScalingCsv:
    def test_row_count_and_header(self):
        res = run_sim()
        lines = strong_scaling_csv(res).splitlines()
        assert lines[0] == (
            "workers,problem_size,actual_speedup,estimated_speedup,"
            "relative_error,efficiency"
        )
        assert len(lines) == 1 + 4

    def test_sorted_and_deterministic(self):
        res = run_sim()
        text = strong_scaling_csv(res)
        assert text == strong_scaling_csv(res)
        keys = [tuple(map(int, line.split(",")[:2])) for line in text.splitlines()[1:]]
        assert keys == sorted(keys, key=lambda t: (t[1], t[0]))

    def test_no_baseline_leaves_column_empty(self):
        # Results lines without a speedup, as older files may hold.
        res = hand_built("strong", [cell(p, s, 1.0) for p in (2, 4) for s in (4, 8)])
        lines = strong_scaling_csv(res).splitlines()[1:]
        assert len(lines) == 4
        assert all(line.split(",")[2] == "" for line in lines)

    def test_mode_guard(self):
        res = run_sim(mode="weak", worker_counts=(1, 2), base=4)
        with pytest.raises(ValueError):
            strong_scaling_csv(res)


class TestWeakScalingTables:
    def test_structure(self):
        res = run_sim(mode="weak", worker_counts=(8, 16), base=8)
        time_table, speedup_table = weak_scaling_tables(res)
        t_header = time_table.splitlines()[0].split(",")
        s_header = speedup_table.splitlines()[0].split(",")
        assert t_header == ["problem_size", "T_1", "T_8", "T_16"]
        assert s_header == ["problem_size", "S_8", "S_16", "gustafson_fraction"]
        assert len(time_table.splitlines()) == 3

    def test_t1_is_baseline_cell(self):
        res = run_sim(mode="weak", worker_counts=(2, 4), base=4)
        t1 = {c.problem_size: c.mean_wall for c in res.cells if c.workers == 1}
        assert sorted(t1) == [4, 8]
        time_table, speedup_table = weak_scaling_tables(res)
        rows = [line.split(",") for line in time_table.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [4, 8]
        assert all(r[1] == repr(t1[int(r[0])]) for r in rows)
        assert len(speedup_table.splitlines()) == 1 + len(rows)

    def test_mode_guard(self):
        with pytest.raises(ValueError):
            weak_scaling_tables(run_sim(mode="strong"))

    def test_missing_baseline(self):
        res = hand_built("weak", [cell(2, 4, 1.0), cell(4, 8, 1.0)])
        with pytest.raises(ValueError, match="serial baseline"):
            weak_scaling_tables(res)

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_header_only(self, fmt):
        # A sweep whose first cell failed leaves a results file with no cells.
        time_table, speedup_table = weak_scaling_tables(hand_built("weak", []), fmt=fmt)
        sep = "," if fmt == "csv" else "  "
        assert time_table == sep.join(["problem_size", "T_1"]) + "\n"
        assert speedup_table == sep.join(["problem_size", "gustafson_fraction"]) + "\n"

    def test_fixture_row_ratio(self):
        # Published weak-scaling row: T_1 = 178.132, T_32 = 5.659.
        assert 178.132 / 5.659 == pytest.approx(31.478, abs=1e-3)


class TestScalabilityVerdict:
    def test_compute_dominates_scalable(self):
        res = run_sim(workload=SyntheticSpec(50, 0.5, 1, simulate=True))
        assert scalability_verdict(res) == "scalable"

    def test_exchange_dominates_not_scalable(self):
        res = run_sim(workload=SyntheticSpec(0.5, 50, 1, simulate=True))
        verdict = scalability_verdict(res)
        assert verdict.startswith("not scalable")
        # Every cell at max workers is listed.
        assert "(p=2, size=4)" in verdict and "(p=2, size=8)" in verdict

    def test_paper_weak_track_within_band(self):
        # Published wall times along one weak track: 22.240, 23.137, 22.079 s.
        res = hand_built("weak", [cell(1, 10, 22.240), cell(2, 20, 23.137),
                                  cell(4, 40, 22.079)])
        assert scalability_verdict(res) == "scalable"

    def test_weak_track_outside_band_not_scalable(self):
        # 28.0 s is 26% above the track's fastest 22.240 s, beyond the 25% band.
        res = hand_built("weak", [cell(1, 10, 22.240), cell(2, 20, 28.0),
                                  cell(1, 20, 22.240), cell(2, 40, 23.137)])
        assert scalability_verdict(res) == (
            "not scalable\n"
            "per-worker size 10: (p=1, size=10): 22.240s, (p=2, size=20): 28.000s"
        )

    def test_empty_results(self):
        res = run_sim()
        res.cells = []
        with pytest.raises(ValueError):
            scalability_verdict(res)


class TestReportRows:
    def test_flags_and_bounds(self):
        res = run_sim()
        for row in json.loads(json_report(res)):
            assert 0.0 <= row["efficiency"] <= 1.0
            assert 0.0 <= row["estimated_speedup"] <= row["workers"] + 1e-9
            if row["actual_speedup"] is not None and row["actual_speedup"] > row["workers"]:
                assert FLAG_SUPERLINEAR in row["anomaly_flags"]

    def test_superlinear_flag_preserves_value(self):
        res = run_sim()
        first = res.cells[0]
        object.__setattr__(first, "actual_speedup", first.workers * 1.5)
        row = json.loads(json_report(res))[0]
        assert FLAG_SUPERLINEAR in row["anomaly_flags"]
        assert FLAG_SUPERLINEAR in anomaly_flags(first, res.plan.repetitions)
        assert row["actual_speedup"] == first.workers * 1.5

    @pytest.mark.parametrize("kwargs, flags", [
        # Compute 4 us over the one worker's wall: timer noise, clamped to 0 overhead.
        pytest.param(dict(workers=1, wall=5.0, comp=5.0 + 4e-6), [FLAG_CLAMPED], id="clamped"),
        pytest.param(dict(kept=2), [FLAG_INCOMPLETE], id="incomplete"),
        pytest.param(dict(actual_speedup=2.5), [FLAG_SUPERLINEAR], id="superlinear"),
        pytest.param(dict(workers=1, wall=5.0, comp=5.0 + 4e-6, kept=1, actual_speedup=1.5),
                     [FLAG_CLAMPED, FLAG_INCOMPLETE, FLAG_SUPERLINEAR], id="all-three"),
        pytest.param(dict(actual_speedup=1.5), [], id="none"),
    ])
    def test_anomaly_flags(self, kwargs, flags):
        kwargs = {"workers": 2, "size": 4, "wall": 1.0, **kwargs}
        (row,) = json.loads(json_report(hand_built("strong", [cell(**kwargs)])))
        assert row["anomaly_flags"] == flags == sorted(flags)
        assert row["actual_speedup"] == kwargs.get("actual_speedup")

    def test_line_without_optional_keys(self):
        line = cell(2, 4, 1.0, actual_speedup=1.5).to_dict()
        del line["actual_speedup"], line["relative_error"]
        (row,) = json.loads(json_report(hand_built("strong", [CellResult.from_dict(line)])))
        assert (row["actual_speedup"], row["relative_error"]) == (None, None)
        assert row["anomaly_flags"] == []


class TestCliReport:
    # Wrongly typed or out-of-range values on the p=2 line: each makes it a
    # corrupt record. The NaN line made `report --format json` write a bare NaN.
    P2_EDITS = {
        "workers-string": ("workers", "2"),
        "mean-wall-string": ("mean_wall", "x"),
        "kept-fraction": ("kept", 2.5),
        "kept-bool": ("kept", True),
        "workers-zero": ("workers", 0),
        "kept-negative": ("kept", -1),
        "mean-wall-nan": ("mean_wall", math.nan),
        "overhead-negative": ("overhead", -1.0),
        "overhead-inf": ("overhead", math.inf),
        "overhead-nan": ("overhead", math.nan),
        "granularity-negative": ("granularity", -1.0),
        "granularity-nan": ("granularity", math.nan),
        "efficiency-nan": ("efficiency", math.nan),
        "efficiency-above-1": ("efficiency", 1.5),
        "efficiency-negative": ("efficiency", -0.5),
        "estimated-speedup-negative": ("estimated_speedup", -1.0),
        "estimated-speedup-inf": ("estimated_speedup", math.inf),
        "actual-speedup-nan": ("actual_speedup", math.nan),
        "actual-speedup-inf": ("actual_speedup", math.inf),
        "relative-error-nan": ("relative_error", math.nan),
        "relative-error-inf": ("relative_error", -math.inf),
    }

    @pytest.mark.parametrize("fault, args", [
        pytest.param("missing", [], id="missing"),
        pytest.param("corrupt-line", [], id="corrupt-line"),
        pytest.param("header-only", ["--verdict"], id="verdict-on-header-only"),
        pytest.param("weak-no-baseline", [], id="weak-no-baseline"),
        *(pytest.param(name, [], id=name) for name in P2_EDITS),
    ])
    def test_rejects_unreadable_results(self, tmp_path, capsys, fault, args):
        infile, out = tmp_path / "r.jsonl", tmp_path / "report.txt"
        if fault == "weak-no-baseline":
            plan = ExperimentPlan(workload=SIM, mode="weak", worker_counts=(2, 4),
                                  base_problem_size=4, repetitions=2)
            run_plan(plan, out_path=infile)
            header, *lines = infile.read_text().splitlines()
            lines = [line for line in lines if json.loads(line)["workers"] > 1]
            infile.write_text("\n".join([header] + lines) + "\n")
        elif fault != "missing":
            run_plan(ExperimentPlan(workload=SIM, mode="strong", worker_counts=(1, 2),
                                    base_problem_size=4, repetitions=2), out_path=infile)
            header, first, second = infile.read_text().splitlines()
            rest = [first, "{not json"] if fault == "corrupt-line" else []
            if fault in self.P2_EDITS:
                key, value = self.P2_EDITS[fault]
                rest = [first, json.dumps({**json.loads(second), key: value})]
            infile.write_text("\n".join([header] + rest) + "\n")
        rc = cli.main(["report", "--in", str(infile), "--out", str(out)] + args)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {infile}: ")
        assert not err.startswith(f"error: {infile}: {infile}")
        if fault in self.P2_EDITS:
            assert err.startswith(f"error: {infile}: corrupt record at line 3: ")
        assert not out.exists()

    def test_unwritable_out(self, tmp_path, capsys):
        infile, out = tmp_path / "r.jsonl", tmp_path / "no/such/dir/x.csv"
        run_plan(ExperimentPlan(workload=SIM, mode="strong", worker_counts=(1, 2),
                                base_problem_size=4, repetitions=2), out_path=infile)
        assert cli.main(["report", "--in", str(infile), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"


class TestFixture:
    def test_checksum_frozen(self):
        assert fixture_checksum() == FIXTURE_SHA256

    def test_tables_shape(self):
        assert len(TABLE1) == len(TABLE2) == 7
        assert all(len(v) == 8 for v in TABLE1.values())
        assert all(len(v) == 7 for v in TABLE2.values())

    def test_validation_passes(self):
        v = validate_fixture()
        assert v.passed

    def test_gated_cells_within_tolerance(self):
        v = validate_fixture()
        for c in v.cells:
            if c.gated:
                assert c.deviation <= 0.05, (c.problem_size, c.workers, c.deviation)

    def test_known_deviations(self):
        v = validate_fixture()
        by_key = {(c.problem_size, c.workers): c for c in v.cells}
        c = by_key[(983040, 32)]
        assert c.computed_speedup == pytest.approx(31.478, abs=1e-3)
        assert c.deviation == pytest.approx(0.0015, abs=5e-4)
        c = by_key[(983040, 8)]
        assert c.computed_speedup == pytest.approx(8.009, abs=1e-3)
        assert c.deviation == pytest.approx(0.0077, abs=5e-4)

    def test_anomalous_cells_reported_and_excluded(self):
        v = validate_fixture()
        anomalous_keys = {(c.problem_size, c.workers) for c in v.anomalous}
        assert anomalous_keys == set(ANOMALOUS_CELLS)
        c = {(x.problem_size, x.workers): x for x in v.cells}[(122880, 256)]
        assert c.excluded and not c.gated
        assert c.computed_speedup == pytest.approx(455.9, abs=0.1)

    def test_report_text_lists_anomalies(self):
        v = validate_fixture()
        text = v.report_text()
        assert text.endswith("PASS")
        assert text.count("EXCLUDED") == len(ANOMALOUS_CELLS)

    def test_gated_columns(self):
        assert GATED_COLUMNS == (8, 16, 32, 64)

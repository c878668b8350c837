"""The README's CLI synopsis, plan example, JSON report keys, derived results-line keys and
Python API match the code."""

import argparse
import ast
import dataclasses
import json
import math
import re
import types
from pathlib import Path

import pytest

import granscale
from granscale import cli, report
from granscale.harness import ExperimentPlan
from granscale.metrics import GranularityMetrics

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _flags_of_parser(command: str) -> set[str]:
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {s for a in sub.choices[command]._actions for s in a.option_strings} - {"-h", "--help"}


@pytest.mark.parametrize("text, command", [
    pytest.param(README, "run", id="README"),
    pytest.param(cli.__doc__, "run", id="cli-docstring"),
    pytest.param(README, "report", id="README-report"),
    pytest.param(cli.__doc__, "report", id="cli-docstring-report"),
])
def test_run_synopsis_lists_the_parser_flags(text, command):
    start = f"granscale {command} "
    synopsis = text[text.index(start):]
    synopsis = synopsis[:synopsis.index("granscale ", len(start))]
    assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == _flags_of_parser(command)


def test_plan_example_loads_with_every_key():
    example = json.loads(re.search(r"A plan file looks like:\s*```json\n(.*?)```",
                                   README, re.DOTALL).group(1))
    plan = ExperimentPlan.from_dict(example)
    assert list(example) == list(plan.to_dict())
    assert list(example["workload"]) == list(plan.to_dict()["workload"])


def test_json_report_keys_and_flags():
    keys = re.search(r"Each object holds these keys, in this order:(.*?)\.\n", README,
                     re.DOTALL).group(1)
    assert re.findall(r"`(\w+)`", keys) == [*report.JSON_KEYS, "anomaly_flags"]
    table = README[README.index("| flag | set when |"):]
    table = table[:table.index("\n\n")]
    flags = re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)
    assert flags == sorted([report.FLAG_CLAMPED, report.FLAG_INCOMPLETE, report.FLAG_SUPERLINEAR])


def test_derived_keys_are_the_metrics_and_the_error():
    keys = re.search(r"The derived keys, (.*?), must each", README, re.DOTALL).group(1)
    derived = [f.name for f in dataclasses.fields(GranularityMetrics)] + ["relative_error"]
    assert re.findall(r"`(\w+)`", keys) == derived


def test_pi_expectation_matches_the_grid():
    # C counts the midpoints (2i+1, 2j+1) of the 2¹⁵ × 2¹⁵ grid inside the
    # arc x² + y² < 2³²: for each x, the odd y with y² ≤ 2³² − x² − 1.
    c = sum((math.isqrt((1 << 32) - (2 * i + 1) ** 2 - 1) + 1) // 2 for i in range(1 << 15))
    expected = 4 * c / 2**30
    text = re.search(r"expected value is 4·C/2³⁰ = (\d\.\d+), that is\s+"
                     r"π − (\d\.\d+)·10⁻([⁰¹²³⁴⁵⁶⁷⁸⁹]+), where C = ([\d,]+) counts", README)
    value, bias, exponent, count = text.groups()
    exponent = int(exponent.translate(str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")))
    assert int(count.replace(",", "")) == c
    assert value == f"{expected:.{len(value) - 2}f}"
    assert bias == f"{(math.pi - expected) * 10**exponent:.{len(bias) - 2}f}"


def test_every_export_is_in_the_readme_or_a_demo():
    prose = re.sub(r"```.*?```", "", README, flags=re.DOTALL)
    named = "\n".join(re.findall(r"`([^`]+)`", prose)
                      + [path.read_text() for path in ROOT.glob("demos/*.py")])
    exports = [name for name, value in vars(granscale).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert [name for name in exports if not re.search(rf"\b{name}\b", named)] == []
    assert len(exports) == 30


def test_bench_and_demo_imports_resolve():
    # bench/run.py and bench/tracing.py import granscale lazily, inside
    # functions, so a removed name would only fail when the benchmark runs.
    imports = [(path.relative_to(ROOT).as_posix(), node.module, alias.name)
               for path in sorted([*ROOT.glob("bench/*.py"), *ROOT.glob("demos/*.py")])
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level == 0
               and node.module.split(".")[0] == "granscale"
               for alias in node.names]
    assert ("bench/run.py", "granscale", "kmeans_parallel") in imports
    missing = []
    for path, module, name in imports:
        try:
            exec(f"from {module} import {name}", {})
        except ImportError:
            missing.append((path, module, name))
    assert missing == []

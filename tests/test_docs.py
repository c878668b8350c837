"""The README's CLI synopsis and plan example match the code."""

import argparse
import json
import re
from pathlib import Path

import pytest

from granscale import cli
from granscale.harness import ExperimentPlan

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _run_flags_of_parser() -> set[str]:
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {s for a in sub.choices["run"]._actions for s in a.option_strings} - {"-h", "--help"}


@pytest.mark.parametrize("text", [README, cli.__doc__], ids=["README", "cli-docstring"])
def test_run_synopsis_lists_the_parser_flags(text):
    synopsis = text[text.index("granscale run "):]
    synopsis = synopsis[:synopsis.index("granscale ", len("granscale run "))]
    assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == _run_flags_of_parser()


def test_plan_example_loads_with_every_key():
    example = json.loads(re.search(r"A plan file looks like:\s*```json\n(.*?)```",
                                   README, re.DOTALL).group(1))
    plan = ExperimentPlan.from_dict(example)
    assert list(example) == list(plan.to_dict())
    assert list(example["workload"]) == list(plan.to_dict()["workload"])

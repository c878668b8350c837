"""Benchmark workloads and the set-up every run performs.

Each workload is one fixed `ExperimentPlan`, built from the seed given on
the benchmark's command line. `setup` is the work a user pays before a
sweep starts: importing numpy, scipy and granscale, building the plan and
creating the output directory. The benchmark times it in fresh
interpreters, so this module imports only the standard library at load
time.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (for example, no sources)."""


def _kmeans_strong(seed):
    from granscale import ExperimentPlan, KMeansSpec

    spec = KMeansSpec(n_points=50_000, n_clusters=16, dims=8, max_iterations=10,
                      convergence_epsilon=0.0, seed=seed)
    return ExperimentPlan(workload=spec, mode="strong", worker_counts=(1, 2),
                          base_problem_size=50_000, seed=seed)


def _pi_weak(seed):
    from granscale import ExperimentPlan, PiSpec

    return ExperimentPlan(workload=PiSpec(n_samples=4_000_000, seed=seed), mode="weak",
                          worker_counts=(1, 2), base_problem_size=4_000_000, seed=seed)


#: Workload name -> function building its plan from the seed.
WORKLOADS = {
    "kmeans-strong": _kmeans_strong,
    "pi-weak": _pi_weak,
}


def setup(workload: str, seed: int):
    """Import the program from this checkout, build the plan, make the output dir."""
    if not (SRC / "granscale" / "__init__.py").is_file():
        raise SetupError(f"no granscale sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import granscale
    import granscale.report  # noqa: F401

    if Path(granscale.__file__).resolve().parent != SRC / "granscale":
        raise SetupError(f"granscale imported from {granscale.__file__}, not {SRC}")
    plan = WORKLOADS[workload](seed)
    out_dir = OUT / f"{workload}-{seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    return plan, out_dir


def host_block(max_workers: int) -> dict:
    """Where the numbers were taken; call after `setup`."""
    import numpy
    import scipy

    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    usable = len(affinity) or (os.cpu_count() or 1)
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "max_p": max_workers,
        "max_p_exceeds_cpus": max_workers > usable,
    }

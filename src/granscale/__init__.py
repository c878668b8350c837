"""granscale: parallel speedup and scalability estimation from one instrumented run.

The estimator decomposes a parallel execution into computation time
(instrumented spans) and overhead (everything else in the wall-clock
envelope), derives the granularity of the run, and converts it into
efficiency and an estimated speedup without measuring a serial baseline.
Built-in workloads and a sweep harness validate the estimate against
conventionally measured speedup.
"""

# Defined before the submodules load: the harness writes it into results files.
__version__ = "0.1.0"

from .measurement import (
    RunHandle,
    RunRecord,
    Span,
    aggregate,
    begin_run,
)
from .metrics import (
    TimingBreakdown,
    amdahl_speedup,
    granularity_metrics,
    gustafson_speedup,
    infer_amdahl_fraction,
    infer_gustafson_fraction,
    relative_error,
)
from .harness import (
    CellResult,
    ExperimentPlan,
    load_results,
    resume,
    run_plan,
)
from .report import (
    json_report,
    scalability_verdict,
    strong_scaling_csv,
    weak_scaling_tables,
)
from .fixture import validate_fixture
from .workloads import (
    KMeansSpec,
    PiSpec,
    SyntheticSpec,
    generate_dataset,
    kmeans_parallel,
    kmeans_serial,
    monte_carlo_pi,
    synthetic_run,
)

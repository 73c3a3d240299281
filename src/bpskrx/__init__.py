"""Error-probability engine for BPSK coherent-state receivers.

Closed-form benchmarks (SQL, Helstrom bound, Kennedy), single-shot
optimized receivers (optimized displacement, HYNORE) and the
displacement / hybrid feed-forward receivers (DFFRE, HFFRE) under ideal
and imperfect PNR(M) detection, cross-validated by an event-level Monte
Carlo simulator. See the ``bpskrx`` command-line tool for parameter
sweeps, figure datasets and validation runs.
"""

from .baselines import (
    helstrom_bound,
    hynore_error,
    kennedy_error,
    optimized_displacement_error,
    sql_error,
)
from .feedforward import (
    EvalResult,
    FeedForwardConfig,
    Receiver,
    ReceiverParams,
    StepRates,
    correct_probability_trace,
    dffre_error,
    gain,
    hffre_error,
    hffre_error_at,
    optimized_error,
    ratio,
    saturation_dark,
    saturation_visibility,
    step_correct_prob,
    step_rates,
    switch_conditional_traces,
)
from .montecarlo import RngSpec, TrajectoryRecord, estimate_error, sample_pnr, simulate_trial
from .optimize import (
    GridSearchSpec,
    ScalarSearchSpec,
    maximize_scalar,
    scan_discrete,
)
from .photostatistics import (
    BranchMeans,
    DetectorModel,
    DifferencePmf,
    branch_means,
    hl_difference_pmf,
    pnr_pmf,
    q_off,
    q_on,
    q_thresh,
    skellam_pmf,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BranchMeans",
    "DetectorModel",
    "DifferencePmf",
    "EvalResult",
    "FeedForwardConfig",
    "GridSearchSpec",
    "Receiver",
    "ReceiverParams",
    "RngSpec",
    "ScalarSearchSpec",
    "StepRates",
    "TrajectoryRecord",
    "branch_means",
    "correct_probability_trace",
    "dffre_error",
    "estimate_error",
    "gain",
    "helstrom_bound",
    "hffre_error",
    "hffre_error_at",
    "hl_difference_pmf",
    "hynore_error",
    "kennedy_error",
    "maximize_scalar",
    "optimized_displacement_error",
    "optimized_error",
    "pnr_pmf",
    "q_off",
    "q_on",
    "q_thresh",
    "ratio",
    "sample_pnr",
    "saturation_dark",
    "saturation_visibility",
    "scan_discrete",
    "simulate_trial",
    "skellam_pmf",
    "sql_error",
    "step_correct_prob",
    "step_rates",
    "switch_conditional_traces",
]

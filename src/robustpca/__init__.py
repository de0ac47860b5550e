"""Robust PCA toolkit: low-rank plus sparse decomposition via factored ALM solvers."""

__version__ = "0.1.0"

from .linalg import (
    ThinSvd,
    thin_svd,
    polar_orthogonal,
    soft_threshold,
    ld_shrink,
    log_det_surrogate,
    svt,
)
from .solvers import (
    DivergenceError,
    FactoredLowRank,
    SolverConfig,
    SolveReport,
    IterationState,
    SweepEntry,
    init_factors,
    solve_fffp,
    solve_uffp,
    solve_ialm,
    relative_residual,
    default_lambda_grid,
    lambda_sweep,
)
from .datagen import SyntheticProblem, gen_low_rank, gen_sparse, make_problem
from .analysis import (
    Metrics,
    AnomalyResult,
    sparsity_ratio,
    compute_metrics,
    anomaly_detect,
    top_m_columns,
    scaling_benchmark,
    linear_fit_r2,
    benchmark_csv,
)
from .dataio import (
    FormatError,
    FrameStack,
    write_matrix,
    read_matrix,
    read_pgm,
    write_pgm,
    load_frame_stack,
    write_frame,
    write_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]

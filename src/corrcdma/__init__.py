"""Simulation and detection library for code-division multiple access with
temporally correlated binary sources."""

__version__ = "0.1.0"

from .markov import (
    TransitionMatrix,
    estimate_transition,
    generate_block,
    iid_matrix,
    make_symmetric_matrix,
    perturb_element,
    source_stats,
)
from .channel import (
    SpreadingMatrix,
    generate_spreading,
    transmit,
)
from .detectors import (
    SCHEDULES,
    DetectionResult,
    DetectorDivergence,
    DetectorOptions,
    local_bias,
    sumf,
)
from .baselines import (
    AMPLIFICATIONS,
    CompressionComparison,
    bandwidth_expansion_comparison,
    binary_entropy,
    bsc_residual_error,
    fit_loglog_slope,
    fixed_load_comparison,
    inverse_binary_entropy,
    saturation_position,
)
from .harness import (
    BerReport,
    ExperimentConfig,
    monte_carlo,
    monte_carlo_arms,
    read_csv_with_header,
    write_ber_csv,
    write_comparison_csv,
    write_length_csv,
    write_mismatch_csv,
    write_sweep_csv,
)

__all__ = [
    "AMPLIFICATIONS",
    "BerReport",
    "CompressionComparison",
    "DetectionResult",
    "DetectorDivergence",
    "DetectorOptions",
    "ExperimentConfig",
    "SCHEDULES",
    "SpreadingMatrix",
    "TransitionMatrix",
    "bandwidth_expansion_comparison",
    "binary_entropy",
    "bsc_residual_error",
    "estimate_transition",
    "fit_loglog_slope",
    "fixed_load_comparison",
    "generate_block",
    "generate_spreading",
    "iid_matrix",
    "inverse_binary_entropy",
    "local_bias",
    "make_symmetric_matrix",
    "monte_carlo",
    "monte_carlo_arms",
    "perturb_element",
    "read_csv_with_header",
    "saturation_position",
    "source_stats",
    "sumf",
    "transmit",
    "write_ber_csv",
    "write_comparison_csv",
    "write_length_csv",
    "write_mismatch_csv",
    "write_sweep_csv",
]

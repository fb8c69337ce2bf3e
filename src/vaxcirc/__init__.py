"""Variability-aware approximate circuit toolkit.

Netlist model, Gaussian statistical timing, wire-level approximation,
NSGA-II design-space search, and Monte-Carlo evaluation under
process-variation delay libraries.
"""

from .approx import (
    CandidateSet,
    ChromosomeError,
    apply_chromosome,
    build_candidates,
    exact_chromosome,
    load_chromosome,
    save_chromosome,
)
from .celllib import (
    LibraryError,
    SampledLibrary,
    TimingArc,
    VariationLibrary,
    default_library,
    load_variation_library,
    nominal_library,
    sample_library,
    sample_matrix,
    save_variation_library,
)
from .errsim import (
    ErrorMetrics,
    SimulationDataset,
    SimulationError,
    generate_dataset,
    interpret_values,
    simulate_metrics,
    timing_error_metrics,
)
from .harness import (
    BenchmarkSpec,
    HarnessError,
    McEvaluation,
    array_multiplier,
    cla_adder,
    generate_benchmark,
    mac_fir,
    monte_carlo_evaluate,
    pareto_filter,
    rca_adder,
    run_evaluate,
    run_optimize,
    run_report,
    stale_nmed_bound,
)
from .netlist import (
    CELLS,
    Gate,
    Netlist,
    NetlistError,
    ParseError,
    netlist_fingerprint,
    parse_netlist,
    simplify_constants,
    write_netlist,
)
from .optimize import (
    EvaluatedDesign,
    GaConfig,
    NsgaResult,
    evaluate_individual,
    greedy_glp,
    nsga2_run,
    pareto_front_indices,
)
from .timing import (
    DelayRV,
    SstaResult,
    StaResult,
    annotate_edge_transitions,
    cpb_backprop,
    extract_critical_path,
    mc_sta_cpd,
    rv_gt_prob,
    rv_sum,
    ssta_traverse,
    sta_arrivals,
)

__version__ = "0.1.0"

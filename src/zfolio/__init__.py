"""Per-instance SAT solver portfolios from learned runtime and score models.

The package builds portfolios the way the strongest competition entries
are built: extract cheap instance features, learn per-solver empirical
hardness models (handling censored runs), automatically pick pre-solvers,
a backup solver and the solver subset, and at solve time run the predicted
best solver, optimizing either runtime or a competition-style score.
"""

from .cnf import CnfFormula, parse_dimacs, read_dimacs_file, write_dimacs
from .evaluation import EvaluationReport, drop_unsolvable, evaluate, split_data
from .features import (
    FEATURE_NAMES,
    FeatureVector,
    base_features,
    extract_all,
    load_feature_csv,
    save_feature_csv,
)
from .hierarchy import (
    ClassifierModel,
    HierarchicalModel,
    confusion_matrix,
    fit_gating,
    gate,
    train_classifier,
    train_hierarchical,
)
from .learning import (
    BasisSpec,
    LabeledDataset,
    RidgeModel,
    censored_fit,
    fit_ridge_model,
    forward_select,
    ridge_fit,
    select_basis,
    truncated_normal_mean,
)
from .portfolio import (
    BuildSettings,
    PortfolioConfig,
    PortfolioSimulator,
    PresolverEntry,
    PresolverSchedule,
    SolveOutcome,
    build_portfolio,
    choose_backup,
    enumerate_presolver_configs,
    load_portfolio,
    save_portfolio,
    select_presolver_candidates,
    solve,
    subset_search_exhaustive,
    subset_search_local,
)
from .probes import Assignment, ProbeBudget, dpll_probe, gsat_probe, saps_probe, unit_propagate
from .runners import ExternalRunner, SimulatedRunner
from .runtimes import (
    RunRecord,
    RuntimeMatrix,
    SolverDescriptor,
    load_runtime_csv,
    save_runtime_csv,
)
from .scoring import (
    PurseConfig,
    ScoreBreakdown,
    competition_score,
    independent_series_share,
    score_labels,
    speed_factor,
)
from .synthetic import SyntheticSolverModel, generate_benchmark, run_synthetic

__version__ = "0.1.0"

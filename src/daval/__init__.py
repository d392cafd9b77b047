"""daval: statistical validation toolkit for diagnostic device outputs.

Covers binary accuracy with exact and score intervals, QC-failure triage
tables, risk-score calibration/discrimination/utility, continuous agreement
and precision components, time-to-event comparisons, seeded simulation
oracles, and deterministic plan-driven reporting.
"""

from inspect import ismodule as _ismodule

from ._version import __version__
from .accuracy import (
    AccuracyMetrics,
    CIMethod,
    Confusion2x2,
    GoalTestResult,
    PowerResult,
    ProportionCI,
    RatioCI,
    accuracy_metrics,
    confusion_from_records,
    likelihood_ratios,
    posttest_risk,
    power_and_n,
    proportion_ci,
    ratio_ci_log_method,
    test_vs_goal,
)
from .agreement import (
    AgreementResult,
    DemingFit,
    PrecisionComponents,
    bland_altman,
    deming,
    variance_components,
)
from .dataset import (
    DeviceOutput,
    IngestResult,
    Label,
    OutputKind,
    Survival,
    ValidationRecord,
    ingest_csv,
    serialize_records,
    validate_records,
)
from .qc import (
    TriageConfusion,
    TriageReport,
    row_metrics,
    triage_report,
    triage_table,
    ungradable_proportion,
    worst_case,
)
from .report import (
    AnalysisPlan,
    ValidationReport,
    emit_report,
    load_plan,
    run_plan,
)
from .resample import (
    NoisyQueryLedger,
    QueryBudgetError,
    SeededGenerator,
    bootstrap_ci,
    noisy_query,
    simulate_binary_study,
    simulate_risk_scores,
    simulate_survival,
)
from .riskscore import (
    CalibrationMode,
    CalibrationResult,
    DecisionCurve,
    PerfectSeparationError,
    RiskStrata,
    RocCurve,
    auc_ci,
    calibration_plot,
    decision_curve,
    fit_recalibration,
    prevalence_scale,
    risk_strata_analysis,
    roc_curve,
    threshold_grid,
)
from .survival import (
    CoxFit,
    KMCurve,
    LrtResult,
    MonotoneLikelihoodError,
    added_value_lrt,
    cox_fit,
    km_estimate,
    km_risk_at,
    logrank,
)

# Everything imported above is public: the names, not the submodules.
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items() if not name.startswith("_") and not _ismodule(value)
)

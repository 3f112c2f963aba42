"""Causal inverse classification: budget-constrained treatment policies from
propensity-corrected classifiers.

The pipeline: load and normalize a dataset whose columns are partitioned into
control / indirectly-changeable / treatment features; fit one Gaussian-process
assignment model per treatment on the controls; train a classifier whose
treatment inputs are weighted by the resulting propensity density; then run
projected gradient descent per instance to find the cheapest treatment changes
that lower the predicted probability of the undesirable class, and evaluate
the policies with an independently trained validation model.
"""

from .data import (DataError, Dataset, FeatureSchema, SchemaError, denormalize,
                   load_dataset, normalize, split_half)
from .gp import (ApsResult, KernelConfig, TreatmentGP, aps, fit_gp,
                 make_aps_result, predict_batch, treatment_profile)
from .nets import (IndirectEstimator, MlpClassifier, grad_wrt_treatments,
                   predict_proba, train_classifier, train_indirect)
from .optimize import (OptimizationConfig, OptimizationError, PolicyResult,
                       Variant, cost, optimize, project)
from .experiment import (CellStats, ExperimentReport, SideModels,
                         TrainSettings, fit_side_models, ifee, run_experiment,
                         write_report, write_sweep_csv)

__version__ = "0.1.0"

__all__ = [
    "ApsResult", "CellStats", "DataError", "Dataset", "ExperimentReport",
    "FeatureSchema", "IndirectEstimator", "KernelConfig", "MlpClassifier",
    "OptimizationConfig", "OptimizationError", "PolicyResult", "SchemaError",
    "SideModels", "TrainSettings", "TreatmentGP", "Variant", "aps", "cost",
    "denormalize", "fit_gp", "fit_side_models", "grad_wrt_treatments",
    "ifee", "load_dataset", "make_aps_result", "normalize", "optimize",
    "predict_batch", "predict_proba", "project", "run_experiment",
    "split_half", "train_classifier", "train_indirect", "treatment_profile",
    "write_report", "write_sweep_csv",
]

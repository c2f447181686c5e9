"""rfclass: recovery-factor class estimation for oil reservoirs.

Database merging and de-duplication, the published preparation pipeline,
multiclass softmax gradient-boosted trees with pairwise CV tuning,
neighborhood-aware evaluation, and Shapley feature attribution — runnable
end to end on synthetic reservoir databases.
"""

__version__ = "0.1.0"

from .booster import (Ensemble, Hyperparameters, Tree, leaf_weight,
                      load_ensemble, mlogloss, predict_class, predict_proba,
                      serialize_ensemble, softmax_margins, train)
from .dataset import (Database, DatabaseTag, Feature, FeatureSchema,
                      ReservoirRecord, canonical_schema, deduplicate, merge,
                      normalize_key, parse_database, serialize_database)
from .errors import (ConfigError, FitError, IngestError, PipelineError,
                     RfclassError, TrainingError)
from .explain import Attribution, ImportanceSummary, aggregate_importance, attribute
from .metrics import (EvaluationReport, accuracy, confusion_bubbles, macro_f1,
                      neighborhood_accuracy, summary_csv)
from .pipeline import INDEPENDENT_SOURCE, PipelineConfig, RunResult, run_pipeline
from .preprocess import (PruneSpec, SplitSpec, TransformParams, apply_transforms,
                         class_labels, complete_cases, filter_ranges, fit_transforms,
                         impute, prune_missing, stratified_kfold, stratified_split,
                         to_matrix)
from .synth import DistributionSpec, FeatureDistribution, RFLink, generate, preset
from .tuner import (SearchGrid, TuningResult, cross_validate, default_grid,
                    pairwise_grid_search)

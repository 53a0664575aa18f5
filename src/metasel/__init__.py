"""Dynamic ensemble selection with meta-learned classifier competence.

The library builds a pool of weak linear classifiers, describes each
(sample, classifier) pair by fifteen families of competence criteria, selects
an informative subset of those criteria with a binary particle swarm guided
by the distance to the ideal selector (with global-validation overfitting
control), and classifies new samples by hybrid dynamic selection plus
competence-weighted voting.
"""

from .data import (Dataset, ScaleParams, SplitSpec, generate_p2, load_csv,
                   p2_boundaries, p2_true_labels, scale_minmax, split_holdout)
from .pool import ClassifierPool, bagging
from .regions import nearest_neighbors
from .metafeatures import (FeatureLayout, MetaDataset, MetaFeatureExtractor,
                           apply_mask, meta_dataset_to_csv, rrc_competence)
from .metaclassifier import MetaClassifier, MetaTrainConfig, train_meta
from .bpso import (Archive, BpsoConfig, MaskEvaluator, optimize, step, transfer_s,
                   transfer_v)
from .engine import (BASELINE_METHODS, ClassifyDiagnostics, DesModel,
                     baseline_predict_batch, classify, classify_batch,
                     consensus_keep, oracle_accuracy, weighted_majority_vote)
from .experiment import (ALL_METHODS, FRAMEWORK_METHOD, DataSource,
                         ExperimentConfig, FrequencyReport, ModelFormatError,
                         PoolConfig, RunReport, frequency_band, frequency_report,
                         load_model, run_experiment, save_model, train_des,
                         write_report_csvs)

__version__ = "0.1.0"

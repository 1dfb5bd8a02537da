"""KNN Shapley hardness scores and targeted synthetic augmentation."""

from .augment import (
    GeneratorSpec,
    smote_generate,
    targeted_augment,
    weighted_ks,
)
from .dataiq import (
    CheckpointProbs,
    DataIQTags,
    aleatoric,
    bagged_checkpoint_probs,
    confidence,
    tag,
)
from .dataset import Dataset, SplitSpec, load_csv, save_csv, standardize, stratified_split
from .evaluation import (
    CachedVote,
    MetricReport,
    auc_roc,
    gini,
    knn_predict_proba,
    removal_curve,
    repeated_gini,
)
from .perturb import (
    PerturbationRecord,
    atypical_scale,
    auprc,
    benchmark,
    mislabel,
    ood_shift,
)
from .sim import (
    BlobConfig,
    gen_blobs,
    gen_toy_mixture,
    toy_1nn_shapleys,
    toy_expected_shapley,
)
from .valuation import (
    ValuationScores,
    exact_data_shapley,
    hardest_subset,
    knn_shapley,
    knn_shapley_contributions,
    knn_utility,
    rank_by_hardness,
    tmc_shapley,
)

__version__ = "0.1.0"

__all__ = [
    "CachedVote",
    "BlobConfig",
    "CheckpointProbs",
    "DataIQTags",
    "Dataset",
    "GeneratorSpec",
    "MetricReport",
    "PerturbationRecord",
    "SplitSpec",
    "ValuationScores",
    "aleatoric",
    "atypical_scale",
    "auc_roc",
    "auprc",
    "bagged_checkpoint_probs",
    "benchmark",
    "confidence",
    "exact_data_shapley",
    "gen_blobs",
    "gen_toy_mixture",
    "gini",
    "hardest_subset",
    "knn_predict_proba",
    "knn_shapley",
    "knn_shapley_contributions",
    "knn_utility",
    "load_csv",
    "mislabel",
    "ood_shift",
    "rank_by_hardness",
    "removal_curve",
    "repeated_gini",
    "save_csv",
    "smote_generate",
    "standardize",
    "stratified_split",
    "tag",
    "targeted_augment",
    "tmc_shapley",
    "toy_1nn_shapleys",
    "toy_expected_shapley",
    "weighted_ks",
]

"""Word sense induction by clustering weighted embedding averages of contexts."""

from .cluster import (ClusteringConfig, ClusterResult, affinity_propagation,
                      agglomerative, dendrogram, pairwise_distances)
from .dataset import ContextInstance, Dataset, parse_dataset, write_predictions
from .embeddings import (EmbeddingModel, FrequencyTable, load_embeddings,
                         load_frequency_table, norm_frequency_report,
                         write_embeddings)
from .errors import DataError
from .evaluate import EvalReport, Labeling, ari, confusion_matrix
from .mt_label import Stemmer, TranslationRecord, label_by_translation, read_translations
from .porter import porter_stem
from .search import (SearchResult, SearchSpace, export_k_linkage_sweep,
                     export_power_heatmap, grid_search, serialize_config)
from .text import exclude_target, tokenize
from .vectorize import ContextVector, vectorize_dataset
from .weighting import (Chi2Table, IdfTable, WeightingConfig, build_chi2,
                        build_idf, chi2_statistic)

__version__ = "0.1.0"

__all__ = [
    "Chi2Table", "ClusterResult", "ClusteringConfig", "ContextInstance",
    "ContextVector", "DataError", "Dataset", "EmbeddingModel", "EvalReport",
    "FrequencyTable", "IdfTable", "Labeling", "SearchResult", "SearchSpace",
    "Stemmer", "TranslationRecord", "WeightingConfig", "affinity_propagation",
    "agglomerative", "ari", "build_chi2", "build_idf", "chi2_statistic",
    "confusion_matrix", "dendrogram",
    "exclude_target", "export_k_linkage_sweep", "export_power_heatmap",
    "grid_search", "label_by_translation", "load_embeddings",
    "load_frequency_table", "norm_frequency_report", "parse_dataset",
    "pairwise_distances", "porter_stem", "read_translations",
    "serialize_config", "tokenize", "vectorize_dataset", "write_embeddings",
    "write_predictions",
]

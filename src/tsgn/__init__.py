"""Transaction subgraph networks: mappings of Ethereum-style ego-networks
into transaction space, topological feature extraction, and a repeated-split
phishing-classification harness."""

from .features import (
    FEATURE_NAMES,
    PCA,
    FeatureMatrix,
    concat_features,
    feature_matrix,
    handcrafted_features,
)
from .graphs import (
    EdgeRecord,
    TransactionGraph,
    at_tier,
    undirected_projection,
    validate,
)
from .ingest import (
    DatasetManifest,
    DatasetStats,
    dataset_stats,
    extract_ego_network,
    generate_dense_star_graphs,
    generate_synthetic_dataset,
    load_dataset,
    load_edge_list,
    load_edge_list_jsonl,
    save_dataset,
)
from .ml import (
    EvalReport,
    ForestConfig,
    RandomForest,
    evaluate,
    f1_score,
    percent_increase,
    stratified_split,
)
from .transforms import (
    TsgnGraph,
    build_directed_tsgn,
    build_multiple_tsgn,
    build_temporal_tsgn,
    build_tsgn,
    map_weight,
    require_attributes,
)

__all__ = [
    "DatasetManifest",
    "DatasetStats",
    "EdgeRecord",
    "EvalReport",
    "FEATURE_NAMES",
    "FeatureMatrix",
    "ForestConfig",
    "PCA",
    "RandomForest",
    "TransactionGraph",
    "TsgnGraph",
    "at_tier",
    "build_directed_tsgn",
    "build_multiple_tsgn",
    "build_temporal_tsgn",
    "build_tsgn",
    "concat_features",
    "dataset_stats",
    "evaluate",
    "extract_ego_network",
    "f1_score",
    "feature_matrix",
    "generate_dense_star_graphs",
    "generate_synthetic_dataset",
    "handcrafted_features",
    "load_dataset",
    "load_edge_list",
    "load_edge_list_jsonl",
    "map_weight",
    "percent_increase",
    "require_attributes",
    "save_dataset",
    "stratified_split",
    "undirected_projection",
    "validate",
]

"""Diversity metrics, clustering, rank fusion, and comparison statistics."""

# ``dbscan`` the function stays in its module: importing it here would rebind
# the package's ``dbscan`` attribute, the submodule, to the function
from divgen.metrics.dbscan import NOISE, ClusterPartition
from divgen.metrics.cluster_entropy import (
    cluster_entropy_bits,
    query_cluster_entropy,
    value_cluster_entropy,
)
from divgen.metrics.text import (
    compression_ratio_diversity,
    fkgl_grade,
    ncd_diversity,
    simpson_index,
    tokenize,
    type_token_ratio,
    variance,
)
from divgen.metrics.trees import (
    TreeNode,
    avg_tree_edit_distance,
    chunk_sentence,
    parse_tree_entropy,
    sentences_of,
    tree_edit_distance,
    tree_shape,
)
from divgen.metrics.semantic import (
    chamfer_distance_score,
    paraphrase_variety,
    semantic_spread,
    vendi_score,
)
from divgen.metrics.fusion import rrf_fuse
from divgen.metrics.stats import bootstrap_std, holm_bonferroni, mcnemar, significance
from divgen.metrics.battery import (
    OPTIMIZED_METRICS,
    REPORT_METRICS,
    evaluate_battery,
    evaluate_full_battery,
)

__all__ = [
    "NOISE",
    "ClusterPartition",
    "cluster_entropy_bits",
    "query_cluster_entropy",
    "value_cluster_entropy",
    "compression_ratio_diversity",
    "fkgl_grade",
    "ncd_diversity",
    "simpson_index",
    "tokenize",
    "type_token_ratio",
    "variance",
    "TreeNode",
    "avg_tree_edit_distance",
    "chunk_sentence",
    "parse_tree_entropy",
    "sentences_of",
    "tree_edit_distance",
    "tree_shape",
    "chamfer_distance_score",
    "paraphrase_variety",
    "semantic_spread",
    "vendi_score",
    "rrf_fuse",
    "bootstrap_std",
    "holm_bonferroni",
    "mcnemar",
    "significance",
    "OPTIMIZED_METRICS",
    "REPORT_METRICS",
    "evaluate_battery",
    "evaluate_full_battery",
]

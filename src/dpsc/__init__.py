"""Supervised clustering with Dirichlet process mixtures.

Learns per-dimension relevance ("reference types") from labeled example
partitions and predicts partitions of unseen item sets by Gibbs sampling,
with a full partition-metric suite and simple baselines alongside.
"""

from .baselines import KMeansConfig, cdp_preset, coarse, fine, kmeans
from .data import (
    Dataset,
    Standardizer,
    SynthConfig,
    load_dataset,
    save_dataset,
    squared_mean_distance,
    standardize,
    synth_gaussian,
)
from .dp import (
    ClusterCountCurve,
    GammaPrior,
    ObservationPair,
    appropriateness_curve,
    crp_sample,
    estimate_precision,
    expected_clusters,
    sample_precision_multi,
    sample_precision_single,
)
from .errors import ConfigError, DomainError
from .gaussian import (
    PublicationBase,
    TypeBase,
    data_loglik,
    marginal_loglik_new_publication,
    marginal_loglik_new_type,
    posterior_sample_publication,
    posterior_sample_type,
)
from .metrics import (
    MetricReport,
    PairCounts,
    cluster_edit_distance,
    full_report,
    normalized_edit_score,
    pair_counts,
    precision_recall_f,
    rand_index,
    variation_of_information,
)
from .partition import Partition, read_partition_file, write_partition_file
from .sampler import (
    ChainState,
    SampleRecord,
    SamplerConfig,
    extract_prediction,
    run_chain,
    run_chains,
)

__version__ = "0.1.0"

"""pipret: private inner-product retrieval toolkit.

Capacity-bound calculators, the Markov/spectral analysis of inner-product
tables over prime fields, a multi-server retrieval simulator with privacy
auditing, and Gram-matrix-only machine learning.
"""

__version__ = "0.1.0"

from . import bounds, fields, gram_ml, protocol, spectral
from .bounds import (
    BoundQuery,
    CapacityBounds,
    corollary_limits,
    inverse_rate_achievable,
    inverse_rate_converse,
    solve_root_coefficients,
    theorem1_bounds,
)
from .fields import (
    Database,
    PairIndex,
    PairOrdering,
    compute_table,
    pair_count,
    pair_rank,
    pair_unrank,
    random_database,
)
from .gram_ml import (
    DualSolution,
    FixedPointCodec,
    decode_gram,
    encode_dataset,
    pca_gram,
    private_gram,
    regression_fit,
    svm_dual_train,
)
from .protocol import (
    FullDownloadScheme,
    LeakyIndexScheme,
    PairSet,
    RepeatedPirScheme,
    RetrievalTranscript,
    SumBlock,
    VirtualFileSpace,
    audit_privacy,
    measure_rate,
    retrieve_pairs,
    run_retrieval,
)
from .spectral import (
    DeltaDistribution,
    class_chain,
    class_trace,
    delta_distribution,
    evolve,
    is_irreducible,
    lambda2,
    reachability_witness,
    spectrum_dense_oracle,
    spectrum_via_characters,
    subset_entropy,
    sum_two_squares,
    transition_dense,
)

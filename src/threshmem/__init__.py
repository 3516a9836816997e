"""Constructive memorization with threshold networks.

Builds threshold (Heaviside) networks that exactly memorize any
delta-separated labeled dataset, audits their size against closed-form
budgets, and ships companion harnesses for the clustered lower-bound
geometry and for bit-complexity bounds.
"""

__version__ = "0.2.0"

from .geometry import (  # noqa: F401
    Dataset,
    SeparationMode,
    SeparationVerdict,
    check_separation,
    generate_separated_dataset,
    load_clustered_csv,
    load_dataset_csv,
    sample_sphere_uniform,
    save_dataset_csv,
)
from .netcore import (  # noqa: F401
    ThresholdLayer,
    ThresholdNetwork,
    audit,
    deserialize,
    evaluate_layers,
    forward,
    forward_batch,
    load_network,
    save_network,
    serialize,
)
from .construct import (  # noqa: F401
    CompressionPlan,
    ConstructionConfig,
    ConstructionReport,
    PrefixPartition,
    build_expansion_layer,
    build_first_layer,
    build_memorization_layer,
    build_output_layer,
    build_selector_layer,
    build_xor_subnetwork,
    construct_memorizer,
    gf2_inner_product,
    plan_compression,
    prefix_partition,
)
from .lowerbound import (  # noqa: F401
    ClusteredDataset,
    Hyperplane,
    build_cluster_dataset,
    count_separated_pairs,
    first_layer_pressure_experiment,
    min_hyperplanes_bruteforce,
)
from .capacity import (  # noqa: F401
    CapacityQuery,
    bits_lower_bound,
    bits_upper_bound,
    packing_bounds,
)

"""scbnn: bit-exact simulator for stochastic-computing and binary neural
networks, with Monte-Carlo convergence verification and a gate-level
energy model."""

from .bitstream import (
    Bitstream,
    Encoding,
    EncodingRangeError,
    GENERATOR_FAMILY,
    StreamFormatError,
    StreamKey,
    StreamMismatchError,
    decode,
    encode_blocks,
    encode_many,
    from_hex_line,
    from_hex_lines,
    popcount,
    sng_encode,
    to_hex_line,
    to_hex_lines,
)
from .bnn import (
    BinaryNetwork,
    binarize,
    binarize_network,
    binary_dot,
    forward_bnn,
    hard_sigmoid,
    load_binary_network,
    save_binary_network,
)
from .energy import EnergyReport, bnn_layer_energy, layer_energy, neuron_energy
from .netcore import (
    Activation,
    ReferenceNetwork,
    SchemaError,
    TargetFunction,
    activate,
    activate_deriv,
    fit_reference,
    forward_reference,
    load_network,
    make_target,
    save_network,
    sup_error,
    unit_grid,
)
from .scgates import (
    AccumulationMode,
    GateCounts,
    SumTrace,
    and_mult,
    apc_sum,
    counting,
    dot_product_layer,
    dot_product_sc,
    mux_add,
    xnor_mult,
)
from .scnn import M_FEASIBLE_CAP, ScnnConfig, forward_scnn, forward_scnn_grid
from .theory import (
    BoundQuery,
    BoundReport,
    ConvergenceReport,
    InfeasibleBoundError,
    TailCheck,
    bound_validation,
    bound_value,
    chebyshev_stream_bound_check,
    convergence_sweep,
    m_min_bound,
)
from .transform import (
    ChunkError,
    EquivalenceReport,
    ScnnStreamBundle,
    bnn_to_scnn,
    chunk_bits,
    join_bits,
    preactivation_equivalence_check,
    scnn_to_bnn,
)

__version__ = "0.1.0"

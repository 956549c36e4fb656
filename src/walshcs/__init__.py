"""Compressed sensing of one-dimensional signals from binary (Walsh)
measurements, reconstructed in boundary-corrected Daubechies wavelets."""

from .analysis import (
    BalancingReport,
    CoherenceReport,
    SparsityReport,
    balancing_check,
    coherence_report,
    column_tail_norms,
    m_tilde,
    relative_sparsity_bound,
    relative_sparsity_exact,
    sigma_sM,
    sparsity_report,
    tail_norm,
)
from .operator import CobOperator, MeasurementVector, SizeGuardError, Workspace
from .reconstruct import (
    NumericalError,
    ReconstructionConfig,
    ReconstructionResult,
    measure_signal,
    reconstruct_signal,
    relative_l2_error,
    solve_bpdn,
    truncated_walsh,
)
from .sampling import (
    SamplingScheme,
    SparsityProfile,
    allocate_budget,
    draw_scheme,
    flip_pattern,
    load_scheme,
    save_scheme,
    allocation_weights,
)
from .signals import make_signal, signal_jump, signal_smooth
from .walsh import (
    DyadicPoint,
    SequencyIndex,
    WalshPolynomial,
    fwht_sequency,
    ifwht_sequency,
    ordering_convert,
    wal_eval,
    walsh_poly_eval,
    walsh_shift_identity_check,
)
from .wavelets import (
    LevelStructure,
    WaveletBasis,
    build_basis,
    cascade_tabulate,
    daubechies_filter,
    dwt_forward,
    dwt_inverse,
    export_filters,
    import_filters,
)

__version__ = "0.1.0"

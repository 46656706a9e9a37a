"""Exact tensor-product multiplicities for symmetric and hyperoctahedral
groups, with stabilization bounds derived from geometric invariant theory."""

from .partitions import (
    Partition,
    PartitionError,
    add_scaled,
    check_partition,
    conjugate,
    dim_gl,
    dim_sn,
    format_partition,
    parse_partition,
    part_at,
    partitions_of,
    z_order,
)
from .characters import character
from .kronecker import ConsistencyError, kron, weak_stability_probe
from .lr import lr, schur_product_expand
from .plethysm import plethysm_coeff
from .hyperoct import dim_wreath, hyperoct_coeff, parse_double_partition
from .bounds import (
    FAMILIES,
    DegenerateTripleError,
    bound_D1,
    bound_D2,
    bound_DB,
    bound_DB_improved,
    bound_DBOR2,
    bound_DBOR2_improved,
    bound_Dm,
    bound_hyperoct,
    bound_values,
)
from .stabilization import (
    CertificateViolationError,
    StabilizationResult,
    d_real,
    empirical_scan,
    sequence_term,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

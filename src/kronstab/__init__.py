"""Exact tensor-product multiplicities for symmetric and hyperoctahedral
groups, with stabilization bounds derived from geometric invariant theory."""

from types import ModuleType as _Module

from .partitions import (
    Partition,
    PartitionError,
    SizeCapError,
    add_scaled,
    check_partition,
    conjugate,
    dim_gl,
    dim_sn,
    format_partition,
    parse_double_partition,
    parse_partition,
    part_at,
    partitions_of,
)
from .characters import character
from .kronecker import ConsistencyError, kron, weak_stability_probe
from .lr import lr, schur_product_expand
from .plethysm import plethysm_coeff
from .hyperoct import dim_wreath, hyperoct_coeff
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
    hyperoct_term,
    sequence_term,
)
from .characters import _memo, _row, _size
from .kronecker import _values
from .lr import _lr, _skew
from .plethysm import _classes


def clear_caches() -> dict[str, int]:
    """Empty every cache of the package.  Returns how many entries each
    cache held before the call."""
    sizes = {
        "characters._memo": sum(map(len, _memo.values())),
        "characters._size": sum(map(len, _size.values())),
        "kronecker._values": len(_values),
    }
    for table in (_memo, _size, _values):
        table.clear()
    functions = {"characters._row": _row, "lr._lr": _lr, "lr._skew": _skew,
                 "partitions.partitions_of": partitions_of, "plethysm._classes": _classes}
    for name, fn in functions.items():
        sizes[name] = fn.cache_info().currsize
        fn.cache_clear()
    return sizes


__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _Module)]
__version__ = "0.1.0"

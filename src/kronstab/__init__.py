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
    parse_partition,
    part_at,
    partitions_of,
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
    hyperoct_term,
    sequence_term,
)
from .characters import _memo, _rows, _size
from .kronecker import _values
from .lr import _lr, _skew
from .partitions import _dim_sn, check_count as _check_count
from .plethysm import _classes


def clear_caches(degree: int | None = None) -> dict[str, int]:
    """Empty every cache of the package, or, given a degree, drop only
    that degree's character columns, class sizes and Kronecker values.
    Returns how many entries each cache it clears held before the call:
    columns, class sizes and values of the degree, or of all degrees."""
    by_degree = {"characters._memo": _memo, "characters._size": _size, "kronecker._values": _values}
    if degree is not None:
        _check_count(degree, "degree")
        return {name: len(table.pop(degree, ())) for name, table in by_degree.items()}
    sizes = {}
    for name, table in by_degree.items():
        sizes[name] = sum(map(len, table.values()))
        table.clear()
    functions = {"lr._lr": _lr, "lr._skew": _skew, "partitions.partitions_of": partitions_of,
                 "partitions._dim_sn": _dim_sn, "plethysm._classes": _classes}
    for name, fn in functions.items():
        sizes[name] = fn.cache_info().currsize
        fn.cache_clear()
    sizes["characters._rows"] = len(_rows)
    _rows[:] = [[1]]
    return sizes


__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _Module)]
__version__ = "0.1.0"

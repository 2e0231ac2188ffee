"""Conversions between the sparse formats.

:func:`canonical_order` is the one kernel that puts coordinates into
canonical order -- sorted major-then-minor, duplicates summed -- and
every construction path reduces to it: :meth:`COOMatrix.canonical`
(and :meth:`~COOMatrix.deduplicate`), CSR/CSC construction
(``from_coordinates``), :func:`coo_to_compressed` and the CSR<->CSC
transposing conversions.

The suite generators and :func:`repro.preprocess.preprocess` hand out
canonical matrices, so the common case is input that is already
canonical: one O(nnz) check, no sort and no copy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.formats.csc import CSCMatrix
    from repro.formats.csr import CSRMatrix

#: ``major * n_minor + minor`` must fit in an int64 for the fused key.
_FUSED_KEY_LIMIT = 2**63


def stable_order(
    n_major: int, n_minor: int, major: np.ndarray, minor: np.ndarray
) -> np.ndarray:
    """The permutation ``np.lexsort((minor, major))`` returns.

    A stable ``argsort`` of the fused key ``major * n_minor + minor``
    is the same permutation at about twice the speed; ``lexsort`` is
    kept only for shapes whose fused key would overflow an int64.
    """
    if int(n_major) * int(n_minor) >= _FUSED_KEY_LIMIT:
        return np.lexsort((minor, major))
    return np.argsort(major * int(n_minor) + minor, kind="stable")


def canonical_order(
    n_major: int,
    n_minor: int,
    major: np.ndarray,
    minor: np.ndarray,
    vals: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort coordinates major-then-minor and sum duplicates.

    Returns ``(major, minor, vals)`` arrays whose ``(major, minor)``
    pairs strictly increase. Input that already strictly increases is
    returned as it is, unsorted and uncopied: a CSR built from a
    canonical COO shares its coordinate and value arrays (every format
    treats its arrays as immutable). Otherwise the sort is stable, and
    when any coordinate repeats, every value is folded in that order
    from zero (``np.add.at``), so sums are bitwise reproducible.
    Explicit zeros are kept.
    """
    major = np.asarray(major, dtype=np.int64)
    minor = np.asarray(minor, dtype=np.int64)
    vals = np.asarray(vals)
    if major.size > 1:
        if int(n_major) * int(n_minor) < _FUSED_KEY_LIMIT:
            key = major * int(n_minor) + minor
            canonical = bool(np.all(key[1:] > key[:-1]))
        else:
            canonical = bool(np.all(
                (major[1:] > major[:-1])
                | ((major[1:] == major[:-1]) & (minor[1:] > minor[:-1]))
            ))
        if not canonical:
            order = stable_order(n_major, n_minor, major, minor)
            major, minor, vals = major[order], minor[order], vals[order]
            repeats = (major[1:] == major[:-1]) & (minor[1:] == minor[:-1])
            if repeats.any():
                boundaries = np.concatenate(([True], ~repeats))
                group = np.cumsum(boundaries) - 1
                summed = np.zeros(int(group[-1]) + 1, dtype=vals.dtype)
                np.add.at(summed, group, vals)
                return major[boundaries], minor[boundaries], summed
    return major, minor, vals


def coo_to_compressed(
    n_major: int,
    n_minor: int,
    major: np.ndarray,
    minor: np.ndarray,
    vals: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compress coordinate arrays along ``major``.

    Input need not be sorted or deduplicated; duplicates are summed and
    explicit zeros kept (:func:`canonical_order`). Returns ``(indptr,
    indices, data)`` with indices sorted within each major slice.
    """
    from repro.formats.csr import CSRMatrix

    out = CSRMatrix.from_coordinates((n_major, n_minor), major, minor, vals)
    return out.indptr, out.indices, out.data


def csr_to_csc(csr: "CSRMatrix") -> "CSCMatrix":
    """Transpose-convert CSR to CSC without changing the logical matrix."""
    from repro.formats.csc import CSCMatrix

    rows, cols, vals = csr.to_coo_arrays()
    return CSCMatrix.from_coordinates(csr.shape, cols, rows, vals)


def csc_to_csr(csc: "CSCMatrix") -> "CSRMatrix":
    """Transpose-convert CSC to CSR without changing the logical matrix."""
    from repro.formats.csr import CSRMatrix

    rows, cols, vals = csc.to_coo_arrays()
    return CSRMatrix.from_coordinates(csc.shape, rows, cols, vals)

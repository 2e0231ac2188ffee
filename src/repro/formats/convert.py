"""Conversions between the sparse formats.

:func:`canonical_order` is the one kernel that puts coordinates into
canonical order -- sorted major-then-minor, duplicates summed -- and
every construction path reduces to it: :meth:`COOMatrix.canonical`
(and :meth:`~COOMatrix.deduplicate`), CSR/CSC construction
(``from_coordinates``), :func:`coo_to_compressed` and the CSR<->CSC
transposing conversions.

The suite generators and :func:`repro.preprocess.preprocess` hand out
canonical matrices, so the common case is input that is already
canonical: one O(nnz) check, no sort and no copy. The next most common
is two sorted runs back to back (``A`` then ``Aᵀ`` from its CSC, or a
matrix then its diagonal), which is merged in one pass; anything else
takes the radix sort of :func:`stable_order`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.formats.csc import CSCMatrix
    from repro.formats.csr import CSRMatrix

#: ``major * n_minor + minor`` must fit in an int64 for the fused-key
#: canonical check.
_FUSED_KEY_LIMIT = 2**63

#: Bits per radix pass: numpy's stable argsort of a 16-bit key is a
#: radix sort.
_DIGIT_BITS = 16


def _digit_shifts(n: int) -> range:
    """Shifts of the 16-bit digits that coordinates below ``n`` span,
    least significant first (none when ``n <= 1``)."""
    bits = max(int(n) - 1, 0).bit_length()
    return range(0, bits, _DIGIT_BITS)


def stable_order(
    n_major: int, n_minor: int, major: np.ndarray, minor: np.ndarray
) -> np.ndarray:
    """The permutation ``np.lexsort((minor, major))`` returns.

    An LSD radix sort: one stable ``argsort`` of 16-bit digits per pass,
    over the digits of ``minor`` and then of ``major``, least significant
    first. Each pass keeps the order of equal digits, so the result is
    the lexsort permutation for every shape, with no fused key to
    overflow. Coordinates must lie in ``[0, n_major)`` and ``[0, n_minor)``.
    """
    order = None
    for keys, n in ((minor, n_minor), (major, n_major)):
        for shift in _digit_shifts(n):
            digit = keys if order is None else keys[order]
            # The cast to uint16 keeps the low 16 bits.
            step = np.argsort((digit >> shift).astype(np.uint16), kind="stable")
            order = step if order is None else order[step]
    if order is None:
        return np.arange(np.asarray(major).size, dtype=np.intp)
    return order


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
    from zero (``np.bincount`` for float64, ``np.add.at`` otherwise),
    so sums are bitwise reproducible.
    Explicit zeros are kept.

    Input made of at most two sorted runs (at most one descent in the
    fused key ``major * n_minor + minor``), such as a matrix followed by
    its sorted transpose or by its diagonal, is merged rather than
    radix-sorted: one stable ``argsort`` of the fused key, which numpy's
    timsort completes in a single merge pass. Both sorts are stable, so
    they return the same permutation.
    """
    major = np.asarray(major, dtype=np.int64)
    minor = np.asarray(minor, dtype=np.int64)
    vals = np.asarray(vals)
    if major.size > 1:
        key = None
        if int(n_major) * int(n_minor) < _FUSED_KEY_LIMIT:
            key = major * int(n_minor) + minor
            canonical = bool(np.all(key[1:] > key[:-1]))
        else:
            canonical = bool(np.all(
                (major[1:] > major[:-1])
                | ((major[1:] == major[:-1]) & (minor[1:] > minor[:-1]))
            ))
        if not canonical:
            if key is not None and np.count_nonzero(key[1:] < key[:-1]) <= 1:
                # int64 keys take timsort, which merges the two runs.
                order = np.argsort(key, kind="stable")
            else:
                order = stable_order(n_major, n_minor, major, minor)
            major, minor, vals = major[order], minor[order], vals[order]
            repeats = (major[1:] == major[:-1]) & (minor[1:] == minor[:-1])
            if repeats.any():
                boundaries = np.concatenate(([True], ~repeats))
                group = np.cumsum(boundaries) - 1
                if vals.dtype == np.float64:
                    # The same in-order fold from 0.0 as np.add.at.
                    summed = np.bincount(group, weights=vals)
                else:
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

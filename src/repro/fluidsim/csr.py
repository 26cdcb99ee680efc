"""The fluid tier's sparse matrices: three plain arrays and one compiled loop.

Everything the fluid tier does with a routing matrix is ``y = R x`` and
``v = R^T u`` (DESIGN.md §9), and all of scipy that serves is one C++
routine, ``scipy.sparse._sparsetools.csr_matvec`` — the loop scipy's own
``R @ x`` dispatches to.  :class:`Csr` owns the arrays in scipy's canonical
form and calls that routine; :data:`csr_matvec` is taken from the
extension *file*, so a fluid process runs it without paying for
``import scipy.sparse`` (DESIGN.md §8).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

_SPARSETOOLS = "scipy.sparse._sparsetools"
_INT32_MAX = np.iinfo(np.int32).max


def _sparsetools_by_file():
    """scipy's compiled sparsetools module, loaded from its file without
    importing scipy (``find_spec`` of a top-level name only consults the
    finders), or None when the file cannot be found or loaded.

    The extension needs numpy's C-API only.  It is registered under scipy's
    own module name, so a later ``import scipy.sparse`` shares the one
    module object.
    """
    try:
        scipy_spec = importlib.util.find_spec("scipy")
    except (ImportError, ValueError):
        return None
    if scipy_spec is None or not scipy_spec.origin:
        return None
    directory = os.path.join(os.path.dirname(scipy_spec.origin), "sparse")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_sparsetools" + suffix)
        if os.path.isfile(path):
            break
    else:
        return None
    spec = importlib.util.spec_from_file_location(_SPARSETOOLS, path)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return None
    sys.modules[_SPARSETOOLS] = module
    return module


def _load_csr_matvec():
    """scipy's ``csr_matvec``: from the module scipy already imported, else
    from its file, else by the ordinary import — the same function obtained
    the slow way, never a second kernel."""
    module = sys.modules.get(_SPARSETOOLS) or _sparsetools_by_file()
    if module is not None:
        return module.csr_matvec
    from scipy.sparse._sparsetools import csr_matvec
    return csr_matvec


#: ``csr_matvec(n_rows, n_cols, indptr, indices, data, x, y)``: ``y += A x``.
csr_matvec = _load_csr_matvec()


@dataclass(frozen=True, eq=False)
class Csr:
    """A CSR matrix as scipy stores a canonical one: rows in order, column
    indices ascending within a row and never repeated, ``int32`` indices."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]

    @classmethod
    def from_pairs(cls, rows, cols, shape: Tuple[int, int]) -> "Csr":
        """The matrix with a 1.0 at every ``(rows[i], cols[i])``, repeated
        pairs summed — ``csr_matrix((ones, (rows, cols)), shape)`` after
        ``sum_duplicates()``, array for array."""
        n_rows, n_cols = shape
        rows, cols = np.asarray(rows), np.asarray(cols)
        if max(n_rows, n_cols, len(rows)) > _INT32_MAX:
            raise ValueError(f"{shape} with {len(rows)} entries needs int64 indices")
        if len(rows) != len(cols) or (len(rows) and not (
                0 <= rows.min() and rows.max() < n_rows
                and 0 <= cols.min() and cols.max() < n_cols)):
            raise ValueError(f"(row, column) pairs do not fit shape {shape}")
        # One value sort of (row, column) packed into as few bits as the
        # shape needs: numpy sorts 32-bit values twice as fast as 64-bit
        # ones, and either several times faster than any argsort.
        shift = max(n_cols - 1, 0).bit_length()
        dtype = np.uint32 if n_rows << shift <= 1 << 32 else np.int64
        cells = rows.astype(dtype) << shift
        cells |= cols.astype(dtype)
        cells.sort()
        first = np.ones(len(cells), dtype=bool)
        np.not_equal(cells[1:], cells[:-1], out=first[1:])
        if first.all():  # the usual case: no pair repeats
            data = np.ones(len(cells))
        else:
            starts = np.flatnonzero(first)
            data = np.diff(starts, append=len(cells)).astype(np.float64)
            cells = cells[starts]
        indptr = np.zeros(n_rows + 1, dtype=np.int32)
        np.cumsum(np.bincount(cells >> shift, minlength=n_rows), out=indptr[1:])
        indices = (cells & ((1 << shift) - 1)).astype(np.int32)
        return cls(indptr, indices, data, (n_rows, n_cols))

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def matvec(self, x: np.ndarray, out: np.ndarray,
               data: Optional[np.ndarray] = None) -> None:
        """``out[:] = A @ x`` — the one routing product of the fluid tier.

        ``data`` stands in for the stored values (the step loop passes its
        compute-dtype copy).  The kernel casts ``x`` and the values up to
        ``out``'s dtype like scipy's ``@`` and rejects an ``out`` too narrow
        for them; it checks no lengths, so they are checked here (with
        ``len``: this runs three to four times a step).
        """
        n_rows, n_cols = self.shape
        indices = self.indices
        if data is None:
            data = self.data
        if len(x) != n_cols or len(out) != n_rows or len(data) != len(indices):
            raise ValueError(
                f"matvec of shape {self.shape} with {len(indices)} entries: got "
                f"{len(x)} inputs, {len(out)} outputs, {len(data)} values")
        out.fill(0)
        csr_matvec(n_rows, n_cols, self.indptr, indices, data, x, out)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 1:
            raise ValueError(f"{self.shape} @ {x.shape}: only vectors are supported")
        out = np.empty(self.shape[0], dtype=np.result_type(self.data, x))
        self.matvec(x, out)
        return out

"""The fluid tier's sparse matrix: three arrays and two compiled loops.

Everything the fluid tier does with its path table ``A`` is ``A u`` and
``A^T x`` (DESIGN.md §9), and all of scipy that serves is two C++ routines
of ``scipy.sparse._sparsetools`` — ``csr_matvec`` and ``csc_matvec``, the
loops scipy's own ``@`` dispatches to, run on the same three arrays.
:class:`Csr` holds the arrays in scipy's canonical form and calls those
routines, taken from the extension *file*, so a fluid process runs them
without paying for ``import scipy.sparse`` (DESIGN.md §8).  A 0/1 matrix
stores no values of its own: its ``data`` is a read-only view of one
process-wide ones vector (:func:`unit_values`).
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


def _load_kernels():
    """scipy's ``csr_matvec`` and ``csc_matvec``: from the module scipy
    already imported, else from its file, else by the ordinary import — the
    same functions obtained the slow way, never a second kernel."""
    module = sys.modules.get(_SPARSETOOLS) or _sparsetools_by_file()
    if module is None:
        from scipy.sparse import _sparsetools as module
    return module.csr_matvec, module.csc_matvec


_ones = np.ones(0)
_ones.flags.writeable = False


def unit_values(n: int) -> np.ndarray:
    """``n`` float64 ones as a read-only view of the one ones vector every
    0/1 matrix shares, regrown to the largest ``n`` asked for so far."""
    global _ones
    if len(_ones) < n:
        _ones = np.ones(n)
        _ones.flags.writeable = False
    return _ones[:n]


#: ``csr_matvec(n_rows, n_cols, indptr, indices, data, x, y)``: ``y += A x``
#: for A in CSR; ``csc_matvec`` takes the same arguments for A in CSC, so
#: handed a CSR's arrays with the shape swapped it adds ``A^T x`` into ``y``.
csr_matvec, csc_matvec = _load_kernels()


@dataclass(frozen=True, eq=False)
class Csr:
    """A CSR matrix as scipy stores a canonical one: rows in order, column
    indices ascending within a row and never repeated, ``int32`` indices.
    ``data`` may be read-only: products only read it, and a weighted
    matrix is built with ``dataclasses.replace(m, data=...)``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]

    @classmethod
    def from_rows(cls, table, n_cols: int) -> "Csr":
        """The matrix whose row ``i`` has a 1.0 at every column id in
        ``table[i]``; ``-1`` pads short rows, and an id repeated within a row
        is one entry holding the repeat count — ``csr_matrix((ones, (rows,
        cols)))`` after ``sum_duplicates()``, array for array.  Rows arrive
        in order, so sorting inside each row is the whole build.  Without a
        repeat, ``data`` is :func:`unit_values`' shared view."""
        table = np.asarray(table)
        n_rows = len(table)
        if max(n_rows, n_cols, table.size) > _INT32_MAX:
            raise ValueError(f"{(n_rows, n_cols)} from {table.size} ids needs int64 indices")
        ids = np.sort(table, axis=1)  # pads first in every row
        if ids.size and not (-1 <= ids[:, 0].min() and ids[:, -1].max() < n_cols):
            raise ValueError(f"column ids do not fit shape {(n_rows, n_cols)}")
        first = ids >= 0  # marks the first of each run of equal ids in a row
        n_ids = np.count_nonzero(first)
        first[:, 1:] &= ids[:, 1:] != ids[:, :-1]
        indptr = np.zeros(n_rows + 1, dtype=np.int32)
        np.cumsum(first.sum(axis=1), out=indptr[1:])
        indices = ids[first].astype(np.int32, copy=False)
        if len(indices) == n_ids:
            data = unit_values(n_ids)
        else:  # some row repeats an id: entries hold run lengths
            data = np.diff(np.flatnonzero(first[ids >= 0]), append=n_ids).astype(float)
        return cls(indptr, indices, data, (n_rows, n_cols))

    def pattern(self) -> "Csr":
        """The same entries, each 1.0: repeat counts read as one."""
        return Csr(self.indptr, self.indices, unit_values(len(self.indices)), self.shape)

    def matvec(self, x: np.ndarray, out: np.ndarray,
               data: Optional[np.ndarray] = None) -> None:
        """``out[:] = A @ x``: gathers ``x`` along each stored row.

        ``data`` stands in for the stored values (the step loop passes its
        compute-dtype copy).  The kernel casts ``x`` and the values up to
        ``out``'s dtype like scipy's ``@`` and rejects an ``out`` too narrow
        for them; it checks no lengths, so they are checked first (with
        ``len``: this runs three to four times a step).
        """
        n_rows, n_cols = self.shape
        self._product(csr_matvec, n_rows, n_cols, x, out, data)

    def rmatvec(self, x: np.ndarray, out: np.ndarray,
                data: Optional[np.ndarray] = None) -> None:
        """``out[:] = A.T @ x``: scatters each ``x[i]`` along stored row ``i``,
        rows in order — term for term the sum ``matvec`` of the canonical CSR
        of ``A.T`` would make, without building it."""
        n_rows, n_cols = self.shape
        self._product(csc_matvec, n_cols, n_rows, x, out, data)

    def _product(self, kernel, n_out, n_in, x, out, data) -> None:
        indices = self.indices
        if data is None:
            data = self.data
        if len(x) != n_in or len(out) != n_out or len(data) != len(indices):
            raise ValueError(
                f"{kernel.__name__} on shape {self.shape} with {len(indices)} entries: "
                f"got {len(x)} inputs, {len(out)} outputs, {len(data)} values")
        out.fill(0)
        kernel(n_out, n_in, self.indptr, indices, data, x, out)


"""A fluid network's connections, kept as columns.

:class:`ConnectionColumns` holds what ``FluidNetwork.add_connection``
records — source and destination host, cohort, running subflow offsets,
relay rows for relayed paths, and one padded int32 link table — with no
object per connection; a :class:`FluidConnection` is a view of one of its
rows, built on access.  The store lives apart from the array build
because a process without bytecode caches compiles each module whole:
one module for both raised a fresh run's peak RSS (DESIGN.md §9).
"""

from __future__ import annotations

import operator
from collections import abc
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.topology.base import PathSpec, path_specs


def _grown(table: np.ndarray, rows: int, width: int) -> np.ndarray:
    """A copy of ``table`` with room for ``rows`` x ``width``: rows double
    when full, and new cells hold the pad, -1."""
    have_rows, have_width = table.shape
    if rows > have_rows:
        have_rows = max(rows, 2 * have_rows)
    grown = np.full((have_rows, max(width, have_width)), -1, dtype=table.dtype)
    grown[:len(table), :table.shape[1]] = table
    return grown


class ConnectionColumns:
    """The connections of one network, in add order until :meth:`freeze`."""

    def __init__(self, n_hosts: int):
        #: Sizes the link table at first: one connection per host.
        self.n_hosts = n_hosts
        self.src: List[str] = []
        self.dst: List[str] = []
        #: Algorithm name -> (cohort index, kwargs), in order of first use.
        self.algorithms: Dict[str, Tuple[int, dict]] = {}
        #: Cohort index of each connection.
        self.cohort: Sequence[int] = []
        #: Running subflow offsets: connection i owns the link-table rows
        #: up to ``ends[i]`` in add order.
        self.ends: Sequence[int] = []
        #: Relay hosts per path, for connections whose paths have any.
        self.relays: Dict[int, List[Tuple[str, ...]]] = {}
        #: Link ids of every chosen path, one -1-padded row per subflow,
        #: grown by doubling.
        self.table = np.zeros((0, 0), dtype=np.int32)
        #: First storage row of each connection, set by :meth:`freeze`.
        self.starts: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.src)

    def append(self, src: str, dst: str, algorithm: str, kwargs: dict,
               links: np.ndarray, relays: List[Tuple[str, ...]]) -> int:
        """Record one connection and its ``path_rows``; its index.  All
        connections running one algorithm share its instance, so they must
        agree on ``kwargs``."""
        known = self.algorithms.get(algorithm)
        if known is not None and known[1] != kwargs:
            raise ConfigurationError(
                f"connections running {algorithm!r} disagree on "
                "algorithm_kwargs; one cohort shares one algorithm instance")
        index = len(self.src)
        first = self.ends[-1] if index else 0
        rows, width = links.shape
        stop = first + rows
        table = self.table
        if stop > len(table) or width > table.shape[1]:
            table = self.table = _grown(
                table, max(stop, rows * self.n_hosts), width)
        table[first:stop, :width] = links
        self.ends.append(stop)
        if known is None:
            known = self.algorithms[algorithm] = (len(self.algorithms), dict(kwargs))
        self.cohort.append(known[0])
        if any(relays):
            self.relays[index] = relays
        self.src.append(src)
        self.dst.append(dst)
        return index

    def freeze(self) -> Tuple[np.ndarray, np.ndarray]:
        """Turn the integer columns into arrays and trim the link table
        into storage order: grouped by cohort in order of first use, each
        cohort's connections in add order, a connection's subflows
        contiguous.  Returns the connection at each storage position and
        its subflow count."""
        n = len(self.src)
        ends = self.ends = np.array(self.ends, dtype=np.int64)
        self.cohort = np.array(self.cohort, dtype=np.int32)
        order = np.argsort(self.cohort, kind="stable")
        counts = np.diff(ends, prepend=0)[order]
        starts = np.cumsum(counts) - counts
        self.starts = np.empty(n, dtype=np.int64)
        self.starts[order] = starts
        n_rows = int(ends[-1]) if n else 0
        if np.array_equal(order, np.arange(n)):
            table = self.table[:n_rows]
            self.table = table.copy() if len(self.table) > n_rows else table
        else:
            self.table = self.table[
                np.repeat(ends[order] - counts - starts, counts) + np.arange(n_rows)]
        return order, counts


class FluidConnection:
    """One (multipath) connection: a view of its row of the connection
    columns, built on access (``net.connections[i]``)."""

    __slots__ = ("columns", "index")

    def __init__(self, columns: ConnectionColumns, index: int):
        self.columns = columns
        self.index = index

    def __repr__(self) -> str:
        return (f"FluidConnection(index={self.index}, src={self.src!r}, "
                f"dst={self.dst!r}, algorithm_name={self.algorithm_name!r}, "
                f"n_subflows={self.n_subflows})")

    @property
    def src(self) -> str:
        return self.columns.src[self.index]

    @property
    def dst(self) -> str:
        return self.columns.dst[self.index]

    @property
    def algorithm_name(self) -> str:
        return list(self.columns.algorithms)[self.columns.cohort[self.index]]

    @property
    def algorithm_kwargs(self) -> dict:
        return dict(self.columns.algorithms[self.algorithm_name][1])

    def _rows(self) -> slice:
        """The connection's rows of the link table: add order until
        ``freeze()``, storage order after."""
        cols, i = self.columns, self.index
        stop = int(cols.ends[i])
        count = stop - (int(cols.ends[i - 1]) if i else 0)
        start = stop - count if cols.starts is None else int(cols.starts[i])
        return slice(start, start + count)

    @property
    def n_subflows(self) -> int:
        rows = self._rows()
        return rows.stop - rows.start

    @property
    def subflow_ids(self) -> Sequence[int]:
        """Global subflow indices; empty until finalize()."""
        if self.columns.starts is None:
            return ()
        rows = self._rows()
        return range(rows.start, rows.stop)

    @property
    def path_links(self) -> np.ndarray:
        """Link ids of the chosen paths, one row per subflow, padded with
        -1 to the network's longest path (a view of the link table)."""
        return self.columns.table[self._rows()]

    @property
    def relay_hosts(self) -> List[Tuple[str, ...]]:
        """Relay hosts of each chosen path."""
        relays = self.columns.relays.get(self.index)
        return list(relays) if relays else [()] * self.n_subflows

    @property
    def paths(self) -> List[PathSpec]:
        """The chosen paths as objects, built per access."""
        return path_specs((self.path_links, self.relay_hosts))


class ConnectionSequence(abc.Sequence):
    """``FluidNetwork.connections``: read-only, ``len`` in O(1), each
    item a :class:`FluidConnection` built on access."""

    __slots__ = ("_columns",)

    def __init__(self, columns: ConnectionColumns):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = operator.index(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("connection index out of range")
        return FluidConnection(self._columns, index)

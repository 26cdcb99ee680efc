"""``repro.fluidsim.csr`` against scipy: the arrays, both products, the loader.

The fluid tier keeps one routing structure — the chosen-path table as a
:class:`Csr` record, subflows x links — and runs scipy's ``csr_matvec`` and
``csc_matvec`` on it without importing ``scipy.sparse``.  These tests
(which may import scipy) hold ``Csr`` to scipy's canonical CSR form array
for array, hold ``matvec`` / ``rmatvec`` to scipy's ``@`` on the matrix and
on its transpose bit for bit, and drive the loader through every way of
not finding the extension file.

Cases are drawn as (row, column) pair lists — what scipy's constructor
takes — and laid out as the ``-1``-padded table ``Csr.from_rows`` takes, so
both sides are built from the same pairs.
"""

from __future__ import annotations

import dataclasses
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.bench.cases import fluid_build_footprint, fluid_largescale_network
from repro.campaign.spec import build_topology
from repro.fluidsim import FluidNetwork, FluidSimulation
from repro.fluidsim.csr import Csr
from repro.topology import FatTree
from tests.test_import_contract import run_fresh


def _same_arrays(got: Csr, want: sparse.csr_matrix) -> None:
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        g, w = getattr(got, part), getattr(want, part)
        assert g.dtype == w.dtype, part
        assert np.array_equal(g, w), part


def _same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _scipy(m: Csr, data=None) -> sparse.csr_matrix:
    return sparse.csr_matrix(
        (m.data if data is None else data, m.indices, m.indptr), shape=m.shape)


def _table(rows, cols, n_rows: int, extra_pads: int = 0) -> np.ndarray:
    """The pairs as a padded table: row ``i`` lists, in the order given,
    every column paired with ``i``."""
    by_row = [[] for _ in range(n_rows)]
    for row, col in zip(rows, cols):
        by_row[row].append(col)
    width = max(map(len, by_row), default=0) + extra_pads
    table = np.full((n_rows, width), -1, dtype=np.int32)
    for row, ids in enumerate(by_row):
        table[row, :len(ids)] = ids
    return table


def _scipy_from_pairs(rows, cols, shape) -> sparse.csr_matrix:
    want = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape)
    want.sum_duplicates()
    want.sort_indices()
    return want


@st.composite
def pair_lists(draw):
    """(rows, cols, shape): duplicates likely, and rows / columns beyond
    the drawn range stay empty."""
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    used_rows = draw(st.integers(1, n_rows))
    used_cols = draw(st.integers(1, n_cols))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, used_rows - 1), st.integers(0, used_cols - 1)),
        max_size=40))
    rows = np.array([p[0] for p in pairs], dtype=np.int64)
    cols = np.array([p[1] for p in pairs], dtype=np.int64)
    return rows, cols, (n_rows, n_cols)


@settings(max_examples=150, deadline=None)
@given(pair_lists(), st.integers(0, 2))
def test_from_pairs_builds_scipys_canonical_arrays(case, extra_pads):
    rows, cols, shape = case
    table = _table(rows, cols, shape[0], extra_pads)
    _same_arrays(Csr.from_rows(table, shape[1]), _scipy_from_pairs(rows, cols, shape))


@pytest.mark.parametrize("table, n_cols", [
    ([[4, 0, 2], [1, -1, -1], [-1, -1, -1], [3, 3, 0]], 5),   # ragged
    ([[-1, 2, -1, 0]], 3),                                    # pads anywhere
    ([[-1, -1], [-1, -1]], 4),                                # all pad
    (np.empty((0, 3), dtype=np.int32), 4),                    # no rows
    (np.empty((3, 0), dtype=np.int32), 4),                    # no columns
    ([[2, 2, 2, 2], [1, 0, 1, 0], [5, -1, 5, 4]], 6),         # repeated ids
    ([[0, 1], [0, 1]], 2),                                    # last of a row == first of the next
], ids=["ragged", "pads anywhere", "all pad", "no rows", "no columns",
        "repeated ids", "equal across rows"])
def test_from_rows_on_the_tables_a_build_can_produce(table, n_cols):
    table = np.asarray(table, dtype=np.int32)
    rows, slots = np.nonzero(table >= 0)
    want = _scipy_from_pairs(rows, table[rows, slots], (len(table), n_cols))
    _same_arrays(Csr.from_rows(table, n_cols), want)
    # The index dtype is the matrix's, not the table's.
    _same_arrays(Csr.from_rows(table.astype(np.int64), n_cols), want)


@pytest.mark.parametrize("rows, cols", [
    ([0, 1], [0, 3]), ([0, 1], [0, -2]), ([0, 0, 0], [2, 7, 1]), ([1], [-5])])
def test_from_pairs_rejects_pairs_outside_the_shape(rows, cols):
    table = _table(rows, cols, 2)
    with pytest.raises(ValueError, match="do not fit shape"):
        Csr.from_rows(table, 3)


def test_unit_matrices_share_one_read_only_ones_vector():
    a = Csr.from_rows(np.array([[0, 1], [2, -1]]), 3)
    b = Csr.from_rows(np.array([[1, -1]]), 3)
    assert np.shares_memory(a.data, b.data) and a.data.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        a.data[0] = 2.0
    assert a.data.tolist() == [1.0, 1.0, 1.0]
    counts = Csr.from_rows(np.array([[2, 2, 0]]), 3)  # a repeat keeps its own counts
    assert counts.data.tolist() == [1.0, 2.0] and not np.shares_memory(counts.data, a.data)
    assert counts.pattern().data.tolist() == [1.0, 1.0]
    net = FluidNetwork.permutation(FatTree(4), "lia", n_subflows=2, seed=1)
    assert np.shares_memory(net.paths.data, net.hosts.data)


def test_from_rows_rejects_what_int32_indices_cannot_hold():
    with pytest.raises(ValueError, match="needs int64 indices"):
        Csr.from_rows(np.zeros((1, 1), dtype=np.int32), 2**31)
    with pytest.raises(ValueError):  # a flat id list is not a table
        Csr.from_rows(np.zeros(3, dtype=np.int32), 4)


@settings(max_examples=150, deadline=None)
@given(pair_lists(), st.integers(0, 2**31), st.booleans())
def test_products_equal_scipys_bit_for_bit(case, seed, unit_weights):
    rows, cols, shape = case
    m = Csr.from_rows(_table(rows, cols, shape[0]), shape[1])
    rng = np.random.default_rng(seed)
    if not unit_weights:
        m = dataclasses.replace(m, data=rng.uniform(0.1, 3.0, len(m.data)))
    _check_both_products(m, rng)


def _check_both_products(m: Csr, rng) -> None:
    """The step loop's form — caller's buffer, values in the compute dtype —
    against scipy's ``@`` on the matrix and on its transposed copy."""
    n_rows, n_cols = m.shape
    along, across = rng.uniform(-1e6, 1e6, n_cols), rng.uniform(-1e6, 1e6, n_rows)
    for dtype in (np.float64, np.float32):
        data = m.data.astype(dtype)
        reference = _scipy(m, data)
        out = np.full(n_rows, np.nan, dtype=dtype)
        m.matvec(along.astype(dtype), out, data)
        _same_bits(out, reference @ along.astype(dtype))
        out = np.full(n_cols, np.nan, dtype=dtype)
        m.rmatvec(across.astype(dtype), out, data)
        _same_bits(out, reference.T.tocsr() @ across.astype(dtype))


@pytest.fixture(scope="module", params=["fattree24", "fattree", "bcube", "vl2"])
def fabric_net(request) -> FluidNetwork:
    return FluidNetwork.permutation(
        build_topology(request.param), "lia", n_subflows=8, seed=3)


@pytest.mark.parametrize("unit_weights", [True, False], ids=["unit", "random"])
def test_both_products_equal_scipys_on_the_fabrics(fabric_net, unit_weights):
    """One table serves ``R^T p`` (``csr_matvec``) and ``R x``
    (``csc_matvec``); the host incidence is read through the second only."""
    rng = np.random.default_rng(11)
    for m in (fabric_net.paths, fabric_net.hosts):
        if not unit_weights:
            m = Csr(m.indptr, m.indices, rng.uniform(0.1, 3.0, len(m.data)), m.shape)
        _check_both_products(m, rng)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_density_one_matrix(dtype):
    """Every cell stored: the case the deleted ``"dense"`` arm was for."""
    m = Csr.from_rows(np.tile(np.arange(5, dtype=np.int32), (6, 1)), 5)
    assert len(m.indices) == 30
    x = np.random.default_rng(3).uniform(0, 1e8, 5).astype(dtype)
    data = m.data.astype(dtype)
    out = np.empty(6, dtype=dtype)
    m.matvec(x, out, data)
    _same_bits(out, _scipy(m, data) @ x)


def test_matvec_checks_the_lengths_the_kernel_does_not():
    m = Csr.from_rows([[1], [0]], 3)
    with pytest.raises(ValueError, match="got 2 inputs, 2 outputs, 2 values"):
        m.matvec(np.ones(2), np.empty(2))
    with pytest.raises(ValueError, match="got 3 inputs, 3 outputs, 2 values"):
        m.matvec(np.ones(3), np.empty(3))
    with pytest.raises(ValueError, match="got 3 inputs, 2 outputs, 1 values"):
        m.matvec(np.ones(3), np.empty(2), np.ones(1))
    # The transposed product swaps the two lengths, nothing else.
    with pytest.raises(ValueError, match="got 3 inputs, 2 outputs, 2 values"):
        m.rmatvec(np.ones(3), np.empty(2))
    with pytest.raises(ValueError, match="got 2 inputs, 3 outputs, 1 values"):
        m.rmatvec(np.ones(2), np.empty(3), np.ones(1))
    # An output too narrow for the operands is the kernel's own error.
    for product, n_in, n_out in ((m.matvec, 3, 2), (m.rmatvec, 2, 3)):
        with pytest.raises(ValueError, match="Output dtype"):
            product(np.ones(n_in), np.empty(n_out, dtype=np.float32))


def test_empty_network_finalizes_and_steps():
    """No connections: ``(0, L)`` tables, zero traffic, idle switches."""
    net = FluidNetwork(FatTree(4))
    net.finalize()
    assert net.paths.shape == (0, net.n_links)
    assert net.hosts.shape == (0, 16)
    assert not net.host_subflow_count.any()
    result = FluidSimulation(net, dt=0.01, seed=1).run(0.1)
    assert result.aggregate_goodput_bps == 0.0
    assert result.host_energy_j == 0.0 and result.switch_energy_j > 0.0
    assert not result.mean_utilization.any()


# ------------------------------------------------------- what a build costs

#: Bytes per path hop a k=8 x 8 fabric build (topology included) may keep /
#: may reach under ``tracemalloc``.  Exact counts: 58.9 / 75.2 with the one
#: path table; 71.0 / 111.7 when ``finalize()`` sorted (link, subflow) pairs
#: into two matrices plus a host-major incidence.
_RETAINED_BYTES_PER_HOP = 64.0
_PEAK_BYTES_PER_HOP = 90.0


def test_fabric_build_memory_per_path_hop():
    retained, peak = fluid_build_footprint(8)  # 8 subflows a connection
    hops = 5558
    assert len(fluid_largescale_network(8).paths.indices) == hops
    assert retained / hops < _RETAINED_BYTES_PER_HOP
    assert peak / hops < _PEAK_BYTES_PER_HOP


# ------------------------------------------------------------------ the loader

_FAKE_FIND_SPEC = """
import importlib.machinery, importlib.util, sys
real = importlib.util.find_spec
def find_spec(name, package=None):
    if name != "scipy":
        return real(name, package)
    {body}
importlib.util.find_spec = find_spec
"""


@pytest.mark.parametrize("body", [
    'raise ImportError("finders are broken")',
    'return importlib.machinery.ModuleSpec("scipy", None, origin=None)',
    'return importlib.machinery.ModuleSpec("scipy", None, origin="/no/such/scipy/__init__.py")',
], ids=["find_spec raises", "origin is None", "no extension file there"])
def test_without_the_file_the_ordinary_import_gives_the_same_function(body):
    run_fresh(_FAKE_FIND_SPEC.format(body=body) + textwrap.dedent("""
        import repro.fluidsim
        from repro.fluidsim.csr import csr_matvec
        assert "scipy.sparse" in sys.modules  # obtained the slow way
        from scipy.sparse import _sparsetools
        assert csr_matvec is _sparsetools.csr_matvec
    """))


@pytest.mark.parametrize("find_spec_too", [False, True])
def test_without_scipy_the_import_error_is_scipys_own(find_spec_too):
    """scipy stays a declared dependency: with it unimportable, importing
    the fluid network fails as any ``import scipy`` would."""
    patch = _FAKE_FIND_SPEC.format(body="raise ValueError('scipy.__spec__ is None')")
    run_fresh((patch if find_spec_too else "import sys") + textwrap.dedent("""
        sys.modules["scipy"] = None
        try:
            from repro.fluidsim import FluidNetwork
        except ImportError as exc:
            assert "scipy" in str(exc), exc
        else:
            raise AssertionError("imported without scipy")
    """))

"""``repro.fluidsim.csr`` against scipy: the arrays, the product, the loader.

The fluid tier keeps its routing matrices as :class:`Csr` records and runs
scipy's ``csr_matvec`` on them without importing ``scipy.sparse``.  These
tests (which may import scipy) hold ``Csr`` to scipy's canonical CSR form
array for array and to scipy's ``@`` bit for bit, and drive the loader
through every way of not finding the extension file.
"""

from __future__ import annotations

import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.fluidsim import FluidNetwork, FluidSimulation
from repro.fluidsim.csr import Csr
from repro.topology import FatTree
from tests.test_import_contract import run_fresh


def _same_arrays(got: Csr, want: sparse.csr_matrix) -> None:
    assert got.shape == want.shape and got.nnz == want.nnz
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


def _check_both_orientations(rows, cols, shape) -> None:
    want = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape)
    want.sum_duplicates()
    _same_arrays(Csr.from_pairs(rows, cols, shape), want)
    # finalize() builds routing_t from the swapped pairs: scipy's transpose.
    _same_arrays(Csr.from_pairs(cols, rows, shape[::-1]), want.T.tocsr())


@settings(max_examples=150, deadline=None)
@given(pair_lists())
def test_from_pairs_builds_scipys_canonical_arrays(case):
    _check_both_orientations(*case)


def test_from_pairs_on_shapes_too_wide_for_32_bit_keys():
    """(row, column) is packed into 32 bits when the shape fits, 64 when
    not; the boundary is a k=32 fat-tree at 8 subflows (16 + 16 bits)."""
    rng = np.random.default_rng(5)
    for shape in ((49152, 65536), (49152, 65537), (70_000, 70_000)):
        rows = rng.integers(0, shape[0], 500)
        cols = rng.integers(0, shape[1], 500)
        rows[:9], cols[:9] = shape[0] - 1, shape[1] - 1  # corner, repeated
        _check_both_orientations(rows, cols, shape)


@settings(max_examples=150, deadline=None)
@given(pair_lists(), st.integers(0, 2**31), st.booleans())
def test_products_equal_scipys_bit_for_bit(case, seed, unit_weights):
    rows, cols, shape = case
    m = Csr.from_pairs(rows, cols, shape)
    rng = np.random.default_rng(seed)
    if not unit_weights:
        m.data[:] = rng.uniform(0.1, 3.0, m.nnz)
    x = rng.uniform(-1e6, 1e6, shape[1])
    # float64, and a float32 vector against the float64 matrix (upcast).
    _same_bits(m @ x, _scipy(m) @ x)
    _same_bits(m @ x.astype(np.float32), _scipy(m) @ x.astype(np.float32))
    # The step loop's form: caller's buffer, values in the compute dtype.
    for dtype in (np.float64, np.float32):
        data, vec = m.data.astype(dtype), x.astype(dtype)
        out = np.full(shape[0], np.nan, dtype=dtype)
        m.matvec(vec, out, data)
        _same_bits(out, _scipy(m, data) @ vec)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_density_one_matrix(dtype):
    """Every cell stored: the case the deleted ``"dense"`` arm was for."""
    rows, cols = np.divmod(np.arange(6 * 5), 5)
    m = Csr.from_pairs(rows, cols, (6, 5))
    assert m.nnz == 30
    x = np.random.default_rng(3).uniform(0, 1e8, 5).astype(dtype)
    data = m.data.astype(dtype)
    out = np.empty(6, dtype=dtype)
    m.matvec(x, out, data)
    _same_bits(out, _scipy(m, data) @ x)


def test_matvec_checks_the_lengths_the_kernel_does_not():
    m = Csr.from_pairs([0, 1], [1, 0], (2, 3))
    with pytest.raises(ValueError, match="got 2 inputs, 2 outputs, 2 values"):
        m.matvec(np.ones(2), np.empty(2))
    with pytest.raises(ValueError, match="got 3 inputs, 3 outputs, 2 values"):
        m.matvec(np.ones(3), np.empty(3))
    with pytest.raises(ValueError, match="got 3 inputs, 2 outputs, 1 values"):
        m.matvec(np.ones(3), np.empty(2), np.ones(1))
    with pytest.raises(ValueError, match="only vectors"):
        m @ np.ones((3, 1))
    # An output too narrow for the operands is the kernel's own error.
    with pytest.raises(ValueError, match="Output dtype"):
        m.matvec(np.ones(3), np.empty(2, dtype=np.float32))


@pytest.mark.parametrize("rows, cols", [
    ([0, 2], [0, 0]), ([0, -1], [0, 0]), ([0, 1], [0, 3]), ([0], [0, 1])])
def test_from_pairs_rejects_pairs_outside_the_shape(rows, cols):
    with pytest.raises(ValueError, match="do not fit shape"):
        Csr.from_pairs(rows, cols, (2, 3))


def test_empty_network_finalizes_and_steps():
    """No connections: ``(L, 0)`` matrices, zero traffic, idle switches."""
    net = FluidNetwork(FatTree(4))
    net.finalize()
    assert net.routing.shape == (net.n_links, 0)
    assert net.routing_t.shape == (0, net.n_links)
    assert net.host_incidence.shape == (16, 0)
    assert not net.host_subflow_count.any()
    result = FluidSimulation(net, dt=0.01, seed=1).run(0.1)
    assert result.aggregate_goodput_bps == 0.0
    assert result.host_energy_j == 0.0 and result.switch_energy_j > 0.0
    assert not result.mean_utilization.any()


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
    """scipy stays a declared dependency: with it unimportable,
    ``import repro.fluidsim`` fails as any ``import scipy`` would."""
    patch = _FAKE_FIND_SPEC.format(body="raise ValueError('scipy.__spec__ is None')")
    run_fresh((patch if find_spec_too else "import sys") + textwrap.dedent("""
        sys.modules["scipy"] = None
        try:
            import repro.fluidsim
        except ImportError as exc:
            assert "scipy" in str(exc), exc
        else:
            raise AssertionError("imported without scipy")
    """))

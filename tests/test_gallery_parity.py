"""Parity of the block_diag gallery builders with the offset-loop builders they replaced.

The reference functions below are verbatim copies of the former
``assemble_block_system``, ``build_lemma52_block``,
``build_prop53_truncation``, ``duplicated`` and ``perturbed_pairs``
(renamed with a ``reference_`` prefix, the old ``LayeredBlock`` with its
since-deleted fields included).  The current builders must give bitwise
equal columns, equal labels and equal per-layer bookkeeping.  The gallery's own block_diag must give the bits, dtype and
layout of scipy.linalg.block_diag on every argument shape the builders pass.
"""
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

import framekit as fk
from framekit.core import OperatorPower, VectorSystem
from framekit.errors import BadParameter, EmptyInput
from framekit.gallery import (
    _complete_to_onb,
    _flag,
    _flat_conditional_basis,
    _require_positive,
    _require_size,
    block_diag,
    lemma51,
)


def reference_assemble_block_system(blocks) -> VectorSystem:
    blocks = list(blocks)
    if not blocks:
        raise EmptyInput("need at least one block")
    dim = sum(b.dim for b in blocks)
    count = sum(b.count for b in blocks)
    cols = np.zeros((dim, count), dtype=np.complex128)
    labeled = all(b.labels is not None for b in blocks)
    labels: list[str] = []
    row = col = 0
    for j, block in enumerate(blocks):
        cols[row : row + block.dim, col : col + block.count] = block.columns
        if labeled:
            labels += [f"b{j}:{lab}" for lab in block.labels]
        row += block.dim
        col += block.count
    return VectorSystem(cols, tuple(labels) if labeled else None)


def reference_build_lemma52_block(
    k: int, eps: float, a: float = 0.45, start_frequency: int = 8
) -> tuple[VectorSystem, np.ndarray, int]:
    _require_positive(k, "k")
    if eps <= 0:
        raise BadParameter("eps must be positive")
    block = _flat_conditional_basis(eps / k, a, start_frequency)
    q = block.system.count
    system = reference_assemble_block_system([block.system] * k)
    flat_basis = np.zeros((system.dim, k), dtype=np.complex128)
    for j in range(k):
        flat_basis[j * q : (j + 1) * q, j] = block.flat_vector
    return system, flat_basis, q


@dataclass(frozen=True, eq=False)
class ReferenceLayeredBlock:
    m: int
    eps: float
    copy_size: int
    basis_slice: slice  # conditional-basis columns, global indices
    complement_slice: slice  # orthonormal complement columns
    flat_frame_slice: slice  # the m+1 tight-frame columns inside the flat subspace
    flat_subspace: np.ndarray  # assembled-dim x m orthonormal basis of the flat subspace
    flat_mass: float


def reference_build_prop53_truncation(
    depth: int,
    epsilons,
    a: float = 0.45,
    start_frequency: int = 8,
    normalized: bool = True,
) -> tuple[VectorSystem, tuple[ReferenceLayeredBlock, ...]]:
    _require_positive(depth, "depth")
    eps_list = [float(e) for e in epsilons]
    if len(eps_list) != depth:
        raise BadParameter(f"expected {depth} epsilon values, got {len(eps_list)}")
    if any(e <= 0 for e in eps_list):
        raise BadParameter("epsilon values must be positive")
    block_systems: list[VectorSystem] = []
    layer_data = []
    for j, eps in enumerate(eps_list):
        m = j + 2
        flat = _flat_conditional_basis(eps / m, a, start_frequency)
        q = flat.system.count
        n_m = m * q
        cols = np.zeros((n_m, 2 * n_m + 1), dtype=np.complex128)
        labels = []
        # conditional basis: m diagonal copies
        for copy in range(m):
            cols[copy * q : (copy + 1) * q, copy * q : (copy + 1) * q] = (
                flat.system.columns
            )
            labels += [f"g{copy * q + i}" for i in range(q)]
        # orthonormal flat-subspace basis: the per-copy flat vectors
        flat_basis = np.zeros((n_m, m), dtype=np.complex128)
        for copy in range(m):
            flat_basis[copy * q : (copy + 1) * q, copy] = flat.flat_vector
        # complement: complete the flat vector to an ONB of each copy
        completion = _complete_to_onb(flat.flat_vector)
        e_start = n_m
        idx = 0
        for copy in range(m):
            cols[copy * q : (copy + 1) * q, e_start + idx : e_start + idx + q - 1] = (
                completion
            )
            labels += [f"e{idx + i}" for i in range(q - 1)]
            idx += q - 1
        # the m+1 tight-frame vectors, expressed in the flat-subspace coordinates
        f_start = e_start + m * (q - 1)
        cols[:, f_start : f_start + m + 1] = flat_basis @ lemma51(m).columns
        labels += [f"f{i}" for i in range(m + 1)]
        block_systems.append(VectorSystem(cols, tuple(labels)))
        layer_data.append((m, eps, q, flat_basis, flat.flat_mass, n_m))
    assembled = reference_assemble_block_system(block_systems)
    if normalized:
        norms = assembled.norms()
        assembled = VectorSystem(assembled.columns / norms, assembled.labels)
    blocks: list[ReferenceLayeredBlock] = []
    col_off = 0
    row_off = 0
    for m, eps, q, flat_basis, flat_mass, n_m in layer_data:
        total_cols = 2 * n_m + 1
        global_flat = np.zeros((assembled.dim, m), dtype=np.complex128)
        global_flat[row_off : row_off + n_m, :] = flat_basis
        blocks.append(
            ReferenceLayeredBlock(
                m=m,
                eps=eps,
                copy_size=q,
                basis_slice=slice(col_off, col_off + n_m),
                complement_slice=slice(col_off + n_m, col_off + 2 * n_m - m),
                flat_frame_slice=slice(col_off + 2 * n_m - m, col_off + total_cols),
                flat_subspace=global_flat,
                flat_mass=flat_mass,
            )
        )
        col_off += total_cols
        row_off += n_m
    return assembled, tuple(blocks)


def reference_duplicated(n: int, double_ambient: bool = False) -> VectorSystem:
    n = _require_positive(n, "n")
    dim = 2 * n if _flag(double_ambient, "double_ambient") else n
    _require_size(dim, 2 * n)
    cols = np.zeros((dim, 2 * n), dtype=np.complex128)
    labels = []
    for i in range(n):
        cols[i, 2 * i] = 1.0
        cols[i, 2 * i + 1] = 1.0
        labels += [f"e{i + 1}a", f"e{i + 1}b"]
    return VectorSystem(cols, tuple(labels))


def reference_perturbed_pairs(n: int) -> VectorSystem:
    n = _require_positive(n, "n")
    _require_size(2 * n, 2 * n)
    cols = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    labels = []
    for i in range(n):
        cols[2 * i, 2 * i] = 1.0
        cols[2 * i, 2 * i + 1] = 1.0
        cols[2 * i + 1, 2 * i + 1] = 1.0 / n
        labels += [f"u{i + 1}", f"v{i + 1}"]
    return VectorSystem(cols, tuple(labels))


def assert_same_system(new, old):
    assert new.columns.dtype == old.columns.dtype
    assert np.array_equal(new.columns, old.columns)
    assert new.labels == old.labels


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((2, [0.1, 0.05]), {}),
        ((2, [0.2, 0.2]), {}),
        ((3, [0.2, 0.15, 0.1]), {"normalized": False}),
    ],
)
def test_prop53_truncation_matches_reference(args, kwargs):
    system, blocks = fk.build_prop53_truncation(*args, **kwargs)
    ref_system, ref_blocks = reference_build_prop53_truncation(*args, **kwargs)
    assert_same_system(system, ref_system)
    assert len(blocks) == len(ref_blocks)
    for block, ref in zip(blocks, ref_blocks):
        assert (block.m, block.eps, block.flat_mass) == (ref.m, ref.eps, ref.flat_mass)
        assert block.flat_frame_slice == ref.flat_frame_slice
        assert np.array_equal(block.flat_subspace, ref.flat_subspace)


def test_lemma52_block_matches_reference():
    system, flat_basis, q = fk.build_lemma52_block(3, 0.1)
    ref_system, ref_flat_basis, ref_q = reference_build_lemma52_block(3, 0.1)
    assert_same_system(system, ref_system)
    assert flat_basis.dtype == ref_flat_basis.dtype
    assert np.array_equal(flat_basis, ref_flat_basis)
    assert q == ref_q


# every n up to 12, and the sizes the benchmark workloads generate
PAIR_SIZES = [*range(1, 13), 60, 80]


def assert_same_bytes(new, old):
    assert new.columns.dtype == old.columns.dtype == np.complex128
    assert new.columns.shape == old.columns.shape
    assert new.columns.tobytes() == old.columns.tobytes()
    assert new.labels == old.labels


@pytest.mark.parametrize("double_ambient", [False, True])
@pytest.mark.parametrize("n", PAIR_SIZES)
def test_duplicated_matches_reference_bytes(n, double_ambient):
    assert_same_bytes(fk.duplicated(n, double_ambient), reference_duplicated(n, double_ambient))


@pytest.mark.parametrize("n", PAIR_SIZES)
def test_perturbed_pairs_matches_reference_bytes(n):
    assert_same_bytes(fk.perturbed_pairs(n), reference_perturbed_pairs(n))


# the per-copy budgets eps / m and eps / k of the workloads' prop53Truncation
# and lemma52Block builds
@pytest.mark.parametrize("budget", [0.1 / 3, 0.05, 0.05 / 3, 0.1, 0.2 / 3])
def test_flat_mass_is_the_bottom_eigenvalue_the_budget_tested(budget):
    block = _flat_conditional_basis(budget, 0.45, 8)
    bottom = OperatorPower.compute(block.system).bounds[0]
    assert block.flat_mass.hex() == bottom.hex()
    assert block.flat_mass <= budget


@pytest.mark.parametrize("labeled", [True, False])
def test_assemble_block_system_matches_reference(labeled):
    rng = np.random.default_rng(3)
    blocks = [fk.orthonormal(2), fk.lemma51(3), fk.duplicated(2, double_ambient=True)]
    cols = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    blocks.append(VectorSystem(cols, tuple("abcde") if labeled else None))
    assert_same_system(
        fk.assemble_block_system(blocks), reference_assemble_block_system(blocks)
    )


# ---------------------------------------------------------------------------
# gallery.block_diag against the scipy.linalg.block_diag it replaced


def block_diag_arguments():
    """Argument lists of every shape the gallery lays out, and mixed dtypes."""
    rng = np.random.default_rng(11)
    square = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    wide = rng.standard_normal((2, 5))
    flat = _flat_conditional_basis(0.1, 0.45, 8)
    column = flat.flat_vector[:, None]
    special = np.array([[-0.0, np.nan], [np.inf, 5e-324]])
    return {
        "complex blocks": [square, fk.lemma51(4).columns],
        "real blocks": [wide, wide.T, special],
        "real and complex blocks": [wide, square, special],
        "mixed dtypes": [np.arange(6).reshape(2, 3), wide.astype(np.float32), square],
        "integers only": [np.eye(2, dtype=np.int32), np.ones((1, 2), dtype=np.int64)],
        "k x 1 columns": [column, square[:, :1], wide[:, 1:2]],
        "the same column repeated": [column] * 4,
        "the same array repeated": [flat.system.columns] * 3,
        "complement bases repeated": [_complete_to_onb(flat.flat_vector)] * 2,
        "strided views": [square[:, ::2], wide.T[::2]],
        "an empty block": [square, np.zeros((2, 0)), wide],
        "one block": [square],
    }


@pytest.mark.parametrize("name", sorted(block_diag_arguments()))
def test_block_diag_matches_scipy(name):
    arrays = block_diag_arguments()[name]
    out = block_diag(*arrays)
    reference = scipy.linalg.block_diag(*arrays)
    assert out.dtype == reference.dtype
    assert out.shape == reference.shape
    assert out.flags.c_contiguous
    assert np.array_equal(out.view(np.uint8), np.ascontiguousarray(reference).view(np.uint8))

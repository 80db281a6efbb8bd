"""One singular-value kernel: every sigma, rank decision and Riesz constant comes from
metrics._factor, so the public routines agree bit for bit with each other and stay
within roundoff of the plain svd(columns) kernels they replaced.
"""
import math

import numpy as np
import pytest

import framekit as fk
from framekit.metrics import RANK_RTOL, _rank


def rank_edge_system(seed):
    # 6 x 4 with sigma_min / sigma_max = RANK_RTOL: two kernels used to split on its rank
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)))[0]
    v = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    s = np.array([1.0, 0.7, 0.3, RANK_RTOL])
    return fk.VectorSystem((u * s) @ v.conj().T)


GALLERY = {
    "lemma51": lambda: fk.lemma51(12),  # count > dim
    "lemma51-basis": lambda: fk.lemma51(12).subsystem(range(1, 13)),
    "perturbedPairs": lambda: fk.perturbed_pairs(20),
    "weightedExponentials+": lambda: fk.weighted_exponentials(0.25, 16, 1),
    "weightedExponentials-": lambda: fk.weighted_exponentials(0.25, 16, -1),
    "lemma52Block": lambda: fk.lemma52_block(2, 0.5),
    "randomFrame-wide": lambda: fk.random_frame(4, 9, 3),  # count > dim
    "randomFrame-square": lambda: fk.random_frame(6, 6, 1, 1e6),
    "duplicated": lambda: fk.duplicated(3),  # count > dim
    "duplicated-square": lambda: fk.duplicated(3, double_ambient=True),
    "orthonormal": lambda: fk.orthonormal(5),
}


def assert_one_kernel(system):
    bm = fk.basis_metrics(system)
    svals = fk.singular_values(system)
    assert fk.riesz_constant(system) == bm.riesz
    assert fk.hilbertian_besselian(system) == (bm.hilbertian, bm.besselian)
    assert np.array_equal(svals, bm.singular_values)
    if system.count <= system.dim:
        assert fk.smallest_singular_value(system.columns) == svals[-1]
    if system.count >= 2:
        assert (fk.separation_constant(system) == 0.0) == (bm.besselian == math.inf)


@pytest.mark.parametrize("seed", range(200))
def test_rank_edge_systems_get_one_rank_decision(seed):
    assert_one_kernel(rank_edge_system(seed))


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_systems_get_one_rank_decision(name):
    assert_one_kernel(GALLERY[name]())


# ---------------------------------------------------------------------------
# parity with the svd(columns) kernels the shared factorization replaced


def reference_singular_values(system):
    return np.linalg.svd(system.columns, compute_uv=False)


def reference_besselian(system):
    svals = reference_singular_values(system)
    if _rank(svals) < system.count:
        return math.inf
    return float(1.0 / svals[system.count - 1])


def reference_smallest_singular_value(columns):
    k = columns.shape[1]
    if k > columns.shape[0]:
        return 0.0
    return float(np.linalg.svd(columns, compute_uv=False)[k - 1])


def assert_reference_parity(system):
    expected = reference_singular_values(system)
    got = fk.singular_values(system)
    scale = 1e-13 * expected[0]
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= scale
    assert abs(fk.smallest_singular_value(system.columns)
               - reference_smallest_singular_value(system.columns)) <= scale
    ratio = expected[-1] / expected[0] if system.count <= system.dim else 0.0
    if not 0.5 * RANK_RTOL <= ratio <= 2.0 * RANK_RTOL:
        got = fk.hilbertian_besselian(system)[1]
        assert math.isinf(got) == math.isinf(reference_besselian(system))


def extract_sweep_final_subsets(seed):
    """The final subsets the extract-sweep benchmark workload reaches at this seed."""
    finals = []
    for n in (40, 80, 120, 160):
        system = fk.lemma51(n)
        finals.append(system.subsystem(fk.extract_frame(system, 0.25, 0.1).final_subset))
    for k in range(2):
        system = fk.random_frame(96, 192, seed + k, 100.0)
        finals.append(system.subsystem(fk.extract_frame(system, 0.25, 0.1).final_subset))
    system = fk.random_frame(192, 384, seed + 2, 1e4)
    finals.append(system.subsystem(fk.extract_frame(system, 0.25, 0.8).final_subset))
    system = fk.perturbed_pairs(60)
    finals.append(system.subsystem(fk.extract_biorthogonal(system, 0.25, 0.1).final_subset))
    return finals


def test_extract_sweep_final_subsets_match_the_reference_kernels():
    for system in extract_sweep_final_subsets(seed=0):
        assert_reference_parity(system)
        assert_one_kernel(system)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_systems_match_the_reference_kernels(name):
    assert_reference_parity(GALLERY[name]())


@pytest.mark.parametrize("seed", range(40))
def test_random_tall_systems_match_the_reference_kernels(seed):
    # singular values spread from 1 down to 10^-decades, across the rank threshold
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    m = int(rng.integers(1, n + 1))
    u = np.linalg.qr(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))[0]
    v = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
    s = np.logspace(0.0, -float(rng.uniform(0.0, 17.0)), m)
    assert_reference_parity(fk.VectorSystem((u * s) @ v.conj().T))


# ---------------------------------------------------------------------------
# factorization guard


def test_tall_columns_take_one_qr_and_one_small_svd(factorization_shapes):
    rng = np.random.default_rng(4)
    vs = fk.VectorSystem(rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5)))
    for routine in (fk.singular_values, fk.riesz_constant):
        factorization_shapes.clear()
        routine(vs)
        assert factorization_shapes == [(12, 5), (5, 5)]
    factorization_shapes.clear()
    fk.smallest_singular_value(vs.columns)
    assert factorization_shapes == [(12, 5), (5, 5)]


def test_wide_columns_take_one_svd_or_none(factorization_shapes):
    rng = np.random.default_rng(5)
    vs = fk.VectorSystem(rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9)))
    for routine in (fk.singular_values, fk.hilbertian_besselian):
        factorization_shapes.clear()
        routine(vs)
        assert factorization_shapes == [(5, 9)]
    factorization_shapes.clear()
    assert fk.smallest_singular_value(vs.columns) == 0.0
    assert factorization_shapes == []

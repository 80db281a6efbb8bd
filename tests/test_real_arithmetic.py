"""Real systems are factored in real arithmetic.

A system whose columns have no nonzero imaginary part reaches LAPACK as
float64: core.frame_operator, core._apply_power and metrics._factor pass its
columns through core._arithmetic.  Any other system runs the complex128 path
unchanged.  The reference below runs the same numpy calls on the complex128
matrices, by making that dispatch the identity.
"""
import math

import numpy as np
import pytest
from conftest import FACTORIZATIONS

import framekit as fk
import framekit.metrics
from framekit.cli import VERIFY_TOLERANCE, _run_verifications


def prop53_165x332():
    system = fk.generate(fk.GallerySpec("prop53Truncation", {"M": 2, "epsilons": [0.2, 0.2]}))
    assert (system.dim, system.count) == (165, 332)
    return system


REAL_SYSTEMS = {
    "lemma51": lambda: fk.lemma51(12),  # count > dim
    "lemma51-basis": lambda: fk.lemma51(12).subsystem(range(1, 13)),
    "perturbedPairs": lambda: fk.perturbed_pairs(20),
    "weightedExponentials+": lambda: fk.weighted_exponentials(0.25, 16, 1),
    "weightedExponentials-": lambda: fk.weighted_exponentials(0.25, 16, -1),
    "lemma52Block": lambda: fk.lemma52_block(2, 0.5),
    "prop53Truncation": prop53_165x332,  # count > dim
    "prop53Truncation-M1": lambda: fk.prop53_truncation(1, [0.3]),
    "orthonormal": lambda: fk.orthonormal(5),
}

COMPLEX_SYSTEMS = {
    "randomFrame": lambda: fk.random_frame(6, 12, 1),
    "randomFrame-square": lambda: fk.random_frame(6, 6, 1, 1e6),
    "randomFrame-cond1e9": lambda: fk.random_frame(4, 8, seed=1, cond=1e9),
}


@pytest.fixture
def complex_reference(monkeypatch):
    """Call fn(*args) with every real system kept in complex128, as before the dispatch."""

    def run(fn, *args):
        with monkeypatch.context() as patch:
            for module in (fk.core, fk.metrics):
                patch.setattr(module, "_arithmetic", lambda columns: columns)
            return fn(*args)

    return run


@pytest.fixture
def factorization_dtypes(monkeypatch):
    """Operand dtype of every numpy.linalg / scipy.linalg factorization call."""
    dtypes = []
    for module, names in FACTORIZATIONS.items():
        for name in names:
            def recorded(*args, _original=getattr(module, name), **kwargs):
                dtypes.append(np.asarray(args[0]).dtype)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)
    return dtypes


def assert_close(got, expected, rel=1e-12):
    if math.isinf(expected):
        assert got == expected
    else:
        assert got == pytest.approx(expected, rel=rel, abs=0.0)


# ---------------------------------------------------------------------------
# parity of the real path with the complex reference


@pytest.mark.parametrize("name", sorted(REAL_SYSTEMS))
def test_frame_report_and_basis_metrics_match_the_complex_reference(name, complex_reference):
    system = REAL_SYSTEMS[name]()
    report = fk.frame_report(system)
    expected = complex_reference(fk.frame_report, system)
    assert_close(report.lower_bound, expected.lower_bound)
    assert_close(report.upper_bound, expected.upper_bound)
    assert (report.min_norm, report.max_norm) == (expected.min_norm, expected.max_norm)
    assert (report.is_tight, report.is_spanning) == (expected.is_tight, expected.is_spanning)

    metrics = fk.basis_metrics(system)
    ref = complex_reference(fk.basis_metrics, system)
    assert len(metrics.singular_values) == len(ref.singular_values)
    for got, want in zip(metrics.singular_values, ref.singular_values):
        assert_close(got, want)
    assert_close(metrics.riesz, ref.riesz)
    assert_close(metrics.hilbertian, ref.hilbertian)
    assert_close(metrics.besselian, ref.besselian)
    # the bound of test_metrics.assert_schauder_parity
    svals = np.linalg.svd(system.columns, compute_uv=False)
    bound = max(1e-14, svals[0] / svals[-1] * 1e-14)
    assert_close(metrics.schauder, ref.schauder, rel=bound)
    assert_close(metrics.separation, ref.separation, rel=bound)


@pytest.mark.parametrize("canonical", [False, True])
@pytest.mark.parametrize("name", sorted(REAL_SYSTEMS))
def test_verifications_match_the_complex_reference(name, canonical, complex_reference):
    system = REAL_SYSTEMS[name]()
    checks = _run_verifications(system, canonical)
    expected = complex_reference(_run_verifications, system, canonical)
    assert [(c["name"], c["ok"]) for c in checks] == [(c["name"], c["ok"]) for c in expected]
    values = {c["name"]: c["value"] for c in checks}
    ref_values = {c["name"]: c["value"] for c in expected}
    for slack in ("dimension_slack", "cardinality_slack"):
        assert_close(values[slack], ref_values[slack])
    for residual in ("dual_reconstruction", "dual_energy_identity"):
        assert values[residual] <= VERIFY_TOLERANCE
        assert ref_values[residual] <= VERIFY_TOLERANCE


@pytest.mark.parametrize("name", sorted(COMPLEX_SYSTEMS))
def test_complex_systems_are_bit_identical_to_the_reference(name, complex_reference):
    system = COMPLEX_SYSTEMS[name]()
    assert fk.frame_report(system) == complex_reference(fk.frame_report, system)
    assert fk.basis_metrics(system) == complex_reference(fk.basis_metrics, system)
    for canonical in (False, True):
        assert _run_verifications(system, canonical) == complex_reference(
            _run_verifications, system, canonical
        )


# ---------------------------------------------------------------------------
# which arithmetic reaches LAPACK


def run_all_kernels(system):
    _run_verifications(system, False)
    _run_verifications(system, True)
    fk.basis_metrics(system)


def test_real_gallery_system_reaches_lapack_as_float64(factorization_dtypes):
    system = prop53_165x332()
    factorization_dtypes.clear()  # building the system factors its blocks
    run_all_kernels(system)
    assert factorization_dtypes
    assert set(factorization_dtypes) == {np.dtype(np.float64)}


def test_complex_reference_reaches_lapack_as_complex128(factorization_dtypes, complex_reference):
    system = prop53_165x332()
    factorization_dtypes.clear()
    complex_reference(run_all_kernels, system)
    assert set(factorization_dtypes) == {np.dtype(np.complex128)}


def test_random_frame_reaches_lapack_as_complex128(factorization_dtypes):
    system = fk.random_frame(6, 12, 1)
    factorization_dtypes.clear()
    run_all_kernels(system)
    fk.basis_metrics(system.subsystem(range(5)))  # tall: QR and SVD of R
    assert factorization_dtypes
    assert set(factorization_dtypes) == {np.dtype(np.complex128)}


def test_negative_zero_imaginary_parts_take_the_real_path(factorization_dtypes):
    cols = fk.weighted_exponentials(0.25, 8, -1).columns.copy()
    cols.imag[...] = -0.0
    system = fk.VectorSystem(cols)
    assert np.signbit(system.columns.imag).all()
    factorization_dtypes.clear()
    run_all_kernels(system)
    assert set(factorization_dtypes) == {np.dtype(np.float64)}
    assert fk.frame_operator(system).dtype == np.float64


def test_one_tiny_imaginary_part_stays_complex(factorization_dtypes):
    cols = fk.weighted_exponentials(0.25, 8, -1).columns.copy()
    cols[3, 5] += 1e-300j
    system = fk.VectorSystem(cols)
    factorization_dtypes.clear()
    run_all_kernels(system)
    assert set(factorization_dtypes) == {np.dtype(np.complex128)}
    assert fk.frame_operator(system).dtype == np.complex128


# ---------------------------------------------------------------------------
# public arrays keep their dtype


def test_flat_vectors_and_transformed_systems_stay_complex128():
    system, flat_basis, _ = fk.build_lemma52_block(2, 0.5)
    assert flat_basis.dtype == np.complex128
    assert fk.find_flat_vector(system, 1.0).dtype == np.complex128
    _, blocks = fk.build_prop53_truncation(2, [0.2, 0.2])
    assert all(block.flat_subspace.dtype == np.complex128 for block in blocks)
    assert fk.power_transform(system, 0.0).columns.dtype == np.complex128

"""Real systems are factored in real arithmetic.

A system whose columns have no nonzero imaginary part reaches LAPACK as
float64: core.frame_operator, core._apply_power and metrics._factor pass its
columns through core._arithmetic.  Any other system runs the complex128 path
unchanged.  The reference below runs the same numpy calls on the complex128
matrices, by making that dispatch the identity.

Greedy selection ranks the candidates of a real pool (core._is_real) in
float64 and certifies each pick with eigvalsh of the complex128 Gram rows.
Its reference ranks in complex128 with the ranking code as it was before.
"""
import math

import numpy as np
import pytest
from conftest import FACTORIZATIONS

import framekit as fk
import framekit.metrics
from framekit import selection
from framekit.cli import VERIFY_TOLERANCE, _run_verifications
from framekit.core import _is_real
from framekit.gallery import GALLERY_KINDS
from framekit.selection import greedy_order


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


# ---------------------------------------------------------------------------
# greedy ranking of a real pool


def complex_bordered_min_eigs(rows, chosen, candidates, diag, scale):
    """selection._bordered_min_eigs as it was before real ranking and the 2x2
    Newton start: it ranks in the complex128 rows and starts Newton at
    min(mu_0, g_jj) - |z|.  Test-only parity reference."""
    d = diag[candidates]
    if not chosen:
        return d
    mu, u = np.linalg.eigh(rows[:, chosen])
    hi = np.minimum(mu[0], d)
    if mu[0] <= 0.5 * selection.TIE_RTOL * scale:
        return hi
    tol = 4.0 * np.finfo(float).eps * scale
    z = u.conj().T @ rows[:, candidates]
    w = np.real(z * z.conj())
    lam = hi - np.sqrt(w.sum(axis=0))
    active = np.flatnonzero(hi - lam > tol)
    while active.size:
        x = lam[active]
        inv = 1.0 / (mu[:, None] - x)
        terms = w[:, active] * inv
        f = d[active] - x - terms.sum(axis=0)
        df = -1.0 - (terms * inv).sum(axis=0)
        gap = mu[0] - x
        step = gap * f / (f - gap * df)
        lam[active] = np.minimum(x + step, hi[active])
        active = active[(f > 0.0) & (step > tol) & (hi[active] - lam[active] > tol)]
    return lam


@pytest.fixture
def complex_ranking(monkeypatch):
    """Call fn(*args) with every pool ranked by complex_bordered_min_eigs in complex128."""

    def run(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(selection, "_is_real", lambda array: False)
            patch.setattr(selection, "_bordered_min_eigs", complex_bordered_min_eigs)
            return fn(*args)

    return run


RANKING_SYSTEMS = {
    **REAL_SYSTEMS,
    "duplicated": lambda: fk.duplicated(10),
    "duplicated-double": lambda: fk.duplicated(8, True),
    "lemma51-40": lambda: fk.lemma51(40),
}


def test_ranking_systems_cover_every_real_gallery_kind():
    kinds = {next(kind for kind in GALLERY_KINDS if name.startswith(kind))
             for name in RANKING_SYSTEMS}
    assert kinds == set(GALLERY_KINDS) - {"randomFrame"}


@pytest.mark.parametrize("name", sorted(RANKING_SYSTEMS))
def test_real_ranking_matches_the_complex_ranking(name, complex_ranking):
    system = RANKING_SYSTEMS[name]()
    g = system.gram()
    assert _is_real(g)
    # a few picks past the rank, where the chosen block turns singular
    limit = min(system.count, system.dim + 4)
    assert greedy_order(g, limit) == complex_ranking(greedy_order, g, limit)
    for k in sorted({1, min(8, system.count), min(system.count // 2, 40)}):
        got = fk.select_greedy(system, k).subset
        assert got == complex_ranking(fk.select_greedy, system, k).subset, k


@pytest.fixture
def eigen_dtypes(monkeypatch):
    """Operand dtype of every np.linalg.eigh and np.linalg.eigvalsh call, by name."""
    dtypes = {"eigh": [], "eigvalsh": []}
    for name, seen in dtypes.items():
        def recorded(a, *args, _original=getattr(np.linalg, name), _seen=seen, **kwargs):
            _seen.append(np.asarray(a).dtype)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return dtypes


def run_greedy(system):
    greedy_order(system.gram(), min(system.count, 40))
    fk.select_greedy(system, min(8, system.count))


def test_real_pool_is_ranked_in_float64_and_certified_in_complex128(eigen_dtypes):
    system = prop53_165x332()
    for seen in eigen_dtypes.values():
        seen.clear()
    run_greedy(system)
    assert eigen_dtypes["eigh"] and eigen_dtypes["eigvalsh"]
    assert set(eigen_dtypes["eigh"]) == {np.dtype(np.float64)}
    assert set(eigen_dtypes["eigvalsh"]) == {np.dtype(np.complex128)}


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: fk.random_frame(16, 40, 1), id="randomFrame"),
        pytest.param(lambda: one_tiny_imaginary_part(fk.lemma51(12)), id="lemma51-1e-300j"),
    ],
)
def test_complex_pool_is_ranked_and_certified_in_complex128(build, eigen_dtypes):
    system = build()
    for seen in eigen_dtypes.values():
        seen.clear()
    run_greedy(system)
    assert eigen_dtypes["eigh"] and eigen_dtypes["eigvalsh"]
    assert set(eigen_dtypes["eigh"]) == {np.dtype(np.complex128)}
    assert set(eigen_dtypes["eigvalsh"]) == {np.dtype(np.complex128)}


def one_tiny_imaginary_part(system):
    cols = system.columns.copy()
    cols[3, 5] += 1e-300j
    return fk.VectorSystem(cols)

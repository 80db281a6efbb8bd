import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import framekit as fk
from framekit import core, metrics
from framekit.errors import CountMismatch, TooFewVectors
from framekit.metrics import RANK_RTOL, _operator_norm, _rank

DELTA = 0.1


def near_parallel_pair():
    # {e_1, e_1 + delta e_2}: all constants have 2x2 closed forms
    return fk.VectorSystem(np.array([[1.0, 1.0], [0.0, DELTA]], dtype=complex))


def pair_gram_eigenvalues():
    # eigenvalues of [[1, 1], [1, 1 + delta^2]] by the quadratic formula
    tr = 2.0 + DELTA**2
    det = DELTA**2
    disc = math.sqrt(tr**2 - 4.0 * det)
    return (tr - disc) / 2.0, (tr + disc) / 2.0


def random_system(seed, dim_hi=5, count_hi=6):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, dim_hi))
    m = int(rng.integers(1, count_hi))
    return fk.VectorSystem(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))


# ---------------------------------------------------------------------------
# Riesz / Hilbertian / Besselian


def test_riesz_onb():
    assert fk.riesz_constant(fk.orthonormal(4)) == pytest.approx(1.0, abs=1e-12)


def test_riesz_near_parallel_pair_closed_form():
    lo, hi = pair_gram_eigenvalues()
    expected = max(math.sqrt(hi), 1.0 / math.sqrt(lo))
    assert fk.riesz_constant(near_parallel_pair()) == pytest.approx(expected, rel=1e-12)
    assert 13.5 <= expected <= 14.5  # close to sqrt(2) * 10 for delta = 1/10


def test_riesz_duplicated_is_infinite():
    assert fk.riesz_constant(fk.duplicated(3)) == math.inf


def test_hilbertian_besselian_onb():
    assert fk.hilbertian_besselian(fk.orthonormal(3)) == (
        pytest.approx(1.0),
        pytest.approx(1.0),
    )


def test_hilbertian_lemma51():
    hilbertian, besselian = fk.hilbertian_besselian(fk.lemma51(10))
    assert hilbertian == pytest.approx(1.0, abs=1e-9)  # tight frame, S = I
    assert besselian == math.inf  # 11 vectors in dim 10


def test_hilbertian_grows_with_size_for_singular_weight():
    small = fk.weighted_exponentials(0.25, 16, "-")
    large = fk.weighted_exponentials(0.25, 64, "-")
    assert fk.hilbertian_besselian(large)[0] > fk.hilbertian_besselian(small)[0]


@given(st.integers(0, 10_000))
def test_riesz_is_max_of_parts(seed):
    vs = random_system(seed)
    hilbertian, besselian = fk.hilbertian_besselian(vs)
    assert fk.riesz_constant(vs) == max(hilbertian, besselian)


def test_riesz_invariant_under_unitary_and_permutation(rng):
    vs = random_system(77, dim_hi=5, count_hi=5)
    g = rng.standard_normal((vs.dim, vs.dim)) + 1j * rng.standard_normal((vs.dim, vs.dim))
    q, _ = np.linalg.qr(g)
    rotated = fk.VectorSystem(q @ vs.columns)
    perm = rng.permutation(vs.count)
    shuffled = vs.subsystem(perm)
    base = fk.riesz_constant(vs)
    assert fk.riesz_constant(rotated) == pytest.approx(base, rel=1e-9)
    assert fk.riesz_constant(shuffled) == pytest.approx(base, rel=1e-9)


# ---------------------------------------------------------------------------
# Schauder basis constant


def test_schauder_onb_any_order():
    vs = fk.orthonormal(4)
    assert fk.schauder_basis_constant(vs) == pytest.approx(1.0, abs=1e-12)
    assert fk.schauder_basis_constant(vs, [2, 0, 3, 1]) == pytest.approx(1.0, abs=1e-12)


def test_schauder_near_parallel_pair_closed_form():
    # prefix projection norm sqrt(1 + 1/delta^2)
    expected = math.sqrt(1.0 + 1.0 / DELTA**2)
    assert fk.schauder_basis_constant(near_parallel_pair()) == pytest.approx(
        expected, rel=1e-10
    )


def test_schauder_dependent_is_infinite():
    assert fk.schauder_basis_constant(fk.duplicated(2)) == math.inf


def test_schauder_lemma51_prefix_subsets():
    # dropping one mean-centered vector from the flat tight frame leaves a
    # spanning basis whose natural-order constant grows like sqrt(n)/4
    n = 12
    vs = fk.lemma51(n)
    keep = [i for i in range(n + 1) if i != 0]
    constant = fk.schauder_basis_constant(vs.subsystem(keep))
    assert constant >= math.sqrt(n - 2) / 4.0


def test_schauder_is_order_dependent():
    vs = fk.weighted_exponentials(0.25, 2, "-")
    orders = [
        list(range(5)),
        [4, 3, 2, 1, 0],
        [2, 0, 4, 1, 3],
        [1, 4, 0, 3, 2],
        [3, 1, 4, 2, 0],
    ]
    values = [fk.schauder_basis_constant(vs, order) for order in orders]
    assert max(values) - min(values) > 1e-9


def test_schauder_rejects_non_permutation():
    with pytest.raises(CountMismatch):
        fk.schauder_basis_constant(fk.orthonormal(3), [0, 0, 1])


@pytest.mark.parametrize("order", [[True, False], [1.0, 0.0]], ids=["bools", "floats"])
@pytest.mark.parametrize("routine", [fk.schauder_basis_constant, fk.basis_metrics])
def test_order_rejects_entries_that_are_not_integers(routine, order):
    # [True, False] sorts like [0, 1] but numpy reads it as a mask of one vector
    with pytest.raises(CountMismatch, match="order must be a permutation"):
        routine(fk.perturbed_pairs(1), order)


@pytest.mark.parametrize("routine", [fk.schauder_basis_constant, fk.basis_metrics])
def test_order_accepts_any_integer_sequence(routine):
    vs = fk.perturbed_pairs(1)
    reversed_order = routine(vs, [1, 0])
    assert routine(vs, np.array([1, 0])) == reversed_order
    assert routine(vs, (1, 0)) == reversed_order
    assert routine(vs, [np.int32(1), np.int64(0)]) == reversed_order
    assert routine(vs, range(2)) == routine(vs, None)


# ---------------------------------------------------------------------------
# separation


def test_separation_onb():
    assert fk.separation_constant(fk.orthonormal(3)) == pytest.approx(1.0, abs=1e-12)


def test_separation_duplicated_zero():
    assert fk.separation_constant(fk.duplicated(2)) == pytest.approx(0.0, abs=1e-12)


def test_separation_near_parallel_pair_closed_form():
    expected = DELTA / math.sqrt(1.0 + DELTA**2)
    assert fk.separation_constant(near_parallel_pair()) == pytest.approx(expected, rel=1e-10)


def test_separation_needs_two_vectors():
    with pytest.raises(TooFewVectors):
        fk.separation_constant(fk.VectorSystem(np.ones((2, 1))))


def test_separation_lower_bound_from_basis_constant():
    # normalized independent systems: separation >= 1 / (2 K)
    systems = [
        fk.orthonormal(5),
        fk.weighted_exponentials(0.25, 4, "-"),
        fk.weighted_exponentials(0.25, 4, "+"),
    ]
    pair = near_parallel_pair()
    systems.append(fk.VectorSystem(pair.columns / pair.norms()))
    for vs in systems:
        d = fk.separation_constant(vs)
        k = fk.schauder_basis_constant(vs)
        assert d >= 1.0 / (2.0 * k) - 1e-9


@given(st.integers(0, 10_000))
def test_positive_separation_iff_finite_besselian(seed):
    vs = random_system(seed)
    if vs.count < 2:
        return
    d = fk.separation_constant(vs)
    _, besselian = fk.hilbertian_besselian(vs)
    assert (d > 1e-9) == (besselian < math.inf) or d <= 1e-9 and besselian > 1e6


# ---------------------------------------------------------------------------
# equivalence constant


def test_equivalence_identity():
    vs = random_system(5)
    assert fk.equivalence_constant(vs, vs) == pytest.approx(1.0, rel=1e-9)


def test_equivalence_uniform_scaling():
    onb = fk.orthonormal(3)
    doubled = fk.VectorSystem(2.0 * np.eye(3))
    assert fk.equivalence_constant(onb, doubled) == pytest.approx(2.0, rel=1e-12)


def test_equivalence_bounded_by_tight_transform():
    vs = fk.random_frame(4, 7, seed=9, cond=40.0)
    tight = fk.power_transform(vs, 0.0)
    lower, upper = fk.frame_bounds(vs)
    bound = max(math.sqrt(upper), 1.0 / math.sqrt(lower))
    assert fk.equivalence_constant(vs, tight) <= bound * (1.0 + 1e-9)


def test_equivalence_count_mismatch():
    with pytest.raises(CountMismatch):
        fk.equivalence_constant(fk.orthonormal(2), fk.orthonormal(3))


def test_equivalence_infinite_when_kernels_differ():
    dependent = fk.duplicated(2)  # kernel is nontrivial
    independent = fk.orthonormal(4)
    assert fk.equivalence_constant(dependent, independent) == math.inf


def test_equivalence_of_two_identically_zero_systems_is_one():
    zero = fk.VectorSystem(np.zeros((3, 2)))
    assert fk.equivalence_constant(zero, fk.VectorSystem(np.zeros((2, 2)))) == 1.0


def test_equivalence_shared_kernel_is_finite():
    dep = fk.duplicated(2)
    scaled = fk.VectorSystem(3.0 * dep.columns)
    assert fk.equivalence_constant(dep, scaled) == pytest.approx(3.0, rel=1e-9)


def test_equivalence_triangle_submultiplicative():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        shape = (3, 4)
        a, b, c = (
            fk.VectorSystem(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for _ in range(3)
        )
        kab = fk.equivalence_constant(a, b)
        kbc = fk.equivalence_constant(b, c)
        kac = fk.equivalence_constant(a, c)
        assert kab * kbc >= kac * (1.0 - 1e-9)


def rotated_system(kappa, seed):
    """Q1 diag(1, ..., 1/kappa) Q2 with random orthogonal 8x8 Q1, Q2."""
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((8, 8)))[0] for _ in range(2))
    return fk.VectorSystem(q1 @ np.diag(np.geomspace(1.0, 1.0 / kappa, 8)) @ q2)


@pytest.mark.parametrize("k", range(1, 12))
def test_equivalence_to_an_orthonormal_basis_is_the_riesz_constant(k):
    for seed in range(6):
        vs = rotated_system(10.0**k, seed)
        riesz = fk.riesz_constant(vs)
        assert fk.equivalence_constant(vs, fk.orthonormal(8)) == pytest.approx(riesz, rel=1e-6)


@pytest.mark.parametrize(
    "vs", [fk.duplicated(3), fk.random_frame(3, 5, seed=1)], ids=["duplicated", "wide"]
)
def test_equivalence_of_a_dependent_system_to_an_orthonormal_basis_is_infinite(vs):
    assert fk.riesz_constant(vs) == math.inf
    assert fk.equivalence_constant(vs, fk.orthonormal(vs.count)) == math.inf


def test_equivalence_is_symmetric():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n, m = (int(x) for x in rng.integers(1, 6, 2))
        a, b = (
            fk.VectorSystem(rng.standard_normal((n, m)) + seed % 2 * 1j * rng.standard_normal((n, m)))
            for _ in range(2)
        )
        kab = fk.equivalence_constant(a, b)
        kba = fk.equivalence_constant(b, a)
        if kab == math.inf:
            assert kba == math.inf
        else:
            assert kba == pytest.approx(kab, rel=1e-12)


@pytest.mark.parametrize("k", [-700, -530, 0, 530, 700])
@pytest.mark.parametrize("t", [3.0, 0.25])
@pytest.mark.parametrize(
    "vs", [fk.random_frame(4, 4, 3, 10.0), fk.duplicated(2)], ids=["basis", "duplicated"]
)
def test_equivalence_to_a_multiple_at_any_scale(vs, t, k):
    # the Grams of 2^-530 F underflow and those of 2^530 F overflow; the columns do not
    scaled = fk.VectorSystem(2.0**k * vs.columns)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = fk.equivalence_constant(scaled, fk.VectorSystem(t * scaled.columns))
    assert value == pytest.approx(max(t, 1.0 / t), rel=1e-12)


@pytest.mark.parametrize("k", [700, -700])
def test_equivalence_past_the_double_range_is_infinite(k):
    # K(2^k F, 2^-k F) = 2^(2|k|) for a basis F, in either order
    basis = fk.random_frame(4, 4, 3, 10.0).columns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = fk.equivalence_constant(
            fk.VectorSystem(2.0**k * basis), fk.VectorSystem(2.0**-k * basis)
        )
    assert value == math.inf


def test_equivalence_forms_no_gram_and_calls_no_generalized_eigensolver(monkeypatch):
    tight_source = fk.random_frame(4, 7, seed=9, cond=40.0)
    dep = fk.duplicated(2)
    pairs = [
        (random_system(5), random_system(5)),
        (fk.orthonormal(3), fk.VectorSystem(2.0 * np.eye(3))),
        (tight_source, fk.power_transform(tight_source, 0.0)),
        (dep, fk.orthonormal(4)),
        (dep, fk.VectorSystem(3.0 * dep.columns)),
    ]
    expected = [fk.equivalence_constant(a, b) for a, b in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("a Gram matrix or a Gram pencil was formed")

    monkeypatch.setattr(core, "gram", refuse)
    monkeypatch.setattr(metrics, "gram", refuse)
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    assert [fk.equivalence_constant(a, b) for a, b in pairs] == expected


# ---------------------------------------------------------------------------
# sampling oracle: dense real-sphere search brackets the spectral constants


def test_sampling_oracle_brackets_spectral_constants():
    rng = np.random.default_rng(2024)
    for _ in range(4):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        cols = rng.standard_normal((n, m))
        vs = fk.VectorSystem(cols)
        hilbertian, besselian = fk.hilbertian_besselian(vs)
        if not math.isfinite(besselian):
            continue
        samples = rng.standard_normal((m, 200_000))
        samples /= np.linalg.norm(samples, axis=0)
        norms = np.linalg.norm(cols @ samples, axis=0)
        sampled_max, sampled_min = float(norms.max()), float(norms.min())
        assert sampled_max <= hilbertian * (1 + 1e-12)
        assert sampled_max >= 0.98 * hilbertian
        assert 1.0 / sampled_min >= besselian * 0.98 - 1e-12
        assert 1.0 / sampled_min <= besselian * 1.02 / 0.98


def test_metrics_aggregate_fields():
    vs = near_parallel_pair()
    metrics = fk.basis_metrics(vs)
    assert metrics.riesz == max(metrics.hilbertian, metrics.besselian)
    assert metrics.schauder >= 1.0
    assert len(metrics.singular_values) == min(vs.dim, vs.count)
    assert all(
        metrics.singular_values[i] >= metrics.singular_values[i + 1]
        for i in range(len(metrics.singular_values) - 1)
    )


def test_metrics_single_vector_separation_is_norm():
    vs = fk.VectorSystem(np.array([[3.0], [4.0]], dtype=complex))
    metrics = fk.basis_metrics(vs)
    assert metrics.separation == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# parity with the per-vector reference kernels the QR kernels replaced


def reference_separation(system):
    # one SVD of the other m - 1 columns per vector
    m = system.count
    best = math.inf
    for j in range(m):
        others = np.delete(system.columns, j, axis=1)
        u, svals, _ = np.linalg.svd(others, full_matrices=False)
        r = _rank(svals)
        f_j = system.columns[:, j]
        resid = f_j - u[:, :r] @ (u[:, :r].conj().T @ f_j)
        best = min(best, float(np.linalg.norm(resid)))
    return best


def reference_schauder(system, order=None):
    # pseudoinverse functionals and an n x n prefix projector per prefix
    m = system.count
    order = list(range(m)) if order is None else list(order)
    cols = system.columns[:, order]
    svals = np.linalg.svd(cols, compute_uv=False)
    if _rank(svals) < m:
        return math.inf
    if m == 1:
        return 1.0
    functionals = np.linalg.pinv(cols, rcond=RANK_RTOL)
    constant = 1.0
    for p in range(1, m):
        prefix_map = cols[:, :p] @ functionals[:p, :]
        constant = max(constant, float(np.linalg.norm(prefix_map, 2)))
    return constant


def assert_separation_parity(vs, expected):
    # independent columns: both kernels carry a relative error of order
    # kappa * eps; dependent ones (rank test on svd(cols)) read exactly 0 now
    svals = np.linalg.svd(vs.columns, compute_uv=False)
    got = fk.separation_constant(vs)
    if _rank(svals) < vs.count:
        assert got == 0.0
        assert expected <= math.sqrt(vs.count) * RANK_RTOL * svals[0]
    else:
        kappa = svals[0] / svals[-1]
        assert got == pytest.approx(expected, rel=max(1e-9, kappa * 1e-14))


def assert_schauder_parity(vs, order=None):
    expected = reference_schauder(vs, order)
    got = fk.schauder_basis_constant(vs, order)
    if math.isinf(expected) or math.isinf(got):
        assert got == expected
        return
    svals = np.linalg.svd(vs.columns, compute_uv=False)
    assert got == pytest.approx(expected, rel=max(1e-14, svals[0] / svals[-1] * 1e-14))


@given(st.integers(0, 10_000))
def test_separation_and_schauder_match_reference_on_random_systems(seed):
    vs = random_system(seed)
    if vs.count >= 2:
        assert_separation_parity(vs, reference_separation(vs))
    assert_schauder_parity(vs)
    assert_schauder_parity(vs, np.random.default_rng(seed).permutation(vs.count))


@pytest.mark.parametrize(
    "make",
    [
        lambda: fk.perturbed_pairs(80),
        lambda: fk.weighted_exponentials(0.25, 64, 1),
        lambda: fk.weighted_exponentials(0.25, 64, -1),
        lambda: fk.lemma52_block(3, 0.1),
        lambda: fk.random_frame(24, 24, 5, 1e20),  # synthesis condition number 1e10
    ],
    ids=[
        "perturbed_pairs",
        "weighted_exponentials+",
        "weighted_exponentials-",
        "lemma52_block",
        "random_frame_kappa_1e10",
    ],
)
def test_separation_and_schauder_match_reference_on_gallery(make):
    vs = make()
    assert_separation_parity(vs, reference_separation(vs))
    assert_schauder_parity(vs)
    assert_schauder_parity(vs, np.random.default_rng(vs.count).permutation(vs.count))


@pytest.mark.parametrize("noise_exponent", range(4, 17))
def test_separation_and_schauder_match_reference_near_dependence(noise_exponent):
    # last column = combination of the others + noise of size 10^-k, which
    # walks the condition number across the RANK_RTOL threshold
    rng = np.random.default_rng(noise_exponent)
    cols = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    coef = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    noise = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    cols[:, 3] = cols[:, :3] @ coef + 10.0**-noise_exponent * noise / np.linalg.norm(noise)
    vs = fk.VectorSystem(cols)
    assert_separation_parity(vs, reference_separation(vs))
    assert_schauder_parity(vs)
    assert_schauder_parity(vs, rng.permutation(4))


def test_separation_count_above_dim_needs_no_per_vector_factorization(
    factorization_shapes,
):
    vs = fk.prop53_truncation(2, [0.2, 0.2])
    assert vs.count > vs.dim
    factorization_shapes.clear()  # building the system factors its blocks
    assert fk.separation_constant(vs) == 0.0
    assert len(factorization_shapes) <= 1


@pytest.mark.parametrize("shape", [(12, 5), (5, 9)])
def test_basis_metrics_factors_the_columns_once(factorization_shapes, shape):
    rng = np.random.default_rng(3)
    vs = fk.VectorSystem(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    factorization_shapes.clear()
    fk.basis_metrics(vs, order=rng.permutation(vs.count))
    assert factorization_shapes.count(shape) == 1


# ---------------------------------------------------------------------------
# the one operator-norm kernel and the one triangular inverse per basis


def _norm_inputs():
    rng = np.random.default_rng(7)

    def cplx(n, m):
        return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))

    return {
        "tall-complex": cplx(9, 4),
        "wide-complex": cplx(4, 9),
        "square-complex": cplx(6, 6),
        "tall-real": rng.standard_normal((8, 3)),
        "wide-real": rng.standard_normal((3, 8)),
        "rank2-complex": cplx(7, 2) @ cplx(2, 5),
        "rank1-real": np.outer(rng.standard_normal(6), rng.standard_normal(4)),
        "1x1-complex": np.array([[3.0 - 4.0j]]),
        "1x1-real": np.array([[-2.5]]),
    }


@pytest.mark.parametrize("name", sorted(_norm_inputs()))
def test_operator_norm_matches_svd_norm(name):
    mat = _norm_inputs()[name]
    assert _operator_norm(mat) == pytest.approx(np.linalg.norm(mat, 2), rel=1e-14)


@pytest.mark.parametrize("dtype", [float, complex])
def test_operator_norm_of_zero_is_exactly_zero(dtype):
    assert _operator_norm(np.zeros((5, 3), dtype=dtype)) == 0.0


@pytest.mark.parametrize("routine", [fk.basis_metrics, fk.schauder_basis_constant])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_basis_takes_one_triangular_inverse_and_one_eigvalsh_per_prefix(monkeypatch, routine, real):
    # np.linalg.norm(x, 2) runs its SVD inside numpy, out of reach of the
    # conftest patches, so count by routine name here
    m = 7
    cols = fk.random_frame(m, m, 4, 1e4).columns
    vs = fk.VectorSystem(cols.real if real else cols)
    calls = []
    for module, name in [(np.linalg, "inv"), (np.linalg, "eigvalsh")]:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    routine(vs, order=np.random.default_rng(m).permutation(m))
    assert calls.count("inv") == 1
    assert calls.count("eigvalsh") == m - 1


# the R of each independent basis that the analyze-bases benchmark analyzes
ANALYZE_BASES = {
    "perturbedPairs n=80": lambda: fk.perturbed_pairs(80),
    "weightedExponentials sign=+1": lambda: fk.weighted_exponentials(0.25, 64, 1),
    "weightedExponentials sign=-1": lambda: fk.weighted_exponentials(0.25, 64, -1),
    "lemma52Block k=3": lambda: fk.lemma52_block(3, 0.1),
}


def _random_columns(m, real):
    rng = np.random.default_rng(m)
    cols = rng.standard_normal((m + 3, m))
    return cols if real else cols + 1j * rng.standard_normal((m + 3, m))


def assert_inverse_matches_triangular_solve(r):
    r_inv = metrics._separation(r)[1]
    reference = scipy.linalg.solve_triangular(r, np.eye(r.shape[0], dtype=r.dtype))
    assert r_inv.dtype == reference.dtype == r.dtype
    assert r_inv.flags.f_contiguous and reference.flags.f_contiguous
    # every bit on and above the diagonal.  Below it both are zero, but the
    # imaginary part of a complex zero may differ in sign there, which neither
    # the row norms nor the Schauder blocks R[:p, :p] (R^-1)[:p, p:] read
    assert np.triu(r_inv).tobytes("F") == np.triu(reference).tobytes("F")
    assert not np.tril(r_inv, -1).any() and not np.tril(reference, -1).any()


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_inverse_matches_the_triangular_solve_on_random_factors(m, real):
    r = metrics._factor(_random_columns(m, real))[1]
    assert r.shape == (m, m) and r.dtype == (float if real else complex)
    assert_inverse_matches_triangular_solve(r)


@pytest.mark.parametrize("name", sorted(ANALYZE_BASES))
def test_inverse_matches_the_triangular_solve_on_the_analyzed_bases(name):
    r = metrics._factor(ANALYZE_BASES[name]().columns)[1]
    assert r is not None
    assert_inverse_matches_triangular_solve(r)

import json

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given
from hypothesis import strategies as st

import framekit as fk
from framekit import serialization as ser
from framekit.errors import (
    BadParameter,
    DimensionMismatch,
    NotSpanning,
    ZeroNorm,
)


def two_column_system():
    # (2 e_1, e_2) in C^2
    return fk.VectorSystem(np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex))


def small_random_system(seed, dim=None, count=None):
    rng = np.random.default_rng(seed)
    n = dim or int(rng.integers(2, 5))
    m = count or int(rng.integers(1, 6))
    cols = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return fk.VectorSystem(cols)


# ---------------------------------------------------------------------------
# VectorSystem invariants


def test_system_rejects_nonfinite():
    with pytest.raises(BadParameter):
        fk.VectorSystem(np.array([[np.nan, 1.0]]))
    with pytest.raises(BadParameter):
        fk.VectorSystem(np.array([[np.inf], [0.0]]))


def test_system_rejects_bad_labels():
    with pytest.raises(BadParameter):
        fk.VectorSystem(np.eye(2), labels=("a",))
    with pytest.raises(BadParameter):
        fk.VectorSystem(np.eye(2), labels=("a", "a"))


@pytest.mark.parametrize(
    "cols, message",
    [
        (np.ones(3), "2-d array, got ndim=1"),
        (np.ones((1, 2, 2)), "2-d array, got ndim=3"),
        (np.ones((0, 3)), "got 0x3"),
        (np.ones((2, 0)), "got 2x0"),
    ],
    ids=["1-d", "3-d", "no-rows", "no-columns"],
)
def test_system_rejects_a_shape_that_is_not_a_nonempty_matrix(cols, message):
    with pytest.raises(BadParameter, match=message):
        fk.VectorSystem(cols)


def test_system_columns_are_read_only():
    vs = fk.orthonormal(3)
    with pytest.raises(ValueError):
        vs.columns[0, 0] = 5.0


GALLERY_SPECS = {
    "orthonormal": {"n": 5},
    "lemma51": {"n": 6},
    "duplicated": {"n": 4, "doubleAmbient": True},
    "perturbedPairs": {"n": 7},
    "weightedExponentials": {"a": 0.25, "N": 5, "sign": -1},
    "lemma52Block": {"k": 2, "eps": 0.3},
    "prop53Truncation": {"M": 2, "epsilons": [0.2, 0.2]},
    "randomFrame": {"n": 9, "m": 17, "seed": 3},
}


def test_gallery_specs_cover_every_gallery_kind():
    assert sorted(GALLERY_SPECS) == sorted(fk.GALLERY_KINDS)


def gallery_system(kind):
    return fk.generate(fk.GallerySpec(kind, GALLERY_SPECS[kind]))


def norm_cases():
    """Gallery systems, then complex, real-valued and badly scaled ones at the row-block edges."""
    rng = np.random.default_rng(29)
    cases = {kind: gallery_system(kind).columns for kind in GALLERY_SPECS}
    for dim in (1, 2, 63, 64, 65, 129):
        for count in (1, 5, 65, 130):
            cases[f"complex {dim}x{count}"] = (
                rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
            )
            cases[f"real {dim}x{count}"] = rng.standard_normal((dim, count)) + 0j
            scales = 10.0 ** rng.integers(-150, 150, size=(dim, count))
            cases[f"scaled {dim}x{count}"] = scales * np.exp(2j * np.pi * rng.random((dim, count)))
    return cases


NORM_CASES = norm_cases()


@pytest.mark.parametrize("name", NORM_CASES)
def test_norms_are_the_bits_of_linalg_norm(name):
    system = fk.VectorSystem(NORM_CASES[name])
    assert np.array_equal(system.norms(), np.linalg.norm(system.columns, axis=0))


def test_norms_hold_half_the_columns_at_most():
    rng = np.random.default_rng(3)
    system = fk.VectorSystem(rng.standard_normal((1024, 512)) + 1j * rng.standard_normal((1024, 512)))
    # one real buffer of squared moduli, and row blocks of 64 x 512 entries (0.5 MiB each)
    assert traced_peak(system.norms) <= system.columns.nbytes // 2 + 2**21


@pytest.mark.parametrize("seed", range(6))
def test_analysis_is_the_bits_of_the_conjugate_transpose_product(seed):
    rng = np.random.default_rng(seed)
    dim, count = int(rng.integers(1, 70)), int(rng.integers(1, 140))
    system = small_random_system(seed, dim, count)
    for vec in (rng.standard_normal(dim) + 1j * rng.standard_normal(dim), rng.standard_normal(dim)):
        expected = system.columns.conj().T @ vec.astype(complex)
        assert np.array_equal(fk.analysis_apply(system, vec).view(np.uint64), expected.view(np.uint64))


def test_analysis_copies_no_columns():
    system = small_random_system(4, 512, 512)  # 4 MiB of columns
    vec = np.ones(512, dtype=complex)
    assert traced_peak(lambda: fk.analysis_apply(system, vec)) <= 2**16


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [complex, float])
def test_system_copies_the_callers_array(order, dtype):
    arr = np.asarray(np.arange(12.0).reshape(3, 4) + (1j if dtype is complex else 0), order=order)
    before = arr.copy()
    system = fk.VectorSystem(arr)
    assert not np.shares_memory(system.columns, arr)
    assert arr.flags.writeable
    arr[0, 0] = 99.0
    assert np.array_equal(system.columns, before)


def owned(columns):
    return (
        columns.dtype == np.complex128
        and columns.flags.c_contiguous
        and not columns.flags.writeable
    )


@pytest.mark.parametrize("kind", GALLERY_SPECS)
def test_built_and_loaded_systems_own_frozen_columns(kind, tmp_path):
    system = gallery_system(kind)
    assert owned(system.columns)
    ser.save_system(system, tmp_path / "system.json")
    fast = ser.load_system(tmp_path / "system.json")
    general = ser.system_from_json(json.loads((tmp_path / "system.json").read_text()))
    for back in (fast, general):
        assert owned(back.columns)
        assert not np.shares_memory(back.columns, system.columns)
    assert not np.shares_memory(fast.columns, general.columns)


def test_assembled_and_truncated_systems_share_memory_with_no_input():
    blocks = [fk.random_frame(3, 5, seed) for seed in range(3)]
    assembled = fk.assemble_block_system(blocks)
    assert owned(assembled.columns)
    assert not any(np.shares_memory(assembled.columns, b.columns) for b in blocks)
    for normalized in (True, False):
        system, layers = fk.build_prop53_truncation(2, [0.2, 0.2], normalized=normalized)
        assert owned(system.columns)
        assert not any(np.shares_memory(system.columns, layer.flat_subspace) for layer in layers)


@pytest.mark.parametrize("indices", [range(5), [4, 0, 2], [3], [-1, 1]], ids=str)
def test_subsystems_own_a_fresh_copy_of_the_picked_columns(indices):
    system = fk.VectorSystem(small_random_system(2, 3, 5).columns, tuple("abcde"))
    sub = system.subsystem(indices)
    assert owned(system.columns) and owned(sub.columns)
    assert not np.shares_memory(sub.columns, system.columns)
    expected = np.ascontiguousarray(system.columns[:, list(indices)])
    assert np.array_equal(sub.columns.view(np.uint64), expected.view(np.uint64))
    assert sub.labels == tuple(system.labels[i] for i in indices)


def test_subsystem_holds_one_copy_of_the_columns():
    system = fk.random_frame(512, 1024, 1)  # 8 MiB of columns
    # the picked columns once; a second copy of them would not fit
    assert traced_peak(lambda: system.subsystem(range(1024))) <= system.columns.nbytes + 2**21


# ---------------------------------------------------------------------------
# synthesis / analysis


def test_synthesis_identity_case():
    vs = fk.orthonormal(3)
    out = fk.synthesis_apply(vs, [1, 0, 0])
    np.testing.assert_allclose(out, np.array([1, 0, 0], dtype=complex))


def test_analysis_on_basis_vector():
    vs = fk.orthonormal(3)
    out = fk.analysis_apply(vs, np.array([0, 1, 0], dtype=complex))
    np.testing.assert_allclose(out, np.array([0, 1, 0], dtype=complex))


def test_analysis_direct_inner_products():
    out = fk.analysis_apply(two_column_system(), np.array([1, 0], dtype=complex))
    np.testing.assert_allclose(out, np.array([2, 0], dtype=complex))


def test_dimension_mismatch_errors():
    vs = fk.orthonormal(3)
    with pytest.raises(DimensionMismatch):
        fk.synthesis_apply(vs, [1, 0])
    with pytest.raises(DimensionMismatch):
        fk.analysis_apply(vs, [1, 0])


def test_canonical_dual_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(DimensionMismatch, match="expected a dim-3 vector, got 2"):
        fk.canonical_dual_reconstruct(fk.orthonormal(3), [1.0, 0.0])


@pytest.mark.parametrize("tolerance", [0.0, -1e-10, np.nan])
def test_frame_report_rejects_a_tolerance_that_is_not_positive(tolerance):
    # a NaN tolerance used to report a tight spanning frame as neither
    with pytest.raises(BadParameter, match="tolerance must be positive"):
        fk.frame_report(fk.lemma51(4), tolerance)


@given(st.integers(0, 10_000))
def test_adjointness(seed):
    # <synthesis(c), f> = <c, analysis(f)> with <x, y> linear in x
    vs = small_random_system(seed)
    rng = np.random.default_rng(seed + 1)
    c = rng.standard_normal(vs.count) + 1j * rng.standard_normal(vs.count)
    f = rng.standard_normal(vs.dim) + 1j * rng.standard_normal(vs.dim)
    lhs = np.vdot(f, fk.synthesis_apply(vs, c))
    rhs = np.vdot(fk.analysis_apply(vs, f), c)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# frame operator and report


def test_frame_operator_identity_for_onb():
    np.testing.assert_allclose(fk.frame_operator(fk.orthonormal(4)), np.eye(4), atol=1e-14)


def test_frame_operator_duplicated_onb():
    np.testing.assert_allclose(
        fk.frame_operator(fk.duplicated(2)), 2.0 * np.eye(2), atol=1e-14
    )


def test_frame_operator_scaled_columns():
    np.testing.assert_allclose(
        fk.frame_operator(two_column_system()), np.diag([4.0, 1.0]), atol=1e-14
    )


@given(st.integers(0, 10_000))
def test_frame_operator_hermitian_psd_trace(seed):
    vs = small_random_system(seed)
    s = fk.frame_operator(vs)
    np.testing.assert_allclose(s, s.conj().T, atol=1e-12)
    vals = np.linalg.eigvalsh(s)
    assert vals[0] >= -1e-12 * max(1.0, vals[-1])
    assert abs(np.trace(s).real - np.sum(vs.norms() ** 2)) < 1e-10 * max(
        1.0, np.sum(vs.norms() ** 2)
    )


def test_frame_report_onb():
    rep = fk.frame_report(fk.orthonormal(4))
    assert rep.lower_bound == pytest.approx(1.0, abs=1e-12)
    assert rep.upper_bound == pytest.approx(1.0, abs=1e-12)
    assert rep.min_norm == pytest.approx(1.0) and rep.max_norm == pytest.approx(1.0)
    assert rep.is_tight and rep.is_spanning


def test_frame_report_lemma51():
    rep = fk.frame_report(fk.lemma51(10))
    assert abs(rep.lower_bound - 1.0) < 1e-9
    assert abs(rep.upper_bound - 1.0) < 1e-9


def test_frame_report_duplicated():
    rep = fk.frame_report(fk.duplicated(2))
    assert rep.lower_bound == pytest.approx(2.0, abs=1e-12)
    assert rep.upper_bound == pytest.approx(2.0, abs=1e-12)


def test_frame_report_flags_consistent():
    for vs in (fk.orthonormal(3), fk.duplicated(4, double_ambient=True), two_column_system()):
        rep = fk.frame_report(vs)
        assert rep.lower_bound <= rep.upper_bound + 1e-15
        assert rep.min_norm <= rep.max_norm
        assert rep.is_spanning == (rep.lower_bound > rep.tolerance * rep.upper_bound)
        assert rep.is_tight == (
            rep.upper_bound - rep.lower_bound <= rep.tolerance * rep.upper_bound
        )


# ---------------------------------------------------------------------------
# power transform


def test_power_one_is_identity():
    vs = two_column_system()
    assert fk.power_transform(vs, 1.0) is vs


def test_power_zero_canonical_tight():
    out = fk.power_transform(two_column_system(), 0.0)
    np.testing.assert_allclose(out.columns, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(fk.frame_operator(out), np.eye(2), atol=1e-12)


def test_power_two_squares_operator():
    out = fk.power_transform(two_column_system(), 2.0)
    np.testing.assert_allclose(out.columns, np.diag([4.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(fk.frame_operator(out), np.diag([16.0, 1.0]), atol=1e-12)


def test_power_requires_spanning_for_negative():
    flat = fk.VectorSystem(np.array([[1.0], [0.0]], dtype=complex))
    with pytest.raises(NotSpanning):
        fk.power_transform(flat, 0.0)
    # nonnegative powers of S are fine without spanning
    out = fk.power_transform(flat, 3.0)
    assert out.dim == 2


@pytest.mark.parametrize("a", [-1.0, 0.0, 0.5, 2.0])
def test_power_matches_spectral_power(a):
    vs = fk.random_frame(6, 14, seed=7, cond=1e3)
    s = fk.frame_operator(vs)
    vals, vecs = np.linalg.eigh(s)
    target = (vecs * vals**a) @ vecs.conj().T
    got = fk.frame_operator(fk.power_transform(vs, a))
    rel = np.linalg.norm(got - target, 2) / np.linalg.norm(target, 2)
    assert rel < 1e-8


def test_power_composition():
    vs = fk.random_frame(5, 9, seed=11, cond=100.0)
    twice = fk.power_transform(fk.power_transform(vs, 0.5), 2.0)
    np.testing.assert_allclose(
        fk.frame_operator(twice), fk.frame_operator(vs), atol=1e-9
    )


def test_riesz_basis_becomes_orthonormal_at_power_zero():
    # a spanning system with m = n: the canonical tight transform orthonormalizes it
    rng = np.random.default_rng(3)
    vs = fk.VectorSystem(rng.standard_normal((4, 4)) + 0.1j * rng.standard_normal((4, 4)))
    out = fk.power_transform(vs, 0.0)
    np.testing.assert_allclose(out.gram(), np.eye(4), atol=1e-10)


# ---------------------------------------------------------------------------
# canonical dual reconstruction


def test_dual_on_onb():
    dual = fk.canonical_dual_reconstruct(fk.orthonormal(3), [1, 0, 0])
    np.testing.assert_allclose(dual.coefficients, [1, 0, 0], atol=1e-14)
    np.testing.assert_allclose(dual.reconstruction, [1, 0, 0], atol=1e-14)
    assert dual.parseval_scalar == pytest.approx(1.0, abs=1e-14)


def test_dual_on_duplicated():
    dual = fk.canonical_dual_reconstruct(fk.duplicated(2), [1, 0])
    np.testing.assert_allclose(dual.coefficients, [0.5, 0.5, 0, 0], atol=1e-14)
    assert dual.parseval_scalar == pytest.approx(0.5, abs=1e-14)


def test_dual_identity_on_lemma51(rng):
    vs = fk.lemma51(5)
    f = fk.core.random_unit_vector(5, rng)
    dual = fk.canonical_dual_reconstruct(vs, f)
    assert np.linalg.norm(dual.reconstruction - f) < 1e-9
    assert abs(dual.parseval_scalar - np.sum(np.abs(dual.coefficients) ** 2)) < 1e-9


def test_dual_requires_spanning():
    flat = fk.VectorSystem(np.array([[1.0], [0.0]], dtype=complex))
    with pytest.raises(NotSpanning):
        fk.canonical_dual_reconstruct(flat, [1, 0])


# ---------------------------------------------------------------------------
# counting inequalities


def test_counting_onb_equality():
    slacks = fk.check_counting_lemmas(fk.orthonormal(5))
    assert slacks.dimension_slack == pytest.approx(0.0, abs=1e-9)
    assert slacks.cardinality_slack == pytest.approx(0.0, abs=1e-9)


def test_counting_lemma51():
    vs = fk.lemma51(10)
    beta = float(vs.norms().max())
    slacks = fk.check_counting_lemmas(vs)
    rep = fk.frame_report(vs)
    expected = beta**2 / rep.lower_bound * 11 - 10
    assert slacks.dimension_slack == pytest.approx(expected, rel=1e-9)
    assert slacks.dimension_slack >= 0.0


def test_counting_duplicated_equality():
    slacks = fk.check_counting_lemmas(fk.duplicated(2))
    assert slacks.cardinality_slack == pytest.approx(0.0, abs=1e-9)


def test_counting_zero_norm():
    cols = np.eye(2, 3, dtype=complex)  # third column is zero
    with pytest.raises(ZeroNorm):
        fk.check_counting_lemmas(fk.VectorSystem(cols))


def test_counting_not_spanning():
    vs = fk.duplicated(2, double_ambient=True)
    with pytest.raises(NotSpanning):
        fk.check_counting_lemmas(vs)


# ---------------------------------------------------------------------------
# operator power spectral data


def test_operator_power_spectral_data():
    vs = fk.random_frame(5, 8, seed=2, cond=30.0)
    power = fk.OperatorPower.compute(vs)
    assert np.all(np.diff(power.eigenvalues) <= 1e-12)
    assert np.all(power.eigenvalues >= 0.0)
    np.testing.assert_allclose(power.matrix(1.0), fk.frame_operator(vs), atol=1e-10)


@pytest.mark.parametrize(
    "vs",
    [fk.lemma51(6), fk.random_frame(5, 9, seed=3, cond=50.0)],
    ids=["real", "complex"],
)
def test_one_factorization_gives_every_power(vs):
    p = fk.OperatorPower.compute(vs)
    np.testing.assert_allclose(p.matrix(-1.0) @ p.matrix(1.0), np.eye(vs.dim), atol=1e-10)
    np.testing.assert_allclose(p.matrix(-0.5) @ p.matrix(-0.5), p.matrix(-1.0), atol=1e-10)
    np.testing.assert_allclose(p.matrix(1.0), fk.frame_operator(vs), atol=1e-10)
    for e in (0.0, -1.0, 0.5):
        expected = p.matrix((e - 1) / 2) @ fk.core._arithmetic(vs.columns)
        got = fk.power_transform(vs, e).columns
        assert got.tobytes() == expected.astype(np.complex128).tobytes()


def test_negative_power_of_a_non_spanning_system_raises():
    p = fk.OperatorPower.compute(fk.duplicated(2, double_ambient=True))
    with pytest.raises(NotSpanning):
        p.matrix(-1.0)


def test_coverage_target_handles_float_dust():
    assert fk.coverage_target(10, 0.1) == 9
    assert fk.coverage_target(40, 0.25) == 30
    assert fk.coverage_target(80, 0.25) == 60
    assert fk.coverage_target(7, 0.5) == 4  # ceil(3.5)
    with pytest.raises(BadParameter):
        fk.coverage_target(10, 0.0)


def test_coverage_target_is_at_least_one_for_eps_near_one():
    # eps * 10 + 1e-9 floors to 10, yet (1 - eps) * 10 = 1e-9 still asks for one index
    assert fk.coverage_target(10, 0.9999999999) == 1
    assert fk.coverage_target(1, 0.9999999999) == 1


def test_frame_bounds_refuse_an_operator_past_the_largest_double():
    # 1e300 squares past the largest double, so S holds an inf
    system = fk.VectorSystem(np.array([[1e300, 0.0], [0.0, 1.0]]))
    with np.errstate(over="ignore"), pytest.raises(BadParameter, match="not a finite double"):
        fk.frame_report(system)
    with np.errstate(over="ignore"), pytest.raises(BadParameter, match="not a finite double"):
        fk.check_counting_lemmas(system)

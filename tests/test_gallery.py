import math

import numpy as np
import pytest

import framekit as fk
from framekit.errors import BadParameter, EmptyInput, NotFlat


# ---------------------------------------------------------------------------
# explicit small constructions


def test_lemma51_exact_columns():
    vs = fk.lemma51(3)
    np.testing.assert_allclose(vs.columns[:, 0], [2 / 3, -1 / 3, -1 / 3], atol=1e-15)
    np.testing.assert_allclose(
        vs.columns[:, 3], np.full(3, 1 / math.sqrt(3)), atol=1e-15
    )
    np.testing.assert_allclose(fk.frame_operator(vs), np.eye(3), atol=1e-12)


@pytest.mark.parametrize("n", [2, 25, 200])
def test_lemma51_identity_operator_and_trace(n):
    vs = fk.lemma51(n)
    np.testing.assert_allclose(fk.frame_operator(vs), np.eye(n), atol=1e-10)
    assert np.sum(vs.norms() ** 2) == pytest.approx(n, rel=1e-12)


def test_duplicated_embeddings():
    flat = fk.duplicated(2)
    assert (flat.dim, flat.count) == (2, 4)
    tall = fk.duplicated(2, double_ambient=True)
    assert (tall.dim, tall.count) == (4, 4)
    assert not fk.frame_report(tall).is_spanning


def test_duplicated_no_large_riesz_subset():
    # in the half-space embedding, every 3-element subset repeats a vector
    import itertools

    vs = fk.duplicated(2, double_ambient=True)
    for combo in itertools.combinations(range(4), 3):
        assert fk.riesz_constant(vs.subsystem(combo)) == math.inf


def test_perturbed_pairs_shape_and_separation():
    vs = fk.perturbed_pairs(10)
    assert (vs.dim, vs.count) == (20, 20)
    expected = 0.1 / math.sqrt(1.01)
    assert fk.separation_constant(vs) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("n", [5, 10, 20])
def test_perturbed_pairs_riesz_grows_linearly(n):
    assert fk.riesz_constant(fk.perturbed_pairs(n)) >= n


def test_perturbed_pairs_keeping_a_pair_is_bad():
    vs = fk.perturbed_pairs(10)
    sub = vs.subsystem([0, 1])
    assert fk.riesz_constant(sub) >= 14.0


# ---------------------------------------------------------------------------
# weighted exponentials


def test_gram_diagonal_closed_form():
    for a, sign in ((0.25, "-"), (0.25, "+"), (0.4, "-")):
        g = fk.weighted_exponential_gram(a, 3, sign)
        w = 2.0 * (1 if sign == "+" else -1) * a
        expected = 2.0 * math.pi ** (1.0 + w) / (1.0 + w)
        np.testing.assert_allclose(np.diag(g), expected, rtol=1e-10)


def test_gram_plain_exponentials():
    g = fk.weighted_exponential_gram(0.0, 5, "+")
    np.testing.assert_allclose(g, 2.0 * math.pi * np.eye(11), atol=1e-10)


def test_gram_hermitian_psd():
    g = fk.weighted_exponential_gram(0.3, 8, "-")
    np.testing.assert_allclose(g, g.T, atol=1e-14)
    assert np.linalg.eigvalsh(g)[0] > 0.0


def test_gram_parameter_validation():
    with pytest.raises(BadParameter):
        fk.weighted_exponential_gram(0.5, 4, "-")
    with pytest.raises(BadParameter):
        fk.weighted_exponential_gram(-0.1, 4, "-")
    with pytest.raises(BadParameter):
        fk.weighted_exponential_gram(0.25, 4, "x")


def test_weighted_system_realizes_gram():
    a, big_n = 0.25, 6
    vs = fk.weighted_exponentials(a, big_n, "-", normalized=False)
    g = fk.weighted_exponential_gram(a, big_n, "-")
    np.testing.assert_allclose(vs.gram().real, g, atol=1e-10)
    assert vs.count == 2 * big_n + 1


def test_weighted_system_normalized_by_default():
    vs = fk.weighted_exponentials(0.25, 6, "-")
    np.testing.assert_allclose(vs.norms(), 1.0, atol=1e-12)


def test_conditioning_dichotomy_over_size():
    sizes = (8, 16, 32)
    for sign, growing_side in (("-", 0), ("+", 1)):
        values = []
        for big_n in sizes:
            vs = fk.weighted_exponentials(0.25, big_n, sign)
            values.append(fk.hilbertian_besselian(vs))
        growing = [v[growing_side] for v in values]
        stable = [v[1 - growing_side] for v in values]
        assert growing[0] < growing[1] < growing[2]
        assert max(stable) / min(stable) <= 2.0


# ---------------------------------------------------------------------------
# flat vectors and block assembly


def test_flat_vector_on_onb_not_flat():
    with pytest.raises(NotFlat) as info:
        fk.find_flat_vector(fk.orthonormal(4), 0.5)
    assert info.value.achieved_mass == pytest.approx(1.0, abs=1e-12)


def test_flat_vector_budget_one_succeeds():
    vs = fk.weighted_exponentials(0.25, 4, "+")
    h = fk.find_flat_vector(vs, 1.0)
    mass = np.sum(np.abs(fk.analysis_apply(vs, h)) ** 2)
    assert mass <= 1.0


def test_flat_mass_improves_with_size():
    def mass_at(big_n):
        vs = fk.weighted_exponentials(0.25, big_n, "+")
        s = fk.frame_operator(vs)
        return float(np.linalg.eigvalsh(s)[0])

    assert mass_at(32) < mass_at(8)


def test_assemble_two_onb_blocks():
    out = fk.assemble_block_system([fk.orthonormal(2), fk.orthonormal(2)])
    np.testing.assert_allclose(out.columns, np.eye(4), atol=1e-15)


def test_assemble_bounds_are_min_max():
    blocks = [fk.orthonormal(2), fk.duplicated(2)]
    rep = fk.frame_report(fk.assemble_block_system(blocks))
    assert rep.lower_bound == pytest.approx(1.0, abs=1e-12)
    assert rep.upper_bound == pytest.approx(2.0, abs=1e-12)


def test_assemble_empty_input():
    with pytest.raises(EmptyInput):
        fk.assemble_block_system([])


# ---------------------------------------------------------------------------
# block conditional basis with a flat subspace


def test_lemma52_block_claims():
    eps = 0.5
    one_copy, _, _ = fk.build_lemma52_block(1, eps)
    three_copies, flat_basis, q = fk.build_lemma52_block(3, eps)
    # Hilbertian constant does not grow with the number of copies
    assert fk.hilbertian_besselian(three_copies)[0] == pytest.approx(
        fk.hilbertian_besselian(one_copy)[0], rel=1e-9
    )
    # basis constant in block order matches the single block
    assert fk.schauder_basis_constant(three_copies) == pytest.approx(
        fk.schauder_basis_constant(one_copy), rel=1e-6
    )
    # every unit vector of the flat subspace has analysis mass at most eps
    rng = np.random.default_rng(0)
    coeff = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    coeff /= np.linalg.norm(coeff)
    f = flat_basis @ coeff
    mass = float(np.sum(np.abs(fk.analysis_apply(three_copies, f)) ** 2))
    assert mass <= eps + 1e-12
    assert three_copies.count == 3 * q


# ---------------------------------------------------------------------------
# layered truncation and its audit


def test_prop53_build_is_normalized_spanning():
    system, blocks = fk.build_prop53_truncation(2, [0.2, 0.15], start_frequency=8)
    np.testing.assert_allclose(system.norms(), 1.0, atol=1e-12)
    assert fk.frame_report(system).is_spanning
    assert [b.m for b in blocks] == [2, 3]
    for block in blocks:
        assert block.flat_mass <= block.eps / block.m


def test_prop53_audit_all_patterns_hold():
    audits = fk.audit_prop53(1, [0.2])
    assert all(a.satisfied for a in audits)
    cases = {a.case for a in audits}
    assert cases == {"dependent", "basis_constant", "flat_mass"}


def test_prop53_epsilon_count_must_match():
    with pytest.raises(BadParameter):
        fk.build_prop53_truncation(2, [0.1])


# ---------------------------------------------------------------------------
# random frames and dispatch


def test_random_frame_deterministic_and_conditioned():
    a = fk.random_frame(6, 12, seed=4, cond=250.0)
    b = fk.random_frame(6, 12, seed=4, cond=250.0)
    assert np.array_equal(a.columns, b.columns)
    lower, upper = fk.frame_bounds(a)
    assert upper / lower == pytest.approx(250.0, rel=1e-9)


def test_random_frame_different_seeds_differ():
    a = fk.random_frame(6, 12, seed=4)
    b = fk.random_frame(6, 12, seed=5)
    assert not np.array_equal(a.columns, b.columns)


def test_random_frame_matches_separate_unitary_draw():
    # reference: the left factor drawn by its own square-unitary helper
    def haar(rows, cols, rng):
        g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        q, r = np.linalg.qr(g)
        phases = np.diagonal(r) / np.abs(np.diagonal(r))
        return q * phases.conj()

    rng = np.random.default_rng(7)
    left = haar(5, 5, rng)
    right = haar(11, 5, rng)
    svals = np.logspace(0.0, -0.5 * math.log10(30.0), 5)
    expected = (left * svals) @ right.conj().T
    assert np.array_equal(fk.random_frame(5, 11, 7, 30.0).columns, expected)


def test_generate_dispatch_matches_direct_calls():
    pairs = [
        (fk.GallerySpec("orthonormal", {"n": 4}), fk.orthonormal(4)),
        (fk.GallerySpec("lemma51", {"n": 6}), fk.lemma51(6)),
        (fk.GallerySpec("duplicated", {"n": 3}), fk.duplicated(3)),
        (fk.GallerySpec("perturbedPairs", {"n": 4}), fk.perturbed_pairs(4)),
        (
            fk.GallerySpec("weightedExponentials", {"a": 0.25, "N": 3, "sign": "-"}),
            fk.weighted_exponentials(0.25, 3, "-"),
        ),
        (
            fk.GallerySpec("randomFrame", {"n": 4, "m": 9, "seed": 2, "cond": 10.0}),
            fk.random_frame(4, 9, 2, 10.0),
        ),
    ]
    for spec, direct in pairs:
        assert np.array_equal(fk.generate(spec).columns, direct.columns)


def test_generate_rejects_bad_input():
    with pytest.raises(BadParameter):
        fk.GallerySpec("nope", {})
    with pytest.raises(BadParameter):
        fk.generate(fk.GallerySpec("lemma51", {}))
    with pytest.raises(BadParameter):
        fk.generate(fk.GallerySpec("lemma51", {"n": 4, "junk": 1}))
    with pytest.raises(BadParameter):
        fk.lemma51(0)

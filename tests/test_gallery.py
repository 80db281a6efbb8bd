import math

import numpy as np
import pytest

import framekit as fk
from framekit import gallery
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


# the per-copy budget eps / k of lemma52_block(2, 0.3), and that of the m = 3
# layer of prop53_truncation(2, [0.2, 0.2])
@pytest.mark.parametrize("budget", [0.3 / 2, 0.2 / 3], ids=["lemma52Block", "prop53Truncation"])
def test_flat_vector_keeps_the_bits_of_the_bottom_eigh_column(budget):
    block = gallery._flat_conditional_basis(budget, 0.45, 8)
    reference = np.linalg.eigh(fk.frame_operator(block.system))[1][:, 0].astype(np.complex128)
    assert fk.find_flat_vector(block.system, budget).tobytes() == reference.tobytes()
    assert block.flat_vector.tobytes() == reference.tobytes()


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


def test_generate_takes_integral_floats_and_json_booleans():
    spec = fk.GallerySpec("randomFrame", {"n": 4.0, "m": 8, "seed": 2.0})
    np.testing.assert_array_equal(fk.generate(spec).columns, fk.random_frame(4, 8, 2).columns)
    doubled = fk.generate(fk.GallerySpec("duplicated", {"n": 2, "doubleAmbient": True}))
    assert doubled.dim == 4
    plain = fk.generate(fk.GallerySpec("duplicated", {"n": 2, "doubleAmbient": False}))
    assert plain.dim == 2


# ---------------------------------------------------------------------------
# size cap, checked before anything is allocated (only rejected sizes are run)


@pytest.mark.parametrize(
    "build",
    [
        lambda: fk.orthonormal(5000),
        lambda: fk.lemma51(50000),
        lambda: fk.lemma51(10**300),
        lambda: fk.duplicated(3000),
        lambda: fk.duplicated(2049, double_ambient=True),
        lambda: fk.perturbed_pairs(3000),
        lambda: fk.random_frame(2000, 10**5, 0),
        lambda: fk.weighted_exponentials(0.25, 10**300, 1),
        lambda: fk.assemble_block_system([fk.orthonormal(64)] * 65),
    ],
)
def test_size_cap_rejects_before_allocating(build):
    with pytest.raises(BadParameter, match="too large"):
        build()


def test_size_cap_is_checked_before_each_block_layout(monkeypatch):
    # at flat budget eps/m = 0.3 the conditional basis has 17 vectors; the flat
    # block is built under the real cap, since its quadrature table alone
    # passes 1000 entries.  Under a 1000-entry cap the first prop53 layer
    # (34 x 69) and four lemma52 copies (68 x 68) are refused; no block_diag,
    # not even the flat basis's, may start
    flat = gallery._flat_conditional_basis(0.3, 0.45, 8)
    assert flat.system.count == 17

    def no_layout(*blocks):
        raise AssertionError("block_diag called past the size cap")

    monkeypatch.setattr(gallery, "_flat_conditional_basis", lambda *args: flat)
    monkeypatch.setattr(gallery, "SYSTEM_SIZE_CAP", 1000)
    monkeypatch.setattr(gallery, "block_diag", no_layout)
    with pytest.raises(BadParameter, match="system too large"):
        fk.prop53_truncation(1, [0.6])
    with pytest.raises(BadParameter, match="system too large"):
        fk.build_lemma52_block(4, 1.2)


def test_quadrature_table_cap_is_checked_before_the_table_is_built(monkeypatch):
    # N = 4 passes a 1000-entry system cap (9 x 9 Gram matrix), but its cosine
    # table of 9 deltas times some hundreds of quadrature nodes does not
    def no_table(*args, **kwargs):
        raise AssertionError("quadrature table built past the size cap")

    monkeypatch.setattr(gallery, "SYSTEM_SIZE_CAP", 1000)
    monkeypatch.setattr(gallery.np, "outer", no_table)
    with pytest.raises(BadParameter, match="too large"):
        fk.weighted_exponentials(0.25, 4, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: fk.lemma52_block(3, math.nan),
        lambda: fk.lemma52_block(3, math.inf),
        lambda: fk.build_lemma52_block(2, math.nan),
        lambda: fk.prop53_truncation(1, [math.inf]),
        lambda: fk.prop53_truncation(2, [0.2, math.nan]),
        lambda: fk.random_frame(4, 8, 0, math.nan),
        lambda: fk.random_frame(4, 8, 0, math.inf),
        # float() of these raised OverflowError or ValueError, not BadParameter
        lambda: fk.prop53_truncation(1, [10**400]),
        lambda: fk.prop53_truncation(1, ["x"]),
        lambda: fk.lemma52_block(3, 10**400),
        lambda: fk.weighted_exponentials("x", 4, 1),
    ],
)
def test_builders_reject_non_finite_parameters(build):
    # NaN fails every comparison and Infinity passes a one-sided one, so the
    # builders test for the finite range itself, not only its lower end
    with pytest.raises(BadParameter, match="finite"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: fk.random_frame(4, 3, 0), "needs m >= n"),
        (lambda: fk.random_frame(4, 8, 0, 0.5), "at least 1, got 0.5"),
        (lambda: fk.find_flat_vector(fk.lemma51(4), 0.0), "budget must be positive"),
        (lambda: fk.find_flat_vector(fk.lemma51(4), math.nan), "budget must be positive"),
        (lambda: gallery._flat_conditional_basis(-0.1, 0.45, 8), "budget must be positive"),
        (lambda: gallery._flat_conditional_basis(math.nan, 0.45, 8), "budget must be positive"),
        (lambda: fk.lemma52_block(2, 0.0), "eps must be positive"),
        (lambda: fk.prop53_truncation(2, [0.1, -0.05]), "epsilon values must be positive"),
    ],
    ids=["random-m-below-n", "random-cond-below-1", "flat-budget-0", "flat-budget-nan",
         "ladder-budget-negative", "ladder-budget-nan", "lemma52-eps-0", "prop53-eps-negative"],
)
def test_builders_reject_parameters_out_of_range(build, message):
    with pytest.raises(BadParameter, match=message):
        build()


def test_flat_search_raises_not_flat_past_the_size_cap(monkeypatch):
    # under a cap of 32 the ladder tries 17 and 33 vectors and may not double
    # again; below 24, the fine rule's node count, the quadrature refuses first
    monkeypatch.setattr(gallery, "FLAT_SIZE_CAP", 32)
    with pytest.raises(NotFlat):
        gallery._flat_conditional_basis(1e-12, 0.45, 8)


@pytest.mark.parametrize(
    "build, int_form",
    [
        (lambda: fk.lemma51(4.0), lambda: fk.lemma51(4)),
        (lambda: fk.orthonormal(3.0), lambda: fk.orthonormal(3)),
        (lambda: fk.perturbed_pairs(3.0), lambda: fk.perturbed_pairs(3)),
        (lambda: fk.random_frame(4.0, 8, 1.0), lambda: fk.random_frame(4, 8, 1)),
        (lambda: fk.weighted_exponentials(0.25, 4.0, 1), lambda: fk.weighted_exponentials(0.25, 4, 1)),
        (
            lambda: fk.lemma52_block(2, 0.3, start_frequency=4.0),
            lambda: fk.lemma52_block(2, 0.3, start_frequency=4),
        ),
        (lambda: fk.prop53_truncation(1.0, [0.3]), lambda: fk.prop53_truncation(1, [0.3])),
    ],
)
def test_builders_take_integral_floats(build, int_form):
    assert np.array_equal(build().columns, int_form().columns)


@pytest.mark.parametrize(
    "build",
    [
        lambda: fk.lemma51(True),
        lambda: fk.random_frame(4, 8, True),
        lambda: fk.lemma52_block(True, 0.3),
        lambda: fk.duplicated(2, "no"),
        lambda: fk.weighted_exponentials(0.25, 4, 1, normalized="no"),
        lambda: fk.prop53_truncation(1, [0.3], normalized="no"),
        lambda: fk.prop53_truncation(1, 5),
    ],
)
def test_builders_reject_bools_for_integers_and_non_bools_for_flags(build):
    with pytest.raises(BadParameter):
        build()


def test_builders_take_epsilons_as_any_sequence():
    expected = fk.prop53_truncation(1, [0.3]).columns
    assert np.array_equal(fk.prop53_truncation(1, (0.3,)).columns, expected)
    assert np.array_equal(fk.prop53_truncation(1, np.array([0.3])).columns, expected)


@pytest.mark.parametrize("build", [fk.lemma52_block, fk.build_lemma52_block])
def test_lemma52_rejects_a_copy_count_past_the_size_cap(build):
    # eps / k overflowed a float for an integer k past the double range
    with pytest.raises(BadParameter, match="too large"):
        build(10**400, 0.5)


def test_flat_search_from_frequency_zero_terminates():
    # the frequency ladder used to double 0 forever when N = 0 was not flat
    assert fk.lemma52_block(1, 0.5, 0.45, 0).count == fk.lemma52_block(1, 0.5, 0.45, 1).count
    assert fk.prop53_truncation(1, [1.0], start_frequency=0).count > 0


@pytest.mark.parametrize(
    "epsilons,dims",
    [([0.1, 0.05], [17, 33, 65, 129, 257]), ([0.2, 0.2], [17, 33])],
    ids=["0.1,0.05", "0.2,0.2"],
)
def test_prop53_build_forms_each_flat_block_frequency_once(monkeypatch, epsilons, dims):
    formed = []

    def counted(system, _original=gallery.frame_operator):
        formed.append(system.dim)
        return _original(system)

    monkeypatch.setattr(gallery, "frame_operator", counted)
    fk.build_prop53_truncation(2, epsilons)
    assert formed == dims


@pytest.mark.parametrize(
    "build",
    [
        lambda: fk.lemma52_block(1, True),
        lambda: fk.lemma52_block(1, "0.5"),
        lambda: fk.random_frame(4, 8, 0, False),
        lambda: fk.prop53_truncation(1, ["0.3"]),
        lambda: fk.weighted_exponentials(b"0.25", 4, 1),
    ],
)
def test_float_parameters_refuse_flags_and_strings(build):
    with pytest.raises(BadParameter, match="finite number"):
        build()


def test_float_parameters_take_python_and_numpy_numbers():
    expected = fk.random_frame(4, 8, 1, 10.0).columns
    for cond in (10, np.int64(10), np.float32(10.0), np.float64(10.0)):
        assert np.array_equal(fk.random_frame(4, 8, 1, cond).columns, expected)
    assert np.array_equal(fk.lemma52_block(1, np.float64(0.5)).columns,
                          fk.lemma52_block(1, 0.5).columns)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_sign_refuses_flags(flag):
    # True == 1, so a flag used to build the +1 family
    for build in (fk.weighted_exponentials, fk.weighted_exponential_gram):
        with pytest.raises(BadParameter) as exc:
            build(0.25, 4, flag)
        assert str(exc.value) == f"sign must be one of +1/-1/'+'/'-', got {flag!r}"


@pytest.mark.parametrize(
    "sign, signum",
    [(1, 1), (1.0, 1), (np.int64(1), 1), ("+", 1), ("+1", 1),
     (-1, -1), (-1.0, -1), (np.int64(-1), -1), ("-", -1), ("-1", -1)],
)
def test_sign_takes_every_documented_form(sign, signum):
    expected = fk.weighted_exponentials(0.25, 4, signum)
    system = fk.weighted_exponentials(0.25, 4, sign)
    assert system.columns.view(np.uint64).tobytes() == expected.columns.view(np.uint64).tobytes()
    assert system.labels == expected.labels

import math
import warnings

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given
from hypothesis import strategies as st

import framekit as fk
from framekit import core, extraction, selection
from framekit import serialization as ser
from framekit.core import gram
from framekit.errors import BadParameter, BadTarget, TooLarge, ZeroNorm
from framekit.selection import (
    TIE_RTOL,
    _bordered_min_eigs,
    _first_tied_best,
    _min_eig,
    _secular_start,
    greedy_order,
)


def unit_norm_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = int(rng.integers(n, 11))
    cols = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    cols /= np.linalg.norm(cols, axis=0)
    return fk.VectorSystem(cols)


def test_exhaustive_full_onb():
    res = fk.select_exhaustive(fk.orthonormal(3), 3)
    assert res.subset == (0, 1, 2)
    assert res.certified_lower_bound == pytest.approx(1.0, abs=1e-12)
    assert res.method == "exhaustive"


def test_exhaustive_duplicated_tie_break():
    # four orthogonal pairs achieve the optimum; lexicographic tie-break wins
    res = fk.select_exhaustive(fk.duplicated(2), 2)
    assert res.subset == (0, 2)
    assert res.certified_lower_bound == pytest.approx(1.0, abs=1e-12)


def test_exhaustive_roundoff_tie_breaks_to_smallest_index():
    # columns 0..5 of lemma51(6) are symmetric, so several 4-subsets tie exactly
    assert fk.select_exhaustive(fk.lemma51(6), 4).subset == (0, 1, 2, 6)


def test_greedy_roundoff_tie_breaks_to_smallest_index():
    from framekit.selection import greedy_order

    order, _ = greedy_order(fk.lemma51(10).gram(), 8)
    assert order == [10, 0, 1, 2, 3, 4, 5, 6]


def test_exhaustive_guard():
    vs = unit_norm_instance(0)
    with pytest.raises(TooLarge):
        fk.select_exhaustive(vs, vs.count // 2, max_subsets=1)


def test_exhaustive_guard_refuses_a_nan_limit():
    # n_subsets > nan is false, so a NaN guard used to enumerate every subset
    vs = unit_norm_instance(0)
    with pytest.raises(TooLarge, match="exceeds the guard nan"):
        fk.select_exhaustive(vs, vs.count // 2, max_subsets=math.nan)


def test_bad_targets():
    vs = fk.orthonormal(3)
    with pytest.raises(BadTarget):
        fk.select_exhaustive(vs, 0)
    with pytest.raises(BadTarget):
        fk.select_exhaustive(vs, 4)
    with pytest.raises(BadTarget):
        fk.select_greedy(vs, 9)


def test_greedy_full_onb():
    res = fk.select_greedy(fk.orthonormal(4), 4)
    assert res.subset == (0, 1, 2, 3)
    assert res.certified_lower_bound == pytest.approx(1.0, abs=1e-12)


def test_greedy_duplicated():
    res = fk.select_greedy(fk.duplicated(2), 2)
    assert res.certified_lower_bound == pytest.approx(1.0, abs=1e-12)


def test_greedy_against_oracle_on_flat_frame():
    oracle = fk.select_exhaustive(fk.lemma51(8), 6)
    greedy = fk.select_greedy(fk.lemma51(8), 6)
    assert greedy.certified_lower_bound >= 0.5 * oracle.certified_lower_bound


def test_bt_guarantee_size_values():
    assert fk.bt_guarantee_size(100, 1.0, 0.1) == 10
    assert fk.bt_guarantee_size(100, 2.0, 0.1) == 2
    assert fk.bt_guarantee_size(5, 10.0, 0.5) == 0


@pytest.mark.parametrize("norm", [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)])
def test_bt_guarantee_size_is_stable_at_an_exact_integer(norm):
    # 0.8 * 85 / 1 is 68 exactly; the last bit of a computed norm of 1 must not move it
    assert fk.bt_guarantee_size(85, norm, 0.8) == 68


@pytest.mark.parametrize(
    "count, norm",
    [(10, 1e-200), (0, 1e-200), (10, 1e-160), (10, math.nan), (10, math.inf)],
    ids=["1e-200", "count0-1e-200", "1e-160", "nan", "inf"],
)
def test_bt_guarantee_size_rejects_a_degenerate_norm(count, norm):
    # the square underflows to 0 (a quotient of inf, or 0 / 0 for count 0), the quotient
    # overflows, NaN, and a zero quotient from inf; each refused without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BadParameter, match="operator norm"):
            fk.bt_guarantee_size(count, norm, 0.5)


def test_bt_guarantee_size_bad_parameters():
    with pytest.raises(BadParameter):
        fk.bt_guarantee_size(10, 0.0, 0.1)
    with pytest.raises(BadParameter):
        fk.bt_guarantee_size(10, 1.0, 0.0)
    with pytest.raises(BadParameter):
        fk.bt_guarantee_size(10, 1.0, 1.5)
    with pytest.raises(BadParameter):
        fk.bt_guarantee_size(-1, 1.0, 0.5)


def test_exhaustive_monotone_in_target_size():
    vs = unit_norm_instance(42)
    bounds = [
        fk.select_exhaustive(vs, k).certified_lower_bound for k in range(1, vs.count + 1)
    ]
    for small, large in zip(bounds, bounds[1:]):
        assert large <= small + 1e-12


def test_unit_norm_bounds_below_one():
    vs = unit_norm_instance(7)
    for k in (1, 2, vs.count // 2):
        assert fk.select_exhaustive(vs, k).certified_lower_bound <= 1.0 + 1e-12


def test_selection_deterministic():
    vs = unit_norm_instance(99)
    a = fk.select_greedy(vs, 4)
    b = fk.select_greedy(vs, 4)
    assert a == b
    c = fk.select_exhaustive(vs, 4)
    d = fk.select_exhaustive(vs, 4)
    assert c == d


def test_normalize_flag():
    vs = fk.VectorSystem(np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex))
    res = fk.select_greedy(vs, 2, normalize=True)
    assert res.normalization_applied
    assert res.certified_lower_bound == pytest.approx(1.0, abs=1e-12)
    with_zero = fk.VectorSystem(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ZeroNorm):
        fk.select_greedy(with_zero, 1, normalize=True)


@given(st.integers(0, 10_000))
def test_certified_bound_is_recomputable(seed):
    vs = unit_norm_instance(seed)
    k = 1 + seed % vs.count
    res = fk.select_greedy(vs, k)
    recomputed = fk.smallest_singular_value(vs.columns[:, list(res.subset)])
    assert res.certified_lower_bound == pytest.approx(recomputed, abs=1e-12)
    assert res.subset == tuple(sorted(res.subset))
    assert len(res.subset) == k


def reference_greedy_order(gram, limit, stop_below=None):
    """greedy_order as it was before the bordered-eigenvalue update: one
    eigvalsh per candidate per step.  Test-only parity reference."""
    m = gram.shape[0]
    limit = min(limit, m)
    chosen = []
    taken = np.zeros(m, dtype=bool)
    bounds = []
    while len(chosen) < limit:
        candidates = np.flatnonzero(~taken)
        lams = np.array([_min_eig(gram, chosen + [j]) for j in candidates])
        pick = _first_tied_best(lams, gram)
        bound = math.sqrt(max(lams[pick], 0.0))
        if stop_below is not None and bound < stop_below * (1.0 - TIE_RTOL):
            break
        best_j = int(candidates[pick])
        chosen.append(best_j)
        taken[best_j] = True
        bounds.append(bound)
    return chosen, bounds


@pytest.mark.parametrize(
    "make, limit, stop_below",
    [
        (lambda: fk.lemma51(10), 11, None),
        (lambda: fk.lemma51(40), 41, None),
        (lambda: fk.lemma51(80), 60, None),
        (lambda: fk.duplicated(20), 40, None),
        (lambda: fk.duplicated(12, True), 24, None),
        (lambda: fk.weighted_exponentials(0.25, 32, 1), 65, None),
        (lambda: fk.weighted_exponentials(0.25, 32, -1), 65, None),
        (lambda: fk.random_frame(48, 96, 2, 1e4), 96, 0.05),
        (lambda: fk.perturbed_pairs(30), 60, None),
        # full orders past the rank, where the chosen block is singular
        (lambda: fk.random_frame(16, 40, 0), 40, None),
        (lambda: fk.random_frame(16, 40, 1, 1e4), 40, None),
        (lambda: fk.random_frame(16, 40, 2, 1.0), 40, None),
        (lambda: fk.duplicated(8, True), 16, None),
    ],
    ids=["lemma51-10", "lemma51-40", "lemma51-80", "duplicated-20", "duplicated-12-double",
         "exponentials-plus", "exponentials-minus", "random-stop", "perturbed-pairs-30",
         "random-16-40-s0", "random-16-40-s1", "random-16-40-tight", "duplicated-8-double"],
)
def test_greedy_order_matches_reference(make, limit, stop_below):
    g = make().gram()
    order, bounds = greedy_order(g, limit, stop_below)
    ref_order, ref_bounds = reference_greedy_order(g, limit, stop_below)
    assert order == ref_order
    assert bounds == ref_bounds


def test_greedy_order_matches_reference_on_oracle_corpus():
    # the acceptance criterion 08 systems, every target size
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(n, 11))
        cols = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        cols /= np.linalg.norm(cols, axis=0)
        g = fk.VectorSystem(cols).gram()
        for k in range(1, m + 1):
            assert greedy_order(g, k) == reference_greedy_order(g, k), (seed, k)


def test_multi_round_trace_unchanged_by_bordered_update(monkeypatch):
    system = fk.random_frame(64, 128, 3, 1e4)
    trace = fk.extract_frame(system, 0.25, 0.8)
    assert len(trace.rounds) > 2
    monkeypatch.setattr(extraction, "greedy_order", reference_greedy_order)
    reference = fk.extract_frame(system, 0.25, 0.8)
    assert ser.dumps(ser.trace_to_json(trace)) == ser.dumps(ser.trace_to_json(reference))


def test_greedy_order_factors_twice_per_pick(factorization_shapes):
    g = fk.lemma51(40).gram()
    factorization_shapes.clear()
    order, _ = greedy_order(g, 30)
    assert len(order) == 30
    assert len(factorization_shapes) <= 2 * len(order)


def reference_select_greedy(system, target_size, normalize=False):
    """select_greedy as it was before it computed only the Gram rows of its
    picks: greedy_order on the whole count x count Gram.  Test-only reference."""
    cols = selection._validated_columns(system, normalize)
    chosen, _ = greedy_order(gram(cols), target_size)
    return tuple(sorted(chosen)), fk.smallest_singular_value(cols[:, chosen])


def prop53_small():
    system = fk.generate(fk.GallerySpec("prop53Truncation", {"M": 2, "epsilons": [0.2, 0.2]}))
    assert (system.dim, system.count) == (165, 332)
    return system


SELECT_SYSTEMS = [
    pytest.param(lambda: fk.orthonormal(6), id="orthonormal"),
    pytest.param(lambda: fk.lemma51(10), id="lemma51"),
    pytest.param(lambda: fk.duplicated(12, True), id="duplicated-12-double"),
    pytest.param(lambda: fk.perturbed_pairs(10), id="perturbedPairs"),
    pytest.param(lambda: fk.weighted_exponentials(0.25, 16, 1), id="weightedExponentials"),
    pytest.param(lambda: fk.lemma52_block(2, 0.3), id="lemma52Block"),
    pytest.param(prop53_small, id="prop53Truncation"),
    pytest.param(lambda: fk.random_frame(16, 40, 3, 1.0), id="randomFrame-cond1"),
    pytest.param(lambda: fk.random_frame(16, 40, 3, 1e4), id="randomFrame-cond1e4"),
]


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("build", SELECT_SYSTEMS)
def test_select_greedy_matches_the_full_gram_order(build, normalize):
    system = build()
    for k in sorted({1, min(8, system.count), system.count // 2}):
        res = fk.select_greedy(system, k, normalize=normalize)
        expected = reference_select_greedy(system, k, normalize)
        assert (res.subset, res.certified_lower_bound) == expected, k


def test_select_greedy_matches_the_full_gram_order_on_oracle_corpus():
    for seed in range(100):
        system = unit_norm_instance(seed)
        for k in range(1, system.count + 1):
            res = fk.select_greedy(system, k)
            assert (res.subset, res.certified_lower_bound) == reference_select_greedy(system, k)


def test_select_greedy_forms_no_count_by_count_gram(monkeypatch):
    system = prop53_small()
    expected = fk.select_greedy(system, 8)

    def refuse(columns):
        raise AssertionError(f"a {columns.shape[1]}x{columns.shape[1]} Gram matrix was formed")

    monkeypatch.setattr(core, "gram", refuse)
    monkeypatch.setattr(selection, "gram", refuse)
    assert fk.select_greedy(system, 8) == expected


def test_select_greedy_makes_no_real_copy_of_the_system():
    # only the Gram rows of the picks are ranked in float64; a float64 copy of
    # the columns alone would be columns.nbytes // 2
    system = prop53_small()
    assert traced_peak(lambda: fk.select_greedy(system, 8)) <= system.columns.nbytes // 4


def random_arrowhead(seed, huge=False):
    """Chosen block diag(mu), mu clustered above mu_0, and border columns z with z_0 = 0.

    Returns (mu, z, g): candidate j borders diag(mu) with z[:, j] and the
    diagonal entry g[j], which lies below mu_0 for some candidates and above it
    for the others.  huge puts mu_0 in [1e154, 1e155], where |mu_0 - g|^2
    overflows while |z|^2 stays finite.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 101))
    count = int(rng.integers(1, 30))
    mu_0 = 10.0 ** rng.uniform(154, 155) if huge else 10.0 ** rng.uniform(-3, 1)
    gaps = 10.0 ** rng.uniform(-14, 0, k - 1) * rng.integers(0, 2, k - 1)
    mu = np.sort(np.concatenate(([mu_0], mu_0 * (1.0 + gaps))))
    z_scale = 10.0 ** rng.uniform(-8, -3 if huge else 0, count)
    z = rng.standard_normal((k, count)) * z_scale * mu_0
    z[0] = 0.0
    g = mu_0 * (1.0 + rng.uniform(-0.9, 0.9, count))
    return mu, z, g


@pytest.mark.parametrize("huge", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_secular_start_brackets_the_bordered_eigenvalue(seed, huge):
    mu, z, g = random_arrowhead(seed, huge)
    k, count = z.shape
    diag = np.concatenate((mu, g))
    scale = float(diag.max())
    blocks = [np.block([[np.diag(mu), z[:, [j]]], [z[:, [j]].T, g[[j]][:, None]]])
              for j in range(count)]
    roots = np.array([np.linalg.eigvalsh(block)[0] for block in blocks])
    sq_norms = (z * z).sum(axis=0)

    start = _secular_start(mu[0], g, sq_norms)
    assert np.all(start <= roots + 1e-14 * scale)
    weyl = np.minimum(mu[0], g) - np.sqrt(sq_norms)
    assert np.all(start >= weyl - 4 * np.finfo(float).eps * scale)
    assert np.all(start <= np.minimum(mu[0], g))

    rows = np.hstack((np.diag(mu), z))
    lams = _bordered_min_eigs(rows, list(range(k)), np.arange(k, k + count), diag, scale)
    assert np.all(np.abs(lams - roots) <= 1e-13 * scale)


def test_secular_start_is_the_root_for_one_chosen_index():
    mu_0, g, z = 2.0, np.array([1.0, 2.0, 3.0]), np.array([0.5, 1e-9, 0.0])
    start = _secular_start(mu_0, g, z * z)
    roots = [np.linalg.eigvalsh([[mu_0, b], [b, d]])[0] for b, d in zip(z, g)]
    np.testing.assert_allclose(start, roots, rtol=0.0, atol=4 * np.finfo(float).eps * 3.0)
    assert start[2] == 2.0  # a zero border leaves min(mu_0, g) = mu_0


def test_greedy_ranks_at_the_root_where_the_start_would_overflow():
    # after a, mu_0 = |a|^2 = 2.99e154, so (mu_0 - g_jj)^2 / 4 overflows; b is
    # parallel to a (bordered eigenvalue 0) and c is orthogonal to it (1e150)
    cols = np.array([[1.73e77, 1e75, 0.0], [0.0, 0.0, 1e75]])
    system = fk.VectorSystem(cols)
    order, bounds = greedy_order(gram(system.columns), 2)
    assert order == [0, 2]
    assert bounds[1] == pytest.approx(1e75)
    result = fk.select_greedy(system, 2)
    assert result.subset == (0, 2)
    assert result.certified_lower_bound == pytest.approx(1e75)


@pytest.mark.filterwarnings("error")
def test_greedy_ranks_in_units_of_a_power_of_two_past_1e154():
    # after a, the Gram entry <a, b> = 1.73e154 squares past the largest double;
    # b is parallel to a and c is orthogonal to it, so (0, 2) certifies 1e77
    cols = np.array([[1.73e77, 1e77, 0.0], [0.0, 0.0, 1e77]])
    system = fk.VectorSystem(cols)
    order, bounds = greedy_order(gram(system.columns), 2)
    assert order == [0, 2]
    assert bounds[1] == pytest.approx(1e77, rel=1e-15)
    result = fk.select_greedy(system, 2)
    assert result.subset == (0, 2)
    assert result.certified_lower_bound == pytest.approx(1e77, rel=1e-15)


@pytest.mark.parametrize("top", [2.0**-500, 1e-150, 1.0, 1e150, 2.0**500, 0.0])
def test_gram_unit_is_one_inside_the_exact_range(top):
    assert selection._gram_unit(top) == 1.0


@pytest.mark.parametrize("top", [5e-324, 2.0**-501, 1e-160, 1.7e154, 2.0**501, 1.7e308])
def test_gram_unit_brings_the_top_into_one_to_four(top):
    unit = selection._gram_unit(top)
    assert 1.0 <= top / unit < 4.0
    assert math.sqrt(unit) ** 2 == unit  # an even power of two

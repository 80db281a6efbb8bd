import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import framekit as fk
from framekit.errors import BadParameter, BadTarget, TooLarge, ZeroNorm


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

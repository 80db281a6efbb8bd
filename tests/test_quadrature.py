"""The singular-weight quadrature behind the weighted exponential families.

``reference_panel_quadrature`` and ``reference_core_integrals`` are verbatim
copies of the per-piece and per-delta loops that the whole-array builds
replaced; the current ones must give the same bits.  The oscillatory sums,
now two small GEMMs by angle addition, are checked against 40-digit sums on
the same nodes and against the (D+1) x N cosine table they replaced.
"""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import framekit as fk
from framekit import gallery
from framekit.errors import BadParameter, QuadratureFailure

COARSE = (40, 16, 6.0)  # depth, nodes, osc of the coarse rule
FINE = (46, 24, 4.0)  # and of the fine rule, as weighted_exponential_gram calls them


def reference_panel_quadrature(weight_exponent, max_delta, depth, nodes, osc):
    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    xs = []
    ws = []
    hi = math.pi
    for _ in range(depth):
        lo = hi / 2.0
        pieces = max(1, math.ceil((hi - lo) * max(max_delta, 1) / osc))
        edges = np.linspace(lo, hi, pieces + 1)
        for left, right in zip(edges[:-1], edges[1:]):
            half = (right - left) / 2.0
            xs.append((left + right) / 2.0 + half * base_x)
            ws.append(half * base_w)
        hi = lo
    x = np.concatenate(xs)
    w = np.concatenate(ws) * x**weight_exponent
    return x, w, hi


def reference_core_integrals(weight_exponent, h, deltas):
    out = np.zeros(deltas.shape[0])
    power = h ** (weight_exponent + 1.0)
    for i, delta in enumerate(deltas):
        coeff = 1.0  # accumulates (-1)^j (delta h)^(2j) / (2j)!
        total = 0.0
        for j in range(60):
            total += coeff * power / (weight_exponent + 2 * j + 1.0)
            coeff *= -(delta * h) * (delta * h) / ((2 * j + 1.0) * (2 * j + 2.0))
            if abs(coeff * power) < 1e-30:
                break
        out[i] = total
    return out


def table_cosine_sums(x, w, max_delta):
    """sum_j w_j cos(delta x_j) from the (max_delta + 1) x N cosine table."""
    return np.cos(np.outer(np.arange(max_delta + 1), x)) @ w


GRID = [
    (w_exp, max_delta, rule)
    for w_exp in (0.9, 0.5, 0.0, -0.5, -0.9)
    for max_delta in (0, 1, 16, 128)
    for rule in (COARSE, FINE, (3, 5, 1.3))
]


@pytest.mark.parametrize("w_exp, max_delta, rule", GRID)
def test_panel_quadrature_matches_the_piece_loop_bit_for_bit(w_exp, max_delta, rule):
    x, w, h = gallery._panel_quadrature(w_exp, max_delta, *rule)
    ref_x, ref_w, ref_h = reference_panel_quadrature(w_exp, max_delta, *rule)
    assert x.tobytes() == ref_x.tobytes()
    assert w.tobytes() == ref_w.tobytes()
    assert type(h) is float and h == ref_h


@pytest.mark.parametrize("w_exp, max_delta, rule", GRID)
def test_core_integrals_match_the_delta_loop_bit_for_bit(w_exp, max_delta, rule):
    deltas = np.arange(max_delta + 1)
    panel_h = reference_panel_quadrature(w_exp, max_delta, *rule)[2]
    # the core width of the rule, and the widest one weight_fourier_integrals admits
    for h in (panel_h, 1.0 / max(max_delta, 1)):
        got = gallery._core_integrals(w_exp, h, deltas)
        assert got.tobytes() == reference_core_integrals(w_exp, h, deltas).tobytes()


def test_legendre_rule_is_cached_and_read_only():
    x, w = gallery._legendre_rule(16)
    assert gallery._legendre_rule(16)[0] is x
    ref_x, ref_w = np.polynomial.legendre.leggauss(16)
    assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
    for array in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def mp_cosine_sums(x, w, deltas):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        xs = [mpmath.mpf(float(v)) for v in x]
        ws = [mpmath.mpf(float(v)) for v in w]
        return np.array([float(mpmath.fsum(wj * mpmath.cos(d * xj) for xj, wj in zip(xs, ws)))
                         for d in deltas])


@pytest.mark.parametrize(
    "w_exp, max_delta, rule", [(0.9, 256, FINE), (-0.5, 128, COARSE), (0.5, 128, COARSE)]
)
def test_cosine_sums_match_forty_digit_sums_on_the_same_nodes(w_exp, max_delta, rule):
    x, w, _ = gallery._panel_quadrature(w_exp, max_delta, *rule)
    sums = gallery._cosine_sums(x, w, max_delta)
    assert sums.shape == (max_delta + 1,)
    # the first and last delta of the blocks the split delta = q B + r makes
    block = math.isqrt(max_delta + 1)
    deltas = sorted({0, 1, block - 1, block, block + 1, max_delta - 1, max_delta})
    exact = mp_cosine_sums(x, w, deltas)
    scale = np.max(np.abs(sums))
    assert np.max(np.abs(sums[deltas] - exact)) <= 1e-14 * scale
    assert np.max(np.abs(sums - table_cosine_sums(x, w, max_delta))) <= 1e-14 * scale


@pytest.mark.parametrize("max_delta", [0, 1, 2, 3, 7, 8, 9, 63, 64])
def test_cosine_sums_cover_every_delta_once(max_delta):
    x, w, _ = gallery._panel_quadrature(0.5, max_delta, *COARSE)
    sums = gallery._cosine_sums(x, w, max_delta)
    table = table_cosine_sums(x, w, max_delta)
    assert sums.shape == table.shape
    assert np.max(np.abs(sums - table)) <= 1e-14 * np.max(np.abs(table))


def test_weight_fourier_integrals_keep_the_closed_form_at_delta_zero():
    for w_exp in (0.9, 0.5, 0.0, -0.5, -0.9):
        closed = 2.0 * math.pi ** (1.0 + w_exp) / (1.0 + w_exp)
        values = fk.weight_fourier_integrals(w_exp, 64)
        assert abs(values[0] - closed) <= 1e-12 * closed


def test_table_cap_is_checked_from_the_piece_counts_before_any_node_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(BadParameter, match="quadrature table too large"):
            fk.weight_fourier_integrals(0.5, 10**6)
        with pytest.raises(BadParameter, match="quadrature table too large"):
            fk.weight_fourier_integrals(0.5, 4, depth=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_table_cap_keeps_its_rule(monkeypatch):
    # (max_delta + 1) * quadrature nodes against SYSTEM_SIZE_CAP, as before
    size = 9 * reference_panel_quadrature(0.5, 8, *COARSE)[0].size
    monkeypatch.setattr(gallery, "SYSTEM_SIZE_CAP", size)
    assert fk.weight_fourier_integrals(0.5, 8).shape == (9,)
    monkeypatch.setattr(gallery, "SYSTEM_SIZE_CAP", size - 1)
    with pytest.raises(BadParameter, match="quadrature table too large"):
        fk.weight_fourier_integrals(0.5, 8)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"weight_exponent": math.nan},
        {"weight_exponent": math.inf},
        {"weight_exponent": -1.0},
        {"weight_exponent": "0.5"},
        {"max_delta": 2.5},
        {"max_delta": True},
        {"max_delta": -1},
        {"depth": 0},
        {"nodes": 0},
        {"nodes": 4.5},
        {"osc": 0.0},
        {"osc": -1.0},
        {"osc": math.nan},
        {"osc": True},
    ],
)
def test_weight_fourier_integrals_refuse_bad_arguments(kwargs):
    args = {"weight_exponent": 0.5, "max_delta": 8, **kwargs}
    with pytest.raises(BadParameter):
        fk.weight_fourier_integrals(**args)


@pytest.mark.parametrize("depth", [1, 3])
def test_core_series_that_cannot_be_accurate_is_refused(depth):
    with pytest.raises(QuadratureFailure, match="core series"):
        fk.weight_fourier_integrals(0.5, 100, depth=depth)
    # the widest core admitted: 7 * pi / 2^5 < 1
    fk.weight_fourier_integrals(0.5, 7, depth=5)


@pytest.mark.parametrize("nodes", [gallery.FLAT_SIZE_CAP + 1, 1 << 24])
def test_node_count_past_the_flat_cap_is_refused_before_the_rule_is_solved(monkeypatch, nodes):
    # the table cap admits these node counts at max_delta 0 and depth 1, but
    # each would be a nodes x nodes companion eigenproblem
    def no_rule(n):
        raise AssertionError(f"leggauss called with {n} nodes")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rule)
    with pytest.raises(BadParameter, match=f"nodes must be at most {gallery.FLAT_SIZE_CAP}"):
        fk.weight_fourier_integrals(0.5, 0, depth=1, nodes=nodes)


def test_node_count_at_the_flat_cap_reaches_the_rule(monkeypatch):
    class Reached(Exception):
        pass

    def reached(n):
        raise Reached(n)

    gallery._legendre_rule.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", reached)
    with pytest.raises(Reached):
        fk.weight_fourier_integrals(0.5, 0, depth=1, nodes=gallery.FLAT_SIZE_CAP)


# the shallowest depths that returned NaN, with numpy warnings, at these exponents
@pytest.mark.parametrize("w_exp, depth", [(-0.99, 1037), (-0.5, 1077)])
def test_panel_deeper_than_the_normal_doubles_is_refused(w_exp, depth):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure, match="smallest normal double"):
            fk.weight_fourier_integrals(w_exp, 4, depth=depth)


@pytest.mark.parametrize("w_exp", [-0.9999, -0.5, 5.0])
def test_deepest_admitted_panel_is_finite(w_exp):
    # at depth 1023 every node is at least pi / 2^1023, so x^w stays below 2^1023 / pi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = fk.weight_fourier_integrals(w_exp, 4, depth=1023)
    assert np.all(np.isfinite(values))
    with pytest.raises(QuadratureFailure, match="smallest normal double"):
        fk.weight_fourier_integrals(w_exp, 4, depth=1024)


def _drifted(values, fine):
    return values + 1e-6 if fine else values


def _off_closed_form(values, fine):
    return np.concatenate([[values[0] * (1.0 + 1e-6)], values[1:]])


def _indefinite(values, fine):
    # every off-diagonal entry 1.5 I(0): the Gram is I(0) (1.5 J - 0.5 Id), with
    # eigenvalue -0.5 I(0) on the vectors orthogonal to the ones vector
    return np.concatenate([values[:1], np.full(values.size - 1, 1.5 * values[0])])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drifted, r"quadrature disagreement 1\.000e-06 exceeds 1e-8"),
        (_off_closed_form, r"diagonal 7\.0898\d+ misses closed form 7\.0898154036220635"),
        (_indefinite, r"Gram matrix not PSD: min eigenvalue -3\.545e\+00"),
    ],
    ids=["coarse-fine-drift", "diagonal-off-closed-form", "indefinite-gram"],
)
def test_weighted_exponential_gram_refuses_integrals_that_fail_its_checks(
    monkeypatch, corrupt, message
):
    # a = 0.25, sign -1: w = -0.5 and the closed-form diagonal 4 sqrt(pi) = 7.0898...
    integrals = gallery.weight_fourier_integrals

    def corrupted(weight_exponent, max_delta, **fine_rule):
        return corrupt(integrals(weight_exponent, max_delta, **fine_rule), bool(fine_rule))

    monkeypatch.setattr(gallery, "weight_fourier_integrals", corrupted)
    with pytest.raises(QuadratureFailure, match=f"^{message}$"):
        fk.weighted_exponential_gram(0.25, 1, -1)

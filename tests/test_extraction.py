import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import framekit as fk
from framekit.errors import (
    BadParameter,
    GuaranteeEmpty,
    InfeasibleDelta,
    NotSeparated,
    NotSpanning,
    ZeroNorm,
)
from framekit.metrics import separation_and_norm


def perturbed_in_onb(n=10, delta=0.1):
    # {e_1, e_1 + delta e_2, e_3, ..., e_n}: independent, nearly parallel pair
    cols = np.eye(n, dtype=complex)
    cols[0, 1] = 1.0
    cols[1, 1] = delta
    return fk.VectorSystem(cols)


# ---------------------------------------------------------------------------
# explicit certificate


def test_certificate_worked_example():
    cert = fk.bound_certificate(0.5, 1.0, 1.0, 0.5)
    assert cert.b == pytest.approx(0.5)
    assert cert.rounds == 2
    assert cert.r == pytest.approx(6.0)
    assert cert.a == pytest.approx(1.0 / 432.0)
    assert cert.value == 2160.0


def test_certificate_saturated_rate():
    # b = c d^2 / L^2 = 1 collapses the loop to a single round
    cert = fk.bound_certificate(0.9, 1.0, 1.0, 1.0)
    assert cert.rounds == 1
    assert math.isfinite(cert.value)
    assert cert.value == pytest.approx(96.0)  # r = 4, 2 * 3 * 4^2


def test_certificate_monotone_in_eps():
    values = [fk.theoretical_bound(eps, 0.5, 1.5, 0.1) for eps in (0.2, 0.4, 0.6, 0.8)]
    for lo_eps, hi_eps in zip(values, values[1:]):
        assert hi_eps <= lo_eps


def test_certificate_overflows_to_infinity():
    assert fk.theoretical_bound(0.1, 0.01, 2.0, 0.1) == math.inf


def test_certificate_is_infinite_once_one_minus_b_rounds_to_one():
    # b = 0.1 * 1e-18 / 1 = 1e-19: log(1 - b) is 0, so no finite round count exists
    cert = fk.bound_certificate(0.25, 1e-9, 1.0, 0.1)
    assert cert.b == pytest.approx(1e-19)
    assert (cert.rounds, cert.a, cert.value) == (math.inf, 0.0, math.inf)


def test_certificate_bad_parameters():
    with pytest.raises(BadParameter):
        fk.theoretical_bound(0.0, 1.0, 1.0, 0.5)
    with pytest.raises(BadParameter):
        fk.theoretical_bound(0.5, 0.0, 1.0, 0.5)
    with pytest.raises(BadParameter):
        fk.theoretical_bound(0.5, 2.0, 1.0, 0.5)
    with pytest.raises(BadParameter):
        fk.theoretical_bound(0.5, 1.0, 0.5, 0.5)
    with pytest.raises(BadParameter):
        fk.theoretical_bound(0.5, 1.0, 1.0, 2.0)


@pytest.mark.parametrize("position", range(4), ids=["eps", "separation", "hilbertian", "c"])
def test_certificate_rejects_nan_in_every_argument(position):
    # a NaN hilbertian constant used to reach round() and raise ValueError
    args = [0.5, 0.5, 1.5, 0.1]
    args[position] = math.nan
    with pytest.raises(BadParameter):
        fk.bound_certificate(*args)


# ---------------------------------------------------------------------------
# biorthogonal extraction


def test_biorthogonal_onb():
    trace = fk.extract_biorthogonal(fk.orthonormal(10), 0.1)
    assert len(trace.final_subset) >= 9
    assert trace.final_riesz_constant == pytest.approx(1.0, abs=1e-9)
    assert trace.stop_reason == "coverage_reached"


def test_biorthogonal_drops_a_near_parallel_vector():
    vs = perturbed_in_onb()
    trace = fk.extract_biorthogonal(vs, 0.2)
    assert len(trace.final_subset) >= 8
    assert not {0, 1} <= set(trace.final_subset)
    assert trace.final_riesz_constant <= 2.0
    # oracle: enumerate every 8-subset and take the best achievable constant
    oracle = min(
        fk.riesz_constant(vs.subsystem(combo))
        for combo in itertools.combinations(range(10), 8)
    )
    assert trace.final_riesz_constant <= 2.0 * oracle


def test_biorthogonal_requires_separation():
    with pytest.raises(NotSeparated):
        fk.extract_biorthogonal(fk.duplicated(3), 0.2)


def test_biorthogonal_trace_invariants():
    vs = perturbed_in_onb(12, 0.05)
    trace = fk.extract_biorthogonal(vs, 0.3)
    seen = set()
    covered = 0
    for rnd in trace.rounds:
        assert not (set(rnd.selected) & seen)
        seen |= set(rnd.selected)
        covered += len(rnd.selected)
        assert rnd.coverage == pytest.approx(covered / vs.count)
    assert tuple(sorted(seen)) == trace.final_subset
    assert len(trace.final_subset) >= fk.coverage_target(vs.count, 0.3)
    # certified constant is recomputable from the parent system
    recomputed = fk.riesz_constant(vs.subsystem(trace.final_subset))
    assert recomputed == pytest.approx(trace.final_riesz_constant, abs=1e-10)


def test_biorthogonal_projection_telescope():
    vs = perturbed_in_onb(10)
    d = fk.separation_constant(vs)
    trace = fk.extract_biorthogonal(vs, 0.2)
    # rebuild the cumulative projector and check residuals
    selected: list[int] = []
    for rnd in trace.rounds:
        # every examined unselected residual stays at or above the separation
        for idx, norm in zip(rnd.examined, rnd.residual_norms):
            assert norm >= d - 1e-9
        selected.extend(rnd.selected)
    cols = vs.columns[:, selected]
    q, _ = np.linalg.qr(cols)
    resid = cols - q @ (q.conj().T @ cols)
    assert np.linalg.norm(resid) < 1e-9


def test_biorthogonal_theoretical_bound_dominates():
    for vs in (fk.orthonormal(12), perturbed_in_onb(10)):
        trace = fk.extract_biorthogonal(vs, 0.25)
        bound = trace.parameters["theoretical_bound"]
        assert bound >= trace.final_riesz_constant


def test_biorthogonal_weighted_exponentials():
    vs = fk.weighted_exponentials(0.25, 32, "-")
    trace = fk.extract_biorthogonal(vs, 0.25)
    assert len(trace.final_subset) >= fk.coverage_target(vs.count, 0.25)
    assert len(trace.final_subset) >= 24
    assert math.isfinite(trace.final_riesz_constant)
    # oracle calibration at a desk-scale size: extraction is not far off the
    # exact optimum at the same coverage ratio
    small = fk.weighted_exponentials(0.25, 5, "-")
    target = fk.coverage_target(small.count, 0.25)
    oracle = fk.select_exhaustive(small, target)
    small_trace = fk.extract_biorthogonal(small, 0.25)
    assert small_trace.final_riesz_constant <= 2.0 / oracle.certified_lower_bound


# ---------------------------------------------------------------------------
# frame extraction


def test_frame_onb_reaches_coverage():
    trace = fk.extract_frame(fk.orthonormal(10), 0.25)
    assert len(trace.final_subset) >= 8
    assert trace.final_riesz_constant == pytest.approx(1.0, abs=1e-9)
    assert trace.stop_reason == "coverage_reached"


def test_frame_flat_tight_frame():
    trace = fk.extract_frame(fk.lemma51(40), 0.25, 0.1)
    assert len(trace.final_subset) >= 30
    # oracle calibration at n = 10 with the same coverage ratio
    oracle = fk.select_exhaustive(fk.lemma51(10), 8)
    oracle_riesz = fk.riesz_constant(fk.lemma51(10).subsystem(oracle.subset))
    assert trace.final_riesz_constant <= 2.0 * oracle_riesz


def test_frame_duplicated():
    trace = fk.extract_frame(fk.duplicated(10), 0.2, 0.1)
    assert len(trace.final_subset) >= 8
    assert trace.final_riesz_constant <= math.sqrt(2.0)


def test_frame_requires_spanning():
    with pytest.raises(NotSpanning):
        fk.extract_frame(fk.duplicated(4, double_ambient=True), 0.2)


def test_frame_rejects_zero_norm():
    cols = np.eye(2, 3, dtype=complex)
    with pytest.raises(ZeroNorm):
        fk.extract_frame(fk.VectorSystem(cols), 0.2)


def test_frame_delta_default_saturates_feasibility():
    vs = fk.lemma51(12)
    rep = fk.frame_report(vs)
    trace = fk.extract_frame(vs, 0.25)
    delta = trace.parameters["delta"]
    lhs = (delta**2 / rep.lower_bound) * (rep.upper_bound / rep.min_norm**2)
    assert lhs == pytest.approx(0.125, rel=1e-9)


def test_frame_delta_override_checked():
    vs = fk.lemma51(12)
    with pytest.raises(InfeasibleDelta):
        fk.extract_frame(vs, 0.25, delta_override=1.0)
    with pytest.raises(InfeasibleDelta):
        fk.extract_frame(vs, 0.25, delta_override=-0.5)
    ok = fk.extract_frame(vs, 0.25, delta_override=0.1)
    assert len(ok.final_subset) >= fk.coverage_target(12, 0.25)


def test_frame_nan_delta_is_infeasible():
    # every comparison with NaN is false, so a NaN delta must fail up front
    with pytest.raises(InfeasibleDelta):
        fk.extract_frame(fk.lemma51(12), 0.25, 0.1, math.nan)


def test_frame_trace_certificate_matches_recomputation():
    vs = fk.random_frame(8, 20, seed=5, cond=50.0)
    trace = fk.extract_frame(vs, 0.25)
    recomputed = fk.riesz_constant(vs.subsystem(trace.final_subset))
    assert recomputed == pytest.approx(trace.final_riesz_constant, abs=1e-10)


def test_frame_rule2_logged():
    trace = fk.extract_frame(fk.lemma51(20), 0.25)
    assert all(rnd.rule2_lower_bound is not None for rnd in trace.rounds)


def test_dimension_independence_of_certified_constant():
    constants = []
    for n in (20, 40, 80):
        trace = fk.extract_frame(fk.lemma51(n), 0.25, 0.1)
        constants.append(trace.final_riesz_constant)
    assert max(constants) / min(constants) <= 1.5


def test_eps_validation():
    with pytest.raises(BadParameter):
        fk.extract_frame(fk.orthonormal(4), 0.0)
    with pytest.raises(BadParameter):
        fk.extract_biorthogonal(fk.orthonormal(4), 1.0)
    with pytest.raises(BadParameter):
        fk.extract_biorthogonal(fk.orthonormal(4), 0.5, c=0.0)


# every gallery kind at c = 1, where rounds take the fewest picks, in each mode it admits
TERMINATION_KINDS = {
    "orthonormal": ({"n": 12}, ("frame", "biorthogonal")),
    "lemma51": ({"n": 20}, ("frame",)),
    "duplicated": ({"n": 10}, ("frame",)),
    "perturbedPairs": ({"n": 10}, ("frame", "biorthogonal")),
    "weightedExponentials": ({"a": 0.25, "N": 16, "sign": -1}, ("frame", "biorthogonal")),
    "lemma52Block": ({"k": 2, "eps": 0.3}, ("frame", "biorthogonal")),
    "prop53Truncation": ({"M": 2, "epsilons": [0.2, 0.2]}, ("frame",)),
    "randomFrame": ({"n": 32, "m": 64, "seed": 3, "cond": 1e4}, ("frame",)),
}


def termination_cases():
    """TERMINATION_KINDS, then the extractions of the extract-sweep benchmark
    workload at seed 4711."""
    cases = [
        pytest.param(
            lambda kind=kind, params=params: fk.generate(fk.GallerySpec(kind, params)),
            mode, 0.1, 1.0, id=f"{kind}-{mode}",
        )
        for kind, (params, modes) in TERMINATION_KINDS.items()
        for mode in modes
    ]
    for n in (40, 80, 120, 160):
        cases.append(pytest.param(lambda n=n: fk.lemma51(n), "frame", 0.25, 0.1, id=f"sweep-{n}"))
    for seed in (4711, 4712):
        cases.append(pytest.param(
            lambda seed=seed: fk.random_frame(96, 192, seed, 100.0), "frame", 0.25, 0.1,
            id=f"random96-{seed}",
        ))
    cases.append(pytest.param(
        lambda: fk.random_frame(192, 384, 4713, 1e4), "frame", 0.25, 0.8, id="random192-4713"
    ))
    cases.append(pytest.param(lambda: fk.perturbed_pairs(60), "biorthogonal", 0.25, 0.1, id="pairs60"))
    return cases


def test_termination_cases_cover_every_gallery_kind():
    assert sorted(TERMINATION_KINDS) == sorted(fk.GALLERY_KINDS)


@pytest.mark.parametrize("build,mode,eps,c", termination_cases())
def test_a_trace_has_at_most_target_rounds_each_with_a_pick(build, mode, eps, c):
    # each round takes a pick, and a run needs at most target picks
    extract = fk.extract_frame if mode == "frame" else fk.extract_biorthogonal
    trace = extract(build(), eps, c)
    assert trace.stop_reason == "coverage_reached"
    assert len(trace.rounds) <= trace.parameters["target"]
    assert all(round_.selected for round_ in trace.rounds)


@pytest.mark.parametrize(
    "extract, build",
    [
        (fk.extract_frame, lambda: fk.lemma51(10)),
        (fk.extract_biorthogonal, lambda: fk.perturbed_pairs(5)),
    ],
    ids=["frame", "biorthogonal"],
)
def test_eps_just_below_one_extracts_one_vector(extract, build):
    # the coverage target used to be 0 here, and the empty final subsystem was refused
    trace = extract(build(), 0.9999999999)
    assert trace.parameters["target"] == 1
    assert (len(trace.rounds), len(trace.final_subset)) == (1, 1)
    assert trace.stop_reason == "coverage_reached"


def largest_feasible_delta(system, eps):
    """The largest delta that extract_frame's feasibility check accepts."""
    report = fk.frame_report(system)
    lower, upper, alpha = report.lower_bound, report.upper_bound, report.min_norm
    delta = math.sqrt((eps / 2.0 + 1e-12) * lower / upper) * alpha
    while not (delta**2 / lower) * (upper / alpha**2) <= eps / 2.0 + 1e-12:
        delta = math.nextafter(delta, 0.0)
    return delta


@st.composite
def spanning_systems(draw):
    """Real or complex n x m systems, n <= 10, m <= 4n, column norms over three decades."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(n, 4 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = rng.standard_normal((n, m))
    if draw(st.booleans()):
        cols = cols + 1j * rng.standard_normal((n, m))
    system = fk.VectorSystem(cols * 10.0 ** rng.uniform(-1.5, 1.5, m))
    assume(fk.frame_report(system).is_spanning)
    return system


@given(
    system=spanning_systems(),
    eps=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    c=st.sampled_from([0.3, 1.0]),
    largest=st.booleans(),
)
def test_frame_rounds_keep_more_than_half_eps_n_residuals_above_delta(system, eps, c, largest):
    # the counting argument of extract_frame: before coverage, more than eps n / 2
    # residuals clear delta, so coverage is the only stop a frame run needs
    override = largest_feasible_delta(system, eps) if largest else None
    trace = fk.extract_frame(system, eps, c, delta_override=override)
    delta, target, n = (trace.parameters[k] for k in ("delta", "target", "total"))
    assert len(trace.final_subset) >= target
    assert 1 <= len(trace.rounds) <= target
    for round_ in trace.rounds:
        assert round_.selected
        pool = sum(norm >= delta * (1.0 - 1e-12) for norm in round_.residual_norms)
        assert pool > eps * n / 2.0


@given(
    system=spanning_systems(),
    mode=st.sampled_from(["frame", "biorthogonal"]),
    eps=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    c=st.sampled_from([0.3, 1.0]),
    exponent=st.sampled_from([0, 260]),
)
def test_every_round_selects_at_least_one_vector(system, mode, eps, c, exponent):
    # _peel's proof: a round's first pick clears its greedy stop, whatever n.  The
    # conjugate transpose of a spanning system has independent columns; at 2^260
    # their Gram diagonal lies past 2^500, so greedy ranks in units of _gram_unit != 1
    # (a frame that large is refused: its default delta overflows on the way)
    if mode == "frame":
        trace = fk.extract_frame(system, eps, c)
    else:
        system = fk.VectorSystem(system.columns.conj().T * 2.0**exponent)
        assume(separation_and_norm(system)[0] > fk.DEFAULT_TOLERANCE)
        trace = fk.extract_biorthogonal(system, eps, c)
    target = trace.parameters["target"]
    assert len(trace.final_subset) >= target
    assert 1 <= len(trace.rounds) <= target
    assert all(round_.selected for round_ in trace.rounds)


def test_a_biorthogonal_residual_of_zero_raises_guarantee_empty(monkeypatch):
    # the check _peel keeps: it guards the division by the residual norms
    column_norms = fk.extraction._column_norms

    def with_a_zero(columns):
        norms = column_norms(columns)
        norms[-1] = 0.0
        return norms

    monkeypatch.setattr(fk.extraction, "_column_norms", with_a_zero)
    with pytest.raises(GuaranteeEmpty, match="^all residuals vanished before reaching coverage$"):
        fk.extract_biorthogonal(fk.orthonormal(4), 0.5)


def test_a_seventy_round_extraction_reaches_coverage():
    trace = fk.extract_frame(fk.random_frame(192, 384, 2, 1e4), 0.25, 0.99)
    assert (trace.stop_reason, len(trace.rounds), len(trace.final_subset)) == (
        "coverage_reached", 70, 144
    )


# ---------------------------------------------------------------------------
# parity of the peeling engine with the loop it replaced


def _old_orthonormal_extend(basis, new_cols):
    for k in range(new_cols.shape[1]):
        v = new_cols[:, k].copy()
        for _ in range(2):
            if basis.shape[1]:
                v -= basis @ (basis.conj().T @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-14 * max(1.0, np.linalg.norm(new_cols[:, k])):
            basis = np.concatenate([basis, (v / norm)[:, None]], axis=1)
    return basis


def _old_hermitian_gram(cols):
    gram = cols.conj().T @ cols
    return 0.5 * (gram + gram.conj().T)


def _old_rule2(coeff, round_idx, eps, delta, n):
    if coeff is None or delta is None:
        return None
    return float(coeff * n + (round_idx - 1) * (coeff / delta**2) * (eps / 2.0) * n)


def _old_run_rounds(system, eps, c, target, total, delta, rule2_coeff):
    """The peeling loop as it was: a basis grown by twice-repeated Gram-Schmidt."""
    from framekit.errors import GuaranteeEmpty
    from framekit.selection import bt_guarantee_size, greedy_order

    cols = system.columns
    n = system.dim
    selected = []
    basis = np.zeros((n, 0), dtype=np.complex128)
    rounds = []
    for round_idx in itertools.count(1):
        if len(selected) >= target:
            return selected, rounds, "coverage_reached"
        taken = set(selected)
        remaining = [i for i in range(system.count) if i not in taken]
        resid = cols[:, remaining].copy()
        if basis.shape[1]:
            resid -= basis @ (basis.conj().T @ resid)
        norms = np.linalg.norm(resid, axis=0)
        rule2 = _old_rule2(rule2_coeff, round_idx, eps, delta, n)
        if delta is not None:
            eligible_mask = norms >= delta * (1.0 - 1e-12)
            if np.count_nonzero(eligible_mask) <= eps * n / 2.0 + 1e-9:
                rounds.append(
                    fk.ExtractionRound(
                        round_idx, tuple(remaining), tuple(float(x) for x in norms), (),
                        0.0, 0, False, len(selected) / total, rule2,
                    )
                )
                return selected, rounds, "residual_set_small"
            pool = [remaining[k] for k in range(len(remaining)) if eligible_mask[k]]
            pool_resid = resid[:, eligible_mask]
            pool_norms = norms[eligible_mask]
        else:
            pool, pool_resid, pool_norms = remaining, resid, norms
        if round_idx == 1:
            work, floor, normalized = cols[:, pool], float(np.min(pool_norms)), False
        else:
            work, floor, normalized = pool_resid / pool_norms, 1.0, True
        if floor <= 0.0:
            raise GuaranteeEmpty("all residuals vanished before reaching coverage")
        guarantee = bt_guarantee_size(len(pool), float(np.linalg.norm(work, 2)), c)
        order, bounds = greedy_order(
            _old_hermitian_gram(work), target - len(selected), stop_below=c * floor
        )
        if not order:
            raise GuaranteeEmpty(f"round {round_idx}: no certifiable pick")
        chosen = [pool[j] for j in order]
        selected.extend(chosen)
        basis = _old_orthonormal_extend(basis, cols[:, chosen])
        rounds.append(
            fk.ExtractionRound(
                round_idx, tuple(remaining), tuple(float(x) for x in norms), tuple(chosen),
                float(bounds[-1]), guarantee, normalized, len(selected) / total, rule2,
            )
        )


def old_engine_trace(system, trace):
    """Rerun the old loop with the parameters the new engine recorded."""
    p = trace.parameters
    delta = p.get("delta")
    coeff = p["c"] / p["upper_bound"] ** 2 if delta is not None else None
    selected, rounds, stop = _old_run_rounds(
        system, p["eps"], p["c"], p["target"], p["total"], delta, coeff
    )
    final = tuple(sorted(selected))
    return fk.ExtractionTrace(
        trace.mode, tuple(rounds), final,
        fk.riesz_constant(system.subsystem(final)), stop, dict(p),
    )


PARITY_CASES = [
    ("lemma51-20", lambda: fk.lemma51(20), "frame", 0.8),
    ("random-48", lambda: fk.random_frame(48, 96, 2, 1e4), "frame", 0.8),
    ("random-64", lambda: fk.random_frame(64, 128, 3, 1e4), "frame", 0.8),
    ("pairs-20", lambda: fk.perturbed_pairs(20), "biorthogonal", 0.1),
    ("lemma51-60-c1", lambda: fk.lemma51(60), "frame", 1.0),
]


@pytest.mark.parametrize("name,build,mode,c", PARITY_CASES, ids=[p[0] for p in PARITY_CASES])
def test_engine_matches_old_loop(name, build, mode, c):
    system = build()
    extract = fk.extract_frame if mode == "frame" else fk.extract_biorthogonal
    new = extract(system, 0.25, c)
    old = old_engine_trace(system, new)
    assert len(new.rounds) >= 2
    assert len(new.rounds) == len(old.rounds)
    for a, b in zip(new.rounds, old.rounds):
        assert (a.index, a.examined, a.selected) == (b.index, b.examined, b.selected)
        assert (a.bt_target, a.normalized, a.coverage) == (b.bt_target, b.normalized, b.coverage)
        assert a.rule2_lower_bound == b.rule2_lower_bound
        np.testing.assert_allclose(a.residual_norms, b.residual_norms, rtol=0, atol=1e-12)
        assert a.certified_bound == pytest.approx(b.certified_bound, rel=0, abs=1e-12)
    assert new.stop_reason == old.stop_reason
    assert new.final_subset == old.final_subset
    assert new.final_riesz_constant == pytest.approx(old.final_riesz_constant, rel=1e-12)


@pytest.mark.parametrize(
    "build,eps,c",
    [
        (lambda: fk.lemma51(40), 0.25, 0.1),
        (lambda: fk.random_frame(96, 192, 0), 0.75, 0.1),
        (lambda: fk.prop53_truncation(2, [0.2, 0.2]), 0.25, 1.0),
    ],
    ids=["lemma51", "random", "prop53Truncation-c1"],
)
def test_engine_single_round_traces_are_byte_identical(build, eps, c):
    from framekit import serialization as ser

    system = build()
    new = fk.extract_frame(system, eps, c)
    assert len(new.rounds) == 1
    for old in (old_engine_trace(system, new), projection_peel(system, "frame", new.parameters)):
        assert ser.dumps(ser.trace_to_json(new)) == ser.dumps(ser.trace_to_json(old))


# ---------------------------------------------------------------------------
# parity of the deflated engine with the full-dimension projection engine


def projection_peel(system, mode, parameters):
    """The peeling engine before deflation: each round QRs every selected
    column and projects the remaining columns off their span, in C^n."""
    from framekit.errors import GuaranteeEmpty
    from framekit.metrics import _operator_norm
    from framekit.selection import bt_guarantee_size, greedy_order

    eps, c, target, total = (parameters[k] for k in ("eps", "c", "target", "total"))
    delta = parameters.get("delta")
    cols = system.columns
    selected = []
    rounds = []
    for index in itertools.count(1):
        if len(selected) >= target:
            stop_reason = "coverage_reached"
            break
        taken = set(selected)
        remaining = [i for i in range(system.count) if i not in taken]
        resid = cols.take(remaining, axis=1)
        if selected:
            q = np.linalg.qr(cols[:, selected])[0]
            resid -= q @ (q.conj().T @ resid)
        norms = np.linalg.norm(resid, axis=0)
        pool = np.arange(len(remaining))
        rule2 = None
        if delta is not None:
            pool = np.flatnonzero(norms >= delta * (1.0 - 1e-12))
            coeff = c / parameters["upper_bound"] ** 2
            rule2 = float(coeff * total + (index - 1) * (coeff / delta**2) * (eps / 2.0) * total)
        chosen, bound, guarantee, normalized = (), 0.0, 0, False
        if delta is not None and len(pool) <= eps * total / 2.0 + 1e-9:
            stop_reason = "residual_set_small"
        else:
            work = resid[:, pool]
            floor = float(np.min(norms[pool]))
            if selected:
                work, floor, normalized = work / norms[pool], 1.0, True
            if floor <= 0.0:
                raise GuaranteeEmpty("all residuals vanished before reaching coverage")
            guarantee = bt_guarantee_size(len(pool), _operator_norm(work), c)
            order, bounds = greedy_order(
                fk.core.gram(work), target - len(selected), stop_below=c * floor
            )
            if not order:
                raise GuaranteeEmpty(f"round {index}: no certifiable pick")
            chosen, bound = tuple(remaining[pool[j]] for j in order), float(bounds[-1])
            selected.extend(chosen)
        rounds.append(
            fk.ExtractionRound(
                index, tuple(remaining), tuple(float(x) for x in norms), chosen, bound,
                guarantee, normalized, len(selected) / total, rule2,
            )
        )
        if not chosen:
            break
    final = tuple(sorted(selected))
    return fk.ExtractionTrace(
        mode, tuple(rounds), final, fk.riesz_constant(system.subsystem(final)), stop_reason,
        parameters,
    )


def deflation_cases():
    """34 multi-round extractions; prop53Truncation spans with count > dim, so
    only frame mode applies to it."""
    cases = []
    for n, seeds in ((64, range(6)), (96, range(4)), (192, range(2))):
        for seed in seeds:
            for c in (0.5, 0.8):
                build = lambda n=n, seed=seed: fk.random_frame(n, 2 * n, seed, 1e4)
                cases.append(pytest.param(build, "frame", 0.25, c, id=f"random-{n}-{seed}-c{c}"))
    cases.append(pytest.param(lambda: fk.lemma51(60), "frame", 0.25, 0.8, id="lemma51-60"))
    # c = 1: a unit residual's bound against the floor 1.0 is a stop that roundoff must not decide
    cases.append(pytest.param(lambda: fk.lemma51(60), "frame", 0.25, 1.0, id="lemma51-60-c1"))
    # 70 rounds and 144 picks
    cases.append(pytest.param(
        lambda: fk.random_frame(192, 384, 2, 1e4), "frame", 0.25, 0.99, id="random-192-2-c0.99"
    ))
    cases.append(pytest.param(
        lambda: fk.prop53_truncation(2, [0.2, 0.2]), "frame", 0.01, 0.99, id="prop53Truncation"
    ))
    bases = {
        "lemma52Block": lambda: fk.lemma52_block(2, 0.3),
        "weightedExponentials+": lambda: fk.weighted_exponentials(0.25, 16, "+"),
        "weightedExponentials-": lambda: fk.weighted_exponentials(0.25, 16, "-"),
    }
    for name, build in bases.items():
        for mode in ("frame", "biorthogonal"):
            cases.append(pytest.param(build, mode, 0.1, 0.9, id=f"{name}-{mode}"))
    return cases


@pytest.mark.parametrize("build,mode,eps,c", deflation_cases())
def test_deflated_engine_matches_projection_engine(build, mode, eps, c):
    from framekit import serialization as ser

    system = build()
    extract = fk.extract_frame if mode == "frame" else fk.extract_biorthogonal
    new = extract(system, eps, c)
    old = projection_peel(system, mode, new.parameters)
    assert len(new.rounds) >= 2
    assert len(new.rounds) == len(old.rounds)
    for a, b in zip(new.rounds, old.rounds):
        assert (a.index, a.examined, a.selected, a.bt_target) == (
            b.index, b.examined, b.selected, b.bt_target
        )
        assert (a.normalized, a.coverage, a.rule2_lower_bound) == (
            b.normalized, b.coverage, b.rule2_lower_bound
        )
        np.testing.assert_allclose(a.residual_norms, b.residual_norms, rtol=0, atol=1e-12)
        assert abs(a.certified_bound - b.certified_bound) <= 1e-12
    assert (new.stop_reason, new.final_subset, new.final_riesz_constant) == (
        old.stop_reason, old.final_subset, old.final_riesz_constant
    )
    round_one = [ser.dumps(ser.trace_to_json(t)["rounds"][0]) for t in (new, old)]
    assert round_one[0] == round_one[1]


def test_each_round_factors_only_the_uncovered_complement(factorization_shapes, monkeypatch):
    system = fk.random_frame(64, 128, 3, 1e4)
    norm_at, complete_qrs = [], []

    def operator_norm(mat, _original=fk.extraction._operator_norm):
        norm_at.append(len(factorization_shapes))
        return _original(mat)

    def qr(a, mode="reduced", _original=np.linalg.qr):
        if mode == "complete":
            complete_qrs.append((len(factorization_shapes), np.shape(a)))
        return _original(a, mode=mode)

    monkeypatch.setattr(fk.extraction, "_operator_norm", operator_norm)
    monkeypatch.setattr(np.linalg, "qr", qr)
    factorization_shapes.clear()
    trace = fk.extract_frame(system, 0.25, 0.8)
    picks = [len(r.selected) for r in trace.rounds]
    before = [sum(picks[:r]) for r in range(len(picks))]
    assert len(trace.rounds) > 2 and len(norm_at) == len(trace.rounds)
    # the operator norm's one eigvalsh is of the (64 - k)-square Gram of the complement
    assert [factorization_shapes[at] for at in norm_at] == [(64 - k, 64 - k) for k in before]
    # one complete QR of the previous round's picks opens every later round
    assert [shape for _, shape in complete_qrs] == [
        (64 - k, p) for k, p in zip(before[:-1], picks[:-1])
    ]
    assert all(a < at < b for (at, _), a, b in zip(complete_qrs, norm_at, norm_at[1:]))

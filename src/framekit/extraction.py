"""Subset extraction with a directly certified Riesz constant.

Two peeling loops share one engine.  Each round greedily selects among the
residuals of the unselected vectors in the complement of span(selected)
(normalized from round two onward) a subset whose smallest singular value
stays above c times the current residual floor.  The residuals are carried
as coordinates in an orthonormal basis of that complement, which each round
deflates by the previous round's picks, so a round at coverage k factors
(n - k)-row arrays only.  A round never takes more than what is still
needed to reach coverage ceil((1 - eps) * n): the certified conditioning of
the final subset then depends on eps and the frame data but not on the
dimension, which is the whole point.

The biorthogonal variant runs on linearly independent systems with positive
separation; the frame variant runs on spanning systems and additionally gates
each round on a residual threshold delta chosen from the frame bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOLERANCE, VectorSystem, _column_norms, coverage_target, frame_report, gram,
)
from .errors import (
    BadParameter,
    GuaranteeEmpty,
    InfeasibleDelta,
    NotSeparated,
    NotSpanning,
    ZeroNorm,
)
from .metrics import _operator_norm, _upper_frame_bound, riesz_constant, separation_and_norm
from .selection import _gram_unit, bt_guarantee_size, greedy_order


@dataclass(frozen=True)
class ExtractionRound:
    """One peeling round: what was examined, what was taken, and the certificate."""

    index: int
    examined: tuple[int, ...]
    residual_norms: tuple[float, ...]
    selected: tuple[int, ...]
    certified_bound: float
    bt_target: int
    normalized: bool
    coverage: float
    rule2_lower_bound: float | None = None


@dataclass(frozen=True, eq=False)
class ExtractionTrace:
    """Full per-round record of an extraction run."""

    mode: str
    rounds: tuple[ExtractionRound, ...]
    final_subset: tuple[int, ...]
    final_riesz_constant: float
    stop_reason: str
    parameters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BoundCertificate:
    """Pieces of the explicit dimension-free Riesz-constant certificate."""

    b: float
    rounds: int | float  # math.inf when 1 - b rounds to 1
    r: float
    a: float
    value: float


def _check_eps_c(eps: float, c: float) -> None:
    if not 0.0 < eps < 1.0:
        raise BadParameter("eps must lie strictly between 0 and 1")
    if not 0.0 < c <= 1.0:
        raise BadParameter("c must lie in (0, 1]")


def bound_certificate(
    eps: float, separation: float, hilbertian: float, c: float
) -> BoundCertificate:
    """Evaluate the explicit certificate g(eps, d, L) with its documented choices.

    b = c d^2 / L^2; rounds m is the smallest integer with (1-b)^(m-1) <= eps
    (m = 1 once b >= 1); r = max(2, 1 + 2L/(c d)) + 1; a = r^-(m+1) / 2; the
    certificate is max(L, (r - 1) / (L a)), returned as infinity on overflow.
    A b so small that 1 - b rounds to 1 gives m = infinity, a = 0 and an
    infinite certificate.
    """
    _check_eps_c(eps, c)
    if not 0.0 < separation <= 1.0:
        raise BadParameter("separation must lie in (0, 1]")
    if not hilbertian >= 1.0:  # also rejects NaN
        raise BadParameter("hilbertian constant must be at least 1")
    b = c * separation**2 / hilbertian**2
    r = max(2.0, 1.0 + 2.0 * hilbertian / (c * separation)) + 1.0
    if b >= 1.0:
        rounds = 1
    elif 1.0 - b == 1.0:
        # b below about 1.1e-16: (1 - b)^m rounds to 1 for every m, so no
        # number of rounds reaches eps in doubles and the certificate is unbounded
        return BoundCertificate(b, math.inf, r, 0.0, math.inf)
    else:
        ratio = math.log(eps) / math.log(1.0 - b)
        if abs(ratio - round(ratio)) < 1e-9:
            ratio = round(ratio)
        rounds = 1 + max(1, math.ceil(ratio))
    a = r ** (-(rounds + 1)) / 2.0  # underflows to 0.0 without raising
    with np.errstate(over="ignore"):  # a numpy power gives inf where Python's raises
        lower_part = float(2.0 * (r - 1.0) * np.float64(r) ** (rounds + 1) / hilbertian)
    return BoundCertificate(b, rounds, r, a, max(hilbertian, lower_part))


def theoretical_bound(eps: float, separation: float, hilbertian: float, c: float) -> float:
    """The certificate value alone; see bound_certificate for the pieces."""
    return bound_certificate(eps, separation, hilbertian, c).value


def _peel(system: VectorSystem, mode: str, parameters: dict) -> ExtractionTrace:
    """Shared peeling engine, driven by the parameters it records in the trace.

    resid holds the unselected columns as coordinates in an orthonormal basis
    of the complement of span(selected); round one reads the columns
    themselves.  Each later round deflates by the previous round's p picks
    (Householder deflation, Golub-Van Loan 5.2): the last columns Q[:, p:] of
    one complete QR of their residual columns are an orthonormal basis of the
    complement of the picks, and resid <- Q[:, p:]^H resid[:, kept].  A change
    of orthonormal basis keeps norms, Gram and operator norm, so they are
    those of the full-dimension projected residuals up to roundoff, and a
    round at coverage k costs O((n - k)^3 + (n - k) m^2), not O(n^3 + n m^2).

    Frame mode (parameters carry "delta") examines only residuals of norm at
    least delta; extract_frame shows that more than eps n / 2 of them remain
    in every round before coverage.

    Every round takes at least one pick, for every n.  Its greedy stop is
    bound < c sqrt(d_min) (1 - TIE_RTOL), d_min and d_max being the smallest
    and largest diagonal entries of the Gram g that greedy_order ranks.  With
    s = _gram_unit(d_max), an exact power of two, the first pick j ties the
    largest diagonal: d_j / s (exact at that size) is at least
    fl(d_max / s - fl(TIE_RTOL d_max / s)), so d_j >= d_max (1 - TIE_RTOL - 2u),
    u = 2^-53, and its bound is the correctly rounded sqrt(d_j / s) times
    sqrt(s).  As d_min <= d_max and c <= 1, that bound is at least
    sqrt(d_min) sqrt(1 - TIE_RTOL - 2u) (1 - u), about
    sqrt(d_min) (1 - TIE_RTOL / 2 - 2u), while the computed threshold (four
    roundings) is at most sqrt(d_min) (1 - TIE_RTOL) (1 + u)^4, about
    sqrt(d_min) (1 - TIE_RTOL + 4u): TIE_RTOL / 2 = 5e-13 exceeds 6u.  Both
    sides read the same doubles of one diagonal, so no gap between two
    summations of a norm enters.  greedy_order gets limit
    target - len(selected) >= 1, so the loop adds a pick per round, a trace
    has at most target rounds, and coverage is the only way out of it.
    """
    eps, c, target, total = (parameters[k] for k in ("eps", "c", "target", "total"))
    delta = parameters.get("delta")
    remaining = np.arange(system.count)
    resid = system.columns
    picked = np.arange(0)  # positions in resid of the previous round's picks
    selected: list[int] = []
    rounds: list[ExtractionRound] = []
    # ends by itself: every round adds a pick (see the docstring)
    while len(selected) < target:
        index = len(rounds) + 1
        if picked.size:
            q = np.linalg.qr(resid[:, picked], mode="complete")[0]
            kept = np.ones(remaining.size, dtype=bool)
            kept[picked] = False
            resid = q[:, picked.size:].conj().T @ resid[:, kept]
            remaining = remaining[kept]
        norms = _column_norms(resid)
        pool = np.arange(remaining.size)
        rule2 = None
        if delta is not None:
            pool = np.flatnonzero(norms >= delta * (1.0 - 1e-12))
            # logged (not used for control): d n + (m-1) (d/delta^2) (eps/2) n, in numpy
            # doubles, so that a d or delta^2 past the double range gives inf or 0; the
            # (m-1) term is 0 in round one or once d is 0, and is not formed as 0 * inf or 0 / 0
            with np.errstate(over="ignore", divide="ignore"):
                coeff = c / np.float64(parameters["upper_bound"]) ** 2
                step = coeff / np.float64(delta) ** 2 if index > 1 and coeff > 0.0 else 0.0
                rule2 = float(coeff * total + (index - 1) * step * (eps / 2.0) * total)
        # frame pools are >= delta > 0; a biorthogonal 0.0 is ruled out only for n u < RANK_RTOL
        if np.min(norms[pool]) <= 0.0:
            raise GuaranteeEmpty("all residuals vanished before reaching coverage")
        work = resid[:, pool]
        if index > 1:
            work = work / norms[pool]
        guarantee = bt_guarantee_size(len(pool), _operator_norm(work), c)
        g = gram(work)
        floor = math.sqrt(np.diagonal(g).real.min())
        order, bounds = greedy_order(g, target - len(selected), stop_below=c * floor)
        del g  # else it stays beside the next round's Gram, raising the peak by one m x m array
        picked = pool[order]
        chosen = tuple(remaining[picked].tolist())
        selected.extend(chosen)
        rounds.append(
            ExtractionRound(
                index=index,
                examined=tuple(remaining.tolist()),
                residual_norms=tuple(float(x) for x in norms),
                selected=chosen,
                certified_bound=float(bounds[-1]),
                bt_target=guarantee,
                normalized=index > 1,
                coverage=len(selected) / total,
                rule2_lower_bound=rule2,
            )
        )
    final = tuple(sorted(selected))
    return ExtractionTrace(
        mode=mode,
        rounds=tuple(rounds),
        final_subset=final,
        final_riesz_constant=riesz_constant(system.subsystem(final)),
        stop_reason="coverage_reached",
        parameters=parameters,
    )


def extract_biorthogonal(system: VectorSystem, eps: float, c: float = 0.1) -> ExtractionTrace:
    """Peel a linearly independent, separated system down to a certified subset.

    Round one selects among the raw vectors; later rounds select among the
    normalized projected residuals.  Stops once at least ceil((1 - eps) * m)
    indices are covered, m being the vector count (the span dimension for an
    independent family).  Raises NotSeparated when the separation constant is
    at or below DEFAULT_TOLERANCE, and BadParameter when sigma_max^2 is not a
    finite double.
    """
    _check_eps_c(eps, c)
    m = system.count
    separation, hilbertian = separation_and_norm(system)
    if separation <= DEFAULT_TOLERANCE:
        raise NotSeparated(f"separation {separation:.3e} is at or below tolerance")
    _upper_frame_bound(hilbertian)
    certificate = theoretical_bound(eps, min(separation, 1.0), max(hilbertian, 1.0), c)
    parameters = {
        "eps": eps,
        "c": c,
        "separation": separation,
        "hilbertian": hilbertian,
        "target": coverage_target(m, eps),
        "total": m,
        "tolerance": DEFAULT_TOLERANCE,
        "theoretical_bound": certificate,
    }
    return _peel(system, "biorthogonal", parameters)


def default_delta(eps: float, lower: float, upper: float, min_norm: float) -> float:
    """Largest residual threshold satisfying the feasibility inequality with equality.

    Computed as sqrt(s) sqrt(eps A a^2 / (2 B)) with a = alpha / sqrt(s) and
    s = _gram_unit(upper), an even power of two that is exactly 1.0 while
    upper lies in [2^-500, 2^500], so such bounds keep their bits.  As
    alpha^2 <= B, a^2 < 4 past that range, and the product leaves the double
    range only for bounds within a factor 4 of the largest double, or when
    it underflows (alpha below about 2^-537 sqrt(B)).  Such a delta reads
    inf, 0.0 or NaN, not an exception or a warning; extract_frame refuses it.
    """
    root = math.sqrt(_gram_unit(upper))  # exact: the unit is an even power of two
    with np.errstate(all="ignore"):
        return float(root * np.sqrt(eps * lower * np.float64(min_norm / root) ** 2 / (2.0 * upper)))


def extract_frame(
    system: VectorSystem,
    eps: float,
    c: float = 0.1,
    delta_override: float | None = None,
) -> ExtractionTrace:
    """Peel a spanning frame down to a certified subset of size >= ceil((1 - eps) n).

    Rounds select only among indices whose current residual norm is at least
    delta, where delta defaults to equality in (delta^2/A)(B/alpha^2) <= eps/2.
    The loop stops only at coverage; every round before it has more than
    eps n / 2 residuals at or above delta to choose from.  Proof: a round starts
    with k < target picks, so the complement of their span (projection P) has
    dimension n - k >= floor(eps n) + 1 > eps n.  Let r be the dimension of
    its part orthogonal to the pool's residuals, so r >= n - k - |pool|, and
    u_1..u_r an orthonormal basis of that part.  Only residuals P f_i below
    delta reach it, so r A <= sum_j sum_i |<u_j, f_i>|^2 < m delta^2, and the
    cardinality inequality m <= n B / alpha^2 with the feasibility inequality
    gives m delta^2 <= eps A n / 2.  Hence r < eps n / 2 and |pool| >= n - k - r
    > eps n / 2.  The slacks (1e-9 in coverage_target, 1e-12 in the feasibility
    check and the pool threshold) and roundoff in A, B and alpha can void this
    only when eps n lies within about 1e-9 + 1e-12 n below an integer; there
    the loop still takes a pick per round until coverage (see _peel).  The
    pool is never empty: that would need (n - k) A < eps A n / 2.

    A delta_override that is not positive, or that violates the
    inequality (as one whose square overflows does), raises InfeasibleDelta; a
    default delta that is not a positive finite double raises BadParameter.
    """
    _check_eps_c(eps, c)
    report = frame_report(system)
    if not report.is_spanning:
        raise NotSpanning("frame extraction needs a spanning system")
    if report.min_norm <= 0.0:
        raise ZeroNorm("frame extraction needs all norms positive")
    lower, upper = report.lower_bound, report.upper_bound
    alpha, beta = report.min_norm, report.max_norm
    if delta_override is not None:
        if not delta_override > 0.0:  # also rejects NaN
            raise InfeasibleDelta(f"delta must be positive, got {delta_override!r}")
        with np.errstate(all="ignore"):  # a delta^2 past the double range is inf
            ratio = (np.float64(delta_override) ** 2 / lower) * (upper / np.float64(alpha) ** 2)
        if not ratio <= eps / 2.0 + 1e-12:  # also refuses NaN
            raise InfeasibleDelta(
                f"delta {delta_override:.6g} violates the feasibility inequality"
            )
        delta = float(delta_override)
    else:
        delta = default_delta(eps, lower, upper, alpha)
        if not 0.0 < delta < math.inf:
            raise BadParameter(f"default delta is not a positive finite double (delta = {delta!r})")
    n = system.dim
    parameters = {
        "eps": eps,
        "c": c,
        "delta": delta,
        "lower_bound": lower,
        "upper_bound": upper,
        "min_norm": alpha,
        "max_norm": beta,
        "target": coverage_target(n, eps),
        "total": n,
        "tolerance": DEFAULT_TOLERANCE,
    }
    return _peel(system, "frame", parameters)

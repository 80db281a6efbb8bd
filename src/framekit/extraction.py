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

from .core import DEFAULT_TOLERANCE, VectorSystem, coverage_target, frame_report, gram
from .errors import (
    BadParameter,
    GuaranteeEmpty,
    InfeasibleDelta,
    NotSeparated,
    NotSpanning,
    RoundLimit,
    ZeroNorm,
)
from .metrics import _operator_norm, riesz_constant, separation_and_norm
from .selection import bt_guarantee_size, greedy_order

ROUND_CAP = 64


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
    if hilbertian < 1.0:
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
    try:
        a = r ** (-(rounds + 1)) / 2.0
    except OverflowError:
        a = 0.0
    try:
        lower_part = 2.0 * (r - 1.0) * r ** (rounds + 1) / hilbertian
    except OverflowError:
        lower_part = math.inf
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
    least delta and stops once too few of them remain.
    """
    eps, c, target, total = (parameters[k] for k in ("eps", "c", "target", "total"))
    delta = parameters.get("delta")
    remaining = np.arange(system.count)
    resid = system.columns
    picked = np.arange(0)  # positions in resid of the previous round's picks
    selected: list[int] = []
    rounds: list[ExtractionRound] = []
    for index in range(1, ROUND_CAP + 1):
        if len(selected) >= target:
            stop_reason = "coverage_reached"
            break
        if picked.size:
            q = np.linalg.qr(resid[:, picked], mode="complete")[0]
            kept = np.ones(remaining.size, dtype=bool)
            kept[picked] = False
            resid = q[:, picked.size:].conj().T @ resid[:, kept]
            remaining = remaining[kept]
        norms = np.linalg.norm(resid, axis=0)
        pool = np.arange(remaining.size)
        rule2 = None
        if delta is not None:
            pool = np.flatnonzero(norms >= delta * (1.0 - 1e-12))
            # logged (not used for control): d n + (m-1) (d/delta^2) (eps/2) n
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
            order, bounds = greedy_order(gram(work), target - len(selected), stop_below=c * floor)
            if not order:
                raise GuaranteeEmpty(
                    f"round {index}: guarantee size {guarantee} and no certifiable pick"
                )
            picked = pool[order]
            chosen, bound = tuple(remaining[picked].tolist()), float(bounds[-1])
            selected.extend(chosen)
        rounds.append(
            ExtractionRound(
                index=index,
                examined=tuple(remaining.tolist()),
                residual_norms=tuple(float(x) for x in norms),
                selected=chosen,
                certified_bound=bound,
                bt_target=guarantee,
                normalized=normalized,
                coverage=len(selected) / total,
                rule2_lower_bound=rule2,
            )
        )
        if not chosen:
            break
    else:
        raise RoundLimit(f"extraction exceeded {ROUND_CAP} rounds")
    final = tuple(sorted(selected))
    return ExtractionTrace(
        mode=mode,
        rounds=tuple(rounds),
        final_subset=final,
        final_riesz_constant=riesz_constant(system.subsystem(final)),
        stop_reason=stop_reason,
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
    # a Python float product past the largest double is inf, where ** raises OverflowError
    if not math.isfinite(hilbertian * hilbertian):
        raise BadParameter(
            f"upper frame bound sigma_max^2 is not a finite double (sigma_max = {hilbertian!r})"
        )
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
    """Largest residual threshold satisfying the feasibility inequality with equality."""
    return math.sqrt(eps * lower * min_norm**2 / (2.0 * upper))


def extract_frame(
    system: VectorSystem,
    eps: float,
    c: float = 0.1,
    delta_override: float | None = None,
) -> ExtractionTrace:
    """Peel a spanning frame down to a certified subset of size >= ceil((1 - eps) n).

    Rounds select only among indices whose current residual norm is at least
    delta, where delta defaults to equality in (delta^2/A)(B/alpha^2) <= eps/2.
    The loop stops when either coverage is reached or too few residuals clear
    delta; in the latter case the counting inequalities force the coverage
    bound anyway.
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
        if (delta_override**2 / lower) * (upper / alpha**2) > eps / 2.0 + 1e-12:
            raise InfeasibleDelta(
                f"delta {delta_override:.6g} violates the feasibility inequality"
            )
        delta = float(delta_override)
    else:
        delta = default_delta(eps, lower, upper, alpha)
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

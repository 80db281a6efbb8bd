"""Well-invertible column subset selection.

Given a system of (near-)unit-norm vectors, find an index subset whose columns
have a large smallest singular value.  The exhaustive search is the desk-scale
oracle; the greedy heuristic scales and is compared against the oracle in the
test suite.  Both are deterministic: ties break toward the lexicographically
smallest index sequence, a tie being any candidate whose smallest Gram
eigenvalue is within TIE_RTOL * max diag(gram) of the best one.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import VectorSystem, _is_real, gram
from .errors import BadParameter, BadTarget, TooLarge, ZeroNorm
from .metrics import smallest_singular_value

DEFAULT_SUBSET_GUARD = 1_000_000
# eigenvalues this close (relative to the largest squared norm) are a tie that
# roundoff would otherwise decide; the first candidate among them wins
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SelectionResult:
    """Chosen index subset plus its certified smallest singular value."""

    subset: tuple[int, ...]
    certified_lower_bound: float
    method: str
    target_size: int
    normalization_applied: bool = False


def bt_guarantee_size(count: int, operator_norm: float, c: float) -> int:
    """floor(c * count / operator_norm^2): the subset size the selection guarantee promises.

    A quotient within 1e-9 (relative) of an integer counts as that integer, so
    the last bit of a computed norm (1 in exact arithmetic for tight frames and
    random frames with sigma_max = 1) cannot move the floor.
    """
    if count < 0:
        raise BadParameter("count must be nonnegative")
    if operator_norm <= 0:
        raise BadParameter("operator norm must be positive")
    if not 0.0 < c <= 1.0:
        raise BadParameter("c must lie in (0, 1]")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
        quotient = float(c * count / np.float64(operator_norm) ** 2)
    if not (math.isfinite(quotient) and operator_norm < math.inf):
        raise BadParameter(f"operator norm {operator_norm!r} gives no finite guarantee size")
    if abs(quotient - round(quotient)) <= 1e-9 * quotient:
        quotient = round(quotient)
    return int(math.floor(quotient))


def _validated_columns(system: VectorSystem, normalize: bool) -> np.ndarray:
    if not normalize:
        return system.columns
    norms = system.norms()
    if np.any(norms == 0.0):
        raise ZeroNorm("cannot normalize a zero column")
    return system.columns / norms


def _min_eig(gram: np.ndarray, idx: list[int]) -> float:
    sub = gram[np.ix_(idx, idx)]
    return float(np.linalg.eigvalsh(sub)[0])


def _first_tied_best(lams: np.ndarray, gram: np.ndarray) -> int:
    """Position of the first candidate whose eigenvalue ties the best one."""
    return _first_tie(lams, float(np.max(np.real(np.diagonal(gram)))))


def _first_tie(lams: np.ndarray, scale: float) -> int:
    """Position of the first value within TIE_RTOL * scale of the largest (scale = max diag)."""
    return int(np.argmax(lams >= lams.max() - TIE_RTOL * scale))


def _bordered_min_eigs(
    rows: np.ndarray, chosen: list[int], candidates: np.ndarray, diag: np.ndarray, scale: float
) -> np.ndarray:
    """Smallest eigenvalue of gram[chosen + [j]] for every candidate j at once.

    rows holds the Gram rows of the chosen indices, in the order chosen, and
    scale is max diag(gram).  With G_S = U diag(mu) U^H and z = U^H gram[chosen, j],
    that eigenvalue r is the root below mu_0 of the secular equation
    f(lam) = g_jj - lam - sum_i |z_i|^2 / (mu_i - lam) = 0 (Golub 1973); when z_0
    vanishes and no root lies below mu_0, r is mu_0 itself.

    In the eigenbasis of G_S the bordered block is [[diag(mu), z], [z^H, g_jj]],
    and diag(mu) >= mu_0 I in the Loewner order, so the block dominates
    [[mu_0 I, z], [z^H, g_jj]].  The smallest eigenvalue of that matrix is the
    smallest one of the 2x2 [[mu_0, |z|], [|z|, g_jj]] (the other eigenvalues
    are mu_0, on the vectors orthogonal to z), so
    lam_2 = min(mu_0, g_jj) - |z|^2 / (h + hypot(h, |z|)), h = |mu_0 - g_jj| / 2,
    is a lower bound of r; with interlacing, lam_2 <= r <= min(mu_0, g_jj).
    lam_2 is at least Weyl's min(mu_0, g_jj) - |z|, and equals r when one
    index is chosen.  Newton's method on (mu_0 - lam) f(lam), which is convex
    for lam < mu_0 and has no pole there, climbs from lam_2 to r without
    overshooting, so every iterate stays in the bracket; it stops once a step
    is below 4 eps * scale.

    Past the rank of the pool the chosen block is singular.  The bordered block
    is a Gram matrix, so every root lies in [0, min(mu_0, g_jj)]; once
    mu_0 <= TIE_RTOL/2 * max diag, all candidates tie under the TIE_RTOL rule,
    whatever the roots, and the first one wins.  That case skips Newton (which
    converges only linearly at a double eigenvalue near 0) and returns the
    bracket tops; the caller still certifies the winner with eigvalsh.

    rows may be float64 (a real pool) or complex128; the ranking runs in the
    arithmetic of rows.  Before the first pick every index is a candidate, and
    diag itself is returned.
    """
    if not chosen:
        return diag
    d = diag[candidates]
    mu, u = np.linalg.eigh(rows[:, chosen])
    hi = np.minimum(mu[0], d)
    if mu[0] <= 0.5 * TIE_RTOL * scale:
        return hi
    tol = 4.0 * np.finfo(float).eps * scale
    z = u.conj().T @ rows[:, candidates]
    w = np.real(z * z.conj())
    lam = _secular_start(mu[0], d, w.sum(axis=0))
    active = np.flatnonzero(hi - lam > tol)
    while active.size:
        x = lam[active]
        inv = 1.0 / (mu[:, None] - x)
        terms = w[:, active] * inv
        f = d[active] - x - terms.sum(axis=0)
        df = -1.0 - (terms * inv).sum(axis=0)
        gap = mu[0] - x
        step = gap * f / (f - gap * df)
        lam[active] = np.minimum(x + step, hi[active])
        # f <= 0 means x already reached r, up to roundoff
        active = active[(f > 0.0) & (step > tol) & (hi[active] - lam[active] > tol)]
    return lam


def _secular_start(mu_0: float, d: np.ndarray, sq_norms: np.ndarray) -> np.ndarray:
    """lambda_min of [[mu_0, |z|], [|z|, d]] for each d and |z|^2 in sq_norms.

    Written as min(mu_0, d) - |z|^2 / (h + hypot(h, |z|)), h = |mu_0 - d| / 2,
    which subtracts no two close numbers and never exceeds min(mu_0, d); a
    zero |z| (where h may be 0 too) gives min(mu_0, d).  hypot keeps the
    denominator finite where h^2 alone would overflow (h above about 1.3e154).
    """
    h = 0.5 * np.abs(mu_0 - d)
    denom = h + np.hypot(h, np.sqrt(sq_norms))
    drop = np.divide(sq_norms, denom, out=np.zeros_like(sq_norms), where=sq_norms > 0.0)
    return np.minimum(mu_0, d) - drop


def _gram_unit(top: float) -> float:
    """The even power of two s in which _greedy ranks a Gram of max diagonal top.

    s is exactly 1.0 while top lies in [2^-500, 2^500] (and for a zero or
    non-finite top), so such pools keep their bits.  Past that range top / s
    lies in [1, 4), so the squares |z|^2 of the ranking neither overflow nor
    underflow near the top, and sqrt(s) is a power of two, so bounds scale
    back without rounding.
    """
    if top == 0.0 or 2.0**-500 <= top <= 2.0**500 or not math.isfinite(top):
        return 1.0
    return math.ldexp(1.0, 2 * ((math.frexp(top)[1] - 1) // 2))


def _greedy(row, diag: np.ndarray, limit: int, stop_below: float | None, real: bool):
    """The greedy loop of greedy_order, reading the Gram only through row.

    row(j) returns row j of the Hermitian Gram matrix, and diag is its real
    diagonal.  A step reads only the rows of indices already picked, so the
    loop asks for one row per pick and never needs the whole Gram matrix.
    When real (the pool has no nonzero imaginary part), candidates are ranked
    in float64 off the real parts of those rows; the winner is always
    certified with eigvalsh of the complex128 rows.

    Ranking and certification run in units of s = _gram_unit(max diag): the
    rows are divided by s as they are stored, and each bound is multiplied
    back by sqrt(s).
    """
    m = diag.shape[0]
    limit = min(limit, m)
    chosen: list[int] = []
    taken = np.zeros(m, dtype=bool)
    bounds: list[float] = []
    rows = np.empty((limit, m), dtype=np.complex128)
    ranking = rows.real if real else rows
    top = float(np.max(diag, initial=0.0))
    unit = _gram_unit(top)
    root, scale, diag = math.sqrt(unit), top / unit, diag / unit
    while len(chosen) < limit:
        k = len(chosen)
        candidates = np.flatnonzero(~taken)
        lams = _bordered_min_eigs(ranking[:k], chosen, candidates, diag, scale)
        pick = _first_tie(lams, scale)
        best_j = int(candidates[pick])
        # part by part: complex division by unit + 0j turns -0.0 into 0.0 and inf into nan
        new = row(best_j)
        np.divide(new.real, unit, out=rows[k].real)
        np.divide(new.imag, unit, out=rows[k].imag)
        picked = chosen + [best_j]
        # the eigenvalue of a 1x1 block is its diagonal entry, exactly as eigvalsh gives it
        lam = float(np.linalg.eigvalsh(rows[: k + 1][:, picked])[0]) if chosen else lams[pick]
        bound = math.sqrt(max(lam, 0.0)) * root
        if stop_below is not None and bound < stop_below * (1.0 - TIE_RTOL):
            break
        chosen = picked
        taken[best_j] = True
        bounds.append(bound)
    return chosen, bounds


def greedy_order(gram: np.ndarray, limit: int, stop_below: float | None = None):
    """Greedy augmentation order maximizing sigma_min at every step.

    Returns (indices, bounds) where bounds[k] is sigma_min after k+1 picks.
    Stops early once the best achievable bound falls under
    stop_below * (1 - TIE_RTOL): the tie rule's relative slack, so that
    roundoff does not decide a stop where the bound equals stop_below in exact
    arithmetic (a unit residual against c = 1).  By eigenvalue interlacing
    the bounds sequence is nonincreasing, so the prefix kept is the largest
    one that clears this test.

    Each step ranks the candidates by a bordered-eigenvalue update of the
    chosen block (one eigh, see _bordered_min_eigs) and certifies only the
    winner, with eigvalsh of its Gram block.
    """
    return _greedy(gram.__getitem__, np.real(np.diagonal(gram)), limit, stop_below, _is_real(gram))


def select_greedy(
    system: VectorSystem, target_size: int, normalize: bool = False
) -> SelectionResult:
    """Grow the subset one index at a time, each time maximizing sigma_min.

    The Gram rows of the picks are computed from the columns as they are
    picked, so target_size * dim * count products replace the count x count
    Gram matrix.
    """
    if not 1 <= target_size <= system.count:
        raise BadTarget(f"target size must be in [1, {system.count}]")
    cols = _validated_columns(system, normalize)
    re, im = cols.real, cols.imag
    with np.errstate(over="ignore"):  # refused below, without a warning
        sq_norms = np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im)
    if not np.all(np.isfinite(sq_norms)):
        raise BadParameter("a squared column norm is not a finite double")
    real = _is_real(cols)
    chosen, _ = _greedy(lambda j: cols[:, j].conj() @ cols, sq_norms, target_size, None, real)
    bound = smallest_singular_value(cols[:, chosen])
    return SelectionResult(
        subset=tuple(sorted(chosen)),
        certified_lower_bound=bound,
        method="greedy",
        target_size=target_size,
        normalization_applied=normalize,
    )


def select_exhaustive(
    system: VectorSystem,
    target_size: int,
    max_subsets: int = DEFAULT_SUBSET_GUARD,
    normalize: bool = False,
) -> SelectionResult:
    """Exact optimum of sigma_min over all subsets of the target size."""
    m = system.count
    if not 1 <= target_size <= m:
        raise BadTarget(f"target size must be in [1, {m}]")
    n_subsets = math.comb(m, target_size)
    if not n_subsets <= max_subsets:  # also refuses NaN
        raise TooLarge(
            f"C({m}, {target_size}) = {n_subsets} exceeds the guard {max_subsets}"
        )
    cols = _validated_columns(system, normalize)
    g = gram(cols)
    if not np.all(np.isfinite(np.diagonal(g))):
        raise BadParameter("a squared column norm is not a finite double")
    combos = itertools.combinations(range(m), target_size)
    lams = np.fromiter((_min_eig(g, list(combo)) for combo in combos), float, n_subsets)
    # combinations come in lexicographic order, so the first tied subset wins
    pick = _first_tied_best(lams, g)
    best = next(itertools.islice(itertools.combinations(range(m), target_size), pick, None))
    bound = smallest_singular_value(cols[:, list(best)])
    return SelectionResult(
        subset=best,
        certified_lower_bound=bound,
        method="exhaustive",
        target_size=target_size,
        normalization_applied=normalize,
    )
